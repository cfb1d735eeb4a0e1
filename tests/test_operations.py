"""The one declaration of every operation's parameters.

:mod:`repro.operations` is read by ``nmsld`` (admission and the
handlers), by ``nmslc`` (the options it shares with the daemon) and by
``ManagementRuntime`` (campaign defaults).  These tests hold each reader,
and ``docs/SERVICE.md``, to it.
"""

import json
import re
from pathlib import Path

import pytest

from repro import cli, operations
from repro.netsim.processes import ManagementRuntime
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.operations import OPERATIONS, Param, resolve
from repro.service.protocol import OPS

REPO_ROOT = Path(__file__).resolve().parents[1]

#: op -> (the nmslc parser sharing its options, positional arguments).
PARSERS = {
    "check": (cli.build_parser, ["spec.nmsl"]),
    "diff": (cli.build_diff_parser, ["old.nmsl", "new.nmsl"]),
    "rollout": (cli.build_rollout_parser, ["spec.nmsl"]),
    "heal": (cli.build_heal_parser, ["spec.nmsl"]),
}


class TestDeclaration:
    def test_one_entry_per_protocol_op(self):
        assert sorted(OPERATIONS) == sorted(OPS)

    def test_tags_are_the_registered_outputs(self):
        compiler = NmslCompiler(CompilerOptions())
        assert set(operations.TAGS) == set(compiler.registry.tags())

    def test_analysis_codes_are_the_default_registry(self):
        from repro.analysis import default_registry

        codes = [rule.code for rule in default_registry().passes()]
        assert list(operations.ANALYSIS_CODES) == codes

    def test_a_bad_default_fails_at_declaration(self):
        with pytest.raises(ValueError):
            Param("jobs", int, 0, positive=True)

    def test_rows_are_keyed_by_their_names(self):
        for rows in OPERATIONS.values():
            assert all(name == row.name for name, row in rows.items())

    def test_every_flag_belongs_to_a_subcommand(self):
        flagged = {op for op, rows in OPERATIONS.items()
                   if any(row.flag for row in rows.values())}
        assert flagged == set(PARSERS)


class TestResolve:
    def test_absent_parameters_read_as_their_defaults(self):
        args = resolve("heal", {"spec": "s.nmsl"})
        assert args == {**operations.defaults("heal"), "spec": "s.nmsl"}
        assert resolve("diff", {"old": "a", "new": "b"})["output"] == (
            "BartsSnmpd",
        )

    def test_given_values_are_typed(self):
        args = resolve(
            "rollout",
            {"spec": "s", "timeout_s": 3, "elements": ["a"], "jobs": 2},
        )
        assert args["timeout_s"] == 3.0 and isinstance(args["timeout_s"], float)
        assert args["elements"] == ["a"] and args["jobs"] == 2
        assert resolve(
            "diff", {"old": "a", "new": "b", "output": "osi, acl-table,"}
        )["output"] == ("osi", "acl-table")

    @pytest.mark.parametrize(
        "op, params, message",
        [
            ("ping", {"pad": 1}, "ping: params.pad is not a parameter of ping"),
            ("check", {}, "check: params.spec is required"),
            ("check", {"spec": ""}, "check: params.spec must be a non-empty"),
            ("check", {"spec": "s", "capacity": 1},
             "check: params.capacity must be true or false, got 1"),
            ("rollout", {"spec": "s", "jobs": True},
             "rollout: params.jobs must be an integer, got true"),
            ("rollout", {"spec": "s", "jobs": 2.0},
             "rollout: params.jobs must be an integer, got 2.0"),
            ("rollout", {"spec": "s", "timeout_s": 0},
             "rollout: params.timeout_s must be positive, got 0"),
            ("rollout", {"spec": "s", "timeout_s": float("nan")},
             "rollout: params.timeout_s must be a number, got NaN"),
            ("rollout", {"spec": "s", "elements": ["a", 1]},
             "rollout: params.elements must be a list of non-empty strings"),
            ("heal", {"spec": "s", "tag": "osi "},
             'heal: params.tag must be one of BartsSnmpd, acl-table, '
             'consistency, osi, got "osi "'),
            ("diff", {"old": "a", "new": "b", "output": "osi,nope"},
             'diff: params.output must be one of BartsSnmpd, acl-table, '
             'consistency, osi, got "nope"'),
            ("analyze", {"specs": []},
             "analyze: params.specs must be non-empty, got []"),
            ("analyze", {"spec": "s", "select": ["NM201", "NM999"]},
             'analyze: params.select must be one of NM101, '),
            ("heal", {"spec": "s", "chunk_size": 512},
             "heal: params.chunk_size is not a parameter of heal"),
        ],
    )
    def test_refusals_name_the_op_and_the_parameter(self, op, params, message):
        with pytest.raises(ValueError) as refused:
            resolve(op, params)
        assert str(refused.value).startswith(message)

    def test_a_replacement_satisfies_the_required_parameter(self):
        args = resolve("analyze", {"specs": ["a", "b"]})
        assert args["specs"] == ["a", "b"] and args["spec"] is None

    def test_long_values_are_cut_short_in_the_refusal(self):
        with pytest.raises(ValueError) as refused:
            resolve("check", {"spec": "s", "x" * 1000: 1})
        assert len(str(refused.value)) < 200


class TestNmslc:
    @pytest.mark.parametrize(
        "op, row",
        [
            (op, row)
            for op, rows in OPERATIONS.items()
            for row in rows.values()
            if row.flag
        ],
        ids=lambda value: getattr(value, "name", value),
    )
    def test_option_defaults_are_the_declared_ones(self, op, row):
        build, positionals = PARSERS[op]
        args = build().parse_args(positionals)
        bare = {"old": "a", "new": "b"} if op == "diff" else {"spec": "s"}
        assert getattr(args, row.name) == resolve(op, bare)[row.name]

    def test_choices_come_from_the_row(self):
        parser = cli.build_rollout_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["spec.nmsl", "--output", "NoSuchTag"])
        assert parser.parse_args(
            ["spec.nmsl", "--output", "osi"]
        ).tag == "osi"

    @pytest.mark.parametrize("op", ["rollout", "heal"])
    def test_campaign_keywords_are_the_daemons(self, op):
        """``nmslc`` and ``nmsld`` build one campaign from one set of
        values; only ``nmslc heal`` adds a chunk size."""
        argv = ["spec.nmsl", "--output", "osi", "--jobs", "2",
                "--max-attempts", "3", "--timeout", "0.5", "--seed", "7"]
        nmslc = operations.campaign(vars(PARSERS[op][0]().parse_args(argv)))
        nmsld = operations.campaign(resolve(op, {
            "spec": "spec.nmsl", "tag": "osi", "jobs": 2, "max_attempts": 3,
            "timeout_s": 0.5, "seed": 7,
        }))
        assert nmslc == dict(nmsld, chunk_size=1024)
        assert ("chunk_size" in nmsld) == (op == "rollout")


class TestManagementRuntime:
    def test_campaign_defaults_are_the_declared_ones(self):
        import inspect

        for op in ("rollout", "heal"):
            signature = inspect.signature(getattr(ManagementRuntime, op))
            declared = operations.defaults(op)
            for name, parameter in signature.parameters.items():
                if name in declared:
                    assert parameter.default == declared[name], (op, name)
        heal = inspect.signature(ManagementRuntime.heal)
        assert heal.parameters["chunk_size"].default == (
            operations.defaults("rollout")["chunk_size"]
        )


def test_no_hand_read_params_in_the_handlers():
    source = (REPO_ROOT / "src/repro/service/handlers.py").read_text()
    assert not re.search(r"params\.get\(|int\(params|float\(params", source)


# ----------------------------------------------------------------------
# docs/SERVICE.md's parameter table is this declaration, rendered.
# ----------------------------------------------------------------------
_TYPE = {
    bool: "boolean",
    int: "integer",
    float: "number",
    str: "string",
    list: "list of strings",
}


def _doc_row(op: str, row: Param) -> str:
    if row.required:
        default = "required"
    elif row.replaces:
        default = f"— (replaces `{row.replaces}`)"
    elif row.default is None:
        default = "—"
    else:
        default = f"`{json.dumps(row.default)}`"
    allowed = []
    if row.positive:
        allowed.append("non-empty" if row.type is list else "> 0")
    if row.choices:
        allowed.append(", ".join(f"`{choice}`" for choice in row.choices))
    kind = "comma-separated string" if row.listed else _TYPE[row.type]
    flag = f"`{row.flag}`" if row.flag else ""
    return (
        f"| `{op}` | `{row.name}` | {kind} | {default} | "
        f"{'; '.join(allowed)} | {flag} |"
    )


def declared_table() -> str:
    return "\n".join(
        ["| op | param | type | default | allowed | `nmslc` |",
         "|---|---|---|---|---|---|"]
        + [
            _doc_row(op, row)
            for op, rows in OPERATIONS.items()
            for row in rows.values()
        ]
    )


def flag_table(op: str) -> str:
    """The ``nmslc`` options *op* shares with ``nmsld``, as the campaign
    docs list them."""
    def shown(default):
        if default is None:
            return "—"
        return "off" if default is False else f"`{default}`"

    return "\n".join(
        [f"| `nmslc {op}` | `nmsld` parameter | default |", "|---|---|---|"]
        + [
            f"| `{row.flag}` | `{row.name}` | {shown(row.default)} |"
            for row in OPERATIONS[op].values()
            if row.flag
        ]
    )


@pytest.mark.parametrize(
    "op, doc", [("rollout", "docs/ROLLOUT.md"), ("heal", "docs/HEALING.md")]
)
def test_campaign_docs_list_the_declared_flags(op, doc):
    text = (REPO_ROOT / doc).read_text(encoding="utf-8")
    assert flag_table(op) in text, f"paste flag_table({op!r}) into {doc}"


def test_service_doc_parameter_table_is_the_declaration():
    doc = (REPO_ROOT / "docs/SERVICE.md").read_text(encoding="utf-8")
    assert declared_table() in doc, (
        "docs/SERVICE.md's parameter table differs from repro.operations; "
        "paste tests.test_operations.declared_table() over it"
    )
