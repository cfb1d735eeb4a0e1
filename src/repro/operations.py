"""Every operation's parameters, declared once, and its one body.

One :class:`Param` per (operation, parameter): the wire name, the type,
the default, the allowed range or choices and, where ``nmslc`` has the
same option, its flag, metavar and help.  ``nmsld`` checks a request's
``params`` against the rows at admission (:func:`resolve`); ``nmslc``
builds the options it shares with the daemon from them, under the wire
names (:meth:`Param.option`), and fills in the rest from
:func:`defaults`, so both front ends hold the same ``args``.

:func:`analyze`, :func:`diff`, :func:`rollout` (gated by
:func:`rollout_gate`) and :func:`heal` are each op's one body, run by
both front ends on :class:`Revision` objects and returning the full
result for the front end to render.  Stdlib only at import.
"""

from __future__ import annotations

import json
import math
import operator
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

#: The output tags a compiler registers without extensions.
TAGS: Tuple[str, ...] = ("BartsSnmpd", "acl-table", "consistency", "osi")
DEFAULT_TAG = "BartsSnmpd"
#: The codes of the default analysis registry's passes.
ANALYSIS_CODES = ("NM101", "NM102", "NM103", "NM201", "NM202", "NM203",
                  "NM204", "NM301", "NM302")
#: Where every seeded campaign and simulation starts unless told.
DEFAULT_SEED = 1989
#: How many answers :func:`diff` keeps on a revision, oldest dropped.
KEPT_DIFFS = 4

#: What a value of each type must be, as a refusal says it.
_EXPECTED = {
    bool: "true or false", int: "an integer", float: "a number",
    str: "a non-empty string", list: "a list of non-empty strings",
}


def parts(text: str) -> Tuple[str, ...]:
    """The entries of a comma-separated list, blanks dropped."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _show(value) -> str:
    """A value as a refusal quotes it: JSON, cut short."""
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= 40 else text[:37] + "..."


@dataclass(frozen=True)
class Param:
    """One parameter of one operation."""

    name: str
    type: type  # bool, int, float, str, or list (of strings)
    default: object = None  # what an absent parameter reads as
    help: str = ""  # nmslc help, a str.format template over ``default``
    flag: Optional[str] = None
    metavar: Optional[str] = None
    #: The allowed values; of a list, or a listed string, each entry's.
    choices: Tuple[str, ...] = ()
    #: A comma-separated string, read as the tuple of its parts.
    listed: bool = False
    positive: bool = False  # numbers > 0, lists non-empty
    required: bool = False
    #: Given, this parameter stands in for the required one it names.
    replaces: Optional[str] = None
    #: The default as the handlers read it, checked once, here.
    checked_default: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        checked = None if self.default is None else self.check("", self.default)
        object.__setattr__(self, "checked_default", checked)

    def check(self, op: str, value):
        """*value* as the handlers read it; ValueError if it does not fit."""
        where = f"{op}: params.{self.name}"
        if not self._fits(value):
            raise ValueError(
                f"{where} must be {_EXPECTED[self.type]}, got {_show(value)}"
            )
        if self.positive and not (value if self.type is list else value > 0):
            wanted = "non-empty" if self.type is list else "positive"
            raise ValueError(f"{where} must be {wanted}, got {_show(value)}")
        if self.listed:
            value = parts(value)
        for part in value if isinstance(value, (list, tuple)) else (value,):
            if self.choices and part not in self.choices:
                raise ValueError(
                    f"{where} must be one of {', '.join(self.choices)}, "
                    f"got {_show(part)}"
                )
        return float(value) if self.type is float else value

    def _fits(self, value) -> bool:
        if self.type is bool or isinstance(value, bool):
            return self.type is bool and isinstance(value, bool)
        if self.type is float:
            return isinstance(value, (int, float)) and math.isfinite(value)
        if self.type is list:
            return isinstance(value, list) and all(
                isinstance(item, str) and item for item in value
            )
        return isinstance(value, self.type) and value != ""

    def option(self) -> dict:
        """``argparse`` keywords for this row's ``nmslc`` option."""
        text = self.help.format(default=self.default)
        if self.type is bool:
            return {"action": "store_true", "dest": self.name, "help": text}
        option = {"dest": self.name, "default": self.default,
                  "metavar": self.metavar, "help": text}
        if self.listed:
            option["type"] = parts
        elif self.type in (int, float):
            option["type"] = self.type
        if self.choices and not self.listed:
            option["choices"] = self.choices
        return option


def _op(*rows: Param) -> Dict[str, Param]:
    return {row.name: row for row in rows}


def _tag(verb: str) -> Param:
    return Param("tag", str, DEFAULT_TAG, f"configuration output type to "
                 f"{verb} (default: {{default}})", "--output", "TAG",
                 choices=TAGS)


_SPEC = Param("spec", str, required=True)
#: What ``rollout`` and ``heal`` both drive: one delivery campaign.
_CAMPAIGN = (
    Param("max_attempts", int, 5, "delivery attempts per element before "
          "dead-lettering (default: {default})", "--max-attempts", "N",
          positive=True),
    Param("timeout_s", float, 2.0, "per-exchange deadline in logical "
          "seconds (default: {default})", "--timeout", "SECONDS",
          positive=True),
    Param("jobs", int, 4, "bounded in-flight concurrency (default: "
          "{default})", "--jobs", "N", positive=True),
    Param("seed", int, DEFAULT_SEED, "seed for backoff jitter and chaos "
          "injection (default: {default})", "--seed", "N"),
)
_ELEMENTS = Param("elements", list)

#: op -> its parameters by name, in declaration order.
OPERATIONS: Dict[str, Dict[str, Param]] = {
    "ping": _op(),
    "status": _op(),
    "slo": _op(),
    "compile": _op(_SPEC),
    "check": _op(_SPEC, Param(
        "capacity", bool, False,
        "also warn about elements likely to be swamped", "--capacity")),
    "analyze": _op(
        _SPEC,
        Param("specs", list, positive=True, replaces="spec"),
        Param("select", list, choices=ANALYSIS_CODES),
    ),
    "diff": _op(
        Param("old", str, required=True),
        Param("new", str, required=True),
        Param("output", str, DEFAULT_TAG, "comma-separated configuration "
              "output tags to fingerprint for byte-wise change detection "
              "(default: {default})", "--output", "TAGS", choices=TAGS,
              listed=True),
        Param("waiver", str, None, "waiver file of explicitly approved "
              "findings (same format as an analysis baseline, tool "
              "'nmslc-diff'); waived findings are reported but never fail "
              "the run", "--waiver", "FILE"),
    ),
    "rollout": _op(
        _SPEC, _tag("roll out"), *_CAMPAIGN,
        Param("chunk_size", int, 1024, "staging chunk size per Set "
              "(default: {default})", "--chunk-size", "OCTETS",
              positive=True),
        _ELEMENTS,
        Param("baseline_install", bool, False, "direct-install the "
              "configuration first so every agent has a last-known-good to "
              "roll back to (simulates a brownfield campus)",
              "--baseline-install"),
        Param("diff_base", str, None, "previously shipped specification "
              "revision; the campaign stages only elements impacted by the "
              "delta and refuses to ship unwaived access widenings (NM401)",
              "--diff-base", "FILE"),
        Param("waiver", str, None, "waiver file of approved relational "
              "findings (see nmslc diff --update-waiver); only used with "
              "--diff-base", "--waiver", "FILE"),
    ),
    "heal": _op(
        _SPEC, _tag("reconcile"), *_CAMPAIGN, _ELEMENTS,
        Param("rounds", int, 10, "reconciliation round budget (default: "
              "{default})", "--rounds", "N", positive=True),
        Param("interval_s", float, 30.0, "logical seconds between rounds "
              "(default: {default:g})", "--interval", "SECONDS",
              positive=True),
        Param("install", bool, False, "direct-install the configuration "
              "first (otherwise round 1 treats every element as drifted "
              "and converges by re-driving)", "--install"),
    ),
}


def defaults(op: str) -> Dict[str, object]:
    """Every parameter of *op* as an absent one reads."""
    return {name: row.default for name, row in OPERATIONS[op].items()}


def resolve(op: str, params: dict) -> Dict[str, object]:
    """*params* checked against *op*'s rows, every default filled in.

    ValueError, naming the op and the parameter, for an undeclared key,
    a missing required one, a wrong type, an out-of-range value or a
    choice not on the list.
    """
    rows = OPERATIONS[op]
    for name in params:
        if name not in rows:
            raise ValueError(
                f"{op}: params.{_show(name)[1:-1]} is not a parameter of "
                f"{op} (it takes: {', '.join(sorted(rows)) or 'none'})"
            )
    resolved = {}
    for name, row in rows.items():
        if name in params:
            resolved[name] = row.check(op, params[name])
        elif row.required and not any(
            other.replaces == name and other.name in params
            for other in rows.values()
        ):
            raise ValueError(f"{op}: params.{name} is required")
        else:
            resolved[name] = row.checked_default
    return resolved


def campaign(args: Mapping[str, object]) -> Dict[str, object]:
    """``ManagementRuntime.rollout``/``heal`` keywords from a campaign's
    values by wire name (``nmsld``'s resolved args, or ``vars()`` of
    ``nmslc``'s); ``nmsld``'s ``heal`` has no ``chunk_size`` to pass."""
    from repro.rollout import RetryPolicy

    taken_as_is = ("tag", "jobs", "seed", "chunk_size")
    keywords = {name: args[name] for name in taken_as_is if name in args}
    keywords["policy"] = RetryPolicy(max_attempts=args["max_attempts"],
                                     timeout_s=args["timeout_s"])
    return keywords


class Revision:
    """One compiled specification, as the op bodies read it.

    ``nmslc`` makes one per spec file it compiles; ``nmsld``'s cached
    ``SpecSession`` is one that outlives its request.  The checker and
    the simulated runtime are built on first use, under ``lock``, which
    also serialises the engines' stateful work.  ``findings`` keeps
    each analysis pass's findings by pass code, with the checker
    ``version`` they were computed under (:func:`analyze`); ``diffs``
    the last :data:`KEPT_DIFFS` answers of a :func:`diff` from it.
    """

    def __init__(self, compiler, result):
        self.compiler = compiler
        self.result = result
        self.lock = threading.RLock()
        self.findings: Dict[str, Tuple[object, Tuple]] = {}
        self.diffs: List[Tuple] = []
        self._checker = None
        self._runtime = None

    @property
    def checker(self):
        from repro.consistency.checker import ConsistencyChecker

        with self.lock:
            if self._checker is None:
                self._checker = ConsistencyChecker(
                    self.result.specification, self.compiler.tree
                )
            return self._checker

    @property
    def runtime(self):
        from repro.netsim.processes import ManagementRuntime

        with self.lock:
            if self._runtime is None:
                self._runtime = ManagementRuntime(self.compiler, self.result)
            return self._runtime


def _staleness(*specs):
    """The staleness keys (DESIGN.md §3.1) of *specs*: their tables and
    the items of their extension lists, to compare by identity, and the
    tables' revisions and the lists' lengths, to compare by value."""
    from itertools import chain

    from repro.nmsl.specs import TABLES

    tables = [getattr(spec, name) for spec in specs for name in TABLES]
    lists = [items for spec in specs for items in chain(
        spec.extras.values(), spec.extension_clauses.values())]
    return ([*tables, *chain.from_iterable(lists)],
            [*(table.revision for table in tables), *map(len, lists)])


def analyze(revisions, args, deadline=None):
    """``analyze``: the static analysis of each of *revisions*, merged
    in order into one ``AnalysisReport``, and the number of passes run
    to answer it.  The passes read the fact set of the revision's
    checker, which ``nmsld`` keeps warm.  A pass's findings are kept on
    the revision under the checker's ``version`` and reused while the
    staleness key (DESIGN.md §3.1) holds, so a warm answer costs the
    key and its findings.  *deadline* is polled before each pass that
    runs; an abandoned analyze keeps the passes it finished."""
    import dataclasses

    from repro.analysis import AnalysisReport, default_registry
    from repro.analysis.registry import collate
    from repro.deadline import Deadline

    passes = default_registry().passes(
        tuple(args["select"]) if args["select"] else None
    )
    merged = AnalysisReport()
    ran = 0
    for revision in revisions:
        with revision.lock:
            checker = revision.checker
            checker.facts  # re-takes the staleness key
            # The key guards the specification the checker holds; one
            # rechecked to another reuses nothing.
            version = (
                checker.version
                if checker.specification is revision.result.specification
                else object()
            )
            context = dataclasses.replace(
                revision.compiler.analysis_context(revision.result),
                checker=checker,
            )
            findings = revision.findings
            for analysis_pass in passes:
                kept = findings.get(analysis_pass.code)
                if kept is None or kept[0] is not version:
                    Deadline.poll(deadline, f"analysis.{analysis_pass.code}")
                    findings[analysis_pass.code] = (
                        version,
                        tuple(analysis_pass.run(analysis_pass, context)),
                    )
                    ran += 1
            merged = merged.merged_with(collate(
                diagnostic
                for analysis_pass in passes
                for diagnostic in findings[analysis_pass.code][1]
            ))
    return merged, ran


def diff(old, new, args, config_scope="impacted", deadline=None):
    """``diff``: the relational verdict on evolving revision *old* into
    *new* — ``(ImpactSet, AnalysisReport)``, the NM4xx report with the
    ``waiver`` file applied.  The baseline is a fork of *old*'s checker,
    which ``nmsld`` keeps checked and which the diff leaves as it was.
    The configurations of the ``output`` tags are fingerprinted over
    *config_scope* (``"full"``: every element).

    The unwaived answer is kept on *old* under its checker ``version``,
    both specifications' staleness keys (DESIGN.md §3.1), the tags and
    the scope, and returned again, with ``facts_expanded`` 0, while all
    of them hold; the waiver is read on every call.  Only *old* is
    locked."""
    import dataclasses

    from repro.analysis import Waiver, check_revisions

    spec = new.result.specification
    objects, values = _staleness(old.result.specification, spec)
    values = (values, tuple(args["output"]), config_scope)
    with old.lock:
        checker = old.checker
        # A checker rechecked to another specification matches nothing.
        version = (checker.version
                   if checker.specification is old.result.specification
                   else object())
        for kept_version, kept, kept_values, impact, report in old.diffs:
            if (kept_version is version and kept_values == values
                    and all(map(operator.is_, kept, objects))):
                impact = dataclasses.replace(
                    impact, stats={**impact.stats, "facts_expanded": 0}
                )
                break
        else:
            impact, report = check_revisions(
                old.compiler.tree, checker, spec, tags=args["output"],
                config_scope=config_scope, deadline=deadline,
                registry=new.compiler.registry,
                clause_actions=new.compiler.clause_actions,
            )
            entry = (checker.version, objects, values, impact, report)
            old.diffs = [*old.diffs, entry][-KEPT_DIFFS:]
    if args["waiver"] and Path(args["waiver"]).exists():
        report = Waiver.load(args["waiver"]).apply(report)
    return impact, report


def rollout_gate(revision, args, load):
    """The relational gate on rolling *revision* out, and its NM4xx
    report: the delta from the ``diff_base`` spec, which *load* turns
    into a revision, with the ``waiver`` file applied.  ``(None, None)``
    when there is no ``diff_base``."""
    from repro.rollout import RolloutGate

    if args["diff_base"] is None:
        return None, None
    impact, report = diff(
        load(args["diff_base"]), revision,
        {"output": (args["tag"],), "waiver": args["waiver"]},
    )
    return RolloutGate.from_impact(impact, report), report


def _campaign(revision, args, install):
    """*revision*'s simulated runtime, installed directly first when
    ``args[install]``, and the ``ManagementRuntime`` keywords of the
    campaign *args* describe: its targets narrowed to the ``elements``
    claim when there is one."""
    runtime = revision.runtime
    if args[install]:
        runtime.install_configuration(tag=args["tag"])
    keywords = campaign(args)
    if args["elements"] is not None:
        claim = set(args["elements"])
        with revision.lock:
            targets = runtime.rollout_targets(args["tag"])
        keywords["configs"] = {
            target: text
            for target, text in targets.items()
            if target.partition("/")[0] in claim
        }
    return runtime, keywords


def rollout(revision, args, **keywords):
    """``rollout``: the campaign *args* describe, on *revision*'s
    simulated runtime (after a ``baseline_install``); returns the
    ``RolloutReport``.  *keywords* go to ``ManagementRuntime.rollout``:
    the gate (a refusing one raises ``RolloutVetoed`` before anything is
    staged), a journal to write or resume from, the chaos injector, the
    deadline."""
    runtime, delivery = _campaign(revision, args, "baseline_install")
    return runtime.rollout(**delivery, **keywords)


def heal(revision, args, resume_from=None, injector=None, **keywords):
    """``heal``: reconcile *revision*'s simulated runtime to its
    configuration (after an ``install``); returns the ``HealReport``.
    *resume_from*, a rollout journal, is an interrupted campaign to
    finish first.  *keywords* go to ``ManagementRuntime.heal``: the
    breaker registry, the deadline."""
    runtime, delivery = _campaign(revision, args, "install")
    delivery["injector"] = injector
    if resume_from is not None:
        runtime.rollout(**delivery, resume_from=resume_from)
    return runtime.heal(
        **delivery, interval_s=args["interval_s"], rounds=args["rounds"],
        **keywords,
    )
