"""The metric catalogue: docs/OBSERVABILITY.md names every metric.

An ``ast`` scan of ``src/repro`` collects the string-literal names handed
to ``.counter``/``.gauge``/``.histogram`` (and to the checker's
``_flush_counter``, which hands its name on to ``.counter``).  Every one
must be a row of the doc's metric tables, and every ``repro_*`` name the
doc spells anywhere must be one of them, so neither side can drift.
Brace forms (``repro_rollout_{timeouts,retransmissions}_total``) expand.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DOC = ROOT / "docs" / "OBSERVABILITY.md"

REGISTRARS = {"counter", "gauge", "histogram"}
#: Helpers that take a metric name and hand it on to a registrar.
FORWARDERS = {"_flush_counter"}
#: The only places a registrar is called with a computed name: the
#: facade's own methods and the forwarders, each handing a name on.
COMPUTED_NAME_SITES = {"obs/observability.py", "consistency/checker.py"}


def _called(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return getattr(func, "id", "")


def registered_names():
    """``{name: [site, ...]}`` and the sites that register a computed name."""
    names, computed = {}, set()
    package = ROOT / "src" / "repro"
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            called = _called(node)
            if called not in REGISTRARS | FORWARDERS or not node.args:
                continue
            literals = [
                arg.value
                for arg in node.args
                if isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and arg.value.startswith("repro_")
            ]
            for name in literals:
                names.setdefault(name, []).append(f"{relative}:{node.lineno}")
            if called in REGISTRARS and not literals:
                computed.add(relative)
    return names, computed


def expand(token: str):
    """``a_{b,c}_d`` -> ``a_b_d``, ``a_c_d`` (any number of braces)."""
    match = re.search(r"\{([^}]*)\}", token)
    if match is None:
        return [token]
    return [
        name
        for choice in match.group(1).split(",")
        for name in expand(
            token[: match.start()] + choice + token[match.end():]
        )
    ]


def _spelled(text: str):
    """Full metric names in backticks; a prefix (``repro_service_*``,
    ``repro_<subsystem>_<name>``) is not a name."""
    return {
        name
        for token in re.findall(r"`(repro_[a-z0-9_{},]*)", text)
        if not token.endswith("_")
        for name in expand(token)
    }


def catalogue():
    """The names in the doc's table rows, and every name it spells."""
    text = DOC.read_text(encoding="utf-8")
    rows = "\n".join(
        line for line in text.splitlines() if line.startswith("| `repro_")
    )
    return _spelled(rows), _spelled(text)


def test_expand_reads_every_brace():
    assert expand("repro_rollout_{retries,timeouts}_total") == [
        "repro_rollout_retries_total",
        "repro_rollout_timeouts_total",
    ]
    assert expand("repro_{a,b}_{c,d}") == [
        "repro_a_c", "repro_a_d", "repro_b_c", "repro_b_d",
    ]


def test_every_registered_metric_is_catalogued():
    names, _computed = registered_names()
    rows, _spelled_anywhere = catalogue()
    missing = {
        name: sites for name, sites in sorted(names.items())
        if name not in rows
    }
    assert not missing, f"registered but not in a docs table: {missing}"


def test_every_documented_metric_is_registered():
    names, _computed = registered_names()
    _rows, spelled = catalogue()
    assert not spelled - set(names), sorted(spelled - set(names))


def test_metric_names_are_literals():
    # A computed name elsewhere would escape both checks above.
    names, computed = registered_names()
    assert computed == COMPUTED_NAME_SITES
    assert len(names) >= 45
