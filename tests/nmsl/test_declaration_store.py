"""A compile into a declaration store equals a cold compile.

Given a :class:`~repro.nmsl.semantics.DeclarationStore`, a compile takes
each ``process``, ``system`` and ``domain`` declaration whose exact text
the store holds the build of, instead of building it again, and the
positions inside a declaration are kept relative to its start.  These
tests hold a compile of T2, into a store that already holds T1's
declarations, to a cold compile of T2 on what the front ends show: the
resolved locations (``Specification.starts`` and the relative positions
under it), ``order``, errors and warnings in strict and lax modes,
``analyze`` JSON and SARIF, and the check report.  While they run, an
assignment to an attribute of any of T1's declaration objects raises.
"""

import gc
import sys
import threading
import weakref
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from types import FunctionType

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs, operations
from repro.analysis import default_registry
from repro.analysis.render import render_json, render_sarif
from repro.consistency.checker import ConsistencyChecker
from repro.errors import ReproError
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.nmsl.extension import parse_extension
from repro.nmsl.generic import GenericParser
from repro.nmsl.semantics import DeclarationStore
from repro.nmsl.specs import (
    DomainSpec,
    ExportSpec,
    InterfaceSpec,
    ProcessInvocation,
    ProcessSpec,
    ProxySpec,
    QuerySpec,
    SystemSpec,
)
from repro.service.handlers import SpecCache
from repro.workloads.generator import SyntheticInternet
from repro.workloads.paper import PaperScaleInternet, PaperScaleParameters
from tests.corpus import BILLING_EXTENSION, billed_campus, corpus

EXAMPLES = Path(__file__).parents[2] / "examples"

BILLING = parse_extension(BILLING_EXTENSION)
#: Another keyword table: ``billing`` valid in systems too.
BILLING_SYSTEMS = parse_extension(
    BILLING_EXTENSION.replace("in process, domain", "in process, system, domain")
)

#: Continuation keywords that split clauses the base language builds
#: clean: an interface's type, a frequency's unit.
SPLIT = parse_extension(
    "extension split;\n"
    "keyword ethernet-csmacd in system continues;\n"
    "keyword minutes in process, domain continues;\n"
)

#: A type later declarations' paths resolve against: the second reads
#: the first's parse of the same clause text.
TYPED = (
    "type myT ::= SEQUENCE OF INTEGER; end type myT.\n"
    "process usesMyT ::= supports myT; end process usesMyT.\n"
    "process alsoMyT ::= supports myT; end process alsoMyT.\n"
)

ADDED = (
    "process addedAgent ::=\n    supports mgmt.mib.system;\n"
    "end process addedAgent.\n"
)


def _paper(n_domains):
    return PaperScaleInternet(
        PaperScaleParameters(n_domains=n_domains, hub_count=2, seed=7,
                             silent_domains=(1,))
    ).text()


CAMPUS = (EXAMPLES / "campus.nmsl").read_text(encoding="utf-8")

#: (label, text, extensions) of every base revision drawn: the examples,
#: one with an error in a declaration that still enters its table, one
#: with extension clauses, generated internets and part of the corpus.
BASES = [
    ("campus", CAMPUS, ()),
    ("paper", (EXAMPLES / "paper_internet.nmsl").read_text(encoding="utf-8"), ()),
    ("broken", CAMPUS.replace("supports mgmt.mib", "supports mgmt.mib.nosuch", 1), ()),
    ("billed", billed_campus(), (BILLING,)),
    ("paper-6", _paper(6), ()),
    *(
        (f"corpus-{index}", SyntheticInternet(parameters).text(), ())
        for index, parameters in enumerate(corpus()[:6])
    ),
]

#: Every class a built declaration is made of.
DECLARATION_CLASSES = (
    ProcessSpec, SystemSpec, DomainSpec, ExportSpec, QuerySpec, ProxySpec,
    InterfaceSpec, ProcessInvocation,
)


def declaration_objects(specification):
    for table in (specification.processes, specification.systems,
                  specification.domains):
        for spec in table.values():
            yield spec
            for name in ("exports", "queries", "proxies", "interfaces",
                         "processes"):
                yield from getattr(spec, name, ())


@contextmanager
def frozen(specification):
    """Assignment to an attribute of *specification*'s declarations (and
    of the clause objects in them) raises inside the block: what a store
    shares must never be written in place.  A fingerprint cached in the
    instance ``__dict__`` is not an attribute assignment."""
    held = {id(obj) for obj in declaration_objects(specification)}

    def refuse(self, name, *value):
        if id(self) in held:
            raise AttributeError(
                f"{type(self).__name__}.{name} of a shared declaration "
                "written in place"
            )
        if value:
            object.__setattr__(self, name, *value)
        else:
            object.__delattr__(self, name)

    for cls in DECLARATION_CLASSES:
        cls.__setattr__ = cls.__delattr__ = refuse
    try:
        yield
    finally:
        for cls in DECLARATION_CLASSES:
            del cls.__setattr__, cls.__delattr__


def blocks(text):
    """(start, end) of each declaration of *text*."""
    parser = GenericParser(text, spans=True)
    found = []
    while not parser.at_end():
        start = parser.cursor.start
        found.append((start, start + parser.parse_declaration().span[0]))
    return found


def compiler(filename, extensions=()):
    return NmslCompiler(
        CompilerOptions(filename=filename, extensions=tuple(extensions))
    )


def outcome(text, filename, extensions, store=None):
    """What the front ends show of *text*: a strict and a lax compile,
    and, when the lax one is clean, its analysis and check report."""
    shown, result = [], None
    for strict in (True, False):
        revision = compiler(filename, extensions)
        try:
            result = revision.compile(text, strict=strict, store=store)
        except ReproError as exc:
            shown.append((type(exc).__name__, str(exc)))
            continue
        report = result.report
        shown.append((
            result.order, result.specification,
            [str(error) for error in report.errors], report.warnings,
        ))
    if result is None or result.report.errors:
        return shown
    report, _ran = operations.analyze(
        [operations.Revision(revision, result)],
        operations.defaults("analyze"),
    )
    checked = ConsistencyChecker(result.specification, revision.tree).check()
    return shown + [
        render_json(report),
        render_sarif(report, default_registry().passes()),
        checked.render(),
    ]


# ----------------------------------------------------------------------
# Edits: each takes a base text and a draw, and returns (T1, T2) with
# their file names and extensions.
# ----------------------------------------------------------------------
def _pick(draw, text):
    return draw(st.sampled_from(blocks(text)))


def shift(draw, text, extensions):
    """Blank lines ahead of a declaration, in a renamed file."""
    start, _end = _pick(draw, text)
    lines = "\n" * draw(st.integers(1, 3))
    return text, text[:start] + lines + text[start:], "two.nmsl", extensions


def add(draw, text, extensions):
    start, _end = _pick(draw, text)
    return text, text[:start] + ADDED + text[start:], "one.nmsl", extensions


def remove(draw, text, extensions):
    start, end = _pick(draw, text)
    return text, text[:start] + text[end:], "one.nmsl", extensions


def change(draw, text, extensions):
    """One declaration rewritten: a path widened, or a clause moved down
    a line (the same declaration, its positions shifted)."""
    start, end = _pick(draw, text)
    block = text[start:end]
    if "mgmt.mib.system" in block and draw(st.booleans()):
        block = block.replace("mgmt.mib.system", "mgmt.mib.ip", 1)
    else:
        block = block.replace("::=", "::=\n", 1)
    return text, text[:start] + block + text[end:], "one.nmsl", extensions


def drop_type(draw, text, extensions):
    """T1 declares a type a later path needs; T2 deletes it, or moves it
    after the declaration that needs it."""
    typed = TYPED + text
    declared, *users = TYPED.splitlines(keepends=True)
    if draw(st.booleans()):
        revised = "".join(users) + text
    else:
        revised = "".join(users) + declared + text
    return typed, revised, "one.nmsl", extensions


def rekey(draw, text, extensions):
    """The same text under another extension keyword table."""
    tables = [(), (BILLING,), (BILLING_SYSTEMS,), (SPLIT,)]
    return text, text, "one.nmsl", draw(st.sampled_from(
        [table for table in tables if table != tuple(extensions)]
    ))


def duplicate(draw, text, extensions):
    start, end = _pick(draw, text)
    at, _end = _pick(draw, text)
    return text, text[:at] + text[start:end] + "\n" + text[at:], "one.nmsl", extensions


def glued(draw, text, extensions):
    """A declaration's final ``.`` followed by what continues a word."""
    _start, end = _pick(draw, text)
    tail = draw(st.sampled_from(["x", "5", ".y", "-z", "_"]))
    return text, text[:end] + tail + text[end:], "one.nmsl", extensions


EDITS = [shift, add, remove, change, drop_type, rekey, duplicate, glued]


@pytest.mark.parametrize("edit", EDITS, ids=[edit.__name__ for edit in EDITS])
@settings(derandomize=True, max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_compile_into_a_store_equals_a_cold_compile(edit, data):
    _label, text, extensions = data.draw(st.sampled_from(BASES))
    first, second, filename, revised_extensions = edit(data.draw, text, extensions)
    store = DeclarationStore()
    held = compiler("one.nmsl", extensions).compile(first, strict=False, store=store)
    with frozen(held.specification):
        shared = outcome(second, filename, revised_extensions, store)
    assert shared == outcome(second, filename, revised_extensions)


def test_a_shifted_renamed_text_is_all_shared():
    """The property is not vacuous: blank lines and a new file name move
    every position, and every declaration is still the same object."""
    text = _paper(6)
    store = DeclarationStore()
    old = compiler("a.nmsl").compile(text, store=store)
    new = compiler("b.nmsl").compile("\n\n" + text, store=store)
    for kind in ("processes", "systems", "domains"):
        old_table = getattr(old.specification, kind)
        new_table = getattr(new.specification, kind)
        assert new_table.keys() == old_table.keys()
        assert all(new_table[name] is spec for name, spec in old_table.items())
    start = new.specification.starts["domain"]["dom00003"]
    assert (start.filename, start.line) == (
        "b.nmsl", old.specification.starts["domain"]["dom00003"].line + 2
    )


def test_a_recompile_builds_exactly_the_changed_declarations():
    """``check B`` after ``check A`` in one ``SpecCache``: B is A with one
    more silent domain, and B's compile builds that domain only."""
    base = _paper(12)
    revised = PaperScaleInternet(
        PaperScaleParameters(n_domains=12, hub_count=2, seed=7,
                             silent_domains=(1, 7))
    ).text()
    store = DeclarationStore()
    kept = compiler("a.nmsl").compile(base, store=store)
    with obs.scope() as session:
        changed = compiler("b.nmsl").compile(revised, store=store)
    (span,) = [s for s in session.tracer.finished() if s.name == "compile"]
    attrs = dict(span.attrs)
    assert (attrs["built"], attrs["reused"]) == (1, len(changed.order) - 1)
    (entry,) = [
        name for name, spec in changed.specification.domains.items()
        if kept.specification.domains[name] is not spec
    ]
    assert entry == "dom00007"
    # A reused declaration still counts as one dispatched.
    metrics = session.metrics
    assert metrics.value("repro_compile_declarations_total", decltype="domain") == len(
        changed.specification.domains
    )


def test_threads_compile_into_one_store():
    """More threads than cores, switching often, each compiling an edit
    of a text the store holds: every compile equals a cold one."""
    base = _paper(40)
    texts = [
        base.replace("frequency >= 15 minutes", "frequency >= 20 minutes", 1),
        "\n" + base.replace("mgmt.mib.udp;", "mgmt.mib.udp, mgmt.mib.egp;", 3),
        base.replace("net00003", "net00003b"),
        base,
    ]
    store = DeclarationStore()
    kept = compiler("base.nmsl").compile(base, store=store)
    results = {}

    def run(index):
        results[index] = [
            compiler(f"{index}.nmsl").compile(texts[index], store=store)
            for _round in range(3)
        ]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(texts))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for index, text in enumerate(texts):
        cold = compiler(f"{index}.nmsl").compile(text)
        for result in results[index]:
            assert (result.order, result.specification) == (
                cold.order, cold.specification
            )
    assert kept.ok


def test_evicting_every_revision_frees_a_stored_declaration(tmp_path):
    text = _paper(4)
    for name, body in (("a", text), ("b", "\n" + text), ("c", ADDED)):
        (tmp_path / f"{name}.nmsl").write_text(body, encoding="utf-8")
    cache = SpecCache(limit=1)
    session = cache.get(str(tmp_path / "a.nmsl"))
    domain = weakref.ref(session.result.specification.domains["dom00002"])
    del session
    # b shares a's declarations, so evicting a frees none of them ...
    shared = cache.get(str(tmp_path / "b.nmsl"))
    assert shared.result.specification.domains["dom00002"] is domain()
    del shared
    # ... and evicting b too frees them, and their entries in the store.
    cache.get(str(tmp_path / "c.nmsl"))
    gc.collect()
    assert domain() is None
    shelf = cache.store.shelf(NmslCompiler().recipe())
    assert "dom00002" not in shelf["domain"]


def test_the_store_keeps_no_source_text():
    text = (EXAMPLES / "campus.nmsl").read_text(encoding="utf-8")
    store = DeclarationStore()
    kept = compiler("campus.nmsl").compile(text, store=store)
    seen, stack, strings = set(), [store], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (weakref.ref, type, FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, str):
            strings.append(obj)
        stack.extend(gc.get_referents(obj))
    assert kept.ok and strings
    assert not [s for s in strings if "::=" in s or "\n" in s]


def test_the_guard_refuses_a_write_in_place_only():
    result = compiler("f").compile(_paper(2))
    domain = result.specification.domains["dom00000"]
    with frozen(result.specification):
        with pytest.raises(AttributeError, match="written in place"):
            domain.systems = ()
        # The supported idiom builds a new object, which is not held.
        assert replace(domain, systems=()).systems == ()
        assert domain.fingerprint_tuple()
    domain.systems = domain.systems


def test_nmslc_diff_builds_only_the_changed_declarations(tmp_path, capsys):
    """``nmslc diff`` compiles both revisions into one store: the new
    one builds exactly the declarations the diff reports changed."""
    import json

    from repro.cli import main
    from repro.consistency.evolution import diff_specifications

    old, new = tmp_path / "old.nmsl", tmp_path / "new.nmsl"
    old.write_text(CAMPUS, encoding="utf-8")
    new.write_text(
        CAMPUS.replace("frequency >= 5 minutes", "frequency >= 10 minutes"),
        encoding="utf-8",
    )
    trace = tmp_path / "diff.jsonl"
    main(["diff", str(old), str(new), "--trace", str(trace)])
    capsys.readouterr()
    spans = [
        json.loads(line)["args"] for line in trace.read_text().splitlines()
        if json.loads(line)["name"] == "compile"
    ]
    changed = diff_specifications(
        compiler("a").compile(CAMPUS).specification,
        compiler("b").compile(new.read_text()).specification,
    )
    assert len(changed) == 3
    assert [(span["built"], span["reused"]) for span in spans] == [
        (12, 0), (len(changed), 12 - len(changed)),
    ]
