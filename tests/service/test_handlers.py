"""What one warm session shares between the operations on it."""

import dataclasses
import itertools
import time
from pathlib import Path

import pytest

from benchmarks.widen_access import widen
from repro import operations
from repro.analysis import Waiver, render_json
from repro.codegen.base import element_documents
from repro.consistency.facts import FactGenerator
from repro.deadline import Deadline
from repro.service import specfile
from repro.service.core import ServiceRequest
from repro.service.handlers import ServiceHandlers, SpecCache
from repro.workloads.generator import InternetParameters, SyntheticInternet
from tests.corpus import SPEC_WITH_BILLING, corpus

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted(str(path) for path in (REPO_ROOT / "examples").glob("*.nmsl"))
CAMPUS = str(REPO_ROOT / "examples" / "campus.nmsl")


def _request(op, deadline=None, **params):
    return ServiceRequest(
        id="r", op=op, params=params, cls="interactive", rank=0,
        deadline=deadline, deadline_s=None, cost_s=0.0, arrival_s=0.0, seq=0,
    )


def _served(revision):
    """*revision*'s analysis report, as fresh lists of its findings."""
    report, _ = operations.analyze([revision], {"select": None})
    return report


def _locations(report):
    return [(d.code, str(d.location)) for d in report.diagnostics]


def _count_generations(monkeypatch):
    generations = []
    generate = FactGenerator.generate

    def counted(generator):
        generations.append(generator)
        return generate(generator)

    monkeypatch.setattr(FactGenerator, "generate", counted)
    return generations


class TestAnalyzeReusesTheSessionFacts:
    def test_analyze_of_a_checked_session_generates_no_facts(
        self, monkeypatch
    ):
        generations = _count_generations(monkeypatch)
        handlers = ServiceHandlers()
        for spec in EXAMPLES:
            handlers.execute(_request("check", spec=spec))
        assert len(generations) == len(EXAMPLES)
        cold, warm = (_request("analyze", specs=EXAMPLES) for _ in range(2))
        first, second = handlers.execute(cold), handlers.execute(warm)
        assert len(generations) == len(EXAMPLES)
        assert first == second and first["findings"] > 0
        # The second answer is the kept findings of every pass.
        assert cold.resources["passes_run"] == 9 * len(EXAMPLES)
        assert warm.resources["passes_run"] == 0

    def test_analyze_first_leaves_the_facts_for_check(self, monkeypatch):
        generations = _count_generations(monkeypatch)
        handlers = ServiceHandlers()
        handlers.execute(_request("analyze", spec=EXAMPLES[0]))
        result = handlers.execute(_request("check", spec=EXAMPLES[0]))
        assert len(generations) == 1
        assert result["warm"] is False  # first *check* of the session

    def test_diagnostics_equal_a_context_of_its_own(self):
        """Same findings as the batch path, which shares nothing."""
        from repro.analysis import default_registry

        handlers = ServiceHandlers()
        for spec in EXAMPLES:
            handlers.execute(_request("check", spec=spec))
            served = handlers.execute(_request("analyze", spec=spec))
            session = handlers.cache.get(spec)
            report = default_registry().run(
                session.compiler.analysis_context(session.result)
            )
            assert served["findings"] == len(report.diagnostics)
            assert [d["message"] for d in served["diagnostics"]] == [
                d.message for d in report.diagnostics[:50]
            ]

    # A session keeps each pass's findings under its checker's version.
    def test_an_in_place_edit_reruns_every_pass(self):
        import dataclasses

        handlers = ServiceHandlers()
        before = handlers.execute(_request("analyze", spec=CAMPUS))
        session = handlers.cache.get(CAMPUS)
        domains = session.result.specification.domains
        domains["noc-domain"] = dataclasses.replace(
            domains["noc-domain"], exports=()
        )
        request = _request("analyze", spec=CAMPUS)
        after = handlers.execute(request)
        assert request.resources["passes_run"] == 9
        assert after["findings"] == before["findings"] - 1
        fresh = operations.Revision(session.compiler, session.result)
        assert _served(session) == _served(fresh)

    def test_a_selection_leaves_the_other_passes_to_run(self):
        handlers = ServiceHandlers()
        selected = _request("analyze", spec=CAMPUS, select=["NM201"])
        handlers.execute(selected)
        assert selected.resources["passes_run"] == 1
        full = _request("analyze", spec=CAMPUS)
        served = handlers.execute(full)
        assert full.resources["passes_run"] == 8
        assert served == ServiceHandlers().execute(
            _request("analyze", spec=CAMPUS)
        )

    @pytest.mark.parametrize("texts", ["widened", "owner-local"])
    def test_a_diff_from_the_session_leaves_it_warm(self, spec_files, texts):
        campus = Path(CAMPUS).read_text()
        old, new = spec_files(
            **{"widened": {"a": campus, "b": widen(campus)},
               "owner-local": {"a": _silent(3), "b": _silent(3, 17)}}[texts]
        )
        handlers = ServiceHandlers()
        before = handlers.execute(_request("analyze", spec=old))
        handlers.execute(_request("diff", old=old, new=new))
        request = _request("analyze", spec=old)
        assert handlers.execute(request) == before
        assert request.resources["passes_run"] == 0

    def test_a_caller_cannot_change_the_kept_findings(self):
        session = ServiceHandlers().cache.get(CAMPUS)
        args = {"select": None}
        report, _ = operations.analyze([session], args)
        kept = list(report.diagnostics)
        report.diagnostics.clear()
        again, passes_run = operations.analyze([session], args)
        assert passes_run == 0
        assert again.diagnostics == kept

    def test_concurrent_analyzes_compute_each_pass_once(self, monkeypatch):
        """Handler threads share a session; its lock makes each pass's
        findings computed once however the threads interleave.  Every
        pass sleeps first, so a thread that found no findings yields
        while the others look."""
        import dataclasses
        import threading

        import repro.analysis
        from repro.operations import ANALYSIS_CODES

        session = ServiceHandlers().cache.get(CAMPUS)
        fresh = _served(operations.Revision(session.compiler, session.result))
        registry = repro.analysis.default_registry

        def slowed(run):
            def run_after_a_pause(rule, context):
                time.sleep(0.002)
                return run(rule, context)
            return run_after_a_pause

        def slow_registry():
            slow = repro.analysis.PassRegistry()
            for rule in registry().passes():
                slow.register(dataclasses.replace(rule, run=slowed(rule.run)))
            return slow

        monkeypatch.setattr(repro.analysis, "default_registry", slow_registry)
        selections = [[code] for code in ANALYSIS_CODES] + [None] * 7
        start = threading.Barrier(len(selections))
        answers, errors = [], []

        def analyze(select):
            try:
                start.wait(timeout=60)
                answers.append(
                    (select, *operations.analyze([session], {"select": select}))
                )
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=analyze, args=(select,))
            for select in selections
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors and not any(t.is_alive() for t in threads)
        assert sum(passes_run for _, _, passes_run in answers) == 9
        for select, report, _ in answers:
            assert report.diagnostics == [
                d for d in fresh.diagnostics if select in (None, [d.code])
            ]

    def test_a_recheck_onto_a_shifted_re_parse_reruns_every_pass(self):
        """A value-equal re-parse rebinds the facts, which moves the
        checker's version; the findings are recomputed, those of the
        revision's own compile, located as a fresh session's."""
        from repro.nmsl.compiler import CompilerOptions, NmslCompiler

        session = ServiceHandlers().cache.get(CAMPUS)
        fresh = _served(operations.Revision(session.compiler, session.result))
        assert _served(session) == fresh
        shifted = NmslCompiler(CompilerOptions(filename=CAMPUS)).compile(
            "\n" + Path(CAMPUS).read_text()
        )
        checker = session.checker
        checker.check()  # a recheck of checked facts rebinds them
        # A rebind keeps the fact set but not the findings.  Onto the
        # re-parse, whose tables the key then guards instead of the
        # revision's, nothing is reused; back onto the revision's own
        # specification, the findings are kept again.
        for specification, again in (
            (session.result.specification, 0),
            (shifted.specification, 9),
            (session.result.specification, 0),
        ):
            version = checker.version
            facts = checker.checked_facts
            outcome = checker.recheck(specification)
            assert outcome.stats["diff_entries"] == 0
            assert checker.checked_facts is facts  # rebound, not regenerated
            assert checker.version is not version
            for passes in (9, again):
                report, passes_run = operations.analyze(
                    [session], {"select": None}
                )
                assert passes_run == passes
                assert _locations(report) == _locations(fresh)


class TestSpecCacheHitIsPerCall:
    def test_a_concurrent_hit_does_not_make_a_miss_report_one(
        self, monkeypatch, tmp_path
    ):
        """The cache's ``hits`` counter is shared by every thread serving
        requests: a check that compiles must say ``spec_cache_hit`` false
        even when another request hits while it compiles."""
        import shutil
        import threading

        from repro.service import handlers as handlers_module

        warm, cold = tmp_path / "warm.nmsl", tmp_path / "cold.nmsl"
        for path in (warm, cold):
            shutil.copyfile(EXAMPLES[0], path)
        handlers = ServiceHandlers()
        handlers.cache.get(str(warm))
        compiling, hit = threading.Event(), threading.Event()

        class HeldSession(handlers_module.SpecSession):
            def __init__(self, *args):
                compiling.set()
                assert hit.wait(timeout=30)
                super().__init__(*args)

        monkeypatch.setattr(handlers_module, "SpecSession", HeldSession)
        request = _request("check", spec=str(cold))
        worker = threading.Thread(target=handlers.execute, args=(request,))
        worker.start()
        try:
            assert compiling.wait(timeout=30)
            handlers.cache.get(str(warm))
        finally:
            hit.set()
            worker.join(timeout=60)
        assert handlers.cache.stats()["hits"] == 1
        assert request.resources["spec_cache_hit"] is False
        again = _request("check", spec=str(cold))
        handlers.execute(again)
        assert again.resources["spec_cache_hit"] is True


# ----------------------------------------------------------------------
# A diff forks the resident revision: it expands nothing A's checked
# state holds, and leaves A as it was.
# ----------------------------------------------------------------------
@pytest.fixture
def spec_files(tmp_path, monkeypatch):
    """Writes spec texts to files that read as older than the racy
    window (the clock is put ahead; nothing sleeps)."""
    monkeypatch.setattr(
        specfile, "_clock_ns",
        lambda: time.time_ns() + 10 * specfile.RACY_WINDOW_NS,
    )

    def write(**texts):
        for name, text in texts.items():
            (tmp_path / f"{name}.nmsl").write_text(text, encoding="utf-8")
        return [str(tmp_path / f"{name}.nmsl") for name in texts]

    return write


def _resident(session):
    """The resident revision's report, verdicts and base facts."""
    checker = session.checker
    return (
        checker.check().render(),
        list(checker._verdict_list),
        list(checker.checked_facts.base_facts()),
    )


def _silent(*domains):
    return SyntheticInternet(
        InternetParameters(n_domains=40, silent_domains=domains)
    ).text()


class TestDiffForksTheResidentRevision:
    def test_a_diff_of_checked_revisions_generates_no_facts(
        self, monkeypatch, spec_files
    ):
        """``daemon_mix_1k``'s diff at 40 domains: B silences one more
        domain, an owner-local delta the fork patches."""
        old, new = spec_files(a=_silent(3), b=_silent(3, 17))
        generations = _count_generations(monkeypatch)
        handlers = ServiceHandlers()
        handlers.execute(_request("check", spec=old))
        handlers.execute(_request("check", spec=new))
        assert len(generations) == 2
        before = _resident(handlers.cache.get(old))
        request = _request("diff", old=old, new=new)
        result = handlers.execute(request)
        assert len(generations) == 2
        assert result["diff_entries"] == 1
        assert request.resources["facts_expanded"] == 1  # the silenced domain
        assert _resident(handlers.cache.get(old)) == before

    def test_a_process_edit_expands_the_new_revision_once(
        self, monkeypatch, spec_files
    ):
        """campus.nmsl's access widening edits a process, which the
        fork regenerates: B is expanded, A's checked state is not."""
        campus = (REPO_ROOT / "examples" / "campus.nmsl").read_text()
        old, new = spec_files(campus=campus, widened=widen(campus))
        handlers = ServiceHandlers()
        handlers.execute(_request("check", spec=old))
        before = _resident(handlers.cache.get(old))
        generations = _count_generations(monkeypatch)
        request = _request("diff", old=old, new=new)
        assert handlers.execute(request)["gating"]
        assert len(generations) == 1
        counts = handlers.cache.get(new).result.specification.counts()
        assert request.resources["facts_expanded"] == (
            counts["processes"] + counts["systems"] + counts["domains"]
        )
        assert _resident(handlers.cache.get(old)) == before

    def test_a_diff_of_an_unchecked_revision_counts_its_check(
        self, spec_files
    ):
        old, new = spec_files(a=_silent(3), b=_silent(3, 17))
        handlers = ServiceHandlers()
        request = _request("diff", old=old, new=new)
        handlers.execute(request)
        facts = handlers.cache.get(old).checker.checked_facts
        assert request.resources["facts_expanded"] == (
            facts.expansion["declarations"] + 1
        )
        # The repeat is the kept answer: nothing expanded.
        again = _request("diff", old=old, new=new)
        handlers.execute(again)
        assert again.resources["facts_expanded"] == 0

    def test_an_expired_diff_leaves_the_resident_revision_warm(
        self, monkeypatch, spec_files
    ):
        """A deadline on a counting clock that expires at the last poll
        of the fork's reduction: the diff answers with the structured
        deadline error, and ``check A`` stays warm and byte-equal.  The
        polls are counted on a twin, where ``handlers`` keeps no answer
        to reuse; the expired diff keeps none either."""
        old, new = spec_files(a=_silent(3), b=_silent(*range(3, 40, 2)))
        handlers, twin = ServiceHandlers(), ServiceHandlers()
        for each in (twin, handlers):
            each.execute(_request("check", spec=old))
        before = handlers.execute(_request("check", spec=old))
        generations = _count_generations(monkeypatch)
        polls = []

        class Polled(Deadline):
            def check(self, where=""):
                polls.append(where)
                super().check(where)

        unlimited = Polled(float("inf"), itertools.count(1).__next__)
        counted = twin.run(_request("diff", unlimited, old=old, new=new))
        assert counted["ok"]
        assert polls[-3:] == ["consistency.reduce"] * 3
        expiring = Deadline(len(polls), itertools.count(1).__next__)
        frame = handlers.run(_request("diff", expiring, old=old, new=new))
        assert frame["ok"] is False and frame["kind"] == "deadline"
        assert "consistency.reduce" in frame["message"]
        after = handlers.execute(_request("check", spec=old))
        assert after == before and after["warm"]
        assert generations == []
        again = handlers.run(_request("diff", old=old, new=new))
        assert again["result"] == counted["result"]
        assert again["resources"]["facts_expanded"] == (
            counted["resources"]["facts_expanded"]
        ) > 0


class TestLanguageScope:
    def test_an_extension_clause_is_refused_where_it_stands(
        self, spec_files
    ):
        """``nmsld`` compiles the basic language only: a ``billing``
        clause, which the billing extension would define, is a compile
        refusal at its own line and column."""
        (billed,) = spec_files(billed=SPEC_WITH_BILLING)
        frame = ServiceHandlers().run(_request("check", spec=billed))
        assert frame["ok"] is False and frame["kind"] == "compile"
        assert frame["message"].endswith(
            f"{billed}:7:5: clause 'billing 12' is not valid in a "
            f"process specification"
        )


def _pairs():
    """``(old, new)`` texts: campus and its access widening, then two
    corpus internets and each with one more silent domain and a fast
    poller."""
    campus = (REPO_ROOT / "examples" / "campus.nmsl").read_text()
    yield campus, widen(campus)
    for index in (3, 17):
        parameters = corpus()[index]
        changed = dataclasses.replace(
            parameters, silent_domains=(parameters.n_domains - 1,),
            fast_pollers=(0,),
        )
        yield (SyntheticInternet(parameters).text(),
               SyntheticInternet(changed).text())


@pytest.fixture
def answers(monkeypatch):
    """Every ``(ImpactSet, report)`` a handler's ``operations.diff``
    returns, in order."""
    returned = []
    diff = operations.diff

    def spied(*args, **keywords):
        returned.append(diff(*args, **keywords))
        return returned[-1]

    monkeypatch.setattr(operations, "diff", spied)
    return returned


def _answer(answer):
    """An answer bar the engine's wall time and the facts it expanded."""
    impact, report = answer
    volatile = ("seconds", "facts_expanded")
    stats = {k: v for k, v in impact.stats.items() if k not in volatile}
    return dataclasses.replace(impact, stats=stats), render_json(report)


class TestDiffKeepsItsAnswer:
    """A repeated diff of resident revisions is the kept answer while
    ``old``'s checker version, both sides' staleness keys, the tags and
    the scope hold; the waiver is applied per request."""

    @pytest.mark.parametrize("pair", range(3), ids=["campus", "c03", "c17"])
    def test_a_repeat_is_the_cold_answer_and_does_no_work(
        self, monkeypatch, spec_files, answers, pair
    ):
        old, new = spec_files(**dict(zip("ab", list(_pairs())[pair])))
        handlers = ServiceHandlers()
        first = _request("diff", old=old, new=new)
        handlers.execute(first)
        generations = _count_generations(monkeypatch)
        rendered = []
        documents = element_documents

        def counted(*args, **keywords):
            rendered.append(args)
            return documents(*args, **keywords)

        monkeypatch.setattr(
            "repro.codegen.base.element_documents", counted
        )
        again = _request("diff", old=old, new=new)
        repeat = handlers.execute(again)
        assert generations == [] and rendered == []
        assert again.resources["facts_expanded"] == 0
        assert first.resources["facts_expanded"] > 0
        cold = ServiceHandlers().execute(_request("diff", old=old, new=new))
        assert repeat == cold
        assert _answer(answers[1]) == _answer(answers[0])
        # The kept ImpactSet still says what its first diff expanded.
        assert answers[0][0].stats["facts_expanded"] > 0

    def test_an_in_place_edit_of_new_recomputes(
        self, spec_files, answers
    ):
        campus = (REPO_ROOT / "examples" / "campus.nmsl").read_text()
        old, new = spec_files(a=campus, b=widen(campus))
        handlers, fresh = ServiceHandlers(), ServiceHandlers()
        first = handlers.execute(_request("diff", old=old, new=new))
        assert first["gating"]
        # Undo the widening in place, in the new revision's own table.
        for each in (handlers, fresh):
            processes = each.cache.get(new).result.specification.processes
            before = each.cache.get(old).result.specification.processes
            for name in processes:
                processes[name] = before[name]
        warm = handlers.execute(_request("diff", old=old, new=new))
        assert warm == fresh.execute(_request("diff", old=old, new=new))
        assert not warm["gating"] and warm != first
        assert _answer(answers[-2]) == _answer(answers[-1])

    def test_an_in_place_edit_of_old_recomputes_and_counts_it(
        self, spec_files
    ):
        """``old``'s key is its own tables too: the recompute regenerates
        ``old``'s facts inside the diff, which counts them as a diff
        with nothing kept does."""
        old, new = spec_files(a=_silent(3), b=_silent(3, 17))
        counted = []
        for keeps in (True, False):
            handlers = ServiceHandlers()
            handlers.execute(_request("check", spec=old))
            if keeps:
                handlers.execute(_request("diff", old=old, new=new))
            domains = handlers.cache.get(old).result.specification.domains
            name = next(iter(domains))
            domains[name] = domains[name]
            request = _request("diff", old=old, new=new)
            counted.append((handlers.execute(request),
                            request.resources["facts_expanded"]))
        assert counted[0] == counted[1] and counted[0][1] > 1

    def test_an_edited_waiver_applies_to_the_kept_answer(
        self, tmp_path, spec_files, answers
    ):
        campus = (REPO_ROOT / "examples" / "campus.nmsl").read_text()
        old, new = spec_files(a=campus, b=widen(campus))
        waiver = str(tmp_path / "waiver.json")
        handlers = ServiceHandlers()
        gated = handlers.execute(_request("diff", old=old, new=new,
                                          waiver=waiver))
        assert gated["gating"]
        Waiver.from_gating(answers[-1][1]).save(waiver)
        request = _request("diff", old=old, new=new, waiver=waiver)
        waived = handlers.execute(request)
        assert request.resources["facts_expanded"] == 0
        assert not waived["gating"]
        cold = ServiceHandlers().execute(_request("diff", old=old, new=new,
                                                  waiver=waiver))
        assert waived == cold
        # The kept answer is unwaived: without the file it gates again.
        assert handlers.execute(_request("diff", old=old, new=new)) == gated

    def test_a_check_of_old_in_between_changes_nothing(
        self, spec_files, answers
    ):
        old, new = spec_files(a=_silent(3), b=_silent(3, 17))
        handlers = ServiceHandlers()
        first = handlers.execute(_request("diff", old=old, new=new))
        handlers.execute(_request("check", spec=old))
        request = _request("diff", old=old, new=new)
        assert handlers.execute(request) == first
        assert request.resources["facts_expanded"] == 0
        cold = ServiceHandlers().execute(_request("diff", old=old, new=new))
        assert first == cold
        assert _answer(answers[-1]) == _answer(answers[-2])

    def test_each_tag_set_is_its_own_answer_and_few_are_kept(self, spec_files):
        old, new = spec_files(a=_silent(3), b=_silent(3, 17))
        handlers = ServiceHandlers()
        handlers.execute(_request("check", spec=old))
        outputs = ("BartsSnmpd", "acl-table", "BartsSnmpd")
        expanded = []
        for output in outputs:
            request = _request("diff", old=old, new=new, output=output)
            handlers.execute(request)
            expanded.append(request.resources["facts_expanded"])
        assert expanded == [1, 1, 0]
        session = handlers.cache.get(old)
        for more in ("osi", "consistency", "BartsSnmpd,osi"):
            handlers.execute(_request("diff", old=old, new=new, output=more))
        assert len(session.diffs) == operations.KEPT_DIFFS

    def test_an_evicted_revision_is_freed(self, spec_files):
        """The kept answers hold no checker, fork or fact set: evicting
        either side frees its checker."""
        import gc
        import weakref

        from repro.consistency.checker import ConsistencyChecker
        from repro.consistency.facts import FactSet

        a, b, c, d = spec_files(a=_silent(3), b=_silent(3, 17),
                                c=_silent(5), d=_silent(7))
        handlers = ServiceHandlers(SpecCache(limit=2))
        for spec in (a, b):
            handlers.execute(_request("check", spec=spec))
        handlers.execute(_request("diff", old=a, new=b))
        reached, stack = set(), [handlers.cache.get(a).diffs]
        while stack:
            item = stack.pop()
            if id(item) in reached or isinstance(item, type):
                continue
            reached.add(id(item))
            assert not isinstance(item, (ConsistencyChecker, FactSet))
            stack.extend(gc.get_referents(item))
        del item
        b_checker, a_checker = (
            weakref.ref(handlers.cache.get(spec).checker) for spec in (b, a)
        )
        handlers.cache.get(c)  # evicts b, the least recently used
        gc.collect()
        assert b_checker() is None and a_checker() is not None
        handlers.cache.get(d)  # evicts a, and the answers it kept
        gc.collect()
        assert a_checker() is None

    def test_opposite_diffs_on_two_threads_both_finish(self, spec_files):
        import threading

        old, new = spec_files(a=_silent(3), b=_silent(3, 17))
        handlers = ServiceHandlers()
        frames = {}

        def run(first, second):
            for _ in range(3):
                frames[first] = handlers.run(
                    _request("diff", old=first, new=second)
                )

        threads = [threading.Thread(target=run, args=pair)
                   for pair in ((old, new), (new, old))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert frames[old]["ok"] and frames[new]["ok"]
