"""What one warm session shares between the operations on it."""

from pathlib import Path

from repro.consistency.facts import FactGenerator
from repro.service.core import ServiceRequest
from repro.service.handlers import ServiceHandlers

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted(str(path) for path in (REPO_ROOT / "examples").glob("*.nmsl"))


def _request(op, **params):
    return ServiceRequest(
        id="r", op=op, params=params, cls="interactive", rank=0,
        deadline=None, deadline_s=None, cost_s=0.0, arrival_s=0.0, seq=0,
    )


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
        first = handlers.execute(_request("analyze", specs=EXAMPLES))
        second = handlers.execute(_request("analyze", specs=EXAMPLES))
        assert len(generations) == len(EXAMPLES)
        assert first == second

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
