"""Every answer ends its request exactly once in the audit log.

Over every scenario of :mod:`tests.service.scheduler_sweep`, each answer
the scheduler gave has exactly one *terminal* audit event carrying its
request id: ``response`` (a request that started), ``reject`` (a line
that is not a request) or the answer's refusal kind (a request that
never started).  Worker lifecycle, ``admit``, ``replay``,
``quarantine``, ``veto`` and ``apply`` events say what happened on the
way and end nothing.  When the run is over nothing is in flight and the
admission queues are empty.
"""

import collections

import pytest

from repro.service.protocol import ERROR_CODES

from tests.service import scheduler_sweep

TERMINAL = {"response", "reject"} | set(ERROR_CODES)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    specs = tmp_path_factory.mktemp("sweep") / "specs"
    scheduler_sweep.write_specs(specs)
    with scheduler_sweep._cwd(specs):
        yield {
            name: scheduler_sweep.run_scenario(name)[0]
            for name in scheduler_sweep.SCENARIOS
        }


def _ends(message: dict) -> set:
    """The terminal events that may end *message*'s request: a started
    request ends in ``response`` whatever its outcome, one that never
    started in its refusal kind, a line that is not a request in
    ``reject``."""
    if message["ok"]:
        return {"response"}
    return {"response", "reject", message["error"]["kind"]}


@pytest.mark.parametrize("name", sorted(scheduler_sweep.SCENARIOS))
def test_each_answer_has_one_terminal_event(runs, name):
    runtime = runs[name]
    events = collections.defaultdict(list)
    for event in runtime.core.audit.tail():
        if event["event"] in TERMINAL:
            events[event.get("request_id")].append(event["event"])
    answers = collections.defaultdict(list)
    for message in runtime.responses:
        request_id = None if message["id"] is None else str(message["id"])
        answers[request_id].append(_ends(message))
    assert events.keys() == answers.keys()
    for request_id, ends in answers.items():
        assert len(events[request_id]) == len(ends), request_id
        assert all(
            event in set().union(*ends) for event in events[request_id]
        ), (request_id, events[request_id])


@pytest.mark.parametrize("name", sorted(scheduler_sweep.SCENARIOS))
def test_the_run_ends_with_nothing_in_the_system(runs, name):
    core = runs[name].core
    assert core.in_flight == 0
    assert core.admission.depth() == 0
