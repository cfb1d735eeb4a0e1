"""The simulated managers run exactly the references the checker verified.

Each driver of :class:`ManagementRuntime` is one reference of the
checker's fact set to which :func:`candidate_servers` gives a system
agent, in reference order, aimed at the first such agent, carrying the
element whose data it asks for and the reference's promised period.
"""

from pathlib import Path

import pytest

from repro.consistency.causes import candidate_servers
from repro.consistency.checker import ConsistencyChecker
from repro.netsim.processes import ManagementRuntime
from repro.nmsl.compiler import NmslCompiler
from tests.consistency.test_differential import spec_texts

_ROOT = Path(__file__).resolve().parents[2]
_COMPILER = NmslCompiler()

#: The campus example with one query aimed at a ``domain:`` target.
DOMAIN_TARGET = (_ROOT / "examples" / "campus.nmsl").read_text(
    encoding="utf-8"
).replace(
    "    process nocMonitor(sim.engr.campus.edu);\n",
    "    process nocMonitor(sim.engr.campus.edu);\n"
    "    process nocMonitor(engr-domain);\n",
)
SPECS = dict(spec_texts(), **{"campus-domain-target": DOMAIN_TARGET})


def _checked_references(facts):
    """(client, agent, data element, request path, period) per reference
    the runtime must drive."""
    rows = []
    for reference in facts.references:
        servers, _existential, data_system = candidate_servers(
            reference, facts
        )
        agents = [s for s in servers or () if s.owner_kind == "system"]
        if agents:
            rows.append(
                (
                    reference.client.partition(":")[2],
                    agents[0].id,
                    data_system or agents[0].owner,
                    reference.variables[0],
                    reference.frequency.min_period or 60.0,
                )
            )
    return rows


def _drivers(text):
    result = _COMPILER.compile(text)
    runtime = ManagementRuntime(_COMPILER, result)
    return result, [
        (
            driver.instance.id,
            driver.target_agent.id,
            driver.data_element,
            driver.request_path,
            driver.period_s,
        )
        for driver in runtime.drivers
    ]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_drivers_are_the_checked_references(name):
    result, drivers = _drivers(SPECS[name])
    checker = ConsistencyChecker(result.specification, _COMPILER.tree)
    checker.check()
    assert drivers == _checked_references(checker.checked_facts)
    assert drivers


def test_a_domain_target_is_driven_at_its_first_system_agent():
    _result, drivers = _drivers(DOMAIN_TARGET)
    assert drivers[-1] == (
        "nocMonitor@noc-domain#5",
        "snmpAgent@gw.engr.campus.edu#1",
        "gw.engr.campus.edu",
        "mgmt.mib.interfaces",
        300.0,
    )
