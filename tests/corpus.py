"""The seeded 50-spec corpus every corpus-wide test and the CLI sweep draw.

Small synthetic internets (2–4 domains, 1–3 systems each, every fault
kind injected somewhere), so even the CLP(R) oracle runs over all of
them.  Stdlib only: ``python -m tests.cli_sweep`` imports this without
``pytest``.
"""

import random
from pathlib import Path

from repro.workloads.generator import InternetParameters

#: Corpus size demanded by the differential-oracle task.
CORPUS_SIZE = 50

#: One seed for the whole corpus: reproducible, yet varied.
CORPUS_SEED = 1989

_ROOT = Path(__file__).resolve().parents[1]


def draw_parameters(rng: random.Random) -> InternetParameters:
    """One random internet, small enough for the CLP(R) engine."""
    n_domains = rng.randint(2, 4)
    systems = rng.randint(1, 3)
    applications = rng.randint(1, 2)
    poller_slots = n_domains * applications
    return InternetParameters(
        n_domains=n_domains,
        systems_per_domain=systems,
        applications_per_domain=applications,
        silent_domains=tuple(
            sorted(
                rng.sample(
                    range(n_domains), k=rng.randint(0, min(2, n_domains - 1))
                )
            )
        ),
        fast_pollers=tuple(
            sorted(rng.sample(range(poller_slots), k=rng.randint(0, 2)))
        ),
        egp_pollers=tuple(
            sorted(rng.sample(range(poller_slots), k=rng.randint(0, 1)))
        ),
        seed=rng.randint(0, 2**31),
    )


def corpus():
    rng = random.Random(CORPUS_SEED)
    return [draw_parameters(rng) for _ in range(CORPUS_SIZE)]


def _campus() -> str:
    return (_ROOT / "examples" / "campus.nmsl").read_text(encoding="utf-8")


def quoted_campus() -> str:
    """``examples/campus.nmsl`` with a system named ``gw.cs.o'neil.edu``:
    the quote has to survive the CLP(R) fact text."""
    quoted = '"gw.cs.o\'neil.edu"'
    return _campus().replace('"gw.cs.campus.edu"', quoted).replace(
        "gw.cs.campus.edu", quoted
    )


def campus_systems_last() -> str:
    """``examples/campus.nmsl`` with its five ``system`` declarations
    moved after its domains: the same specification written in another
    order, so every document it ships stays byte for byte."""
    text = _campus()
    start = text.index('system "gw.cs.campus.edu" ::=')
    end = text.index("domain cs-domain ::=")
    return text[:start] + text[end:] + "\n" + text[start:end]


def campus_slower_cs_exports() -> str:
    """``examples/campus.nmsl`` with ``cs-domain``'s export to
    ``noc-domain`` (line 95) every 7 minutes instead of every 5: the
    ``consistency`` documents of both ``cs-domain`` members change."""
    head, marker, tail = _campus().partition("domain cs-domain ::=")
    return head + marker + tail.replace(
        "frequency >= 5 minutes;", "frequency >= 7 minutes;", 1
    )


#: Charge-back accounting for management traffic: an extension with a
#: clause-level action for ``consistency`` and one for a tag of its own.
BILLING_EXTENSION = """
-- charge-back accounting for management traffic
extension billing;
keyword billing in process, domain;
output consistency for process.billing emit "billing_rate({name}, {arg0}).";
output acct-report for process.billing emit "charge {name} {arg0} cents per query";
"""

SPEC_WITH_BILLING = """
process meteredAgent ::=
    supports mgmt.mib;
    exports mgmt.mib to "public"
        access ReadOnly
        frequency >= 5 minutes;
    billing 12;
end process meteredAgent.
"""


def billed_campus(rate: int = 12) -> str:
    """``examples/campus.nmsl`` after :data:`SPEC_WITH_BILLING` billed
    at *rate*, with ``noc.campus.edu`` running ``meteredAgent``: the
    rate is in that system's ``consistency`` document only."""
    agent = '    process snmpAgent;\nend system "noc.campus.edu".'
    return SPEC_WITH_BILLING.replace("billing 12;", f"billing {rate};") + (
        _campus().replace(
            agent, "    process snmpAgent;\n    process meteredAgent;\n"
            'end system "noc.campus.edu".'
        )
    )
