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


def quoted_campus() -> str:
    """``examples/campus.nmsl`` with a system named ``gw.cs.o'neil.edu``:
    the quote has to survive the CLP(R) fact text."""
    text = (_ROOT / "examples" / "campus.nmsl").read_text(encoding="utf-8")
    quoted = '"gw.cs.o\'neil.edu"'
    return text.replace('"gw.cs.campus.edu"', quoted).replace(
        "gw.cs.campus.edu", quoted
    )
