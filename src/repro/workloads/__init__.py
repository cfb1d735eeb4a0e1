"""Workloads: the paper's verbatim examples and synthetic internets.

* :mod:`repro.workloads.paper` — the exact specification texts of paper
  Figures 4.2, 4.4, 4.6 and 4.8 (plus the small completions needed to make
  the four figures one closed internet), and ``PaperScaleInternet``, the
  generator below at the paper's 10,000 domains;
* :mod:`repro.workloads.generator` — the synthetic internet generator
  for the Section 3.1 scale evaluation (parameterised #domains,
  #systems/domain, #applications, reference locality, umbrella domains,
  inconsistency injection);
* :mod:`repro.workloads.scenarios` — richer canned scenarios used by the
  examples and benchmarks (campus internet, new-organisation join).
"""

from repro.workloads.paper import (
    FIG_42_TYPE_SPECS,
    FIG_44_PROCESS_SPECS,
    FIG_46_SYSTEM_SPEC,
    FIG_48_DOMAIN_SPEC,
    PAPER_SPEC_TEXT,
    PaperScaleInternet,
    PaperScaleParameters,
)
from repro.workloads.generator import InternetParameters, SyntheticInternet
from repro.workloads.scenarios import campus_internet, new_organization

__all__ = [
    "FIG_42_TYPE_SPECS",
    "FIG_44_PROCESS_SPECS",
    "FIG_46_SYSTEM_SPEC",
    "FIG_48_DOMAIN_SPEC",
    "InternetParameters",
    "PAPER_SPEC_TEXT",
    "PaperScaleInternet",
    "PaperScaleParameters",
    "SyntheticInternet",
    "campus_internet",
    "new_organization",
]
