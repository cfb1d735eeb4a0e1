"""Entry point for ``python3 benchmarks/ledger`` and
``python -m benchmarks.ledger`` alike."""

import sys
from pathlib import Path

if not __package__:
    # Run as a directory: swap the script directory on sys.path for the
    # repo root, so the package imports as it does under ``-m``.
    here = Path(__file__).resolve().parent
    sys.path[0] = str(here.parents[1])
    __package__ = "benchmarks.ledger"

_SRC = Path(__file__).resolve().parents[2] / "src"
if not (_SRC / "repro").is_dir():
    sys.exit(f"benchmarks.ledger: no program to measure at {_SRC}")
sys.path.insert(0, str(_SRC))

from .runner import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
