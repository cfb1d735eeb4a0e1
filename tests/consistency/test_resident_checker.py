"""What a resident checker holds, per instance, after a check.

A warm checker stays resident (the daemon's sessions, the edit stream's
two sides), so the tables it keeps are paid for per instance.  A system's
instances and an instance's view are read from the declarations, not
kept in per-instance tables; tracemalloc pins what is left, per Python
version (a dict entry or an object header differs between versions,
hash seeds do not move it).

Runs without pytest, too — ``PYTHONPATH=src python -m
tests.consistency.test_resident_checker`` prints the measurement.
"""

import gc
import sys
import tracemalloc

from repro.consistency.checker import ConsistencyChecker
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.workloads.paper import PaperScaleInternet, PaperScaleParameters

#: Traced bytes a checker keeps per instance, by minor version (3.13 for
#: any later one): ~5% above what it keeps, below the ~115-135 bytes
#: more it kept with a per-system instance table and a per-instance
#: view table.
BOUNDS = {9: 760, 10: 640, 11: 590, 12: 575, 13: 575}


def bytes_per_instance():
    """Traced bytes a 200-domain checker keeps once its result is
    dropped, and its number of instances."""
    compiler = NmslCompiler(CompilerOptions(register_codegen=False))
    specification = PaperScaleInternet(
        PaperScaleParameters(
            n_domains=200, hub_count=8, silent_domains=(3, 100),
            fast_pollers=(5,), egp_pollers=(11,), seed=7,
        )
    ).specification()
    ConsistencyChecker(specification, compiler.tree).check()  # warm-up
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        checker = ConsistencyChecker(specification, compiler.tree)
        result = checker.check()
        del result
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained, len(checker.checked_facts.instances)


def test_a_resident_checker_keeps_few_bytes_per_instance():
    retained, instances = bytes_per_instance()
    assert instances == 2_400
    bound = BOUNDS[min(sys.version_info[1], 13)]
    assert retained / instances <= bound, (retained, instances)


if __name__ == "__main__":
    retained, instances = bytes_per_instance()
    print(
        f"Python {sys.version.split()[0]}: {retained} bytes kept for "
        f"{instances} instances, {retained / instances:.1f} each "
        f"(bound {BOUNDS[min(sys.version_info[1], 13)]})"
    )
