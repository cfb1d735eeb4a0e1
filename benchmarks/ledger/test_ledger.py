"""Tests of the perf ledger.  Not in tier-1 ``testpaths``; run with

    PYTHONPATH=src python -m pytest benchmarks/ledger
"""

import json
import re
import time
from pathlib import Path

import pytest

from repro.consistency.checker import ConsistencyChecker
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.workloads.paper import PaperScaleInternet

from benchmarks.ledger import catalogue, compare, inputs, runner, stats
from benchmarks.ledger.spans import SpanRecorder

TINY = inputs.Sizes(text_domains=40, text_hubs=8, model_domains=50, model_hubs=8)
ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# Summaries.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [(5, 50.0), (19, 50.0), (99, 50.0), (100, 90.0), (120, 90.0),
     (199, 90.0), (200, 95.0), (400, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_tail_and_median_values():
    values = [float(v) for v in range(1, 121)]
    assert stats.tail(values) == (90.0, 108.0)
    assert stats.median(values) == 60.5
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.spread([10.0] * 10) == 0.0


# ----------------------------------------------------------------------
# Spans.
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_with_nested_and_sibling_spans():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    with rec.span("root") as root:
        clock.now = 1.0
        with rec.span("a") as a:
            clock.now = 2.0
            with rec.span("a.inner") as inner:
                clock.now = 5.0
            clock.now = 6.0
        clock.now = 7.0
        with rec.span("b") as b:
            clock.now = 9.0
        clock.now = 10.0
    assert root.duration == 10.0
    assert rec.self_time(inner) == 3.0
    assert rec.self_time(a) == 2.0  # 5 s minus the 3 s its child covers
    assert rec.self_time(b) == 2.0
    assert rec.self_time(root) == 3.0  # 10 s minus siblings a (5) and b (2)
    assert rec.self_times_by_name(under=root) == {"a": 2.0, "a.inner": 3.0, "b": 2.0}
    assert rec.coverage(root) == pytest.approx(0.7)
    assert [span.parent for span in rec.spans] == [None, 0, 1, 0]


def test_disabled_recorder_records_nothing(tmp_path):
    rec = SpanRecorder(enabled=False)
    with rec.span("anything") as span:
        assert span is None
    assert rec.spans == []
    rec = SpanRecorder()
    with rec.span("x", tag="t"):
        pass
    rec.write_jsonl(tmp_path / "spans.jsonl")
    (line,) = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert set(json.loads(line)) == {"id", "name", "parent", "start", "end", "attrs"}


# ----------------------------------------------------------------------
# The edit oracle against a brute-force check().
# ----------------------------------------------------------------------
def test_edit_oracle_matches_a_fresh_check_after_every_edit():
    internet = inputs.model_internet(TINY, seed=7)
    tree = NmslCompiler(CompilerOptions(register_codegen=False)).tree
    specification = internet.specification()
    oracle = inputs.EditOracle(internet)
    assert oracle.expected == internet.expected_inconsistent_references()
    exports_on = inputs.exporting_clause(specification)
    edits = inputs.edit_stream(internet.parameters, seed=7, blocks=6)
    assert {edit.kind for edit in edits} == {"exports", "retarget"}
    # Make sure the interesting cases are in the stream: a hub goes
    # silent and comes back, a poller moves onto and off a silent domain.
    edits += [
        inputs.Edit("exports", 3),
        inputs.Edit("retarget", 10, 0, 25),
        inputs.Edit("exports", 25),
        inputs.Edit("retarget", 10, 0, 26),
        inputs.Edit("retarget", 2, 1, 25),  # the fast poller: bad wherever it points
    ]
    for edit in edits:
        specification = inputs.apply_edit(specification, edit, exports_on)
        expected = oracle.apply(edit)
        result = ConsistencyChecker(specification, tree).check()
        assert len(result.inconsistencies) == expected, edit


# ----------------------------------------------------------------------
# The workloads at tiny sizes.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("l")


@pytest.mark.parametrize("workload", catalogue.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_exactly_the_declared_metrics(workload, trace, out_dir):
    started = time.perf_counter()
    record = runner.run_workload(
        workload, seed=11, seconds=1, trace=trace, sizes=TINY, out_dir=out_dir
    )
    assert time.perf_counter() - started < 60
    assert record["failures"] == []
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    declared = catalogue.PER_LAYER_NAMES if trace else catalogue.END_TO_END_NAMES
    assert tuple(record["metrics"]) == declared
    line = json.loads(runner.driver_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(declared)
    if trace:
        assert (out_dir / f"{workload}-seed11-trace1.spans.jsonl").stat().st_size > 0
        assert record["metrics"]["ledger.trace_overhead_ratio"]["value"] > 0
    else:
        assert all(entry["value"] > 0 for entry in record["metrics"].values())
    assert record["claim"] is None
    assert set(record["environment"]) == {
        "git_sha", "git_dirty", "python", "platform", "nproc"
    }


def test_same_seed_repeats_hashes_and_counts(out_dir):
    first = runner.run_workload(
        "edit_stream_10k", seed=5, seconds=1, trace=False, sizes=TINY, out_dir=out_dir
    )
    again = runner.run_workload(
        "edit_stream_10k", seed=5, seconds=1, trace=True, sizes=TINY, out_dir=out_dir
    )
    assert first["hashes"] == again["hashes"]
    assert first["counts"]["consistency.checker.recheck_rechecked"] == (
        again["counts"]["consistency.checker.recheck_rechecked"]
    )
    assert runner.determinism_problems([first, again]) == []
    again["counts"]["final_inconsistencies"] += 1
    (problem,) = runner.determinism_problems([first, again])
    assert "final_inconsistencies" in problem


def test_a_wrong_expected_count_fails_the_run(monkeypatch, out_dir, capsys):
    real = PaperScaleInternet.expected_inconsistent_references
    monkeypatch.setattr(
        PaperScaleInternet,
        "expected_inconsistent_references",
        lambda self: real(self) + 1,
    )
    monkeypatch.setattr(runner, "Sizes", lambda: TINY)
    monkeypatch.setattr(runner, "OUT_DIR", out_dir)
    status = runner.main(["--workload", "edit_stream_10k", "--seconds", "1"])
    assert status == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is False
    assert json.loads(last)["failed"] >= 1


# ----------------------------------------------------------------------
# Guard rails, the catalogue, compare.
# ----------------------------------------------------------------------
def test_refuses_more_connections_than_processors():
    daemon = next(w for w in catalogue.WORKLOADS if w.name == "daemon_mix_1k")
    with pytest.raises(runner.Refused):
        runner.check_connections(daemon, nproc=1)
    runner.check_connections(daemon, nproc=2)
    for workload in catalogue.WORKLOADS:
        runner.check_connections(workload, nproc=8)


def test_benchmark_json_is_the_catalogue_and_within_the_contract():
    document = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert document == catalogue.benchmark_json()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")
    names = [w["name"] for w in document["workloads"]]
    for metric in document["end_to_end"] + document["per_layer"]:
        names.append(metric["name"])
        assert unit.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(name.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
    setup = next(m for m in document["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in document["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])
    assert 2 <= len(document["workloads"]) <= 8
    assert len(document["per_layer"]) <= 128
    assert 1 <= document["run_seconds"] <= 60


def test_compare_verdicts():
    lower = catalogue.Metric("latency", "ms", "lower", "", bound=0.10)
    higher = catalogue.Metric("rate", "1/s", "higher", "", bound=0.10)
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.judge(lower, steady, [v * 1.05 for v in steady])[0] == "ok"
    assert compare.judge(lower, steady, [v * 1.2 for v in steady])[0] == "worse"
    assert compare.judge(higher, steady, [v * 0.8 for v in steady])[0] == "worse"
    assert compare.judge(higher, steady, [v * 1.2 for v in steady])[0] == "ok"
    noisy = [100.0, 130.0, 80.0, 120.0, 90.0]
    assert compare.judge(lower, noisy, noisy)[0] == "unresolved"
    # Wide spread, but every run of B beats every run of A: resolved.
    assert compare.judge(lower, noisy, [v / 2 for v in noisy])[0] == "ok"


def test_compare_files_reads_ledgers(tmp_path, capsys):
    def ledger(scale):
        records = [
            {
                "workload": workload, "seed": seed, "trace": False,
                "counts": {"expected_inconsistencies": 29},
                "metrics": {
                    m.name: {"value": (100.0 + seed) * scale, "unit": m.unit}
                    for m in catalogue.END_TO_END
                },
            }
            for workload in catalogue.WORKLOAD_NAMES for seed in range(4)
        ]
        return json.dumps({"records": records})

    (tmp_path / "a.json").write_text(ledger(1.0))
    (tmp_path / "b.json").write_text(ledger(1.5))
    assert compare.compare_files(tmp_path / "a.json", tmp_path / "a.json") == 0
    assert "  worse  (n=" not in capsys.readouterr().out
    assert compare.compare_files(tmp_path / "a.json", tmp_path / "b.json") == 1
    out = capsys.readouterr().out
    # Lower-is-better metrics got 50% worse; the throughput got better.
    assert out.count("  worse  (n=") == 3 * len(catalogue.WORKLOAD_NAMES)
