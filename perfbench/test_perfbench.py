"""Tests of the benchmark's own logic, on inputs far smaller than its workloads.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import flows  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
from spans import PER_LAYER, Tracer, layer_metrics, peak_rss_mib, self_times  # noqa: E402

_week_scenario = scenarios.week_scenario


def tiny_week(seed: int) -> str:
    return _week_scenario(seed, days=4, node_pool=24)


def tiny_farm(seed: int) -> str:
    return scenarios.taskfarm_scenario(seed, tasks=10)


# -- percentile rule ---------------------------------------------------------


@pytest.mark.parametrize(
    "n, want", [(1200, 99.0), (1000, 99.0), (999, 95.0), (200, 95.0), (21, 50.0), (20, 50.0)]
)
def test_tail_is_highest_percentile_with_ten_beyond(n, want):
    samples = [float(i) for i in range(n)]
    q, value = run.tail(samples)
    assert q == want
    assert sum(1 for s in samples if s > value) >= 10


def test_tail_needs_ten_beyond_the_median():
    assert run.tail([float(i) for i in range(19)]) is None
    assert run.tail([]) is None


# -- spans -------------------------------------------------------------------


def span(i, name, parent, start, end, **extra):
    return {"id": i, "run": "r", "name": name, "parent": parent, "start": start, "end": end, **extra}


def test_self_time_nested_and_sibling_spans():
    spans = [
        span(0, "pipeline.aggregate_range", None, 0.0, 10.0),
        span(1, "store.read_range.samples", 0, 1.0, 3.0),
        span(2, "ingest.parse_stats", 1, 1.5, 2.5),
        span(3, "attribution.attribute", 0, 4.0, 6.0),
        span(4, "pipeline.aggregate_range", None, 20.0, 21.0),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 6.0, 1: 1.0, 2: 1.0, 3: 2.0, 4: 1.0}


def test_self_time_counts_overlapping_children_once():
    spans = [
        span(0, "report.build_daily_report", None, 0.0, 10.0),
        span(1, "metrics.fs_risk_series", 0, 1.0, 4.0),
        span(2, "analysis.top_contributors", 0, 3.0, 5.0),
    ]
    assert self_times(spans)[0] == 6.0


def test_busy_time_is_not_doubled_by_same_name_nesting():
    spans = [
        span(0, "report.write_bundle", None, 0.0, 4.0),
        span(1, "report.bundle_files", 0, 1.0, 3.0, counts={"bytes": 5}),
        span(2, "report.bundle_files", 1, 1.5, 2.0, counts={"bytes": 7}),
    ]
    out = layer_metrics(spans, {"report.bundle_files"})
    assert out["report.bundle_files.busy_s"] == 2.0
    assert out["report.bundle.bytes"] == 12


def test_missing_target_is_unmeasured_not_zero():
    tracer = Tracer("r")
    targets = (("lassi.pipeline", None, "no_such_function", "attribution.attribute", None),)
    with tracer.installed(targets):
        pass
    out = layer_metrics(tracer.spans, tracer.installed_names)
    assert out["attribution.attribute.busy_s"] is None
    assert out["attribution.attribute.samples"] is None


def test_tracer_restores_originals():
    from lassi import pipeline

    before = pipeline.attribute
    with Tracer("r").installed():
        assert pipeline.attribute is not before
    assert pipeline.attribute is before


# -- inputs ------------------------------------------------------------------


def test_same_seed_same_bytes_other_seed_differs(tmp_path):
    a = scenarios.build_inputs(tiny_week(5), tmp_path / "a", 5, redeliver=True)
    b = scenarios.build_inputs(tiny_week(5), tmp_path / "b", 5, redeliver=True)
    c = scenarios.build_inputs(tiny_week(6), tmp_path / "c", 6, redeliver=True)
    for name in ("stats_path", "jobs_path", "redelivery_path"):
        assert scenarios.file_digest(a[name]) == scenarios.file_digest(b[name])
    assert scenarios.file_digest(a["stats_path"]) != scenarios.file_digest(c["stats_path"])
    assert a["injected_lines"] == b["injected_lines"]
    # one bad row per thousand good ones, every defect kind represented
    assert len(a["injected_lines"]) == (24 * 480) // scenarios.INJECT_EVERY >= 4


# -- failure accounting --------------------------------------------------------


@pytest.fixture(scope="module")
def week_iteration(tmp_path_factory):
    root = tmp_path_factory.mktemp("week")
    inputs = scenarios.build_inputs(tiny_week(3), root / "inputs", 3, redeliver=True)
    result = flows.run_iteration("week_store", inputs, root / "iter0")
    return inputs, result


def test_clean_week_iteration_passes_every_check(week_iteration):
    inputs, result = week_iteration
    assert result["error"] is None
    problems, calls = checks.check_iteration("week_store", result, inputs, 3)
    assert problems == []
    assert run.account([result], problems, calls) == (len(result["ops"]) + calls, 0)


def test_tampered_partition_fails_the_aggregate(week_iteration, tmp_path):
    inputs, result = week_iteration
    store = tmp_path / "store"
    shutil.copytree(result["facts"]["store"], store)
    part = sorted((store / "app_hours" / "fs2").glob("*.csv"))[0]
    lines = part.read_text(encoding="utf-8").splitlines()
    fields = lines[1].split(",")
    fields[-1] = str(int(fields[-1]) + 1)
    lines[1] = ",".join(fields)
    part.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tampered = dict(result, facts=dict(result["facts"], store=str(store)))
    problems, calls = checks.check_iteration("week_store", tampered, inputs, 3)
    assert [op for op, _ in problems] == ["aggregate_range"]
    attempted, failed = run.account([tampered], problems, calls)
    assert failed == 1 and attempted > 1


def test_wrong_reject_count_fails_the_reingest(week_iteration):
    inputs, result = week_iteration
    facts = dict(result["facts"], reingest=dict(result["facts"]["reingest"]))
    facts["reingest"]["rejected"] += 1
    problems, _ = checks.check_iteration("week_store", dict(result, facts=facts), inputs, 3)
    assert [op for op, _ in problems] == ["reingest"]


def test_failed_check_makes_the_command_exit_non_zero(monkeypatch, capsys, tmp_path):
    real_child = run.run_child

    def child_with_bad_reject_count(*args, **kwargs):
        result = real_child(*args, **kwargs)
        result["facts"]["reingest"]["rejected"] += 1
        return result

    monkeypatch.setattr(scenarios, "week_scenario", tiny_week)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "run_child", child_with_bad_reject_count)
    code = run.main(["--workload", "week_store", "--seed", "2", "--seconds", "0", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] >= 1


def test_raised_call_counts_as_failed():
    result = {"ops": [{"name": "a", "s": 1.0}, {"name": "b", "s": 1.0, "error": "E"}],
              "facts": {}, "error": "E"}
    assert run.account([result], [], 0) == (2, 1)
    crashed = {"ops": [], "facts": {}, "error": "child died"}
    assert run.account([crashed], [], 0) == (1, 1)


# -- traced run ----------------------------------------------------------------


def test_traced_counts_repeat_exactly(tmp_path):
    inputs = scenarios.build_inputs(tiny_farm(4), tmp_path / "inputs", 4, redeliver=False)
    layers = []
    for i in range(2):
        tracer = Tracer(f"run{i}")
        result = flows.run_iteration("taskfarm_store", inputs, tmp_path / f"iter{i}", tracer)
        assert result["error"] is None
        assert checks.check_iteration("taskfarm_store", result, inputs, 4)[0] == []
        layers.append(layer_metrics(tracer.spans, tracer.installed_names))
    counts = [m for m, unit, _span, _what in PER_LAYER if unit in ("count", "B")]
    assert {m: layers[0][m] for m in counts} == {m: layers[1][m] for m in counts}
    assert layers[0]["store.jobs_files_parsed_per_exposure"] >= 1
    # one exposure per job from the store, one more from the verify path
    assert layers[0]["analysis.run_risk_exposure.calls"] == 2 * len(inputs["jobs"])
    assert layers[0]["oracle.values_compared"] > 0


def test_child_peak_rss_excludes_the_parents():
    ballast = bytearray(100 * 2**20)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    code = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); "
        "import spans; print(spans.peak_rss_mib())"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert peak_rss_mib() >= 100 > float(out.stdout)


# -- the command ---------------------------------------------------------------


def test_benchmark_json_matches_the_command():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == run.per_layer_units()

