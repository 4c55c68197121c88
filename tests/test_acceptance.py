"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Every expected number here is pinned: either hand-computed integer arithmetic
(see helpers.build_exposure_fixture) or an exact identity the metric must
satisfy. Tolerances are stated per criterion and never loosened to make a
test pass. Timing budgets are generous for CI noise but catch order-of-
magnitude regressions.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from lassi.analysis import detect_slowdown, group_jobs, run_risk_exposure, top_contributors
from lassi.attribution import AttributionConfig, attribute
from lassi.ingest import parse_jobs_csv, parse_stats_csv
from lassi.metrics import (
    FsBaseline,
    compute_baseline,
    fs_risk_series,
    ops_quality,
    risk_mds,
    risk_oss,
    risk_stat,
    rsd,
)
from lassi.model import ALL_FIELDS
from lassi.oracle import verify
from lassi.pipeline import (
    aggregate_range,
    build_baselines,
    compute_outputs_from_files,
    ingest_files,
)
from lassi.report import build_daily_report, bundle_files, write_bundle
from lassi.store import Store
from lassi.synth import ACTOR_TYPES, generate, load_scenario, parse_scenario
from lassi.timeutil import DAY, HOUR, hour_range, parse_utc

from helpers import (
    BASE_DAY,
    REPORT_DAY,
    conservation_errors,
    mk_counters,
    mk_job,
    scenario_text,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"
GOLDEN_SCENARIO = Path(__file__).parent / "data" / "golden_scenario.ini"


def run_criterion(capsys, number, label, budget_s, fn):
    """Run one criterion body, print its verdict, re-raise any failure."""
    t0 = time.perf_counter()
    try:
        detail = fn() or ""
    except BaseException as exc:
        elapsed = time.perf_counter() - t0
        with capsys.disabled():
            print(f"criterion {number:2d} {label}: FAIL in {elapsed:.2f}s [{exc}]")
        raise
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if elapsed <= budget_s else "FAIL"
    with capsys.disabled():
        print(
            f"criterion {number:2d} {label}: {verdict} in {elapsed:.2f}s "
            f"(budget {budget_s:g}s){detail}"
        )
    assert elapsed <= budget_s, f"exceeded {budget_s}s budget: {elapsed:.2f}s"


def test_criterion_01_risk_statistic(capsys):
    def body():
        cases = [
            (4, 1, 2, 1.0),
            (2, 1, 2, 0.0),
            (1, 1, 2, -0.5),
            (0, 1, 2, -1.0),
            (0, 0, 2, 0.0),
            (9, 3, 1, 2.0),
        ]
        for x, mean, alpha, want in cases:
            got = risk_stat(x, mean, alpha)
            assert got is not None and abs(got - want) <= 1e-12, (x, mean, alpha, got)
        assert risk_stat(5, 0, 2) is None

        # summed risks never accumulate negative headroom
        means = {name: 100.0 for name in ALL_FIELDS}
        baseline = FsBaseline(
            fs_id="fs", period=(BASE_DAY, BASE_DAY + HOUR), alpha=2.0, means=means
        )
        rng = np.random.default_rng(101)
        for _ in range(1000):
            vec = rng.integers(0, 400, size=21)
            counters = tuple(map(int, vec))
            bo = risk_oss(counters, baseline)
            bm = risk_mds(counters, baseline)
            expect_oss = sum(
                max(0.0, (int(v) - 200.0) / 200.0) for v in vec[:5]
            )
            expect_mds = sum(
                max(0.0, (int(v) - 200.0) / 200.0) for v in vec[5:]
            )
            assert abs(bo.value - expect_oss) <= 1e-12
            assert abs(bm.value - expect_mds) <= 1e-12
            assert bo.value >= 0.0 and bm.value >= 0.0

    run_criterion(capsys, 1, "per-stat risk reference values", 1.0, body)


def test_criterion_02_ops_quality(capsys):
    def body():
        assert ops_quality(mk_counters(read_kb=1024, read_ops=1)).read_kb_ops == 1.0
        assert ops_quality(mk_counters(read_kb=4, read_ops=1)).read_kb_ops == 256.0
        assert ops_quality(mk_counters()).read_kb_ops is None
        assert ops_quality(mk_counters(write_ops=7)).write_kb_ops == math.inf
        rec = ops_quality(mk_counters(read_kb=2048, read_ops=1, write_kb=512, write_ops=2))
        assert rec.read_kb_ops == 0.5
        assert rec.write_kb_ops == 4.0

    run_criterion(capsys, 2, "ops quality reference values", 1.0, body)


def test_criterion_03_rsd_invariance(capsys):
    def body():
        assert rsd([2, 2, 2]) == 0.0
        assert rsd([0, 4]) == 1.0
        rng = np.random.default_rng(33)
        for _ in range(1000):
            values = rng.uniform(0.5, 1e6, size=24)
            scale = float(rng.uniform(1e-3, 1e3))
            a = rsd(values)
            b = rsd(values * scale)
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12), (a, b, scale)

    run_criterion(capsys, 3, "dispersion scale invariance", 1.0, body)


def test_criterion_04_exposure_fixture(capsys, exposure_fixture):
    def body():
        fx = exposure_fixture
        result = attribute(fx.samples, fx.jobs, AttributionConfig())
        from lassi.attribution import aggregate_hourly, fs_hourly_totals

        app_hours = aggregate_hourly(result, fx.jobs)
        fs_hours = fs_hourly_totals(fx.samples, result)
        baseline_records = [r for r in fs_hours if r.hour < REPORT_DAY]
        baseline = compute_baseline(baseline_records, fx.baseline_period, alpha=2.0, fs_id="fs2")
        assert baseline.means["read_kb"] == 2000.0
        assert baseline.means["open"] == 200.0

        grid = tuple(hour_range(fx.report_day, fx.report_day + DAY))
        series = fs_risk_series(app_hours, baseline, hours=grid)
        for hour, oss, mds in zip(series.hours, series.oss, series.mds):
            assert oss == fx.expected_oss_by_hour.get(hour, 0.0), hour
            assert mds == fx.expected_mds_by_hour.get(hour, 0.0), hour

        exposures = [run_risk_exposure(job, series) for job in fx.jobs]
        for e in exposures:
            assert e.hours == 3
            assert e.risk_oss_sum == fx.expected_exposure_oss  # exactly 502.0
            assert e.risk_mds_sum == fx.expected_exposure_mds  # exactly 77.0
        assert len({(e.risk_oss_sum, e.risk_mds_sum) for e in exposures}) == 1
        return f"; {len(exposures)} identical exposures of {exposures[0].risk_oss_sum}"

    run_criterion(capsys, 4, "hand-computed exposure fixture", 5.0, body)


def _seeded_scenario(seed: int) -> str:
    actor_type = ACTOR_TYPES[seed % len(ACTOR_TYPES)]
    tasks = 1 + seed % 3
    noise = 0.25 if seed % 2 else 0.0
    duration_line = ""
    if seed % 5 == 0:
        picks = ("3600", "5400", "7200")[:tasks]
        duration_line = f"durations = {' '.join(picks)}\n"
    background = (
        "[background fs2]\n"
        "read_kb = 2\n"
        "open = 0.1\n"
        + (f"noise = {noise}\n" if noise else "")
    )
    actor = (
        "[actor probe]\n"
        f"type = {actor_type}\n"
        "fs = fs2\n"
        f"tasks = {tasks}\n"
        f"start_hour = {1 + seed % 6}\n"
        f"hours = {1 + (seed % 3) * 0.5}\n"
        f"intensity = {1 + seed % 3}\n"
        f"stagger_s = {450 * (1 + seed % 2)}\n"
        + duration_line
        + (f"noise = {noise}\n" if noise else "")
    )
    return scenario_text(
        seed=seed,
        node_pool=4,
        filesystems="fs2:48 fs3:48",
        window_len=900,
        background=background,
        actors=actor,
    )


def test_criterion_05_oracle_agreement_over_seeds(capsys, tmp_path):
    def body():
        compared = 0
        for seed in range(100):
            scenario = parse_scenario(_seeded_scenario(seed))
            generated = generate(scenario, tmp_path / f"s{seed}")
            outputs = compute_outputs_from_files(
                generated.stats_path,
                generated.jobs_path,
                (scenario.start, scenario.end),
                alpha=scenario.alpha,
                window_len=scenario.window_len,
                boundary_policy=scenario.boundary_policy,
            )
            report = verify(outputs, generated.oracle_dir, rel_tol=1e-9)
            assert report.ok, f"seed {seed}: {report.summary()} {report.diffs[:3]}"
            compared += report.compared
        return f"; 100 seeds, {compared} values compared"

    run_criterion(capsys, 5, "pipeline matches direct evaluation", 120.0, body)


def test_criterion_06_conservation(capsys, tmp_path):
    def body():
        # stagger_s=450 puts job boundaries mid-window so shares get split
        scenario = parse_scenario(_seeded_scenario(13))
        generated = generate(scenario, tmp_path, with_oracle=False)
        samples, _ = parse_stats_csv(generated.stats_path, "strict", 900)
        jobs, _ = parse_jobs_csv(generated.jobs_path, "strict")
        for policy in ("midpoint", "proportional"):
            result = attribute(
                samples, jobs, AttributionConfig(boundary_policy=policy, window_len=900)
            )
            problems = conservation_errors(samples, result)
            assert problems == [], (policy, problems[:3])
        return f"; {len(samples)} windows conserved under both policies"

    run_criterion(capsys, 6, "attribution conserves every counter", 30.0, body)


STORM_SCENARIO = """\
[scenario]
seed = 21
start = 2017-10-10T00:00:00Z
days = 1
window_len = 900
node_pool = 6
filesystems = fs2:48 fs3:48
alpha = 2.0

[background fs2]
open = 0.05
read_kb = 1

[actor storm]
type = taskfarm_mds_storm
fs = fs2
nodes = 1
tasks = 1
start_hour = 10
hours = 2
intensity = 5

[actor steady]
type = steady_app
fs = fs3
nodes = 1
tasks = 1
start_hour = 8
hours = 6
"""

TRACER_SCENARIO = """\
[scenario]
seed = 22
start = 2017-10-10T00:00:00Z
days = 1
window_len = 900
node_pool = 2
filesystems = fs2:48
alpha = 2.0

[background fs2]
write_kb = 256
write_ops = 0.25

[actor tracer]
type = small_write_tracer
fs = fs2
tasks = 1
start_hour = 9
hours = 2
intensity = 2000
"""


def test_criterion_07_behavioral_signatures(capsys, tmp_path):
    def body():
        start = parse_utc("2017-10-10T00:00:00Z")

        # metadata storm: MDS risk rises exactly in the storm's two hours
        scenario = parse_scenario(STORM_SCENARIO)
        generated = generate(scenario, tmp_path / "storm", with_oracle=False)
        outputs = compute_outputs_from_files(
            generated.stats_path, generated.jobs_path, (start, start + DAY),
            window_len=900,
        )
        series = outputs.risk["fs2"]
        storm_hours = {start + 10 * HOUR, start + 11 * HOUR}
        for hour, mds in zip(series.hours, series.mds):
            if hour in storm_hours:
                assert mds > 1.0, (hour, mds)
            else:
                assert mds == 0.0, (hour, mds)
        (top,) = top_contributors(series.records, start, start + DAY, 8, "mds")
        assert top.app_id == "app0001"
        assert top.share == 1.0  # the storm owns the entire metadata risk
        assert top.share > 0.9

        # small-write tracer: write quality collapses only while it runs
        scenario = parse_scenario(TRACER_SCENARIO)
        generated = generate(scenario, tmp_path / "tracer", with_oracle=False)
        outputs = compute_outputs_from_files(
            generated.stats_path, generated.jobs_path, (start, start + DAY),
            window_len=900,
        )
        run_hours = {start + 9 * HOUR, start + 10 * HOUR}
        for hour, _read, write in outputs.ops["fs2"]:
            if hour in run_hours:
                assert write is not None and write > 100.0, (hour, write)
            else:
                assert write == 1.0, (hour, write)  # exactly 1 MiB per op
        return "; storm share=1.0, tracer quality spike confirmed"

    run_criterion(capsys, 7, "workload signatures in the metrics", 30.0, body)


def test_criterion_08_slowdown_detection(capsys):
    def body():
        jobs = [
            mk_job(f"a{i}", [f"n{i}"], BASE_DAY, BASE_DAY + r, command="./fast.x")
            for i, r in enumerate([100, 100, 100, 400])
        ] + [
            mk_job(f"b{i}", [f"m{i}"], BASE_DAY, BASE_DAY + r, command="./even.x")
            for i, r in enumerate([100, 100, 100, 160])
        ]
        groups = {g.command: g for g in group_jobs(jobs)}
        spread = detect_slowdown(groups["./fast.x"], factor=1.5)
        assert spread.mean_runtime == 175.0
        assert spread.threshold == 262.5
        assert spread.flagged == (("a3", 400),)
        tight = detect_slowdown(groups["./even.x"], factor=1.5)
        assert tight.threshold == 172.5
        assert tight.flagged == ()

    run_criterion(capsys, 8, "slowdown flags exactly the outlier", 1.0, body)


def _performance_scenario() -> str:
    actors = []
    for day in range(7):
        actors.append(
            "[actor storm_d{d}]\n"
            "type = taskfarm_mds_storm\n"
            "fs = fs2\n"
            "nodes = 4\n"
            "tasks = 2\n"
            "start_hour = {h}\n"
            "hours = 2\n"
            "stagger_s = 7200\n".format(d=day, h=day * 24 + 9)
        )
        actors.append(
            "[actor steady_d{d}]\n"
            "type = steady_app\n"
            "fs = fs1\n"
            "nodes = 8\n"
            "tasks = 1\n"
            "start_hour = {h}\n"
            "hours = 5\n".format(d=day, h=day * 24 + 11)
        )
    return (
        "[scenario]\n"
        "seed = 97\n"
        "start = 2017-10-09T00:00:00Z\n"
        "days = 7\n"
        "window_len = 180\n"
        "node_pool = 100\n"
        "filesystems = fs1:48 fs2:48 fs3:24\n"
        "alpha = 2.0\n"
        "[background fs1]\n"
        "read_kb = 120\nread_ops = 0.4\nwrite_kb = 260\nwrite_ops = 0.5\n"
        "other = 1\nopen = 0.6\nclose = 0.6\ngetattr = 1.2\nnoise = 0.3\n"
        "[background fs2]\n"
        "read_kb = 60\nwrite_kb = 90\nwrite_ops = 0.2\nopen = 0.4\nclose = 0.4\n"
        "noise = 0.3\n"
        "[background fs3]\n"
        "write_kb = 30\nwrite_ops = 0.1\ngetattr = 0.2\nnoise = 0.3\n"
        + "".join(actors)
    )


def test_criterion_09_week_scale_performance(capsys, tmp_path):
    def body():
        scenario = parse_scenario(_performance_scenario())
        generated = generate(scenario, tmp_path / "data", with_oracle=False)
        assert generated.sample_rows == 7 * (DAY // 180) * 100

        store = Store(tmp_path / "store", window_len=180)
        summary = ingest_files(
            store, [generated.stats_path], [generated.jobs_path]
        )
        assert summary.samples == 336000
        aggregate_range(store, scenario.start, scenario.end)
        build_baselines(store, scenario.start, scenario.start + 2 * DAY)

        report_day = scenario.start + 3 * DAY
        bundle = build_daily_report(store, "fs2", report_day)
        first = write_bundle(bundle, tmp_path / "out")
        before = {p.name: p.read_bytes() for p in first.iterdir()}

        again = build_daily_report(store, "fs2", report_day)
        assert bundle_files(again) == bundle_files(bundle)
        write_bundle(again, tmp_path / "out")
        after = {p.name: p.read_bytes() for p in first.iterdir()}
        assert before == after and len(before) == 9
        return "; 336000 samples ingested, report rerun byte-identical"

    run_criterion(capsys, 9, "week of data inside the time budget", 60.0, body)


def test_criterion_10_golden_files(capsys, tmp_path):
    def body():
        assert GOLDEN_DIR.is_dir(), "tests/goldens missing; run tests/make_goldens.py"
        scenario = load_scenario(GOLDEN_SCENARIO)
        generated = generate(scenario, tmp_path / "data")

        store = Store(tmp_path / "store", window_len=scenario.window_len)
        ingest_files(store, [generated.stats_path], [generated.jobs_path])
        aggregate_range(
            store,
            scenario.start,
            scenario.end,
            AttributionConfig(window_len=scenario.window_len),
        )
        build_baselines(store, scenario.start, scenario.end, alpha=scenario.alpha)
        bundle = build_daily_report(store, "fs2", scenario.start)
        report_dir = write_bundle(bundle, tmp_path / "out")

        produced = {
            "stats.csv": generated.stats_path,
            "jobs.csv": generated.jobs_path,
        }
        for path in sorted(generated.oracle_dir.iterdir()):
            produced[f"oracle/{path.name}"] = path
        for path in sorted(report_dir.iterdir()):
            produced[f"report/{path.name}"] = path

        goldens = {
            str(p.relative_to(GOLDEN_DIR)): p
            for p in sorted(GOLDEN_DIR.rglob("*"))
            if p.is_file()
        }
        assert set(produced) == set(goldens), (
            set(produced) ^ set(goldens)
        )
        mismatched = [
            name
            for name, path in produced.items()
            if path.read_bytes() != goldens[name].read_bytes()
        ]
        assert mismatched == [], mismatched
        return f"; {len(goldens)} files byte-identical"

    run_criterion(capsys, 10, "golden outputs reproduce byte-for-byte", 30.0, body)
