"""Filesystem-day risk served from the store memo (Store.day_risk).

Exposures and daily reports read each (filesystem, day)'s risk series from
the memo beside its app_hours parse. These tests hold that path to the
direct one (a range read and one fs_risk_series per query), check that a
series is scored once per (filesystem, day, baseline values), that a
long-lived Store follows every change to its inputs, and that the refusals
of the direct path still hold, for one run (exposure_for) and for a batch
of runs (exposures).
"""

import csv
import dataclasses

import pytest

from lassi import metrics, synth
from lassi.attribution import AttributionConfig
from lassi.errors import MissingBaselineError
from lassi.ingest import JOBS_HEADER, STATS_HEADER
from lassi.metrics import fs_risk_series
from lassi.pipeline import (
    aggregate_range,
    build_baselines,
    exposure_for,
    exposures,
    ingest_files,
)
from lassi.report import build_daily_report, bundle_files
from lassi.store import Partition, Store
from lassi.timeutil import DAY, hour_range, parse_utc

from helpers import TASKFARM_SCENARIO, reference_exposures

START = parse_utc("2017-10-10T00:00:00Z")
DAYS = (START, START + DAY)
FILESYSTEMS = ("fs2", "fs3")
WINDOW = 600
CROSSING = "app0900"  # 23:20 on the first day to 01:40 on the second, on both filesystems
IDLE = "app0901"  # its node reports no samples
EXTRA_JOBS = (
    ",".join(JOBS_HEADER) + "\n"
    f"{CROSSING},4900.sdb,usr03,2017-10-10T23:20:00Z,2017-10-11T01:40:00Z,"
    "nid00002;nid00003,aprun -n 72 ./cross.x\n"
    f"{IDLE},4901.sdb,usr03,2017-10-10T10:00:00Z,2017-10-10T11:00:00Z,"
    "nid00099,aprun -n 36 ./idle.x\n"
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The task-farm scenario's files plus a jobs file with CROSSING and IDLE."""
    out = tmp_path_factory.mktemp("taskfarm")
    scenario = synth.parse_scenario(TASKFARM_SCENARIO.read_text(encoding="utf-8"))
    gen = synth.generate(scenario, out, with_oracle=False)
    extra = out / "extra_jobs.csv"
    extra.write_text(EXTRA_JOBS, encoding="utf-8")
    return gen.stats_path, (gen.jobs_path, extra)


@pytest.fixture
def store(tmp_path, inputs):
    stats, jobs = inputs
    store = Store(tmp_path / "store", window_len=WINDOW)
    ingest_files(store, [stats], jobs)
    aggregate_range(store, START, START + 2 * DAY, AttributionConfig("proportional", WINDOW))
    build_baselines(store, START, START + DAY)
    return store


def active_apps(store) -> list[str]:
    jobs = store.query_jobs_overlapping(START, START + 2 * DAY)
    return sorted(j.app_id for j in jobs if j.app_id != IDLE)


def snapshot(store):
    """Every active run's exposures and every (filesystem, day)'s bundle files."""
    exposures = {app_id: exposure_for(store, app_id) for app_id in active_apps(store)}
    bundles = {
        (fs, day): bundle_files(build_daily_report(store, fs, day))
        for fs in FILESYSTEMS
        for day in DAYS
    }
    return exposures, bundles


@pytest.mark.parametrize("alpha", [None, 1.5, 4.0])
def test_exposures_equal_the_direct_path(store, alpha):
    direct = Store(store.root, window_len=WINDOW)
    apps = active_apps(store)
    assert len(apps) == 17
    for app_id in apps:
        got = exposure_for(store, app_id, alpha=alpha)
        assert got == reference_exposures(direct, app_id, alpha=alpha)
        for fs in FILESYSTEMS:
            assert exposure_for(store, app_id, fs, alpha) == reference_exposures(
                direct, app_id, fs, alpha
            )
    crossing = exposure_for(store, CROSSING, alpha=alpha)
    assert [(r.fs_id, r.hours) for r in crossing] == [("fs2", 3), ("fs3", 3)]
    assert any(r.risk_oss_sum > 0 for app_id in apps for r in exposure_for(store, app_id))


@pytest.mark.parametrize("alpha", [None, 4.0])
def test_a_batch_equals_the_direct_path_app_by_app(store, alpha):
    direct = Store(store.root, window_len=WINDOW)
    apps = active_apps(store)
    # given order is kept, a repeated app_id answered once
    batch = exposures(store, [*reversed(apps), apps[0]], alpha=alpha)
    assert list(batch) == [*reversed(apps)]
    assert batch == {app_id: reference_exposures(direct, app_id, alpha=alpha) for app_id in apps}
    stored = [*apps, CROSSING, IDLE]
    for fs in FILESYSTEMS:
        assert exposures(store, stored, fs, alpha) == {
            app_id: reference_exposures(direct, app_id, fs, alpha) for app_id in stored
        }


def spy(monkeypatch, name) -> list:
    """Record the arguments of each Store.<name> call for one test."""
    calls = []
    real = getattr(Store, name)

    def wrapper(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(Store, name, wrapper)
    return calls


def test_a_batch_lists_jobs_once_and_loads_each_baseline_label_once(store, monkeypatch):
    apps = active_apps(store)
    listed = spy(monkeypatch, "partition_dates")
    loaded = spy(monkeypatch, "baseline_at")
    exposures(store, apps)
    assert sorted(listed, key=str) == [("baselines", "fs2"), ("baselines", "fs3"), ("jobs", None)]
    assert sorted(loaded) == [("fs2", START, None), ("fs3", START, None)]


@pytest.mark.parametrize(
    "app_id, message",
    [
        ("app9999", "no job with app_id 'app9999' in the store"),
        (IDLE, f"app {IDLE!r} has no attributed activity; pass an explicit fs"),
    ],
)
def test_a_batch_refuses_as_exposure_for_does(store, app_id, message):
    with pytest.raises(ValueError) as single:
        exposure_for(store, app_id)
    assert str(single.value) == message
    for batch in ([app_id], ["app0001", app_id, "app0002"]):
        with pytest.raises(ValueError) as err:
            exposures(store, batch)
        assert str(err.value) == message


def test_daily_report_series_is_a_direct_fs_risk_series(store):
    for fs in FILESYSTEMS:
        for day in DAYS:
            baseline = store.load_baseline(fs, day)
            records = store.read_range("app_hours", fs, day, day + DAY)
            direct = fs_risk_series(records, baseline, hours=tuple(hour_range(day, day + DAY)))
            bundle = build_daily_report(store, fs, day)
            assert (bundle.hours, bundle.oss.fs_risk, bundle.mds.fs_risk) == (
                direct.hours,
                direct.oss,
                direct.mds,
            )
            assert store.day_risk(fs, day, baseline) == direct


def test_risk_is_scored_once_per_filesystem_day_and_baseline(store, monkeypatch):
    scored = []

    def counted(records, baseline, hours):
        scored.append((baseline.fs_id, hours[0], baseline.alpha))
        return metrics.fs_risk_series(records, baseline, hours)

    monkeypatch.setattr("lassi.store.fs_risk_series", counted)
    warm = Store(store.root, window_len=WINDOW)
    for fs in FILESYSTEMS:
        for day in DAYS:
            build_daily_report(warm, fs, day)
    assert sorted(scored) == sorted((fs, day, 2.0) for fs in FILESYSTEMS for day in DAYS)
    # every run's baseline is the one its day's report used
    for app_id in active_apps(store):
        exposure_for(warm, app_id)
    assert len(scored) == 4
    exposure_for(warm, CROSSING, alpha=4.0)
    assert sorted(scored[4:]) == sorted((fs, day, 4.0) for fs in FILESYSTEMS for day in DAYS)


def redelivery(inputs, tmp_path):
    """The stats file with app0009's node reading far more during its run."""
    stats, _ = inputs
    read_kb = STATS_HEADER.index("read_kb")
    with open(stats, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        if row[2] == "nid00000" and row[0].startswith("2017-10-10T00:"):
            row[read_kb] = str(int(row[read_kb]) * 50)
    path = tmp_path / "redelivery.csv"
    path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    return path


def test_a_long_lived_store_follows_every_change(store, inputs, tmp_path):
    def fresh():
        return snapshot(Store(store.root, window_len=WINDOW))

    seen = [snapshot(store)]
    assert seen[-1] == fresh()

    # (a) a lenient re-delivery that changes counters, then a re-aggregate
    summary = ingest_files(store, [redelivery(inputs, tmp_path)], mode="lenient")
    assert summary.rejected > 0
    aggregate_range(store, START, START + 2 * DAY, AttributionConfig("proportional", WINDOW))
    seen.append(snapshot(store))
    assert seen[-1] == fresh()

    # (b) a baseline rewritten under the same label, period and alpha
    baseline = store.load_baseline("fs2", START)
    halved = {stat: mean / 2 for stat, mean in baseline.means.items()}
    store.write_baseline(dataclasses.replace(baseline, means=halved), START)
    seen.append(snapshot(store))
    assert seen[-1] == fresh()

    # (c) a re-aggregate written through a second Store
    other = Store(store.root, window_len=WINDOW)
    aggregate_range(other, START, START + 2 * DAY, AttributionConfig("midpoint", WINDOW))
    seen.append(snapshot(store))
    assert seen[-1] == fresh()

    assert all(a != b for a, b in zip(seen, seen[1:]))


def test_refusals_hold_on_a_warm_store(store):
    snapshot(store)
    fs2_only = exposure_for(store, "app0009")
    assert [r.fs_id for r in fs2_only] == ["fs2"]

    # an inactive filesystem without a baseline is skipped, an active one refused
    store.path(Partition("baselines", "fs3", START)).unlink()
    assert exposure_for(store, "app0009") == fs2_only
    missing = "^no baseline stored for fs3 on or before 2017-10-10; run `lassi baseline` first$"
    with pytest.raises(MissingBaselineError, match=missing):
        exposure_for(store, "app0001")

    with pytest.raises(ValueError, match="no attributed activity"):
        exposure_for(store, IDLE)

    # a never-aggregated day in a run's span
    store.path(Partition("fs_hours", "fs2", START + DAY)).unlink()
    for fs in ("fs2", None):
        with pytest.raises(FileNotFoundError, match="no aggregates for fs2 on 2017-10-11"):
            exposure_for(store, CROSSING, fs)
    with pytest.raises(FileNotFoundError, match="no aggregates for fs2 on 2017-10-11"):
        build_daily_report(store, "fs2", START + DAY)
