"""Metric definitions pinned to hand-computed values, plus invariants."""

import math

import pytest
from hypothesis import given, strategies as st

from lassi.metrics import (
    FsBaseline,
    compute_baseline,
    fs_risk_from_totals,
    fs_risk_series,
    ops_quality,
    ops_series,
    risk_mds,
    risk_oss,
    risk_stat,
    rsd,
)
from lassi.model import ALL_FIELDS, MDS_FIELDS, AppHourRecord, FsHourRecord
from lassi.timeutil import HOUR

from helpers import BASE_DAY, mk_counters


def baseline_with(fill=0.0, alpha=2.0, **overrides):
    means = {name: fill for name in ALL_FIELDS}
    means.update(overrides)
    return FsBaseline(
        fs_id="fs2", period=(BASE_DAY, BASE_DAY + HOUR), alpha=alpha, means=means
    )


@pytest.mark.parametrize(
    "x,mean,alpha,expected",
    [
        (4, 1, 2, 1.0),
        (2, 1, 2, 0.0),
        (1, 1, 2, -0.5),
        (0, 1, 2, -1.0),
        (0, 0, 2, 0.0),
        (5, 0, 2, None),
        (9, 3, 1, 2.0),
        (3, 2, 1.5, 0.0),
    ],
)
def test_risk_stat_pinned(x, mean, alpha, expected):
    assert risk_stat(x, mean, alpha) == expected


def test_risk_stat_validation():
    with pytest.raises(ValueError):
        risk_stat(1, 1, 0)
    with pytest.raises(ValueError):
        risk_stat(1, 1, -2)
    with pytest.raises(ValueError):
        risk_stat(1, -1, 2)


def test_risk_oss_sums_only_positive_terms():
    # read_kb risk +1.0, write_kb risk -0.5 (ignored), read_ops undefined
    b = baseline_with(read_kb=10, write_kb=10, write_ops=1, other=1)
    vec = mk_counters(read_kb=40, read_ops=3, write_kb=10, write_ops=0, other=0)
    got = risk_oss(vec, b)
    assert got.value == 1.0
    assert got.contributions == {"read_kb": 1.0}
    assert got.undefined == ("read_ops",)


def test_risk_mds_covers_all_sixteen():
    b = baseline_with(fill=1.0)
    vec = mk_counters(**{name: 4 for name in MDS_FIELDS})  # each stat: (4 - 2) / 2 = 1.0
    got = risk_mds(vec, b)
    assert got.value == 16.0
    assert len(got.contributions) == 16
    assert got.undefined == ()


@pytest.mark.parametrize(
    "kb,ops,expected",
    [
        (1024, 1, 1.0),
        (4, 1, 256.0),
        (0, 0, None),
        (0, 7, math.inf),
        (2048, 1, 0.5),
    ],
)
def test_ops_quality_pinned(kb, ops, expected):
    rec = ops_quality(mk_counters(read_kb=kb, read_ops=ops, write_kb=kb, write_ops=ops))
    assert rec.read_kb_ops == expected
    assert rec.write_kb_ops == expected


def test_ops_quality_sides_independent():
    rec = ops_quality(mk_counters(read_kb=1024, read_ops=2, write_kb=0, write_ops=0))
    assert rec.read_kb_ops == 2.0
    assert rec.write_kb_ops is None


def test_ops_series_follows_the_hour_grid():
    records = [fs_hour(BASE_DAY + HOUR, read_kb=4, read_ops=1, write_ops=3)]
    grid = (BASE_DAY, BASE_DAY + HOUR)
    quiet, busy = ops_series(records, grid)
    assert (quiet.read_kb_ops, quiet.write_kb_ops) == (None, None)  # no record that hour
    assert (busy.read_kb_ops, busy.write_kb_ops) == (256.0, math.inf)
    assert ops_series(records, ()) == ()


def test_rsd_pinned():
    assert rsd([2, 2, 2]) == 0.0
    assert rsd([0, 4]) == 1.0
    assert rsd([0, 0, 0]) is None
    with pytest.raises(ValueError):
        rsd([])


# values are exactly zero or comfortably normal: squaring anything much
# below 1e-150 underflows the variance accumulation and breaks invariance
_value_st = st.one_of(st.just(0.0), st.floats(1e-3, 1e6))


@given(
    values=st.lists(_value_st, min_size=2, max_size=50),
    scale=st.floats(1e-3, 1e3),
)
def test_rsd_scale_invariant(values, scale):
    base = rsd(values)
    scaled = rsd([scale * v for v in values])
    if base is None:
        assert scaled is None
    else:
        assert math.isclose(base, scaled, rel_tol=1e-9, abs_tol=1e-12)


def fs_hour(hour, **counters):
    return FsHourRecord(
        fs_id="fs2", hour=hour, counters=mk_counters(**counters), unattributed=mk_counters()
    )


def test_compute_baseline_zero_fills_quiet_hours():
    # 3 active hours out of a 6 hour period: mean divides by 6, not 3
    records = [fs_hour(BASE_DAY + i * HOUR, read_kb=12, open=6) for i in range(3)]
    b = compute_baseline(records, (BASE_DAY, BASE_DAY + 6 * HOUR), alpha=2.0)
    assert b.means["read_kb"] == 6.0
    assert b.means["open"] == 3.0
    assert b.means["write_kb"] == 0.0
    assert b.fs_id == "fs2"
    assert b.basis == "fs_total"


def test_compute_baseline_means_are_exact_integer_division():
    records = [fs_hour(BASE_DAY, read_kb=1), fs_hour(BASE_DAY + HOUR, read_kb=1)]
    b = compute_baseline(records, (BASE_DAY, BASE_DAY + 3 * HOUR))
    assert b.means["read_kb"] == 2 / 3


def test_compute_baseline_ignores_hours_outside_period():
    records = [
        fs_hour(BASE_DAY, read_kb=10),
        fs_hour(BASE_DAY + 5 * HOUR, read_kb=999),
    ]
    b = compute_baseline(records, (BASE_DAY, BASE_DAY + 2 * HOUR))
    assert b.means["read_kb"] == 5.0


def test_compute_baseline_validation():
    records = [fs_hour(BASE_DAY, read_kb=1)]
    with pytest.raises(ValueError):
        compute_baseline(records, (BASE_DAY + HOUR, BASE_DAY))
    with pytest.raises(ValueError):
        compute_baseline(records, (BASE_DAY, BASE_DAY + 90))
    with pytest.raises(ValueError):
        compute_baseline(records, (BASE_DAY, BASE_DAY + HOUR), alpha=0)
    with pytest.raises(ValueError):
        compute_baseline([], (BASE_DAY, BASE_DAY + HOUR))
    mixed = [records[0], FsHourRecord(
        fs_id="fs3", hour=BASE_DAY, counters=mk_counters(), unattributed=mk_counters()
    )]
    with pytest.raises(ValueError):
        compute_baseline(mixed, (BASE_DAY, BASE_DAY + HOUR))


def test_baseline_dataclass_validation():
    with pytest.raises(ValueError):
        baseline_with(alpha=-1)
    with pytest.raises(ValueError):
        FsBaseline(
            fs_id="fs2",
            period=(BASE_DAY, BASE_DAY + HOUR),
            alpha=2.0,
            means={"read_kb": 1.0},
        )
    with pytest.raises(ValueError):
        baseline_with(read_kb=-3)


def app_hour(app, hour, **counters):
    return AppHourRecord(app_id=app, fs_id="fs2", hour=hour, counters=mk_counters(**counters))


def test_fs_risk_series_sums_apps_and_fills_grid():
    b = baseline_with(read_kb=10)  # threshold 20
    records = [
        app_hour("app1", BASE_DAY, read_kb=40),  # risk 1.0
        app_hour("app2", BASE_DAY, read_kb=60),  # risk 2.0
        app_hour("app1", BASE_DAY + 2 * HOUR, read_kb=20),  # risk 0.0
    ]
    grid = (BASE_DAY, BASE_DAY + HOUR, BASE_DAY + 2 * HOUR)
    series = fs_risk_series(records, b, hours=grid)
    assert series.hours == grid
    assert series.oss == (3.0, 0.0, 0.0)
    assert series.mds == (0.0, 0.0, 0.0)
    assert [r.app_id for r in series.records] == ["app1", "app2", "app1"]
    assert series.as_mapping()[BASE_DAY] == (3.0, 0.0)


def test_fs_risk_series_rejects_foreign_fs():
    b = baseline_with(read_kb=10)
    rec = AppHourRecord(app_id="a", fs_id="fs9", hour=BASE_DAY, counters=mk_counters())
    with pytest.raises(ValueError):
        fs_risk_series([rec], b)


def test_fs_risk_from_totals_scores_totals_directly():
    b = baseline_with(read_kb=10)
    records = [fs_hour(BASE_DAY, read_kb=100)]
    series = fs_risk_from_totals(records, b)
    assert series.oss == (4.0,)
    assert series.records == ()
