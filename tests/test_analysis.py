"""Run grouping, slowdown detection, exposure sums, and contributor ranking."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lassi.analysis import (
    detect_slowdown,
    group_jobs,
    group_key,
    normalize_command,
    run_risk_exposure,
    runtime_vs_risk,
    top_contributors,
)
from lassi.errors import SeriesGapError
from lassi.metrics import RiskRecord, RiskSeries
from lassi.timeutil import HOUR

from helpers import BASE_DAY, mk_job


def test_normalize_command():
    assert normalize_command("  aprun  -n 36   ./a.x ") == "aprun -n 36 ./a.x"
    assert normalize_command("aprun\t-n\n36 ./a.x") == "aprun -n 36 ./a.x"
    with pytest.raises(ValueError):
        normalize_command("   ")


def test_group_key_stable_and_whitespace_insensitive():
    k = group_key("aprun -n 36 ./a.x")
    assert k == group_key("aprun  -n  36  ./a.x")
    assert len(k) == 16
    assert int(k, 16) >= 0  # hex digest prefix
    assert k != group_key("aprun -n 72 ./a.x")


# commands of words, some not ASCII, between runs of mixed whitespace
_WORDS = st.text(st.characters(exclude_categories=("Cs", "Z", "Cc")), min_size=1)
_GAPS = st.text(" \t\n\r\x0b\x0c\u00a0\u2003\u3000", min_size=1)


@given(st.lists(st.tuples(_GAPS, _WORDS), min_size=1), _GAPS)
def test_group_key_is_the_sha256_of_the_normalized_command(parts, tail):
    command = "".join(gap + word for gap, word in parts) + tail
    want = hashlib.sha256(normalize_command(command).encode("utf-8")).hexdigest()[:16]
    assert group_key(command) == want


def jobs_with_runtimes(runtimes, command="aprun -n 36 ./ft_app.x"):
    return [
        mk_job(f"app{i}", [f"nid{i}"], BASE_DAY, BASE_DAY + r, command=command)
        for i, r in enumerate(runtimes)
    ]


def test_group_jobs_partitions_by_command():
    jobs = jobs_with_runtimes([100, 200]) + [
        mk_job("app9", ["nid9"], BASE_DAY, BASE_DAY + 50, command="aprun -n 1 ./b.x")
    ]
    groups = group_jobs(jobs)
    assert [g.command for g in groups] == ["aprun -n 1 ./b.x", "aprun -n 36 ./ft_app.x"]
    big = groups[1]
    assert big.runs == (("app0", 100), ("app1", 200))
    assert big.mean_runtime == 150.0
    assert big.runtime_rsd == pytest.approx(50 / 150)


def test_detect_slowdown_pinned():
    (group,) = group_jobs(jobs_with_runtimes([100, 100, 100, 400]))
    result = detect_slowdown(group, factor=1.5)
    assert result.mean_runtime == 175.0
    assert result.threshold == 262.5
    assert result.flagged == (("app3", 400),)


def test_detect_slowdown_no_flags_below_threshold():
    (group,) = group_jobs(jobs_with_runtimes([100, 100, 100, 160]))
    result = detect_slowdown(group, factor=1.5)
    assert result.threshold == 172.5
    assert result.flagged == ()


def test_detect_slowdown_threshold_is_inclusive():
    (group,) = group_jobs(jobs_with_runtimes([100, 200]))
    result = detect_slowdown(group, factor=1.5)
    # mean 150, threshold 225; nothing reaches it
    assert result.flagged == ()
    (group,) = group_jobs(jobs_with_runtimes([100, 100, 100, 150]))
    result = detect_slowdown(group, factor=1.0)
    # mean 112.5: 150 >= 112.5 flags, the rest stay below
    assert result.flagged == (("app3", 150),)


def test_detect_slowdown_insufficient_data():
    (group,) = group_jobs(jobs_with_runtimes([100]))
    result = detect_slowdown(group)
    assert result.flagged == ()
    assert "insufficient data" in result.reason


def test_detect_slowdown_validation():
    (group,) = group_jobs(jobs_with_runtimes([100, 200]))
    with pytest.raises(ValueError):
        detect_slowdown(group, factor=0)


def series_over(hours, oss, mds):
    return RiskSeries(
        fs_id="fs2", hours=tuple(hours), oss=tuple(oss), mds=tuple(mds), records=()
    )


def test_run_risk_exposure_counts_partial_hours_fully():
    # 10:30..12:10 touches hours 10, 11, and 12
    job = mk_job(
        "app1", ["nid1"], BASE_DAY + 10 * HOUR + 1800, BASE_DAY + 12 * HOUR + 600
    )
    hours = [BASE_DAY + h * HOUR for h in range(10, 14)]
    series = series_over(hours, [1.0, 2.0, 4.0, 100.0], [0.25, 0.25, 0.5, 9.0])
    exposure = run_risk_exposure(job, series)
    assert exposure.hours == 3
    assert exposure.risk_oss_sum == 7.0
    assert exposure.risk_mds_sum == 1.0
    assert exposure.fs_id == "fs2"


def test_run_risk_exposure_gap_raises():
    job = mk_job("app1", ["nid1"], BASE_DAY, BASE_DAY + 3 * HOUR)
    series = series_over([BASE_DAY, BASE_DAY + 2 * HOUR], [1.0, 1.0], [0.0, 0.0])
    with pytest.raises(SeriesGapError) as err:
        run_risk_exposure(job, series)
    assert err.value.missing_hours == (BASE_DAY + HOUR,)


def test_runtime_vs_risk_points():
    jobs = jobs_with_runtimes([100, 200])
    (group,) = group_jobs(jobs)
    series = series_over([BASE_DAY], [5.0], [2.0])
    exposures = {j.app_id: run_risk_exposure(j, series) for j in jobs}
    points = runtime_vs_risk(group, exposures)
    assert [(p.app_id, p.runtime_s) for p in points] == [("app0", 100), ("app1", 200)]
    assert points[0].risk_oss_sum == 5.0
    assert points[0].risk_mds_axis == -2.0
    with pytest.raises(ValueError):
        runtime_vs_risk(group, {})


def risk_rec(app, hour, oss, mds=0.0):
    return RiskRecord(app_id=app, fs_id="fs2", hour=hour, risk_oss=oss, risk_mds=mds)


def test_top_contributors_ranking_and_shares():
    records = [
        risk_rec("app1", BASE_DAY, 6.0),
        risk_rec("app2", BASE_DAY, 3.0),
        risk_rec("app1", BASE_DAY + HOUR, 0.0),
        risk_rec("app3", BASE_DAY + HOUR, 1.0),
        risk_rec("app4", BASE_DAY + 5 * HOUR, 99.0),  # outside the range
    ]
    top = top_contributors(records, BASE_DAY, BASE_DAY + 2 * HOUR, k=2, side="oss")
    assert [(c.app_id, c.total) for c in top] == [("app1", 6.0), ("app2", 3.0)]
    assert top[0].share == 0.6
    assert top[1].share == 0.3


def test_top_contributors_ties_break_by_app_id():
    records = [risk_rec("b", BASE_DAY, 2.0), risk_rec("a", BASE_DAY, 2.0)]
    top = top_contributors(records, BASE_DAY, BASE_DAY + HOUR, k=5, side="oss")
    assert [c.app_id for c in top] == ["a", "b"]


def test_top_contributors_empty_when_no_positive_risk():
    records = [risk_rec("app1", BASE_DAY, 0.0)]
    assert top_contributors(records, BASE_DAY, BASE_DAY + HOUR, k=3, side="oss") == []


def test_top_contributors_mds_side_and_validation():
    records = [risk_rec("app1", BASE_DAY, 0.0, mds=4.0)]
    (c,) = top_contributors(records, BASE_DAY, BASE_DAY + HOUR, k=1, side="mds")
    assert c.total == 4.0
    assert c.share == 1.0
    with pytest.raises(ValueError):
        top_contributors(records, BASE_DAY, BASE_DAY + HOUR, k=0, side="mds")
    with pytest.raises(ValueError):
        top_contributors(records, BASE_DAY + HOUR, BASE_DAY, k=1, side="mds")
    with pytest.raises(ValueError):
        top_contributors(records, BASE_DAY, BASE_DAY + HOUR, k=1, side="both")
