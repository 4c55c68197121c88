"""Window attribution: ownership rules, conflicts, conservation, rollups."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lassi.attribution import (
    AttributionConfig,
    AttributionResult,
    aggregate_hourly,
    attribute,
    fs_hourly_totals,
)
from lassi.errors import AttributionConflictError
from lassi.timeutil import DAY, HOUR

from helpers import (
    BASE_DAY,
    conservation_errors,
    mk_block,
    mk_counters,
    mk_job,
    mk_sample,
    result_dicts,
)

MIDPOINT = AttributionConfig(boundary_policy="midpoint")
PROPORTIONAL = AttributionConfig(boundary_policy="proportional")


def vec_block(vec):
    return mk_block([("fs2", "nid1", BASE_DAY, vec)])


def test_config_validation():
    with pytest.raises(ValueError):
        AttributionConfig(boundary_policy="nearest")
    with pytest.raises(ValueError):
        AttributionConfig(window_len=7)
    AttributionConfig(window_len=225)  # 3600 / 225 = 16, allowed


def test_midpoint_window_inside_job():
    job = mk_job("app1", ["nid1"], BASE_DAY, BASE_DAY + HOUR)
    sample = mk_block([mk_sample("fs2", "nid1", BASE_DAY + 180, read_kb=100)])
    result = attribute(sample, [job], MIDPOINT)
    attributed, unattributed = result_dicts(result)
    assert attributed[("app1", "fs2", BASE_DAY + 180)][0] == 100
    assert unattributed == {}


@pytest.mark.parametrize(
    "job_start_offset,owned",
    [
        (0, True),
        (90, True),  # start exactly at the midpoint: inclusive
        (91, False),
        (180, False),
    ],
)
def test_midpoint_start_boundary(job_start_offset, owned):
    w = BASE_DAY
    job = mk_job("app1", ["nid1"], w + job_start_offset, w + HOUR)
    result = attribute(mk_block([mk_sample("fs2", "nid1", w, read_kb=7)]), [job], MIDPOINT)
    attributed, unattributed = result_dicts(result)
    if owned:
        assert ("app1", "fs2", w) in attributed
    else:
        assert unattributed[("fs2", w)][0] == 7


@pytest.mark.parametrize(
    "job_end_offset,owned",
    [
        (90, False),  # end exactly at the midpoint: exclusive
        (91, True),
        (180, True),
    ],
)
def test_midpoint_end_boundary(job_end_offset, owned):
    w = BASE_DAY
    job = mk_job("app1", ["nid1"], w - HOUR, w + job_end_offset)
    result = attribute(mk_block([mk_sample("fs2", "nid1", w, read_kb=7)]), [job], MIDPOINT)
    attributed, unattributed = result_dicts(result)
    assert (("app1", "fs2", w) in attributed) is owned


def test_midpoint_odd_window_length():
    # wlen 225 puts the midpoint at +112.5s; doubling keeps the compare exact
    w = BASE_DAY
    inside = mk_job("app1", ["nid1"], w + 112, w + HOUR)
    result = attribute(
        mk_block([mk_sample("fs2", "nid1", w, read_kb=3)], window_len=225), [inside], MIDPOINT
    )
    attributed, unattributed = result_dicts(result)
    assert ("app1", "fs2", w) in attributed

    outside = mk_job("app2", ["nid2"], w + 113, w + HOUR)
    result = attribute(
        mk_block([mk_sample("fs2", "nid2", w, read_kb=3)], window_len=225), [outside], MIDPOINT
    )
    attributed, unattributed = result_dicts(result)
    assert attributed == {}


def test_idle_and_unknown_nodes_stay_unattributed():
    job = mk_job("app1", ["nid1"], BASE_DAY + 2 * HOUR, BASE_DAY + 3 * HOUR)
    samples = mk_block([
        mk_sample("fs2", "nid1", BASE_DAY, write_kb=10),  # before the job
        mk_sample("fs2", "nid9", BASE_DAY, write_kb=20),  # never allocated
    ])
    result = attribute(samples, [job], MIDPOINT)
    attributed, unattributed = result_dicts(result)
    assert attributed == {}
    assert unattributed[("fs2", BASE_DAY)][2] == 30


def test_overlapping_jobs_conflict():
    a = mk_job("app1", ["nid1", "nid2"], BASE_DAY, BASE_DAY + 2 * HOUR)
    b = mk_job("app2", ["nid2"], BASE_DAY + HOUR, BASE_DAY + 3 * HOUR)
    with pytest.raises(AttributionConflictError) as err:
        attribute(mk_block([]), [a, b], MIDPOINT)
    assert err.value.node_id == "nid2"
    assert {err.value.app_a, err.value.app_b} == {"app1", "app2"}


def test_touching_jobs_do_not_conflict():
    a = mk_job("app1", ["nid1"], BASE_DAY, BASE_DAY + HOUR)
    b = mk_job("app2", ["nid1"], BASE_DAY + HOUR, BASE_DAY + 2 * HOUR)
    result = attribute(
        mk_block([mk_sample("fs2", "nid1", BASE_DAY + HOUR, read_ops=4)]), [a, b], MIDPOINT
    )
    attributed, unattributed = result_dicts(result)
    assert attributed == {("app2", "fs2", BASE_DAY + HOUR): (0, 4) + (0,) * 19}


def test_duplicate_app_id_rejected():
    a = mk_job("app1", ["nid1"], BASE_DAY, BASE_DAY + HOUR)
    b = mk_job("app1", ["nid2"], BASE_DAY, BASE_DAY + HOUR)
    with pytest.raises(ValueError):
        attribute(mk_block([]), [a, b], MIDPOINT)


def test_proportional_split_pinned():
    # A holds the first half, B the second: 5 splits 2/3 by half-even rounding
    w = BASE_DAY
    a = mk_job("app1", ["nid1"], w - HOUR, w + 90)
    b = mk_job("app2", ["nid1"], w + 90, w + HOUR)
    sample = mk_block([mk_sample("fs2", "nid1", w, read_kb=5)])
    result = attribute(sample, [a, b], PROPORTIONAL)
    attributed, unattributed = result_dicts(result)
    assert attributed[("app1", "fs2", w)][0] == 2
    assert attributed[("app2", "fs2", w)][0] == 3
    assert unattributed == {}


@pytest.mark.parametrize("value,owned", [(5, 2), (7, 4)])
def test_proportional_half_window_rounds_half_to_even(value, owned):
    # a job holding the first 90 s of a 180 s window owns half of each counter
    w = BASE_DAY
    job = mk_job("app1", ["nid1"], w - HOUR, w + 90)
    sample = mk_block([mk_sample("fs2", "nid1", w, read_kb=value)])
    result = attribute(sample, [job], PROPORTIONAL)
    attributed, unattributed = result_dicts(result)
    assert attributed[("app1", "fs2", w)][0] == owned
    assert unattributed[("fs2", w)][0] == value - owned


def test_proportional_leftover_stays_unattributed():
    w = BASE_DAY
    a = mk_job("app1", ["nid1"], w - HOUR, w + 45)  # covers a quarter
    sample = mk_block([mk_sample("fs2", "nid1", w, read_kb=5, write_kb=8)])
    result = attribute(sample, [a], PROPORTIONAL)
    attributed, unattributed = result_dicts(result)
    got = attributed[("app1", "fs2", w)]
    assert got[0] == round(5 * 0.25)
    assert got[2] == 2
    assert unattributed[("fs2", w)][0] == 5 - got[0]
    assert unattributed[("fs2", w)][2] == 6


intervals_st = st.lists(
    st.integers(0, 180), min_size=2, max_size=6, unique=True
).map(sorted)
vector_st = st.lists(st.integers(0, 10**6), min_size=21, max_size=21)


@given(bounds=intervals_st, vec=vector_st)
def test_proportional_conserves_every_field(bounds, vec):
    jobs = [
        mk_job(f"app{i}", ["nid1"], BASE_DAY + s, BASE_DAY + e)
        for i, (s, e) in enumerate(zip(bounds[::2], bounds[1::2]))
    ]
    sample = vec_block(vec)
    result = attribute(sample, jobs, PROPORTIONAL)
    attributed, unattributed = result_dicts(result)
    totals = [0] * 21
    for parts in attributed.values():
        totals = [t + p for t, p in zip(totals, parts)]
    for parts in unattributed.values():
        totals = [t + p for t, p in zip(totals, parts)]
    assert totals == vec
    assert conservation_errors(sample, result) == []


@given(bounds=intervals_st, vec=vector_st)
def test_midpoint_conserves_every_field(bounds, vec):
    jobs = [
        mk_job(f"app{i}", ["nid1"], BASE_DAY + s, BASE_DAY + e)
        for i, (s, e) in enumerate(zip(bounds[::2], bounds[1::2]))
    ]
    sample = vec_block(vec)
    result = attribute(sample, jobs, MIDPOINT)
    assert conservation_errors(sample, result) == []


def test_aggregate_hourly_zero_fills_job_span():
    job = mk_job("app1", ["nid1"], BASE_DAY, BASE_DAY + 3 * HOUR)
    samples = mk_block([mk_sample("fs2", "nid1", BASE_DAY + 180, open=6)])
    result = attribute(samples, [job], MIDPOINT)
    records = aggregate_hourly(result, [job])
    assert [(r.hour, r.counters) for r in records] == [
        (BASE_DAY, mk_counters(open=6)),
        (BASE_DAY + HOUR, mk_counters()),
        (BASE_DAY + 2 * HOUR, mk_counters()),
    ]


def test_aggregate_hourly_span_clamp():
    job = mk_job("app1", ["nid1"], BASE_DAY + 22 * HOUR, BASE_DAY + DAY + 2 * HOUR)
    samples = mk_block([mk_sample("fs2", "nid1", BASE_DAY + 22 * HOUR, read_kb=1)])
    result = attribute(samples, [job], MIDPOINT)
    records = aggregate_hourly(result, [job], span=(BASE_DAY, BASE_DAY + DAY))
    assert [r.hour for r in records] == [BASE_DAY + 22 * HOUR, BASE_DAY + 23 * HOUR]


def test_aggregate_hourly_requires_job_metadata():
    result = AttributionResult(
        apps=("ghost",),
        owner=np.array([0]),
        fs_labels=("fs2",),
        fs=np.array([0]),
        window=np.array([BASE_DAY]),
        counters=np.ones((1, 21), np.int64),
    )
    with pytest.raises(ValueError):
        aggregate_hourly(result, [])


def test_fs_hourly_totals_include_unattributed():
    job = mk_job("app1", ["nid1"], BASE_DAY, BASE_DAY + HOUR)
    samples = mk_block([
        mk_sample("fs2", "nid1", BASE_DAY, read_kb=100),
        mk_sample("fs2", "nid9", BASE_DAY + 180, read_kb=40),
        mk_sample("fs2", "nid9", BASE_DAY + 2 * HOUR, write_kb=9),
    ])
    result = attribute(samples, [job], MIDPOINT)
    records = fs_hourly_totals(samples, result)
    assert len(records) == 2  # only hours that saw samples
    first, second = records
    assert first.hour == BASE_DAY
    assert first.counters == mk_counters(read_kb=140)
    assert first.unattributed == mk_counters(read_kb=40)
    assert second.hour == BASE_DAY + 2 * HOUR
    assert second.counters == mk_counters(write_kb=9)
    assert second.unattributed == mk_counters(write_kb=9)
