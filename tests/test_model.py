import pytest
from hypothesis import given
from hypothesis import strategies as st

from lassi.model import (
    ALL_FIELDS,
    MDS_FIELDS,
    OSS_FIELDS,
    AppHourRecord,
    FsHourRecord,
    JobRecord,
    MdsCounters,
    OssCounters,
    StatSample,
    vector_to_counters,
)
from lassi.timeutil import (
    DAY,
    HOUR,
    date_str,
    day_range,
    floor_day,
    floor_hour,
    format_utc,
    hour_range,
    parse_date,
    parse_utc,
)

counter_vec = st.lists(st.integers(min_value=0, max_value=10**12), min_size=21, max_size=21)


def test_field_order_matches_wire_format():
    assert OSS_FIELDS == ("read_kb", "read_ops", "write_kb", "write_ops", "other")
    assert len(MDS_FIELDS) == 16
    assert ALL_FIELDS == OSS_FIELDS + MDS_FIELDS


def test_counters_reject_negative_values():
    with pytest.raises(ValueError):
        OssCounters(read_kb=-1)
    with pytest.raises(ValueError):
        MdsCounters(statfs=-5)


@given(counter_vec)
def test_vector_round_trip(vec):
    oss, mds = vector_to_counters(vec)
    assert oss.as_tuple() + mds.as_tuple() == tuple(vec)


def test_stat_sample_validates_grid():
    oss, mds = OssCounters(), MdsCounters()
    StatSample("fs2", "nid00001", 0, oss, mds)
    StatSample("fs2", "nid00001", 540, oss, mds)
    with pytest.raises(ValueError):
        StatSample("fs2", "nid00001", 100, oss, mds)  # off the 180 s grid
    with pytest.raises(ValueError):
        StatSample("fs2", "nid00001", 0, oss, mds, window_len=7)  # 7 !| 3600
    with pytest.raises(ValueError):
        StatSample("", "nid00001", 0, oss, mds)
    with pytest.raises(ValueError):
        StatSample("fs2", "", 0, oss, mds)


def test_job_record_validation_and_helpers():
    job = JobRecord("app1", "1.sdb", "usr1", 100, 400, frozenset({"n1"}), "cmd")
    assert job.runtime_s == 300
    assert job.overlaps(0, 101)
    assert job.overlaps(399, 500)
    assert not job.overlaps(400, 500)
    assert not job.overlaps(0, 100)
    with pytest.raises(ValueError):
        JobRecord("", "1.sdb", "u", 0, 1, frozenset({"n"}), "c")
    with pytest.raises(ValueError):
        JobRecord("a", "1.sdb", "u", 5, 5, frozenset({"n"}), "c")
    with pytest.raises(ValueError):
        JobRecord("a", "1.sdb", "u", 0, 1, frozenset(), "c")


def test_hour_records_validate_alignment():
    oss, mds = OssCounters(), MdsCounters()
    AppHourRecord("a", "fs2", 7200, oss, mds)
    with pytest.raises(ValueError):
        AppHourRecord("a", "fs2", 7201, oss, mds)
    with pytest.raises(ValueError):
        FsHourRecord("fs2", 180, oss, mds, oss, mds)


def test_fs_hour_record_rejects_unattributed_above_totals():
    total = OssCounters(read_kb=10)
    over = OssCounters(read_kb=11)
    with pytest.raises(ValueError):
        FsHourRecord("fs2", 0, total, MdsCounters(), over, MdsCounters())
    rec = FsHourRecord("fs2", 0, total, MdsCounters(), total, MdsCounters())
    assert rec.key() == ("fs2", 0)


def test_parse_format_round_trip_known_values():
    assert parse_utc("1970-01-01T00:00:00Z") == 0
    assert parse_utc("2017-10-09T13:30:00Z") == 1507555800
    assert format_utc(1507555800) == "2017-10-09T13:30:00Z"
    assert parse_date("2017-10-09") == 1507507200
    assert date_str(1507555800) == "2017-10-09"


@given(st.integers(min_value=0, max_value=4102444800))
def test_parse_format_round_trip(ts):
    assert parse_utc(format_utc(ts)) == ts


@pytest.mark.parametrize(
    "bad",
    [
        "2017-10-09 13:30:00",
        "2017-10-09T13:30:00",
        "2017-10-09T13:30:00+00:00",
        "2017-10-09T13:30:00.5Z",
        "20171009T133000Z",
        "",
    ],
)
def test_parse_utc_rejects_other_formats(bad):
    with pytest.raises(ValueError):
        parse_utc(bad)


def test_floor_and_ranges():
    t = parse_utc("2017-10-09T13:30:05Z")
    assert floor_hour(t) == parse_utc("2017-10-09T13:00:00Z")
    assert floor_day(t) == parse_utc("2017-10-09T00:00:00Z")
    assert floor_hour(t) % HOUR == 0

    hours = list(hour_range(t, t + 2 * HOUR))
    assert hours == [floor_hour(t), floor_hour(t) + HOUR, floor_hour(t) + 2 * HOUR]
    assert list(hour_range(t, t)) == []

    days = list(day_range(t, t + DAY))
    assert days == [floor_day(t), floor_day(t) + DAY]
