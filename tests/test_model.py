from datetime import datetime, timezone

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

from helpers import mk_counters

ZEROS = mk_counters()

# one builder per counter field of the two hourly records
RECORD_COUNTERS = {
    "app_hour": lambda vec: AppHourRecord("a", "fs2", 0, vec),
    "fs_hour": lambda vec: FsHourRecord("fs2", 0, vec, ZEROS),
    "fs_hour_unattributed": lambda vec: FsHourRecord("fs2", 0, (10,) * 21, vec),
}


def test_field_order_matches_wire_format():
    assert OSS_FIELDS == ("read_kb", "read_ops", "write_kb", "write_ops", "other")
    assert len(MDS_FIELDS) == 16
    assert ALL_FIELDS == OSS_FIELDS + MDS_FIELDS


@pytest.mark.parametrize("record", sorted(RECORD_COUNTERS))
def test_counters_reject_negative_values(record):
    build = RECORD_COUNTERS[record]
    build(mk_counters(read_kb=1, statfs=5))
    with pytest.raises(ValueError, match="negative"):
        build(mk_counters(read_kb=-1))
    with pytest.raises(ValueError, match="negative"):
        build(mk_counters(statfs=-5))


@pytest.mark.parametrize("length", [20, 22])
@pytest.mark.parametrize("record", sorted(RECORD_COUNTERS))
def test_counters_must_number_exactly_21(record, length):
    with pytest.raises(ValueError, match=f"hold {length} values, expected 21"):
        RECORD_COUNTERS[record]((1,) * length)


@pytest.mark.parametrize("record", sorted(RECORD_COUNTERS))
def test_counters_must_be_a_tuple(record):
    with pytest.raises(TypeError):
        RECORD_COUNTERS[record]([1] * 21)


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
    AppHourRecord("a", "fs2", 7200, ZEROS)
    with pytest.raises(ValueError):
        AppHourRecord("a", "fs2", 7201, ZEROS)
    with pytest.raises(ValueError):
        FsHourRecord("fs2", 180, ZEROS, ZEROS)


def test_fs_hour_record_rejects_unattributed_above_totals():
    total = mk_counters(read_kb=10)
    with pytest.raises(ValueError, match="exceeds totals"):
        FsHourRecord("fs2", 0, total, mk_counters(read_kb=11))
    with pytest.raises(ValueError, match="exceeds totals"):
        FsHourRecord("fs2", 0, total, mk_counters(cdr=1))
    FsHourRecord("fs2", 0, total, total)  # all of it unattributed is allowed


def test_parse_format_round_trip_known_values():
    assert parse_utc("1970-01-01T00:00:00Z") == 0
    assert parse_utc("2017-10-09T13:30:00Z") == 1507555800
    assert format_utc(1507555800) == "2017-10-09T13:30:00Z"
    assert parse_date("2017-10-09") == 1507507200
    assert date_str(1507555800) == "2017-10-09"


LEAP_DAYS = ("1972-02-29", "2000-02-29", "2016-02-29", "2024-02-29")


@pytest.mark.parametrize("day", ["1970-01-01", *LEAP_DAYS])
def test_cached_date_str_equals_strftime(day):
    midnight = parse_date(day)
    for ts in (midnight, midnight + HOUR, midnight + DAY - 1, midnight + DAY):
        want = datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%d")
        # the first call may fill the cache, the second reads it
        assert date_str(ts) == date_str(ts) == want
    assert date_str(midnight) == day
    assert date_str(midnight + DAY) != day


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
