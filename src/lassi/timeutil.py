"""UTC time helpers.

Timestamps are integer epoch seconds everywhere inside the package. The only
accepted wire format is ISO-8601 UTC with a trailing Z (YYYY-MM-DDTHH:MM:SSZ).
Dates are exactly YYYY-MM-DD. Parse and format results are cached, dates
(parse_date, date_str) as well as timestamps: a day of samples repeats the
same 480 window timestamps once per node, and the store parses and names the
same partition dates on every listing and lookup, so the caches turn those
hot paths into dict lookups. Each cache stops growing at _CACHE_LIMIT
entries.
"""

from __future__ import annotations

import re
from datetime import date, datetime, timezone

HOUR = 3600
DAY = 86400

_TS_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
_DATE_FORMAT = "%Y-%m-%d"
_CACHE_LIMIT = 500_000

_parse_cache: dict[str, int] = {}
_format_cache: dict[int, str] = {}
_date_cache: dict[str, int] = {}
_date_str_cache: dict[int, str] = {}

_DATE = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})")
# a year before 1000 is refused, as format_utc would not write it in four digits
_STAMP = re.compile(r"([1-9][0-9]{3})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})Z")
_EPOCH = date(1970, 1, 1)
_EPOCH_TIME = datetime(1970, 1, 1)


def parse_utc(text: str) -> int:
    """Parse YYYY-MM-DDTHH:MM:SSZ into epoch seconds.

    Raises ValueError for anything that is not exactly that format, in
    ASCII digits, or not a calendar date and time of day.
    """
    cached = _parse_cache.get(text)
    if cached is not None:
        return cached
    match = _STAMP.fullmatch(text)
    if match is None:
        raise ValueError(f"time data {text!r} is not exactly YYYY-MM-DDTHH:MM:SSZ")
    since = datetime(*map(int, match.groups())) - _EPOCH_TIME  # refuses a bad date or time
    value = since.days * DAY + since.seconds
    if len(_parse_cache) < _CACHE_LIMIT:
        _parse_cache[text] = value
    return value


def format_utc(ts: int) -> str:
    """Format epoch seconds as YYYY-MM-DDTHH:MM:SSZ."""
    cached = _format_cache.get(ts)
    if cached is not None:
        return cached
    text = datetime.fromtimestamp(ts, tz=timezone.utc).strftime(_TS_FORMAT)
    if len(_format_cache) < _CACHE_LIMIT:
        _format_cache[ts] = text
    return text


def parse_date(text: str) -> int:
    """Parse YYYY-MM-DD into the epoch seconds of that UTC midnight.

    Raises ValueError for anything that is not exactly that format, such as
    "2017-10-9", or not a calendar date.
    """
    cached = _date_cache.get(text)
    if cached is not None:
        return cached
    match = _DATE.fullmatch(text)
    if match is None:
        raise ValueError(f"date {text!r} is not exactly YYYY-MM-DD")
    value = (date(*map(int, match.groups())) - _EPOCH).days * DAY
    if len(_date_cache) < _CACHE_LIMIT:
        _date_cache[text] = value
    return value


def date_str(ts: int) -> str:
    """Format the UTC calendar date containing ``ts`` as YYYY-MM-DD."""
    cached = _date_str_cache.get(ts)
    if cached is not None:
        return cached
    text = datetime.fromtimestamp(ts, tz=timezone.utc).strftime(_DATE_FORMAT)
    if len(_date_str_cache) < _CACHE_LIMIT:
        _date_str_cache[ts] = text
    return text


def floor_hour(ts: int) -> int:
    return ts - ts % HOUR


def floor_day(ts: int) -> int:
    return ts - ts % DAY


def hour_range(t0: int, t1: int) -> range:
    """Hour starts whose [h, h+3600) bucket intersects [t0, t1)."""
    if t1 <= t0:
        return range(0, 0)
    return range(floor_hour(t0), t1, HOUR)


def day_range(t0: int, t1: int) -> range:
    """Day starts whose UTC calendar day intersects [t0, t1)."""
    if t1 <= t0:
        return range(0, 0)
    return range(floor_day(t0), t1, DAY)
