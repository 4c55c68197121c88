"""Attribute per-node samples to the application runs that occupied the nodes.

Node use is exclusive: two jobs holding the same node at the same time is a
hard error, not a tie to break. Windows fully inside a job's [start, end) go
to that job; boundary windows follow the configured policy:

* midpoint: the whole window goes to the job active at the window's midpoint,
  or to the unattributed remainder if none is.
* proportional: each overlapping job receives its overlap fraction of the
  counters via cumulative half-to-even rounding, and the exact leftover stays
  unattributed, so per-window conservation holds field by field.

Samples on idle nodes accumulate into the unattributed remainder, which is
how rogue background load stays visible in filesystem totals.

Both entry points work on a SampleBlock; a plain sequence of StatSample is
packed into one on entry. Whole windows are assigned per node with
np.searchsorted over job starts and summed with np.add.at; only proportional
windows cut by a job boundary take the scalar split.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import AttributionConflictError
from .model import (
    ALL_FIELDS,
    AppHourRecord,
    FsHourRecord,
    JobRecord,
    SampleBlock,
    StatSample,
    id_codes,
)
from .timeutil import HOUR, floor_hour

BOUNDARY_POLICIES = ("midpoint", "proportional")

_N = len(ALL_FIELDS)
_ZEROS = (0,) * _N
# whole-window owners besides job positions
_UNATTRIBUTED = -1
_CUT = -2


@dataclass(frozen=True, slots=True)
class AttributionConfig:
    boundary_policy: str = "midpoint"
    window_len: int = 180

    def __post_init__(self) -> None:
        if self.boundary_policy not in BOUNDARY_POLICIES:
            raise ValueError(
                f"boundary_policy must be one of {BOUNDARY_POLICIES}, "
                f"got {self.boundary_policy!r}"
            )
        if self.window_len <= 0 or HOUR % self.window_len != 0:
            raise ValueError(f"window_len {self.window_len} must divide 3600")


@dataclass(frozen=True)
class AttributionResult:
    """Counter vectors keyed by (app_id, fs_id, window_start), plus the
    unattributed remainder keyed by (fs_id, window_start).

    Vectors hold the 21 counters in ALL_FIELDS order, the form every
    record's ``counters`` takes.
    """

    attributed: dict[tuple[str, str, int], tuple[int, ...]]
    unattributed: dict[tuple[str, int], tuple[int, ...]]


def _node_index(jobs: Sequence[JobRecord]):
    """Per-node job intervals sorted by start; rejects overlaps up front."""
    seen_apps: set[str] = set()
    by_node: dict[str, list[JobRecord]] = {}
    for job in jobs:
        if job.app_id in seen_apps:
            raise ValueError(f"duplicate app_id {job.app_id!r} in job list")
        seen_apps.add(job.app_id)
        for node in job.nodes:
            by_node.setdefault(node, []).append(job)
    index: dict[str, tuple[list[int], list[JobRecord]]] = {}
    for node, node_jobs in by_node.items():
        node_jobs.sort(key=lambda j: (j.start, j.app_id))
        for a, b in zip(node_jobs, node_jobs[1:]):
            if b.start < a.end:
                raise AttributionConflictError(node, a.app_id, b.app_id)
        index[node] = ([j.start for j in node_jobs], node_jobs)
    return index


def _accumulate(acc: dict, key, vec) -> None:
    slot = acc.get(key)
    if slot is None:
        acc[key] = list(vec)
    else:
        for i in range(_N):
            slot[i] += vec[i]


def attribute(
    samples: Iterable[StatSample],
    jobs: Sequence[JobRecord],
    config: AttributionConfig = AttributionConfig(),
) -> AttributionResult:
    """Split samples between the jobs occupying their nodes.

    Raises AttributionConflictError if any two jobs overlap on a node, and
    LassiError if the counter sums could leave the int64 range.
    """
    index = _node_index(jobs)
    block = SampleBlock.from_samples(samples, config.window_len)
    block.check_sum_bound()
    apps = [job.app_id for job in jobs]
    position = {app_id: k for k, app_id in enumerate(apps)}
    wlen = block.window_len

    owner = np.full(len(block), _UNATTRIBUTED, np.int64)
    node_ids, node_codes = id_codes(block.node)
    by_node = np.argsort(node_codes, kind="stable")
    bounds = np.searchsorted(node_codes[by_node], np.arange(len(node_ids) + 1))
    for code, node in enumerate(node_ids):
        entry = index.get(node)
        if entry is None:
            continue
        starts, node_jobs = entry
        rows = by_node[bounds[code] : bounds[code + 1]]
        w = block.window[rows]
        start = np.array(starts, np.int64)
        end = np.array([j.end for j in node_jobs], np.int64)
        if config.boundary_policy == "midpoint":
            # Doubled arithmetic keeps odd window lengths exact; the job
            # covers the midpoint iff 2*start <= 2*w + wlen < 2*end, and
            # non-overlapping intervals leave exactly one candidate.
            mid2 = 2 * w + wlen
            i = np.searchsorted(start, mid2 // 2, side="right") - 1
            hit = (i >= 0) & (mid2 < 2 * end[i])
        else:
            # the last job starting at or before w owns the whole window if it
            # runs to the window's end; any other overlap cuts the window
            i = np.searchsorted(start, w, side="right") - 1
            hit = (i >= 0) & (end[i] >= w + wlen)
            after = np.minimum(i + 1, len(start) - 1)
            cut = ~hit & (
                ((i >= 0) & (end[i] > w)) | ((i + 1 < len(start)) & (start[after] < w + wlen))
            )
            owner[rows[cut]] = _CUT
        owner[rows[hit]] = np.array([position[j.app_id] for j in node_jobs], np.int64)[i[hit]]

    # one group per (owner, fs, window); cut windows are summed but dropped
    fs_ids, fs_codes = id_codes(block.fs)
    windows, window_pos = np.unique(block.window, return_inverse=True)
    key = ((owner - _CUT) * len(fs_ids) + fs_codes) * len(windows) + window_pos
    groups, group_of_row = np.unique(key, return_inverse=True)
    sums = np.zeros((len(groups), _N), np.int64)
    np.add.at(sums, group_of_row, block.counters)

    attributed: dict = {}
    unattributed: dict = {}
    group_owner = (groups // (len(fs_ids) * len(windows)) + _CUT).tolist()
    group_fs = (groups // len(windows) % len(fs_ids)).tolist()
    group_window = windows[groups % len(windows)].tolist()
    for who, f, w, vec in zip(group_owner, group_fs, group_window, sums.tolist()):
        if who >= 0:
            attributed[(apps[who], fs_ids[f], w)] = vec
        elif who == _UNATTRIBUTED:
            unattributed[(fs_ids[f], w)] = vec

    for r in np.flatnonzero(owner == _CUT).tolist():
        _split_window(
            tuple(block.counters[r].tolist()),
            int(block.window[r]),
            wlen,
            block.fs[r],
            index[block.node[r]],
            attributed,
            unattributed,
        )

    return AttributionResult(
        attributed={k: tuple(v) for k, v in attributed.items()},
        unattributed={k: tuple(v) for k, v in unattributed.items()},
    )


def _split_window(vec, w, wlen, fs_id, entry, attributed, unattributed) -> None:
    """Proportional split of one window that a job boundary cuts."""
    starts, node_jobs = entry
    # walk jobs overlapping [w, w + wlen) in start order
    w_end = w + wlen
    i = bisect_right(starts, w_end) - 1
    shares: list[tuple[JobRecord, int]] = []
    while i >= 0:
        job = node_jobs[i]
        if job.end <= w:
            # non-overlapping jobs sorted by start have sorted ends
            break
        if job.start < w_end:
            overlap = min(job.end, w_end) - max(job.start, w)
            if overlap > 0:
                shares.append((job, overlap))
        i -= 1
    shares.reverse()
    cum = 0
    prev = _ZEROS
    for job, overlap in shares:
        cum += overlap
        if cum >= wlen:
            scaled = vec
        else:
            fraction = cum / wlen
            scaled = tuple(round(v * fraction) for v in vec)
        _accumulate(
            attributed,
            (job.app_id, fs_id, w),
            [a - b for a, b in zip(scaled, prev)],
        )
        prev = scaled
    if prev != vec:
        _accumulate(
            unattributed,
            (fs_id, w),
            [a - b for a, b in zip(vec, prev)],
        )


def aggregate_hourly(
    result: AttributionResult,
    jobs: Sequence[JobRecord],
    span: tuple[int, int] | None = None,
) -> list[AppHourRecord]:
    """Roll attributed windows up to (app, fs, hour) records.

    Every hour a job's [start, end) touches gets a record for each filesystem
    the app was seen on, all-zero when the app was idle there, so risk series
    built from these records have no gaps. ``span`` clamps that materialized
    range, for aggregating one day of a longer job.
    """
    acc: dict[tuple[str, str, int], list[int]] = {}
    for (app_id, fs_id, w), vec in result.attributed.items():
        _accumulate(acc, (app_id, fs_id, w - w % HOUR), vec)

    jobs_by_id = {j.app_id: j for j in jobs}
    for app_id, fs_id in {(a, f) for (a, f, _) in result.attributed}:
        job = jobs_by_id.get(app_id)
        if job is None:
            raise ValueError(f"attributed app {app_id!r} missing from job list")
        first = floor_hour(job.start)
        last = floor_hour(job.end - 1)
        if span is not None:
            first = max(first, floor_hour(span[0]))
            last = min(last, floor_hour(span[1] - 1))
        for hour in range(first, last + 1, HOUR):
            acc.setdefault((app_id, fs_id, hour), list(_ZEROS))

    ordered = sorted(acc.items(), key=lambda kv: (kv[0][2], kv[0][1], kv[0][0]))
    return [
        AppHourRecord(app_id=app_id, fs_id=fs_id, hour=hour, counters=tuple(vec))
        for (app_id, fs_id, hour), vec in ordered
    ]


def fs_hourly_totals(
    samples: Iterable[StatSample], result: AttributionResult
) -> list[FsHourRecord]:
    """Per (fs, hour) totals over all samples plus the unattributed portion.

    Hours with no samples produce no record.
    """
    block = SampleBlock.from_samples(samples)
    block.check_sum_bound()
    fs_ids, fs_codes = id_codes(block.fs)
    hours, hour_pos = np.unique(block.window - block.window % HOUR, return_inverse=True)
    # slots run in (hour, fs) order, the order of the records
    slot = hour_pos * len(fs_ids) + fs_codes
    totals = np.zeros((len(hours) * len(fs_ids), _N), np.int64)
    np.add.at(totals, slot, block.counters)
    slot_of = {
        (fs_ids[s % len(fs_ids)], int(hours[s // len(fs_ids)])): s
        for s in np.unique(slot).tolist()
    }

    where, vecs = [], []
    for (fs_id, w), vec in result.unattributed.items():
        s = slot_of.get((fs_id, w - w % HOUR))
        if s is not None:
            where.append(s)
            vecs.append(vec)
    unattr = np.zeros_like(totals)
    np.add.at(unattr, np.array(where, np.int64), np.array(vecs, np.int64).reshape(-1, _N))

    return [
        FsHourRecord(
            fs_id=fs_id,
            hour=hour,
            counters=tuple(totals[s].tolist()),
            unattributed=tuple(unattr[s].tolist()),
        )
        for (fs_id, hour), s in slot_of.items()
    ]
