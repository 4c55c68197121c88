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

Both entry points take a SampleBlock, the one form samples have. Whole
windows are assigned per node with np.searchsorted over job starts; only
proportional windows cut by a job boundary take the scalar split, whose
shares join the grouping as extra keyed rows. One np.unique + np.add.at
sums it all into an AttributionResult: int64 columns with one row per
(owner, fs, window). Nodes and filesystems are grouped by the block's id
codes, never by id strings. The hourly rollups group those rows again with
numpy.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AttributionConflictError
from .model import (
    ALL_FIELDS,
    AppHourRecord,
    FsHourRecord,
    JobRecord,
    SampleBlock,
    id_codes,
    merged_labels,
)
from .timeutil import HOUR, floor_hour

BOUNDARY_POLICIES = ("midpoint", "proportional")

_N = len(ALL_FIELDS)
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


@dataclass(frozen=True, eq=False)
class AttributionResult:
    """Summed counters, one row per (owner, fs, window) key.

    ``owner`` holds int64 indexes into ``apps``, the job list's app_ids, or
    -1 for the unattributed remainder; ``fs`` holds int64 codes into
    ``fs_labels``, a sorted tuple of fs ids (the sample block's), ``window``
    int64 window starts and ``counters`` an int64 (n, 21) array in ALL_FIELDS
    order, the form every record's ``counters`` takes.
    """

    apps: tuple[str, ...]
    owner: np.ndarray
    fs_labels: tuple[str, ...]
    fs: np.ndarray
    window: np.ndarray
    counters: np.ndarray

    @classmethod
    def concat(cls, results: Sequence["AttributionResult"]) -> "AttributionResult":
        """One result holding every row of results, which share one job list;
        fs codes move onto the union of their label tables."""
        if len(results) == 1:
            return results[0]
        if len({r.apps for r in results}) != 1:
            raise ValueError("cannot concatenate results over different job lists")
        fs_labels, fs = merged_labels(results, "fs")
        owner, window, counters = (
            np.concatenate([getattr(r, name) for r in results])
            for name in ("owner", "window", "counters")
        )
        fs = fs.astype(np.int64, copy=False)
        return cls(results[0].apps, owner, fs_labels, fs, window, counters)


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


def attribute(
    block: SampleBlock,
    jobs: Sequence[JobRecord],
    config: AttributionConfig = AttributionConfig(),
) -> AttributionResult:
    """Split samples between the jobs occupying their nodes.

    Raises AttributionConflictError if any two jobs overlap on a node, and
    LassiError if the counter sums could leave the int64 range.
    """
    index = _node_index(jobs)
    block.check_sum_bound()
    apps = tuple(job.app_id for job in jobs)
    position = {app_id: k for k, app_id in enumerate(apps)}
    wlen = block.window_len

    owner = np.full(len(block), _UNATTRIBUTED, np.int64)
    node_ids, node_codes = block.node_labels, block.node
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

    # each share of a cut window becomes one more keyed row, at the window's key
    share_row, share_owner, share_vec = [], [], []
    for r in np.flatnonzero(owner == _CUT).tolist():
        vec, w = block.counters[r].tolist(), int(block.window[r])
        entry = index[node_ids[node_codes[r]]]
        for who, share in _split_window(vec, w, wlen, entry, position):
            share_row.append(r)
            share_owner.append(who)
            share_vec.append(share)

    # one group per (owner, fs, window); the cut windows' own rows hold the
    # lowest keys, and their groups are dropped
    fs_ids, fs_codes = block.fs_labels, block.fs
    windows, window_pos = np.unique(block.window, return_inverse=True)
    cells = len(fs_ids) * len(windows)
    cell = fs_codes.astype(np.int64) * len(windows) + window_pos
    who = np.concatenate([owner, np.array(share_owner, np.int64)])
    key = (who - _CUT) * cells + np.concatenate([cell, cell[np.array(share_row, np.int64)]])
    groups, group_of_row = np.unique(key, return_inverse=True)
    sums = np.zeros((len(groups), _N), np.int64)
    np.add.at(sums, group_of_row[: len(block)], block.counters)
    np.add.at(sums, group_of_row[len(block) :], np.array(share_vec, np.int64).reshape(-1, _N))
    kept = np.searchsorted(groups, cells)
    groups = groups[kept:]
    return AttributionResult(
        apps=apps,
        owner=groups // cells + _CUT,
        fs_labels=fs_ids,
        fs=groups // len(windows) % len(fs_ids),
        window=windows[groups % len(windows)],
        counters=sums[kept:],
    )


def _split_window(vec, w, wlen, entry, position) -> list[tuple[int, list[int]]]:
    """Proportional split of one window that a job boundary cuts.

    Returns (owner, share) per overlapping job in start order, the owner
    being the job's position, then (-1, leftover) if anything stays
    unattributed.
    """
    starts, node_jobs = entry
    # walk jobs overlapping [w, w + wlen) in start order
    w_end = w + wlen
    i = bisect_right(starts, w_end) - 1
    overlaps: list[tuple[JobRecord, int]] = []
    while i >= 0:
        job = node_jobs[i]
        if job.end <= w:
            # non-overlapping jobs sorted by start have sorted ends
            break
        if job.start < w_end:
            overlap = min(job.end, w_end) - max(job.start, w)
            if overlap > 0:
                overlaps.append((job, overlap))
        i -= 1
    overlaps.reverse()
    shares = []
    cum = 0
    prev = [0] * _N
    for job, overlap in overlaps:
        cum += overlap
        if cum >= wlen:
            scaled = vec
        else:
            fraction = cum / wlen
            scaled = [round(v * fraction) for v in vec]
        shares.append((position[job.app_id], [a - b for a, b in zip(scaled, prev)]))
        prev = scaled
    if prev != vec:
        shares.append((_UNATTRIBUTED, [a - b for a, b in zip(vec, prev)]))
    return shares


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
    rows = np.flatnonzero(result.owner >= 0)
    if not len(rows):
        return []
    app_ids, app_rank = id_codes(result.apps)
    app = app_rank[result.owner[rows]].astype(np.int64)
    fs_ids, fs = result.fs_labels, result.fs[rows]
    hour = result.window[rows] - result.window[rows] % HOUR

    # zero-fill rows: every hour of each (app, fs) pair's clamped job span
    jobs_by_id = {j.app_id: j for j in jobs}
    fill = []
    for pair in np.unique(app * len(fs_ids) + fs).tolist():
        a, f = divmod(pair, len(fs_ids))
        job = jobs_by_id.get(app_ids[a])
        if job is None:
            raise ValueError(f"attributed app {app_ids[a]!r} missing from job list")
        first, last = floor_hour(job.start), floor_hour(job.end - 1)
        if span is not None:
            first = max(first, floor_hour(span[0]))
            last = min(last, floor_hour(span[1] - 1))
        fill += [(h, f, a) for h in range(first, last + 1, HOUR)]
    fill = np.array(fill, np.int64).reshape(-1, 3)
    hour = np.concatenate([hour, fill[:, 0]])
    fs = np.concatenate([fs, fill[:, 1]])
    app = np.concatenate([app, fill[:, 2]])

    # keys run in (hour, fs, app) order, the order of the records
    hours, hour_pos = np.unique(hour, return_inverse=True)
    key = (hour_pos * len(fs_ids) + fs) * len(app_ids) + app
    groups, group_of_row = np.unique(key, return_inverse=True)
    sums = np.zeros((len(groups), _N), np.int64)
    np.add.at(sums, group_of_row[: len(rows)], result.counters[rows])
    return [
        AppHourRecord(app_id=app_ids[a], fs_id=fs_ids[f], hour=h, counters=tuple(vec))
        for h, f, a, vec in zip(
            hours[groups // (len(fs_ids) * len(app_ids))].tolist(),
            (groups // len(app_ids) % len(fs_ids)).tolist(),
            (groups % len(app_ids)).tolist(),
            sums.tolist(),
        )
    ]


def fs_hourly_totals(block: SampleBlock, result: AttributionResult) -> list[FsHourRecord]:
    """Per (fs, hour) totals over all samples plus the unattributed portion.

    ``result`` is attribute(block, ...), so both code fs over one table.
    Hours with no samples produce no record.
    """
    if result.fs_labels != block.fs_labels:
        raise ValueError("attribution result does not code fs over the block's labels")
    block.check_sum_bound()
    n = len(block)
    # the unattributed rows take the samples' slot arithmetic
    un = np.flatnonzero(result.owner == _UNATTRIBUTED)
    fs_ids, fs_codes = block.fs_labels, np.concatenate([block.fs, result.fs[un]])
    window = np.concatenate([block.window, result.window[un]])
    hours, hour_pos = np.unique(window - window % HOUR, return_inverse=True)
    # slots run in (hour, fs) order, the order of the records
    slot = hour_pos * len(fs_ids) + fs_codes
    totals = np.zeros((len(hours) * len(fs_ids), _N), np.int64)
    np.add.at(totals, slot[:n], block.counters)
    unattr = np.zeros_like(totals)
    np.add.at(unattr, slot[n:], result.counters[un])
    return [
        FsHourRecord(
            fs_id=fs_ids[s % len(fs_ids)],
            hour=int(hours[s // len(fs_ids)]),
            counters=tuple(totals[s].tolist()),
            unattributed=tuple(unattr[s].tolist()),
        )
        for s in np.unique(slot[:n]).tolist()
    ]
