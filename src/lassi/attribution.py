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
shares join the grouping as extra keyed rows. One np.unique and exact
int64 group sums (add_rows) turn it all into an AttributionResult: int64
columns with one row per (owner, window) of the block's one filesystem.
Nodes are grouped by the block's id codes and owners are numbered in
app_id order, so no id string is coded here. The hourly rollups group those
rows again with numpy. The pipeline hands them one (filesystem, day)
partition at a time and zero-fills a job's idle hours itself, since those
span partitions.
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
)
from .timeutil import HOUR

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
    """Summed counters of one filesystem, ``fs_id`` (the sample block's),
    one row per (owner, window) key.

    ``owner`` holds int64 indexes into ``apps``, the job list's app_ids
    sorted, or -1 for the unattributed remainder; ``window`` holds int64
    window starts and ``counters`` an int64 (n, 21) array in ALL_FIELDS
    order, the form every record's ``counters`` takes.
    """

    apps: tuple[str, ...]
    owner: np.ndarray
    fs_id: str
    window: np.ndarray
    counters: np.ndarray


def add_rows(totals: np.ndarray, group_of_row: np.ndarray, counters: np.ndarray) -> None:
    """Add each row of counters, an (n, 21) int64 array, to the column of
    totals, a (21, groups) int64 array, that group_of_row names for it.

    One 1-D np.add.at per counter is exact (no float weights, as np.bincount
    would take) and faster than one np.add.at over whole rows, without
    building an n x 21 index.
    """
    for total, column in zip(totals, counters.T):
        np.add.at(total, group_of_row, column)


def node_index(jobs: Sequence[JobRecord]):
    """Per-node job intervals sorted by start.

    Raises AttributionConflictError if two jobs overlap on a node and
    ValueError if an app_id repeats, whether or not any sample is at stake.
    """
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
    index = node_index(jobs)
    block.check_sum_bound()
    apps = tuple(sorted(job.app_id for job in jobs))
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

    # one group per (owner, window); the cut windows' own rows hold the
    # lowest keys, and their groups are dropped
    windows, cell = np.unique(block.window, return_inverse=True)
    cells = len(windows)
    who = np.concatenate([owner, np.array(share_owner, np.int64)])
    key = (who - _CUT) * cells + np.concatenate([cell, cell[np.array(share_row, np.int64)]])
    groups, group_of_row = np.unique(key, return_inverse=True)
    totals = np.zeros((_N, len(groups)), np.int64)
    add_rows(totals, group_of_row[: len(block)], block.counters)
    add_rows(totals, group_of_row[len(block) :], np.array(share_vec, np.int64).reshape(-1, _N))
    sums = totals.T
    kept = np.searchsorted(groups, cells)
    groups = groups[kept:]
    return AttributionResult(
        apps=apps,
        owner=groups // cells + _CUT,
        fs_id=block.fs_id,
        window=windows[groups % cells],
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


def aggregate_hourly(result: AttributionResult) -> list[AppHourRecord]:
    """Roll attributed windows up to (app, hour) records of the result's
    filesystem.

    Only hours holding an attributed window get a record; the pipeline
    zero-fills the rest of each job's hours once a whole range is rolled up.
    """
    rows = np.flatnonzero(result.owner >= 0)
    if not len(rows):
        return []
    apps = result.apps
    hour = result.window[rows] - result.window[rows] % HOUR

    # keys run in (hour, app) order, the order of the records: owners number
    # the apps in app_id order
    hours, hour_pos = np.unique(hour, return_inverse=True)
    groups, group_of_row = np.unique(hour_pos * len(apps) + result.owner[rows], return_inverse=True)
    totals = np.zeros((_N, len(groups)), np.int64)
    add_rows(totals, group_of_row, result.counters[rows])
    return [
        AppHourRecord(app_id=apps[a], fs_id=result.fs_id, hour=h, counters=tuple(vec))
        for h, a, vec in zip(
            hours[groups // len(apps)].tolist(), (groups % len(apps)).tolist(), totals.T.tolist()
        )
    ]


def fs_hourly_totals(block: SampleBlock, result: AttributionResult) -> list[FsHourRecord]:
    """Per hour totals of the block's filesystem over all samples plus the
    unattributed portion.

    ``result`` is attribute(block, ...), so both hold one filesystem. Hours
    with no samples produce no record.
    """
    if result.fs_id != block.fs_id:
        raise ValueError(
            f"attribution result of {result.fs_id} does not belong to a block of {block.fs_id}"
        )
    block.check_sum_bound()
    n = len(block)
    # the unattributed rows take the samples' slot arithmetic; slots run in
    # hour order, the order of the records
    un = np.flatnonzero(result.owner == _UNATTRIBUTED)
    window = np.concatenate([block.window, result.window[un]])
    hours, slot = np.unique(window - window % HOUR, return_inverse=True)
    totals = np.zeros((_N, len(hours)), np.int64)
    add_rows(totals, slot[:n], block.counters)
    unattr = np.zeros_like(totals)
    add_rows(unattr, slot[n:], result.counters[un])
    used = np.unique(slot[:n])
    return [
        FsHourRecord(
            fs_id=block.fs_id, hour=h, counters=tuple(vec), unattributed=tuple(un_vec)
        )
        for h, vec, un_vec in zip(
            hours[used].tolist(), totals.T[used].tolist(), unattr.T[used].tolist()
        )
    ]
