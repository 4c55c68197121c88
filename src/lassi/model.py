"""Core value types: counter vectors, samples, jobs, and hourly aggregates.

Counters are cumulative-delta integers for one sampling window. Every record
carries them in one form: ``counters``, a tuple of 21 Python ints in
ALL_FIELDS order, the five OSS data-movement statistics (KiB and operation
counts) followed by the sixteen MDS metadata operations the servers report.
_check_counters holds the rules all records share: exactly 21 values, none
negative. All types are immutable.

Samples have one form, the SampleBlock: one filesystem's samples as
columns, one row per (window, node). The block names its filesystem once
(``fs_id``), as the store's (filesystem, day) partitions do; its node
column holds int32 codes into a sorted table of the distinct node ids
(``node_labels``). The parser makes the codes where it first reads the ids;
after that, sorting, grouping, masking and comparing rows work on codes, and
merging blocks remaps label tables, not rows (label_codes, merged_labels).
Ingest enforces the rules a sample row obeys (on-grid window, non-empty
ids, counters in [0, 2**63 - 1]); the block keeps counters as int64, so
every rollup first checks that its sums cannot leave that range
(SampleBlock.check_sum_bound).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import LassiError
from .timeutil import HOUR

OSS_FIELDS = ("read_kb", "read_ops", "write_kb", "write_ops", "other")
MDS_FIELDS = (
    "open",
    "close",
    "mknod",
    "link",
    "unlink",
    "mkdir",
    "rmdir",
    "ren",
    "getattr",
    "setattr",
    "getxattr",
    "setxattr",
    "statfs",
    "sync",
    "sdr",
    "cdr",
)
ALL_FIELDS = OSS_FIELDS + MDS_FIELDS

INT64_MAX = 2**63 - 1


def _check_counters(counters: tuple[int, ...], name: str = "counters") -> None:
    """Raise unless counters is a tuple of 21 non-negative counters."""
    if type(counters) is not tuple:
        raise TypeError(f"{name} must be a tuple, got {type(counters).__name__}")
    if len(counters) != len(ALL_FIELDS):
        raise ValueError(f"{name} hold {len(counters)} values, expected {len(ALL_FIELDS)}")
    if min(counters) < 0:
        raise ValueError(f"negative counter in {name} {counters}")


@dataclass(frozen=True, slots=True)
class JobRecord:
    """One scheduler job: which nodes an application held, and when."""

    app_id: str
    job_id: str
    user: str
    start: int
    end: int
    nodes: frozenset[str]
    command: str

    def __post_init__(self) -> None:
        if not self.app_id:
            raise ValueError("app_id must be non-empty")
        if self.end <= self.start:
            raise ValueError(f"job {self.app_id}: end must be after start")
        if not self.nodes:
            raise ValueError(f"job {self.app_id}: node list is empty")

    @property
    def runtime_s(self) -> int:
        return self.end - self.start

    def overlaps(self, t0: int, t1: int) -> bool:
        return self.start < t1 and self.end > t0


@dataclass(frozen=True, slots=True)
class AppHourRecord:
    """One application's counters on one filesystem, summed over an hour.

    Hours inside a job's span with no activity are materialized with all-zero
    counters so downstream series have no gaps.
    """

    app_id: str
    fs_id: str
    hour: int
    counters: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_counters(self.counters)
        if self.hour % HOUR != 0:
            raise ValueError(f"hour {self.hour} not aligned to hour grid")


@dataclass(frozen=True, slots=True)
class FsHourRecord:
    """Filesystem-wide hourly totals plus the portion no job accounts for."""

    fs_id: str
    hour: int
    counters: tuple[int, ...]
    unattributed: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_counters(self.counters)
        _check_counters(self.unattributed, "unattributed")
        if self.hour % HOUR != 0:
            raise ValueError(f"hour {self.hour} not aligned to hour grid")
        if any(u > t for u, t in zip(self.unattributed, self.counters)):
            raise ValueError(
                f"unattributed portion {self.unattributed} exceeds totals "
                f"{self.counters} for {self.fs_id}"
            )


def label_codes(labels: Sequence[str], codes: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct labels that codes use, sorted, and codes remapped onto them.

    ``labels`` may hold repeats and labels no code uses; each code indexes
    it. Work per row is one numpy count and, unless the table is already
    that sorted table, one numpy lookup; the ids themselves are touched once
    per label, never per row.
    """
    used = np.flatnonzero(np.bincount(codes, minlength=len(labels))).tolist()
    table = sorted({labels[i] for i in used})
    if len(table) == len(labels) and table == list(labels):
        return tuple(table), codes
    position = {label: i for i, label in enumerate(table)}
    rank = np.array([position.get(label, -1) for label in labels], np.int32)
    return tuple(table), rank[codes]


def canonical_order(
    node: np.ndarray, window: np.ndarray, tiebreak: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Row order sorting one filesystem's rows by (window, node), then by
    ``tiebreak``.

    ``node`` holds codes into a sorted label table, so it sorts as the ids
    do. Also returns, per sorted row, whether the next sorted row has the
    same (window, node) key.
    """
    keys = (node, window)
    order = np.lexsort(keys if tiebreak is None else (tiebreak,) + keys)
    repeat = np.zeros(len(order), bool)
    if len(order) > 1:
        a, b = order[:-1], order[1:]
        repeat[:-1] = (window[a] == window[b]) & (node[a] == node[b])
    return order, repeat


def merged_labels(blocks: Sequence["SampleBlock"]) -> tuple[tuple[str, ...], np.ndarray]:
    """One node label table for several blocks, and their node codes over
    it, block after block.

    Blocks sharing one table keep their codes; otherwise each block's codes
    move onto the union through its own small table (label_codes).
    """
    tables = [b.node_labels for b in blocks]
    columns = [b.node for b in blocks]
    if all(t == tables[0] for t in tables):
        return tables[0], np.concatenate(columns)
    offsets = np.cumsum([0] + [len(t) for t in tables[:-1]]).tolist()
    return label_codes(
        [label for t in tables for label in t],
        np.concatenate([c + off for c, off in zip(columns, offsets)]),
    )


class SampleBlock:
    """One filesystem's samples as columns: one row per (window, node), in
    that order.

    ``fs_id`` names the filesystem every row belongs to. ``node`` holds
    int32 codes into ``node_labels``, a tuple of the distinct node ids the
    rows hold, sorted; so codes sort, group and compare rows exactly as the
    ids do, and an id is handled once per label, never once per row. key(i)
    names row i by its ids. ``window`` holds int64 window starts and
    ``counters`` an int64 (n, 21) array in ALL_FIELDS order; every row
    shares one ``window_len``. Rows are in canonical (window, node) order
    with unique keys, and every label is used by some row; the constructor
    trusts its caller on that, from_columns establishes it.
    """

    __slots__ = ("fs_id", "node_labels", "node", "window", "counters", "window_len")

    def __init__(
        self,
        fs_id: str,
        node_labels: tuple[str, ...],
        node: np.ndarray,
        window: np.ndarray,
        counters: np.ndarray,
        window_len: int,
    ):
        n = len(window)
        if len(node) != n or counters.shape != (n, len(ALL_FIELDS)):
            raise ValueError("sample block columns differ in length")
        self.fs_id = fs_id
        self.node_labels = node_labels
        self.node = node
        self.window = window
        self.counters = counters
        self.window_len = window_len

    @classmethod
    def empty(cls, fs_id: str, window_len: int) -> "SampleBlock":
        counters = np.empty((0, len(ALL_FIELDS)), np.int64)
        return cls(fs_id, (), np.empty(0, np.int32), np.empty(0, np.int64), counters, window_len)

    @classmethod
    def from_columns(
        cls,
        fs_id: str,
        node_labels: Sequence[str],
        node: np.ndarray,
        window: np.ndarray,
        counters: np.ndarray,
        window_len: int,
    ) -> "SampleBlock":
        """A block from rows in any order whose node ids are codes into a
        label table in any order (repeats and unused labels allowed).

        Duplicate keys raise ValueError. Columns already in canonical order
        are kept, not copied.
        """
        node_labels, node = label_codes(node_labels, np.asarray(node, np.int32))
        order, repeat = canonical_order(node, window)
        if repeat.any():
            i = order[int(np.argmax(repeat))]
            key = (fs_id, node_labels[node[i]], int(window[i]))
            raise ValueError(f"duplicate sample for {key}")
        if (np.diff(order) == 1).all():
            return cls(fs_id, node_labels, node, window, counters, window_len)
        return cls(fs_id, node_labels, node[order], window[order], counters[order], window_len)

    def _key(self, i: int) -> tuple[int, str, str]:
        return (int(self.window[i]), self.fs_id, self.node_labels[self.node[i]])

    def key(self, i: int) -> tuple[str, str, int]:
        """Row i's (fs, node, window) key, the form error messages name a sample by."""
        return (self.fs_id, self.node_labels[self.node[i]], int(self.window[i]))

    def take(self, index) -> "SampleBlock":
        """Rows selected by a boolean mask, ascending positions or a slice
        (whose columns are views); labels no selected row uses leave the
        table."""
        node_labels, node = label_codes(self.node_labels, self.node[index])
        return SampleBlock(
            self.fs_id, node_labels, node, self.window[index], self.counters[index], self.window_len
        )

    def check_sum_bound(self) -> None:
        """Raise LassiError unless any sum of counter rows fits in int64."""
        n = len(self)
        if n and int(self.counters.max()) > INT64_MAX // n:
            raise LassiError(f"summing {n} samples could exceed the int64 counter range")

    def __len__(self) -> int:
        return len(self.window)

    def __eq__(self, other) -> bool:
        if isinstance(other, SampleBlock):
            return (
                self.window_len == other.window_len
                and self.fs_id == other.fs_id
                and self.node_labels == other.node_labels
                and np.array_equal(self.node, other.node)
                and np.array_equal(self.window, other.window)
                and np.array_equal(self.counters, other.counters)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"SampleBlock({len(self)} samples, window_len={self.window_len})"
