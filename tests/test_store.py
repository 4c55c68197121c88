"""Partition store round-trips, bounds checks, locking, and baseline lookup."""

import csv
import fcntl
import io
import os
import re
import struct
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lassi
from lassi.cli import main
from lassi import model, samples_file
from lassi import store as store_module
from lassi.errors import MissingBaselineError, StoreError, StoreLockError
from lassi.metrics import FsBaseline
from lassi.model import ALL_FIELDS, INT64_MAX, AppHourRecord, FsHourRecord, SampleBlock
from lassi.pipeline import aggregate_range, ingest_files
from lassi.samples_file import SAMPLES_ARRAYS
from lassi.store import Partition, Store
from lassi.timeutil import DAY, HOUR, format_utc, parse_date, parse_utc

from helpers import (
    BASE_DAY,
    block_rows,
    count_calls,
    edit_npz,
    fsync_spy,
    mk_block,
    mk_counters,
    mk_job,
    mk_sample,
    read_samples,
    serialize_stats_csv,
    tree,
)


def app_hour(read_kb):
    return AppHourRecord(
        app_id="app1",
        fs_id="fs2",
        hour=BASE_DAY + 3 * HOUR,
        counters=(read_kb, 2, 3, 4, 5) + tuple(range(16)),
    )


def fs_hour():
    return FsHourRecord(
        fs_id="fs2",
        hour=BASE_DAY,
        counters=(1, 2, 3, 4, 5) + (1,) * 16,
        unattributed=mk_counters(),
    )


@pytest.fixture
def store(tmp_path):
    return Store(tmp_path / "data")


def samples_partition(fs="fs2", date=BASE_DAY):
    return Partition("samples", fs, date)


def mark_aggregated(store, *days):
    """Header-only fs_hours partitions, so fs2's aggregates on those days
    (BASE_DAY by default) can be read; later writes may fill them."""
    for day in days or (BASE_DAY,):
        store.write_partition([], Partition("fs_hours", "fs2", day))


def make_baseline(fs="fs2", fill=0.125, **overrides):
    means = {name: fill for name in ALL_FIELDS}
    means.update(overrides)
    return FsBaseline(
        fs_id=fs,
        period=(BASE_DAY - 7 * DAY, BASE_DAY),
        alpha=2.0,
        means=means,
    )


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition("nope", "fs2", BASE_DAY)
    with pytest.raises(ValueError):
        Partition("samples", "fs2", BASE_DAY + 1)
    assert Partition("jobs", None, BASE_DAY).parts()[1] == "all"


def test_samples_round_trip(store):
    samples = mk_block([
        mk_sample("fs2", "nid2", BASE_DAY + 360, read_kb=7),
        mk_sample("fs2", "nid1", BASE_DAY, write_ops=3),
        mk_sample("fs2", "nid1", BASE_DAY + 180, open=1),
    ])
    n = store.write_partition(samples, samples_partition())
    assert n == 3
    path = store.path(samples_partition())
    assert path.name == "2017-10-09.npz"
    with np.load(path, allow_pickle=False) as npz:
        assert npz.files == list(SAMPLES_ARRAYS)
    back = read_samples(store, "fs2", BASE_DAY)
    assert back == samples
    # canonical order: window, then fs, then node
    assert [(w, node) for _, node, w, _ in block_rows(back)] == [
        (BASE_DAY, "nid1"),
        (BASE_DAY + 180, "nid1"),
        (BASE_DAY + 360, "nid2"),
    ]
    assert tuple(back.counters[2].tolist()) == mk_counters(read_kb=7)
    assert tuple(back.counters[1].tolist()) == mk_counters(open=1)


def test_read_range_rejects_empty_range(store):
    with pytest.raises(ValueError, match="empty range"):
        store.read_range("jobs", None, BASE_DAY, BASE_DAY)
    # samples are read a partition at a time, through open_samples
    with pytest.raises(ValueError, match="'samples' does not support read_range"):
        store.read_range("samples", "fs2", BASE_DAY, BASE_DAY + DAY)


def test_a_day_with_no_samples_partition_opens_as_an_empty_block(store):
    assert read_samples(store, "fs3", BASE_DAY) == SampleBlock.empty("fs3", 180)


def test_write_partition_rejects_out_of_bounds(store):
    stray_day = mk_block([mk_sample("fs2", "nid1", BASE_DAY + DAY)])
    with pytest.raises(ValueError):
        store.write_partition(stray_day, samples_partition())
    stray_fs = mk_block([mk_sample("fs3", "nid1", BASE_DAY)])
    with pytest.raises(ValueError):
        store.write_partition(stray_fs, samples_partition())


def test_write_partition_rejects_reports_dataset(store):
    with pytest.raises(ValueError):
        store.write_partition([], Partition("reports", "fs2", BASE_DAY))


def test_jobs_round_trip_and_overlap_query(store):
    # ends after midnight; lives in the partition of its start day
    long_job = mk_job("app1", ["nid1"], BASE_DAY + 20 * HOUR, BASE_DAY + DAY + HOUR)
    short_job = mk_job("app2", ["nid2"], BASE_DAY + HOUR, BASE_DAY + 2 * HOUR)
    store.write_partition([long_job, short_job], Partition("jobs", None, BASE_DAY))

    next_day = store.query_jobs_overlapping(BASE_DAY + DAY, BASE_DAY + 2 * DAY)
    assert [j.app_id for j in next_day] == ["app1"]

    by_start = store.read_range("jobs", None, BASE_DAY + DAY, BASE_DAY + 2 * DAY)
    assert by_start == []

    both = store.query_jobs_overlapping(BASE_DAY, BASE_DAY + DAY)
    assert [j.app_id for j in both] == ["app2", "app1"]


def test_app_hours_round_trip(store):
    rec = AppHourRecord(
        app_id="app1",
        fs_id="fs2",
        hour=BASE_DAY + 3 * HOUR,
        counters=(1, 2, 3, 4, 5) + tuple(range(16)),
    )
    store.write_aggregates("fs2", BASE_DAY, [rec], [])
    (back,) = store.read_range("app_hours", "fs2", BASE_DAY, BASE_DAY + DAY)
    assert back == rec


def test_fs_hours_round_trip(store):
    rec = FsHourRecord(
        fs_id="fs2",
        hour=BASE_DAY,
        counters=(10, 20, 30, 40, 50) + (6,) * 16,
        unattributed=(1, 2, 3, 4, 5) + (1,) * 16,
    )
    store.write_partition([rec], Partition("fs_hours", "fs2", BASE_DAY))
    (back,) = store.read_range("fs_hours", "fs2", BASE_DAY, BASE_DAY + DAY)
    assert back == rec


counter_vec = st.tuples(*[st.integers(min_value=0, max_value=INT64_MAX)] * len(ALL_FIELDS))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(counter_vec, counter_vec), min_size=1, max_size=24))
def test_hour_records_round_trip_through_partitions(vectors):
    hours = [BASE_DAY + i * HOUR for i in range(len(vectors))]
    # fs_hours first: it marks the day as aggregated, so app_hours can be read
    written = {
        "fs_hours": [
            FsHourRecord("fs2", hour, tuple(map(max, a, b)), tuple(map(min, a, b)))
            for hour, (a, b) in zip(hours, vectors)
        ],
        "app_hours": [
            AppHourRecord(f"app{i}", "fs2", hour, a)
            for i, (hour, (a, _)) in enumerate(zip(hours, vectors))
        ],
    }
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Store(Path(tmp) / "first"), Store(Path(tmp) / "second")
        for dataset, records in written.items():
            partition = Partition(dataset, "fs2", BASE_DAY)
            first.write_partition(records, partition)
            back = Store(first.root).read_range(dataset, "fs2", BASE_DAY, BASE_DAY + DAY)
            assert back == records
            second.write_partition(back, partition)
            assert second.path(partition).read_bytes() == first.path(partition).read_bytes()


@pytest.mark.parametrize("defect", ["short", "long", "non_integer", "negative", "past_csv_limit"])
@pytest.mark.parametrize("dataset", ["app_hours", "fs_hours", "baselines"])
def test_malformed_row_raises_store_error_naming_path_and_line(store, dataset, defect):
    records = {"app_hours": [app_hour(1)], "fs_hours": [fs_hour()], "baselines": [make_baseline()]}
    partition = Partition(dataset, "fs2", BASE_DAY)
    mark_aggregated(store)
    store.write_partition(records[dataset], partition)
    path = store.path(partition)
    lines = path.read_text(encoding="utf-8").split("\n")
    cells = lines[1].split(",")  # the last cell is a counter, or a baseline mean
    if defect == "short":
        cells = cells[:-3]
    elif defect == "long":
        cells += ["0", "0"]
    elif defect == "non_integer":
        cells[-1] = "x" if dataset == "baselines" else "1.5"
    elif defect == "past_csv_limit":
        cells[-1] = "1" * (csv.field_size_limit() + 1)
    else:
        cells[-1] = "-1"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")

    fresh = Store(store.root)
    with pytest.raises(StoreError, match=re.escape(f"{path}: line 2: ")):
        if dataset == "baselines":
            fresh.load_baseline("fs2", BASE_DAY)
        else:
            fresh.read_range(dataset, "fs2", BASE_DAY, BASE_DAY + DAY)


@pytest.mark.parametrize("cell", ["1_000", "+2", "007"])
@pytest.mark.parametrize("dataset", ["app_hours", "fs_hours"])
def test_non_canonical_counter_raises_store_error_naming_path_and_line(store, dataset, cell):
    records = {"app_hours": [app_hour(1)], "fs_hours": [fs_hour()]}[dataset]
    partition = Partition(dataset, "fs2", BASE_DAY)
    mark_aggregated(store)
    store.write_partition(records, partition)
    path = store.path(partition)
    lines = path.read_text(encoding="utf-8").split("\n")
    cells = lines[1].split(",")
    cells[-1] = cell
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")

    with pytest.raises(StoreError, match=re.escape(f"{path}: line 2: ")) as err:
        Store(store.root).read_range(dataset, "fs2", BASE_DAY, BASE_DAY + DAY)
    assert repr(cell) in str(err.value)


def test_a_partition_write_fsyncs_one_file_and_its_directory(store, monkeypatch):
    synced = fsync_spy(monkeypatch)
    store.write_partition([app_hour(1)], Partition("app_hours", "fs2", BASE_DAY))
    assert synced == ["file", "dir"]


@pytest.mark.parametrize("move", ["fs", "day", "both"])
@pytest.mark.parametrize("dataset", ["app_hours", "fs_hours"])
def test_row_outside_its_partition_raises_store_error_naming_path_and_line(store, dataset, move):
    records = {"app_hours": [app_hour(1)], "fs_hours": [fs_hour()]}[dataset]
    partition = Partition(dataset, "fs2", BASE_DAY)
    mark_aggregated(store, *(BASE_DAY + i * DAY for i in range(5)))
    store.write_partition(records, partition)
    path = store.path(partition)
    lines = path.read_text(encoding="utf-8").split("\n")
    cells = lines[1].split(",")
    if move in ("fs", "both"):
        cells[1] = "fs3"
    if move in ("day", "both"):
        cells[0] = format_utc(parse_utc(cells[0]) + 3 * DAY)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")

    for reader in (store, Store(store.root)):
        with pytest.raises(StoreError, match=re.escape(f"{path}: line 2: record ")) as err:
            reader.read_range(dataset, "fs2", BASE_DAY, BASE_DAY + 5 * DAY)
        assert "outside partition (fs2, 2017-10-09)" in str(err.value)


@pytest.mark.parametrize("move", ["previous_day", "next_day"])
def test_samples_row_outside_its_partition_raises_store_error_naming_path_and_key(store, move):
    """The file holds no filesystem column, so a stray row is a window of another day."""
    rows = [mk_sample("fs2", "nid1", BASE_DAY), mk_sample("fs2", "nid2", BASE_DAY + 180)]
    store.write_partition(mk_block(rows), samples_partition())
    path = store.path(samples_partition())
    window = np.array([BASE_DAY, BASE_DAY + 180], np.int64)
    if move == "previous_day":
        window[0] -= DAY
        key = ("fs2", "nid1", BASE_DAY - DAY)
    else:
        window[1] += DAY
        key = ("fs2", "nid2", BASE_DAY + DAY + 180)
    edit_npz(path, window=window)

    for reader in (store, Store(store.root)):
        with pytest.raises(StoreError) as err:
            read_samples(reader, "fs2", BASE_DAY)
        assert str(err.value) == f"{path}: sample {key} outside partition (fs2, 2017-10-09)"


W0, W1 = BASE_DAY, BASE_DAY + 180


def stored_samples(store) -> tuple[Path, dict]:
    """fs2's partition of BASE_DAY holding nid1 and nid2 over two windows:
    its path, and its arrays to corrupt."""
    rows = [mk_sample("fs2", n, W0 + w, read_kb=1) for w in (0, 180) for n in ("nid1", "nid2")]
    store.write_partition(mk_block(rows), samples_partition())
    path = store.path(samples_partition())
    with np.load(path, allow_pickle=False) as npz:
        return path, {name: npz[name] for name in npz.files}


def i64(*values):
    return np.array(values, np.int64)


def i32(*values):
    return np.array(values, np.int32)


def edit(**change):
    """A corruption: the file rewritten by edit_npz, each keyword's value
    computed from the stored arrays."""

    def corrupt(path, arrays):
        edit_npz(path, **{name: fn(arrays) for name, fn in change.items()})

    return corrupt


def npy_file(path, arrays):
    """The counters alone as a .npy file in place of the .npz."""
    out = io.BytesIO()
    np.save(out, arrays["counters"])
    path.write_bytes(out.getvalue())


def flip_counter_byte(path, row):
    """Flip the low bit of row's first counter in the file's bytes, so only
    zipfile's CRC-32 of counters.npy can tell."""
    data = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo("counters.npy")
        with zf.open(info) as member:
            np.lib.format.read_magic(member)
            np.lib.format.read_array_header_1_0(member)
            header = member.tell()
    # a local file header is 30 bytes, then the name and the extra field
    name, extra = struct.unpack("<HH", data[info.header_offset + 26 : info.header_offset + 30])
    data[info.header_offset + 30 + name + extra + header + row * len(ALL_FIELDS) * 8] ^= 1
    path.write_bytes(bytes(data))


def negative_and_flipped(path, arrays):
    """Row 2's counters negated, then a byte of row 3 flipped."""
    edit(counters=lambda a: a["counters"] * np.where(np.arange(4) == 2, -1, 1)[:, None])(
        path, arrays
    )
    flip_counter_byte(path, 3)


def labels(*ids):
    """edit() arguments giving node labels ids."""
    encoded = [i.encode() for i in ids]
    return {
        "node_labels": lambda a: np.frombuffer(b"".join(encoded), np.uint8),
        "node_label_ends": lambda a: np.cumsum([len(e) for e in encoded], dtype=np.int64),
    }


def const(value):
    return lambda a: value


ARRAYS = "['counters', 'node', 'node_label_ends', 'node_labels', 'window']"
# name -> (corrupt(path, arrays) for the file of stored_samples, what the
# StoreError says after the path)
SAMPLES_DEFECTS = {
    "missing_array": (
        edit(drop=const(("window",))),
        "unreadable samples partition: arrays ['counters', 'node', 'node_label_ends', "
        f"'node_labels'], expected {ARRAYS}",
    ),
    "extra_array": (
        edit(fs=const(i32(0, 0, 0, 0))),
        "unreadable samples partition: arrays ['counters', 'fs', 'node', 'node_label_ends', "
        f"'node_labels', 'window'], expected {ARRAYS}",
    ),
    "wrong_dtype": (
        edit(window=lambda a: a["window"].astype(np.float64)),
        "array window is float64 of shape (4,), expected int64",
    ),
    "big_endian": (
        edit(node=lambda a: a["node"].astype(">i4")),
        "array node is >i4 of shape (4,), expected int32",
    ),
    "two_dimensional_column": (
        edit(node=lambda a: a["node"].reshape(2, 2)),
        "array node is int32 of shape (2, 2), expected int32",
    ),
    "short_column": (
        edit(window=lambda a: a["window"][:3]),
        "columns differ in shape: node (4,), window (3,), counters (4, 21)",
    ),
    "short_counter_row": (
        edit(counters=lambda a: a["counters"][:, :20]),
        "columns differ in shape: node (4,), window (4,), counters (4, 20)",
    ),
    "empty_label": (
        edit(**labels("", "nid2")),
        "node_label_ends do not cut node_labels into non-empty labels",
    ),
    "ends_short_of_the_bytes": (
        edit(node_label_ends=const(i64(4, 7))),
        "node_label_ends do not cut node_labels into non-empty labels",
    ),
    "label_not_utf8": (
        edit(node_labels=const(np.frombuffer(b"nid1nid\xff", np.uint8))),
        "node label not UTF-8: ",
    ),
    "unsorted_labels": (
        edit(**labels("nid2", "nid1")),
        "node labels not sorted and distinct: 'nid2' before 'nid1'",
    ),
    "repeated_label": (
        edit(**labels("nid1", "nid1")),
        "node labels not sorted and distinct: 'nid1' before 'nid1'",
    ),
    "unused_label": (
        edit(**labels("nid1", "nid2", "nid3")),
        "node label 'nid3' used by no row",
    ),
    "code_out_of_range": (
        edit(node=const(i32(0, 1, 0, 2))),
        f"row 3 (window {W1}): node code 2 not among 2 labels",
    ),
    "negative_code": (
        edit(node=const(i32(0, -1, 0, 1))),
        f"row 1 (window {W0}): node code -1 not among 2 labels",
    ),
    "off_grid": (
        edit(window=const(i64(W0, W0, W1, W1 + 1))),
        f"sample ('fs2', 'nid2', {W1 + 1}) off the 180s window grid",
    ),
    "negative_counter": (
        edit(counters=lambda a: a["counters"] * np.where(np.arange(4) == 2, -1, 1)[:, None]),
        f"sample ('fs2', 'nid1', {W1}) has a negative counter",
    ),
    "out_of_order": (
        edit(node=const(i32(1, 0, 0, 1))),
        f"sample ('fs2', 'nid1', {W0}) out of canonical (window, fs, node) order",
    ),
    "windows_out_of_order": (
        edit(window=const(i64(W1, W1, W0, W0))),
        f"sample ('fs2', 'nid1', {W0}) out of canonical (window, fs, node) order",
    ),
    "repeated_key": (
        edit(node=const(i32(0, 0, 0, 1))),
        f"sample ('fs2', 'nid1', {W0}) repeats the key before it",
    ),
    "truncated": (
        lambda path, a: path.write_bytes(path.read_bytes()[:-100]),
        "unreadable samples partition: File is not a zip file",
    ),
    "not_a_zip": (
        lambda path, a: path.write_bytes(b"window_start,fs,node\n"),
        "unreadable samples partition: ",
    ),
    "npy_not_npz": (npy_file, "unreadable samples partition: not an .npz file"),
    "compressed": (
        lambda path, a: np.savez_compressed(path, **a),
        "unreadable samples partition: compressed entries",
    ),
    "bad_crc": (
        lambda path, a: flip_counter_byte(path, 3),
        "unreadable samples partition: Bad CRC-32 for file 'counters.npy'",
    ),
    # the CRC-32 is checked as the file is read, before any row is
    "bad_crc_and_negative_counter": (
        negative_and_flipped,
        "unreadable samples partition: Bad CRC-32 for file 'counters.npy'",
    ),
}


@pytest.mark.parametrize("defect", sorted(SAMPLES_DEFECTS))
def test_a_corrupt_samples_file_raises_store_error_naming_path_and_defect(store, defect):
    """The refusal names the defect and leaves no file open."""
    path, arrays = stored_samples(store)
    corrupt, message = SAMPLES_DEFECTS[defect]
    corrupt(path, arrays)
    descriptors = sorted(os.listdir("/proc/self/fd"))
    for reader in (store, Store(store.root)):
        with pytest.raises(StoreError) as err:
            read_samples(reader, "fs2", BASE_DAY)
        assert str(err.value).startswith(f"{path}: {message}")
    assert sorted(os.listdir("/proc/self/fd")) == descriptors


@pytest.mark.parametrize("step", [1, 7, 512])
def test_a_flipped_counter_byte_is_refused_however_the_counters_are_read(store, monkeypatch, step):
    """A partition far larger than zipfile's first read, its last row's
    counters flipped: the checking pass reads the counters a few rows at a
    time to the end, so zipfile's CRC-32 refuses the file before any row is
    handed out, by open_samples or aggregate_range."""
    rows = [
        mk_sample("fs2", f"nid{n}", W0 + 180 * w, read_kb=w) for w in range(480) for n in range(6)
    ]
    store.write_partition(mk_block(rows), samples_partition())
    path = store.path(samples_partition())
    flip_counter_byte(path, len(rows) - 1)
    monkeypatch.setattr(model, "_READ_ROWS", step)
    message = re.escape(f"{path}: unreadable samples partition: Bad CRC-32 for file 'counters.npy'")
    with pytest.raises(StoreError, match=message):
        read_samples(store, "fs2", BASE_DAY)
    with pytest.raises(StoreError, match=message):
        aggregate_range(store, BASE_DAY, BASE_DAY + DAY)


class Unpickled:
    """Records each time a pickle of it is loaded."""

    loads: list = []

    def __reduce__(self):
        return (Unpickled.loads.append, ("unpickled",))


def test_a_samples_file_holding_an_object_array_is_refused_not_unpickled(store):
    path, arrays = stored_samples(store)
    edit_npz(path, node_labels=np.array([Unpickled()], dtype=object))
    with pytest.raises(StoreError, match=re.escape(f"{path}: unreadable samples partition: ")):
        read_samples(store, "fs2", BASE_DAY)
    assert Unpickled.loads == []


def test_writing_one_block_twice_gives_equal_bytes(tmp_path):
    block = mk_block([mk_sample("fs2", n, BASE_DAY + 180 * i, read_kb=i) for i in range(3)
                      for n in ("nid1", "nid2")])
    first, second = Store(tmp_path / "first"), Store(tmp_path / "second")
    first.write_partition(block, samples_partition())
    back = read_samples(Store(first.root), "fs2", BASE_DAY)
    second.write_partition(back, samples_partition())
    data = first.path(samples_partition()).read_bytes()
    assert second.path(samples_partition()).read_bytes() == data
    # every entry carries one fixed date, so the bytes do not depend on the clock
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        assert {info.date_time for info in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}


# ids the CSV form must quote or that numpy str arrays would cut (a trailing NUL)
awkward_ids = st.text(
    st.sampled_from([",", '"', "\r", "\n", "\x00", " ", "é", "\u4e2d", "\U0001f600", "a", "Z"]),
    min_size=1,
    max_size=6,
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(awkward_ids, st.integers(0, DAY // 180 - 1), counter_vec),
        min_size=0,
        max_size=12,
        unique_by=lambda row: row[:2],
    )
)
def test_samples_partition_round_trip_with_awkward_ids(rows):
    block = mk_block(("fs2", node, BASE_DAY + 180 * i, vec) for node, i, vec in rows)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Store(Path(tmp) / "first"), Store(Path(tmp) / "second")
        first.write_partition(block, samples_partition())
        back = read_samples(Store(first.root), "fs2", BASE_DAY)
        assert back == block
        second.write_partition(back, samples_partition())
        path = samples_partition()
        assert second.path(path).read_bytes() == first.path(path).read_bytes()


def test_a_csv_samples_partition_is_refused_with_a_re_ingest_hint(tmp_path):
    """A store written when samples were CSV is refused whole: every samples
    read, ingest and aggregate names the file and says to re-ingest."""
    root = tmp_path / "store"
    Store(root).write_partition(mk_block([mk_sample("fs3", "nid1", BASE_DAY)]),
                                samples_partition(fs="fs3"))
    legacy = root / "samples" / "fs2" / "2017-10-09.csv"
    legacy.parent.mkdir(parents=True)
    legacy.write_text(serialize_stats_csv(mk_block([mk_sample("fs2", "nid1", BASE_DAY)])))
    stats = tmp_path / "stats.csv"
    stats.write_text(serialize_stats_csv(mk_block([mk_sample("fs3", "nid2", BASE_DAY)])))
    message = re.escape(f"{legacy}: a CSV samples partition") + ".*re-ingest the input"

    for refused in (
        lambda s: read_samples(s, "fs2", BASE_DAY),
        lambda s: read_samples(s, "fs3", BASE_DAY),
        lambda s: s.partition_dates("samples", "fs2"),
        lambda s: ingest_files(s, [stats]),
        lambda s: aggregate_range(s, BASE_DAY, BASE_DAY + DAY),
    ):
        with pytest.raises(StoreError, match=message):
            refused(Store(root))
    assert main(["ingest", "--store", str(root), "--stats", str(stats)]) == 1
    # nothing was written: the fs3 partition still holds its one row
    legacy.unlink()
    assert len(read_samples(Store(root), "fs3", BASE_DAY)) == 1


def test_the_first_samples_written_record_the_store_window_length(tmp_path):
    """A store with no samples takes the window length it is given, 180 by
    default; its first samples partition records it, and every later Store
    reads it from the record and refuses another given value, naming both."""
    root = tmp_path / "store"
    assert Store(root).window_len == 180
    writer = Store(root, 600)
    writer.write_partition(mk_block([mk_sample("fs2", "nid1", BASE_DAY)], 600), samples_partition())
    assert (root / "samples" / "window_len").read_bytes() == b"600\n"
    assert Store(root).window_len == Store(root, 600).window_len == 600
    assert read_samples(Store(root), "fs2", BASE_DAY).window_len == 600
    with pytest.raises(StoreError) as err:
        Store(root, 300).window_len
    assert str(err.value) == f"{root}: window_len 300 given, the store's is 600"
    # a block of another window length is refused before anything is written
    before = tree(root)
    with pytest.raises(ValueError, match="samples of window_len 180, not 600"):
        writer.write_partition(mk_block([mk_sample("fs3", "nid1", BASE_DAY)]), samples_partition("fs3"))
    assert tree(root) == before


def test_two_stores_of_different_window_lengths_leave_one_record(tmp_path):
    """Both resolve their window length before either writes: the first
    writer's record stands, and the second's write raises and leaves no
    partition."""
    root = tmp_path / "store"
    first, second = Store(root, 180), Store(root, 600)
    assert (first.window_len, second.window_len) == (180, 600)
    first.write_partition(mk_block([mk_sample("fs2", "nid1", BASE_DAY)]), samples_partition())
    with pytest.raises(StoreError, match="samples/window_len: window_len 180, not 600"):
        second.write_partition(
            mk_block([mk_sample("fs3", "nid1", BASE_DAY)], 600), samples_partition("fs3")
        )
    assert (root / "samples" / "window_len").read_bytes() == b"180\n"
    assert sorted(p.relative_to(root).as_posix() for p in root.rglob("*.npz")) == [
        "samples/fs2/2017-10-09.npz"
    ]


def test_a_store_with_samples_and_no_record_is_refused_with_a_re_ingest_hint(tmp_path):
    """Samples written before the store recorded its window length: every
    samples read, ingest and aggregate names a partition and says to re-ingest."""
    root = tmp_path / "store"
    Store(root).write_partition(mk_block([mk_sample("fs2", "nid1", BASE_DAY)]), samples_partition())
    (root / "samples" / "window_len").unlink()
    before = tree(root)
    stats = tmp_path / "stats.csv"
    stats.write_text(serialize_stats_csv(mk_block([mk_sample("fs3", "nid2", BASE_DAY)])))
    path = Store(root).path(samples_partition())
    message = re.escape(f"{path}: a samples partition with no window length record") + (
        ".*re-ingest the input into a new store"
    )
    for refused in (
        lambda s: read_samples(s, "fs3", BASE_DAY),
        lambda s: ingest_files(s, [stats]),
        lambda s: aggregate_range(s, BASE_DAY, BASE_DAY + DAY),
    ):
        with pytest.raises(StoreError, match=message):
            refused(Store(root))
    assert main(["aggregate", "--store", str(root), "--date", "2017-10-09"]) == 1
    assert tree(root) == before


def test_aggregating_at_another_window_length_is_refused_and_writes_nothing(tmp_path):
    root = tmp_path / "store"
    block = mk_block([mk_sample("fs2", "nid1", BASE_DAY + 600 * i) for i in range(3)], 600)
    Store(root, 600).write_partition(block, samples_partition())
    before = tree(root)
    with pytest.raises(StoreError, match="window_len 300 given"):
        aggregate_range(Store(root, 300), BASE_DAY, BASE_DAY + DAY)
    assert tree(root) == before
    aggregate_range(Store(root), BASE_DAY, BASE_DAY + DAY)
    assert Store(root).path(Partition("fs_hours", "fs2", BASE_DAY)).exists()


def test_baseline_store_and_lookup(store):
    old = make_baseline(fill=0.25)
    new = make_baseline(fill=1 / 3, read_kb=1234.5)
    store.write_baseline(old, BASE_DAY)
    store.write_baseline(new, BASE_DAY + 2 * DAY)

    # label <= date picks the newest qualifying baseline, exactly as stored
    assert store.load_baseline("fs2", BASE_DAY) == old
    assert store.load_baseline("fs2", BASE_DAY + DAY) == old
    got = store.load_baseline("fs2", BASE_DAY + 3 * DAY)
    assert got == new
    assert got.means["read_kb"] == 1234.5
    assert got.means["open"] == 1 / 3


def test_missing_baseline_raises(store):
    with pytest.raises(MissingBaselineError) as err:
        store.load_baseline("fs2", BASE_DAY)
    assert "lassi baseline" in str(err.value)

    store.write_baseline(make_baseline(), BASE_DAY + DAY)
    with pytest.raises(MissingBaselineError):
        store.load_baseline("fs2", BASE_DAY)


def test_lock_conflict(store):
    partition = samples_partition()
    path = store.path(partition)
    path.parent.mkdir(parents=True)
    lock = path.with_name(path.name + ".lock")
    with open(lock, "w") as held:
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        with pytest.raises(StoreLockError, match="locked by another writer"):
            store.write_partition(mk_block([mk_sample("fs2", "nid1", BASE_DAY)]), partition)
    store.write_partition(mk_block([mk_sample("fs2", "nid1", BASE_DAY)]), partition)
    assert lock.exists()  # left in place for the next writer to lock


# a writer that takes a partition's lock and waits inside Store._locked
HOLD_LOCK = """
import sys, time
from pathlib import Path
from lassi.store import Store
store = Store(sys.argv[1])
with store._locked(Path(sys.argv[2])):
    print("locked", flush=True)
    time.sleep(60)
"""


def test_lock_of_a_killed_writer_is_released(store):
    partition = samples_partition()
    path = store.path(partition)
    env = dict(os.environ, PYTHONPATH=str(Path(lassi.__file__).parents[1]))
    writer = subprocess.Popen(
        [sys.executable, "-c", HOLD_LOCK, str(store.root), str(path)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        assert writer.stdout.readline() == "locked\n"
        with pytest.raises(StoreLockError):
            store.write_partition(mk_block([mk_sample("fs2", "nid1", BASE_DAY)]), partition)
        writer.kill()  # SIGKILL: no cleanup runs in the writer
        assert writer.wait(timeout=30) == -9
    finally:
        if writer.poll() is None:
            writer.kill()
            writer.wait(timeout=30)
        writer.stdout.close()
    store.write_partition(mk_block([mk_sample("fs2", "nid1", BASE_DAY)]), partition)
    assert len(read_samples(store, "fs2", BASE_DAY)) == 1


def test_an_ingest_into_a_locked_partition_exits_1_and_the_retry_lands(store, tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    first.write_text(serialize_stats_csv(mk_block([mk_sample("fs2", "nid1", BASE_DAY)])))
    second.write_text(serialize_stats_csv(mk_block([mk_sample("fs2", "nid2", BASE_DAY)])))
    ingest = ["ingest", "--store", str(store.root), "--stats"]
    assert main([*ingest, str(first)]) == 0
    path = store.path(samples_partition())
    before = path.read_bytes()

    env = dict(os.environ, PYTHONPATH=str(Path(lassi.__file__).parents[1]))
    holder = subprocess.Popen(
        [sys.executable, "-c", HOLD_LOCK, str(store.root), str(path)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        assert holder.stdout.readline() == "locked\n"
        blocked = subprocess.run(
            [sys.executable, "-m", "lassi.cli", *ingest, str(second)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert blocked.returncode == 1
        assert f"partition {path} is locked by another writer" in blocked.stderr
        assert path.read_bytes() == before
    finally:
        holder.kill()
        holder.wait(timeout=30)
        holder.stdout.close()
    assert main([*ingest, str(second)]) == 0
    got = read_samples(store, "fs2", BASE_DAY)
    assert got == mk_block([mk_sample("fs2", n, BASE_DAY) for n in ("nid1", "nid2")])


def test_no_temp_files_left_behind(store):
    store.write_partition(mk_block([mk_sample("fs2", "nid1", BASE_DAY)]), samples_partition())
    leftovers = [
        name
        for _, _, files in os.walk(store.root)
        for name in files
        if ".tmp" in name
    ]
    assert leftovers == []


def test_a_partition_path_is_resolved_once_per_store(store):
    partitions = [
        Partition(dataset, fs_id, day)
        for dataset, fs_id in (("samples", "fs2"), ("jobs", None), ("baselines", "fs3"))
        for day in (0, BASE_DAY, BASE_DAY + DAY)
    ]
    first = [store.path(p) for p in partitions]
    assert first == [store.root.joinpath(*p.parts()) for p in partitions]
    # equal partitions share the one path; another Store joins its own root
    again = [store.path(Partition(p.dataset, p.fs_id, p.date)) for p in partitions]
    assert all(a is f for a, f in zip(again, first))
    other = Store(store.root / "other")
    assert other.path(partitions[0]) == store.root / "other" / "samples" / "fs2" / "1970-01-01.npz"
    assert other.path(partitions[3]) == store.root / "other" / "jobs" / "all" / "1970-01-01.csv"


def test_stray_file_in_store_rejected(store):
    store.write_partition(mk_block([mk_sample("fs2", "nid1", BASE_DAY)]), samples_partition())
    assert store.partition_dates("samples", "fs2") == [BASE_DAY]
    (store.root / "samples" / "fs2" / "notes.npz").write_bytes(b"junk")
    with pytest.raises(StoreError, match="unexpected file in store: .*notes.npz"):
        store.partition_dates("samples", "fs2")


@pytest.mark.parametrize(
    "text", ["2017-10-9", "2017-1-09", "17-10-09", "2017-10-09 ", "2017-02-30", "2017-10-0\u0669"]
)
def test_parse_date_takes_exact_calendar_dates_only(text):
    with pytest.raises(ValueError):
        parse_date(text)
    assert parse_date("2017-10-09") == BASE_DAY
    assert parse_date("1969-12-31") == -DAY


def test_a_non_canonical_partition_name_is_an_unexpected_file(store):
    job = mk_job("app1", ["nid1"], BASE_DAY, BASE_DAY + HOUR)
    store.write_partition([job], Partition("jobs", None, BASE_DAY))
    path = store.path(Partition("jobs", None, BASE_DAY))
    # strptime read this name as a second copy of the day, whose jobs came back twice
    path.with_name("2017-10-9.csv").write_bytes(path.read_bytes())
    with pytest.raises(StoreError, match="unexpected file in store"):
        store.query_jobs_overlapping(BASE_DAY, BASE_DAY + DAY)


def test_corrupt_partition_surfaces_as_store_error(store):
    partition = samples_partition()
    store.write_partition(mk_block([mk_sample("fs2", "nid1", BASE_DAY)]), partition)
    path = store.path(partition)
    path.write_text("wrong,header\n", encoding="utf-8")
    with pytest.raises(StoreError, match=re.escape(f"{path}: unreadable samples partition")):
        read_samples(store, "fs2", BASE_DAY)


def test_list_fs(store):
    store.write_partition(mk_block([mk_sample("fs2", "nid1", BASE_DAY)]), samples_partition())
    store.write_partition(
        mk_block([mk_sample("fs1", "nid1", BASE_DAY)]), samples_partition(fs="fs1")
    )
    assert store.list_fs("samples") == ["fs1", "fs2"]
    assert store.list_fs("baselines") == []


def test_rewrite_replaces_partition(store):
    partition = samples_partition()
    store.write_partition(
        mk_block([mk_sample("fs2", "nid1", BASE_DAY), mk_sample("fs2", "nid2", BASE_DAY)]),
        partition,
    )
    store.write_partition(mk_block([mk_sample("fs2", "nid9", BASE_DAY, read_ops=5)]), partition)
    back = read_samples(store, "fs2", BASE_DAY)
    assert back == mk_block([mk_sample("fs2", "nid9", BASE_DAY, read_ops=5)])


def test_unchanged_partitions_are_parsed_once(store, monkeypatch):
    day = BASE_DAY
    store.write_partition([mk_job("app1", ["nid1"], day + HOUR, day + 2 * HOUR)],
                          Partition("jobs", None, day))
    parses = count_calls(monkeypatch, "parse_jobs_csv")
    for _ in range(3):
        assert [j.app_id for j in store.read_range("jobs", None, day, day + DAY)] == ["app1"]
        assert [j.app_id for j in store.query_jobs_overlapping(day, day + DAY)] == ["app1"]
    assert len(parses) == 1


def test_reads_return_fresh_copies(store):
    store.write_aggregates("fs2", BASE_DAY, [app_hour(1)], [])
    first = store.read_range("app_hours", "fs2", BASE_DAY, BASE_DAY + DAY)
    first.clear()
    assert store.read_range("app_hours", "fs2", BASE_DAY, BASE_DAY + DAY) == [app_hour(1)]

    store.write_baseline(make_baseline(fill=0.25), BASE_DAY)
    got = store.load_baseline("fs2", BASE_DAY)
    got.means["read_kb"] = 99.0
    assert store.load_baseline("fs2", BASE_DAY) == make_baseline(fill=0.25)

    job = mk_job("app1", ["nid1"], BASE_DAY, BASE_DAY + HOUR)
    store.write_partition([job], Partition("jobs", None, BASE_DAY))
    ((day, jobs),) = store.job_partitions()
    assert (day, dict(jobs)) == (BASE_DAY, {"app1": job})
    with pytest.raises(TypeError):
        jobs["app9"] = job


def test_memo_follows_a_second_writer_of_equal_length(tmp_path):
    reader = Store(tmp_path / "data")
    writer = Store(tmp_path / "data")
    jobs_part = Partition("jobs", None, BASE_DAY)
    hours_part = Partition("app_hours", "fs2", BASE_DAY)
    job_a = mk_job("app1", ["nid1"], BASE_DAY, BASE_DAY + HOUR, command="./a.x", job_id="1.sdb")
    job_b = mk_job("app1", ["nid1"], BASE_DAY, BASE_DAY + HOUR, command="./b.x", job_id="1.sdb")
    writer.write_partition([job_a], jobs_part)
    mark_aggregated(writer)
    writer.write_partition([app_hour(1)], hours_part)
    assert reader.read_range("jobs", None, BASE_DAY, BASE_DAY + DAY) == [job_a]
    assert reader.read_range("app_hours", "fs2", BASE_DAY, BASE_DAY + DAY) == [app_hour(1)]

    sizes = [reader.path(p).stat().st_size for p in (jobs_part, hours_part)]
    writer.write_partition([job_b], jobs_part)
    writer.write_partition([app_hour(2)], hours_part)
    # same byte length, different content: only the bytes can tell them apart
    assert [reader.path(p).stat().st_size for p in (jobs_part, hours_part)] == sizes

    assert reader.read_range("jobs", None, BASE_DAY, BASE_DAY + DAY) == [job_b]
    assert reader.query_jobs_overlapping(BASE_DAY, BASE_DAY + DAY) == [job_b]
    assert reader.read_range("app_hours", "fs2", BASE_DAY, BASE_DAY + DAY) == [app_hour(2)]


@pytest.mark.parametrize("dataset", ["jobs", "app_hours", "fs_hours", "baselines"])
def test_corrupting_a_memoized_partition_raises(store, dataset):
    records = {
        "jobs": [mk_job("app1", ["nid1"], BASE_DAY, BASE_DAY + HOUR)],
        "app_hours": [app_hour(1)],
        "fs_hours": [fs_hour()],
        "baselines": [make_baseline()],
    }[dataset]
    partition = Partition(dataset, None if dataset == "jobs" else "fs2", BASE_DAY)
    mark_aggregated(store)
    store.write_partition(records, partition)

    def read():
        if dataset == "baselines":
            return store.load_baseline("fs2", BASE_DAY)
        return store.read_range(dataset, partition.fs_id, BASE_DAY, BASE_DAY + DAY)

    read()
    path = store.path(partition)
    path.write_bytes(b"X" + path.read_bytes()[1:])
    with pytest.raises(StoreError, match="header"):
        read()


def test_samples_are_never_memoized(store, monkeypatch):
    store.write_partition(mk_block([mk_sample("fs2", "nid1", BASE_DAY)]), samples_partition())
    loads = []
    real = store_module.StoredSamples

    def spy(path, *args):
        loads.append(path)
        return real(path, *args)

    monkeypatch.setattr(store_module, "StoredSamples", spy)
    parses = count_calls(monkeypatch, "parse_stats_csv")
    for _ in range(3):
        assert len(read_samples(store, "fs2", BASE_DAY)) == 1
    assert loads == [store.path(samples_partition())] * 3
    assert parses == []


def test_a_job_lookup_in_a_new_store_parses_only_partitions_that_may_hold_it(store, monkeypatch):
    days = [BASE_DAY + i * DAY for i in range(4)]
    for i, day in enumerate(days[:3]):
        job = mk_job(f"app{i}", ["nid1"], day, day + HOUR)
        store.write_partition([job], Partition("jobs", None, day))
    # a comma in an app_id quotes it, so only a parse can tell what that file holds
    quoted = mk_job("app,3", ["nid1"], days[3], days[3] + HOUR)
    store.write_partition([quoted], Partition("jobs", None, days[3]))
    parses = count_calls(monkeypatch, "parse_jobs_csv")
    fresh = Store(store.root)

    assert [(day, set(jobs)) for day, jobs in fresh.job_partitions({"app1"})] == [
        (days[1], {"app1"}),
        (days[3], {"app,3"}),
    ]
    assert len(parses) == 2
    # memoized parses are handed out as they are; the rest stay unparsed
    assert [day for day, _ in fresh.job_partitions({"app,3"})] == [days[1], days[3]]
    assert len(parses) == 2
    assert [day for day, _ in fresh.job_partitions()] == days
    assert len(parses) == 4


@settings(max_examples=60, deadline=None)
@given(
    labels=st.lists(st.text(min_size=1, max_size=6), max_size=4, unique=True),
    rows=st.sampled_from([0, 1, 2, 7]),
    data=st.data(),
)
def test_a_samples_file_holds_the_bytes_np_savez_writes(labels, rows, data):
    """The columns go into their entries without a copy, as the same bytes
    np.savez writes, for empty and 1-row blocks and any counter values; a
    column that is not C-contiguous is written as its contiguous copy."""
    labels = sorted(labels)
    ints = st.integers(0, INT64_MAX)
    node = np.array(data.draw(st.lists(st.integers(0, 9), min_size=rows, max_size=rows)), np.int32)
    window = np.array(data.draw(st.lists(ints, min_size=rows, max_size=rows)), np.int64)
    counters = np.array(
        data.draw(st.lists(st.lists(ints, min_size=21, max_size=21), min_size=rows, max_size=rows)),
        np.int64,
    ).reshape(rows, len(ALL_FIELDS))
    if data.draw(st.booleans()):
        counters = np.asfortranarray(counters)
    block = SampleBlock("fs2", tuple(labels), node, window, counters, 180)
    got = io.BytesIO()
    samples_file.write_samples_npz(got, block)
    ids = [label.encode("utf-8") for label in labels]
    want = io.BytesIO()
    np.savez(
        want,
        node_labels=np.frombuffer(b"".join(ids), np.uint8),
        node_label_ends=np.cumsum([len(i) for i in ids], dtype=np.int64),
        node=node,
        window=window,
        counters=np.ascontiguousarray(counters),
    )
    assert got.getvalue() == want.getvalue()
