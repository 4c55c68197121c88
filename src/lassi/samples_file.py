"""The samples partition file: an uncompressed ``.npz`` of one (filesystem,
day) block's columns, its writer and its one reader.

The columns (SAMPLES_ARRAYS) are the node ids as UTF-8 bytes end to end
with their end offsets, int32 node codes, int64 window starts and the
(n, 21) int64 counters; the filesystem is the partition's, as it is the
block's (SampleBlock.fs_id). Every entry carries zipfile's one fixed date,
as in np.savez's files, so equal blocks give equal bytes
(write_samples_npz, which takes the counters as row chunks).

FileSamples is the one reader of counters from files, stored or spilled:
it holds a partition's keys (node codes and windows, 12 bytes a row) and
reads the counters from runs of rows in open files a row range at a time,
so no reader holds a partition's counters whole unless it asks for all of
its rows. StoredSamples is the FileSamples of one stored file: opening it
reads the whole file once through zipfile to check it, CRC-32 included,
loads no pickled object and refuses, as StoreError, any file the strict
CSV read of the same rows would refuse; ingest's spilled partitions are
FileSamples of the spill files (ingest.SpilledStats.partition).
"""

from __future__ import annotations

import bisect
import itertools
import os
import struct
import zipfile
from pathlib import Path
from typing import IO

import numpy as np

from . import model
from .errors import StoreError
from .model import ALL_FIELDS, SampleKeys, check_sum_bound
from .timeutil import DAY, date_str

# each array of a samples partition file, with its dtype, in write order. The
# node ids are UTF-8 bytes end to end, cut at node_label_ends, because a numpy
# str array drops a trailing NUL, which an id may hold
SAMPLES_ARRAYS = {
    "node_labels": np.dtype(np.uint8),
    "node_label_ends": np.dtype(np.int64),
    "node": np.dtype(np.int32),
    "window": np.dtype(np.int64),
    "counters": np.dtype(np.int64),
}

_N = len(ALL_FIELDS)


def write_samples_npz(fh: IO[bytes], rows: SampleKeys) -> None:
    """Write a samples partition file to fh: the columns (SAMPLES_ARRAYS) of
    rows, any sample keys, their counters taken as row chunks in order from
    counter_chunks(), as an uncompressed .npz whose
    bytes depend on the values only. They are the bytes np.savez writes,
    but each column's buffer, and each counter chunk, goes into its entry
    as it is, after its .npy header, where np.savez would first copy it
    whole."""
    ids = [label.encode("utf-8") for label in rows.node_labels]
    columns = {
        "node_labels": np.frombuffer(b"".join(ids), np.uint8),
        "node_label_ends": np.cumsum([len(i) for i in ids], dtype=np.int64),
        "node": rows.node,
        "window": rows.window,
    }
    counters = {
        "descr": np.lib.format.dtype_to_descr(SAMPLES_ARRAYS["counters"]),
        "fortran_order": False,
        "shape": (len(rows), _N),
    }
    with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED, allowZip64=True) as npz:
        for name, col in columns.items():
            col = np.ascontiguousarray(col, SAMPLES_ARRAYS[name])
            with npz.open(name + ".npy", "w", force_zip64=True) as entry:
                np.lib.format.write_array_header_1_0(
                    entry, np.lib.format.header_data_from_array_1_0(col)
                )
                entry.write(col.view(np.uint8))  # a view, even of no rows
        with npz.open("counters.npy", "w", force_zip64=True) as entry:
            np.lib.format.write_array_header_1_0(entry, counters)
            written = 0
            for chunk in rows.counter_chunks():
                chunk = np.ascontiguousarray(chunk, SAMPLES_ARRAYS["counters"])
                if chunk.shape[1:] != (_N,):
                    raise ValueError(f"counter chunk of shape {chunk.shape}")
                entry.write(chunk.reshape(-1).view(np.uint8))
                written += len(chunk)
            if written != len(rows):
                raise ValueError(f"counter chunks hold {written} rows, expected {len(rows)}")


class FileSamples(SampleKeys):
    """Sample keys held whole (12 bytes a row) whose counters are read from
    files a row range at a time, with os.preadv: a stored partition
    (StoredSamples) or a spilled one (ingest.SpilledStats.partition).

    runs holds each run of int64 counter rows as (file descriptor, offset
    of its first row, rows). The rows are the runs' rows in order, or,
    where position is not None, row i is the runs' row position[i]. path
    names the file in errors.
    """

    __slots__ = ("path", "runs", "starts", "position", "ascending")

    def __init__(self, fs_id, node_labels, node, window, window_len, path, runs, position=None):
        super().__init__(fs_id, node_labels, node, window, window_len)
        self.path = path
        self.runs = runs
        self.starts = [0, *itertools.accumulate(count for _, _, count in runs)]
        self.position = position
        self.ascending = position is None or bool((np.diff(position) > 0).all())

    def counter_rows(self, rows: np.ndarray) -> np.ndarray:
        """The counters of ascending row positions rows, their runs' rows
        read in ascending order (_gather)."""
        at = rows if self.position is None else self.position[rows]
        if self.ascending:
            return self._gather(at)
        order = np.argsort(at)
        out = np.empty((len(at), _N), np.int64)
        out[order] = self._gather(at[order])
        return out

    def _gather(self, at: np.ndarray) -> np.ndarray:
        """The counters of the runs' ascending rows at: a range of
        consecutive rows read straight into place, and others in ranges of
        at most _READ_ROWS rows, so rows far apart cost a few reads, not a
        read of every row between them."""
        out = np.empty((len(at), _N), np.int64)
        if len(at) and int(at[-1]) - int(at[0]) == len(at) - 1:
            return self._read(int(at[0]), int(at[-1]) + 1, out)
        i = 0
        while i < len(at):
            lo = int(at[i])
            j = int(np.searchsorted(at, lo + model._READ_ROWS))
            hi = int(at[j - 1]) + 1
            if hi - lo == j - i:
                self._read(lo, hi, out[i:j])
            else:
                out[i:j] = self._read(lo, hi, np.empty((hi - lo, _N), np.int64))[at[i:j] - lo]
            i = j
        return out

    def _read(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """The runs' rows [lo, hi), read into out from the runs they lie in;
        a file that ends first raises StoreError naming it."""
        k = bisect.bisect_right(self.starts, lo) - 1
        at = lo
        while at < hi:
            fd, offset, _ = self.runs[k]
            end = min(hi, self.starts[k + 1])
            data = out[at - lo : end - lo].reshape(-1).view(np.uint8)
            offset += (at - self.starts[k]) * _N * 8
            if not read_into(fd, data, offset):
                raise StoreError(f"{self.path}: counters end before row {end}")
            at, k = end, k + 1
        return out


def read_into(fd: int, data: np.ndarray, offset: int) -> bool:
    """Fill uint8 array data with the file's bytes from offset; False if it ends first."""
    done = 0
    while done < len(data) and (got := os.preadv(fd, [data[done:]], offset + done)):
        done += got
    return done == len(data)


def _counters_header(member: IO[bytes]) -> tuple[tuple[int, ...], bool, np.dtype]:
    """The (shape, fortran_order, dtype) of a .npy member, read as np.load
    reads it, the member left at the first byte of its data."""
    version = np.lib.format.read_magic(member)
    if version not in ((1, 0), (2, 0), (3, 0)):
        raise ValueError(f"counters.npy is .npy format version {version}")
    # a (3, 0) header differs from a (2, 0) one only in its text's encoding,
    # which for an array of plain numbers is ASCII either way
    if version == (1, 0):
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(member)
    else:
        shape, fortran_order, dtype = np.lib.format.read_array_header_2_0(member)
    if dtype.hasobject:
        raise ValueError("Object arrays cannot be loaded when allow_pickle=False")
    return shape, fortran_order, dtype


def _short_read(size: int, got: int, itemsize: int) -> ValueError:
    """The error np.load gives an array of size data bytes whose entry ends
    got bytes in: it reads np.lib.format.BUFFER_SIZE bytes of whole items
    at a time, and names the read that came up short."""
    step = np.lib.format.BUFFER_SIZE // min(np.lib.format.BUFFER_SIZE, itemsize) * itemsize
    start = got // step * step
    return ValueError(
        f"EOF: reading array data, expected {min(step, size - start)} bytes got {got - start}"
    )


class StoredSamples(FileSamples):
    """One samples partition file, open and checked: its keys held whole
    (12 bytes a row), its counters read from the file a row range at a time
    (FileSamples, one run at the counters' offset that the checking pass
    found: the bytes that pass read, CRC-32 and all, since the store
    replaces a file and never writes into one).

    Opening reads the whole file once (_check), and refuses, as a
    StoreError naming the path, and the row's (fs, node, window) key where
    there is one: a file that is not a whole .npz of exactly the
    SAMPLES_ARRAYS, stored uncompressed, with their dtypes and shapes (an
    object array is never unpickled), whose entries' CRC-32s do not match;
    counters in Fortran order; node labels that are empty, not UTF-8,
    unsorted, repeated or unused, or codes outside them; a window off the
    window_len grid or outside the partition's day; a negative counter;
    rows out of canonical order or repeating a key. The checks run in that
    order, on the counters as they stream past, so no more than _READ_ROWS
    counter rows are held at once. Use it as a context manager, which
    closes the file.
    """

    __slots__ = ("largest", "_file", "_npz", "_data_at")

    def __init__(self, path: Path, fs_id: str, day: int, window_len: int):
        self.path = path
        self._npz = None
        self._file = open(path, "rb")
        try:
            self._check(fs_id, day, window_len)
        except BaseException:
            self.close()
            raise

    def _check(self, fs_id: str, day: int, window_len: int) -> None:
        path = self.path
        try:
            # np.load given a path leaves the file open when NpzFile refuses it
            npz = np.load(self._file, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz file")
            self._npz = npz
            if sorted(npz.files) != sorted(SAMPLES_ARRAYS):
                raise ValueError(
                    f"arrays {sorted(npz.files)}, expected {sorted(SAMPLES_ARRAYS)}"
                )
            if any(info.compress_type != zipfile.ZIP_STORED for info in npz.zip.infolist()):
                raise ValueError("compressed entries; the store writes them stored")
            columns = {name: npz[name] for name in SAMPLES_ARRAYS if name != "counters"}
            for name, col in columns.items():
                if not isinstance(col, np.ndarray):
                    raise ValueError(f"{name}.npy is not a .npy array")
            shape, fortran_order, dtype, negative, self.largest = self._scan_counters()
        except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
            raise StoreError(f"{path}: unreadable samples partition: {exc}") from exc
        found = {name: (col.dtype, col.shape) for name, col in columns.items()}
        found["counters"] = (dtype, shape)
        for name, expected in SAMPLES_ARRAYS.items():
            got, got_shape = found[name]
            if got != expected or len(got_shape) != (2 if name == "counters" else 1):
                raise StoreError(
                    f"{path}: array {name} is {got} of shape {got_shape}, expected {expected}"
                )
        ids, ends, node, window = columns.values()
        n = len(window)
        if len(node) != n or shape != (n, _N):
            raise StoreError(
                f"{path}: columns differ in shape: node {node.shape}, window {window.shape}, "
                f"counters {shape}"
            )
        if fortran_order:
            raise StoreError(f"{path}: counters in Fortran order; the store writes C order")

        starts = np.concatenate([[0], ends])[:-1]
        if (ends <= starts).any() or (ends[-1] if len(ends) else 0) != len(ids):
            raise StoreError(f"{path}: node_label_ends do not cut node_labels into non-empty labels")
        data = ids.tobytes()
        try:
            labels = tuple(data[a:b].decode("utf-8") for a, b in zip(starts.tolist(), ends.tolist()))
        except UnicodeDecodeError as exc:
            raise StoreError(f"{path}: node label not UTF-8: {exc}") from exc
        for a, b in zip(labels, labels[1:]):
            if a >= b:
                raise StoreError(f"{path}: node labels not sorted and distinct: {a!r} before {b!r}")
        outside = (node < 0) | (node >= len(labels))
        if outside.any():
            i = int(np.argmax(outside))
            raise StoreError(
                f"{path}: row {i} (window {window[i]}): node code {node[i]} not among "
                f"{len(labels)} labels"
            )
        unused = np.bincount(node, minlength=len(labels)) == 0
        if unused.any():
            raise StoreError(f"{path}: node label {labels[int(np.argmax(unused))]!r} used by no row")

        super().__init__(
            fs_id, labels, node, window, window_len, path, [(self._file.fileno(), self._data_at, n)]
        )

        def flaws():
            """Each row check's mask, made as it is asked for, so the
            row-sized temporaries of one check are held at a time."""
            yield window % window_len != 0, f"off the {window_len}s window grid"
            outside = f"outside partition ({fs_id}, {date_str(day)})"
            yield (window < day) | (window >= day + DAY), outside
            yield negative, "has a negative counter"
            same_window = window[1:] == window[:-1]
            yield np.r_[False, same_window & (node[1:] == node[:-1])], "repeats the key before it"
            yield (
                np.r_[False, (window[1:] < window[:-1]) | (same_window & (node[1:] < node[:-1]))],
                "out of canonical (window, fs, node) order",
            )

        for bad, what in flaws():
            if bad.any():
                raise StoreError(f"{path}: sample {self.key(int(np.argmax(bad)))} {what}")

    def _entry_offset(self, name: str) -> int:
        """Where an entry's bytes start in the file: after its local header,
        whose name and extra field lengths end its fixed 30 bytes."""
        start = self._npz.zip.getinfo(name).header_offset
        local = os.pread(self._file.fileno(), 30, start)
        if len(local) != 30 or local[:4] != b"PK\x03\x04":
            raise ValueError(f"no local header for {name} at {start}")
        name_len, extra_len = struct.unpack("<HH", local[26:])
        return start + 30 + name_len + extra_len

    def _scan_counters(self) -> tuple:
        """Read the counters entry through once, as np.load would, zipfile
        checking its CRC-32 at the end: its .npy header's (shape,
        fortran_order, dtype), and, for an (n, 21) int64 array, which rows
        hold a negative counter and the largest counter (0 for no rows)."""
        with self._npz.zip.open("counters.npy") as member:
            if member.read(len(np.lib.format.MAGIC_PREFIX)) != np.lib.format.MAGIC_PREFIX:
                raise ValueError("counters.npy is not a .npy array")
            member.seek(0)
            shape, fortran_order, dtype = _counters_header(member)
            self._data_at = self._entry_offset("counters.npy") + member.tell()
            size = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            rows = dtype == SAMPLES_ARRAYS["counters"] and len(shape) == 2 and shape[1] == _N
            step = model._READ_ROWS * _N * 8 if rows else np.lib.format.BUFFER_SIZE
            negative, largest = [np.zeros(0, bool)], 0
            for at in range(0, size, step):
                data = member.read(min(step, size - at))
                if at + len(data) < min(at + step, size):
                    raise _short_read(size, at + len(data), dtype.itemsize)
                if rows:
                    piece = np.frombuffer(data, np.int64).reshape(-1, _N)
                    negative.append((piece < 0).any(axis=1))
                    largest = max(largest, int(piece.max()))
        return shape, fortran_order, dtype, np.concatenate(negative), largest

    def check_sum_bound(self) -> None:
        """Raise LassiError unless any sum of the partition's counter rows fits in int64."""
        check_sum_bound(len(self), self.largest)

    def close(self) -> None:
        for handle in (self._npz, self._file):
            if handle is not None:
                handle.close()

    def __enter__(self) -> "StoredSamples":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
