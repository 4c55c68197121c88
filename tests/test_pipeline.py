"""Store-facing flows: idempotent ingest, aggregation, stored exposures."""

import csv
import fcntl
import io
import re
import shutil
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lassi import attribution, ingest, model, pipeline, synth
from lassi import samples_file
from lassi.attribution import AttributionConfig
from lassi.errors import (
    AttributionConflictError,
    IngestError,
    LassiError,
    StoreError,
    StoreLockError,
)
from lassi.ingest import JOBS_HEADER, STATS_HEADER, serialize_jobs_csv
from lassi.model import ALL_FIELDS, AppHourRecord, FsHourRecord, SampleBlock
from lassi.pipeline import (
    aggregate_range,
    build_baselines,
    exposure_for,
    find_job,
    ingest_files,
)
from lassi.store import Partition, Store
from lassi.timeutil import DAY, HOUR, date_str, floor_day, floor_hour, parse_utc

from helpers import (
    BASE_DAY,
    REPORT_DAY,
    TASKFARM_SCENARIO,
    build_exposure_fixture,
    count_calls,
    fs_blocks,
    fsync_fault,
    fsync_spy,
    mk_block,
    mk_counters,
    mk_job,
    mk_sample,
    partitions,
    read_samples,
    scenario_text,
    serialize_stats_csv,
    tree,
)

STATS_LINE = ",".join(STATS_HEADER)
JOBS_LINE = ",".join(JOBS_HEADER)


def stats_file(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text(STATS_LINE + "\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
    return path


def jobs_file(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text(JOBS_LINE + "\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
    return path


def counters(first=1):
    return ",".join([str(first)] + ["0"] * 20)


def test_ingest_files_is_idempotent(tmp_path):
    store = Store(tmp_path / "store")
    stats = stats_file(
        tmp_path, "s.csv",
        [f"2017-10-09T00:00:00Z,fs2,nid1,{counters()}",
         f"2017-10-09T00:03:00Z,fs2,nid1,{counters()}"],
    )
    jobs = jobs_file(
        tmp_path, "j.csv",
        ["app1,1.sdb,u,2017-10-09T00:00:00Z,2017-10-09T01:00:00Z,nid1,./a.x"],
    )
    first = ingest_files(store, [stats], [jobs])
    assert (first.samples, first.jobs, first.rejected) == (2, 1, 0)
    assert first.partitions == 2

    partition_path = store.path(Partition("samples", "fs2", BASE_DAY))
    before = partition_path.read_bytes()
    second = ingest_files(store, [stats], [jobs])
    assert (second.samples, second.jobs, second.rejected) == (2, 1, 0)
    assert partition_path.read_bytes() == before


def snapshot(store):
    """Bytes, inode and modification time of every partition file."""
    return {
        path: (path.read_bytes(), path.stat().st_ino, path.stat().st_mtime_ns)
        for path in sorted(store.root.rglob("*"))
        if path.suffix in (".csv", ".npz")
    }


REDELIVERED = [
    f"{day}T{t}Z,{fs},nid{n},{counters(n)}"
    for day in ("2017-10-09", "2017-10-10")
    for t in ("00:00:00", "00:03:00")
    for fs in ("fs2", "fs3")
    for n in (1, 2)
]


def test_a_lenient_redelivery_of_stored_rows_writes_nothing(tmp_path, monkeypatch):
    store = Store(tmp_path / "store")
    ingest_files(store, [stats_file(tmp_path, "a.csv", REDELIVERED)])
    before = snapshot(store)
    assert len(before) == 4
    bad = "2017-10-10T00:04:00Z,fs2,nid1," + counters()  # off the window grid
    again = stats_file(tmp_path, "b.csv", REDELIVERED[::-1] + [bad])
    synced = fsync_spy(monkeypatch)
    summary = ingest_files(Store(store.root), [again], mode="lenient")
    assert (summary.rejected, summary.partitions, summary.written) == (1, 4, 0)
    assert synced == []
    assert snapshot(store) == before


def test_a_changed_counter_rewrites_only_its_partition(tmp_path):
    store = Store(tmp_path / "store")
    ingest_files(store, [stats_file(tmp_path, "a.csv", REDELIVERED)])
    before = snapshot(store)
    changed = [r.replace(",1,", ",7,", 1) if r.startswith("2017-10-10T00:03:00Z,fs3,nid1,") else r
               for r in REDELIVERED]
    assert changed != REDELIVERED
    summary = ingest_files(store, [stats_file(tmp_path, "b.csv", changed)], mode="lenient")
    assert (summary.rejected, summary.partitions, summary.written) == (1, 4, 1)
    after = snapshot(store)
    rewritten = store.path(Partition("samples", "fs3", BASE_DAY + DAY))
    assert [p for p in before if after[p] != before[p]] == [rewritten]
    assert after[rewritten][1] != before[rewritten][1]


def test_a_reingest_of_identical_jobs_writes_nothing(tmp_path, monkeypatch):
    store = Store(tmp_path / "store")
    jobs = jobs_file(tmp_path, "j.csv", [JOB_A, JOB_2, JOB_MOVED.replace("app1,", "app3,")])
    first = ingest_files(store, jobs_paths=[jobs])
    assert (first.partitions, first.written) == (2, 2)
    before = snapshot(store)
    synced = fsync_spy(monkeypatch)
    summary = ingest_files(Store(store.root), jobs_paths=[jobs], mode="strict")
    assert (summary.jobs, summary.rejected, summary.partitions, summary.written) == (3, 0, 2, 0)
    assert synced == []
    assert snapshot(store) == before


def test_ingest_merges_new_windows_into_existing_partition(tmp_path):
    store = Store(tmp_path / "store")
    a = stats_file(tmp_path, "a.csv", [f"2017-10-09T00:00:00Z,fs2,nid1,{counters()}"])
    b = stats_file(tmp_path, "b.csv", [f"2017-10-09T00:03:00Z,fs2,nid1,{counters()}"])
    ingest_files(store, [a])
    ingest_files(store, [b])
    got = read_samples(store, "fs2", BASE_DAY)
    assert len(got) == 2


def test_ingest_conflicting_resubmission(tmp_path):
    store = Store(tmp_path / "store")
    a = stats_file(tmp_path, "a.csv", [f"2017-10-09T00:00:00Z,fs2,nid1,{counters(1)}"])
    b = stats_file(tmp_path, "b.csv", [f"2017-10-09T00:00:00Z,fs2,nid1,{counters(9)}"])
    ingest_files(store, [a])
    with pytest.raises(IngestError):
        ingest_files(store, [b])  # strict refuses changed counters

    summary = ingest_files(store, [b], mode="lenient")
    assert summary.rejected == 1  # the override is reported
    got = read_samples(store, "fs2", BASE_DAY)
    assert got.counters.tolist() == [list(mk_counters(read_kb=9))]  # and the new value wins


def test_ingest_holds_each_partition_lock_while_it_reads_the_stored_rows(tmp_path, monkeypatch):
    store = Store(tmp_path / "store")
    stats = stats_file(tmp_path, "s.csv", [f"2017-10-09T00:00:00Z,fs2,nid1,{counters()}"])
    jobs = jobs_file(
        tmp_path, "j.csv", ["app1,1.sdb,u,2017-10-09T00:00:00Z,2017-10-09T01:00:00Z,nid1,./a.x"]
    )
    read_range, open_samples = Store.read_range, Store.open_samples
    locked, unlocked = [], []

    def record(store, partition):
        path = store.path(partition)
        if not path.exists():
            return  # nothing stored to read
        with open(path.with_name(path.name + ".lock")) as other:
            try:
                fcntl.flock(other, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                locked.append(partition.dataset)
            else:
                unlocked.append(partition.dataset)

    def read_spy(self, dataset, fs_id, t0, t1):
        record(self, Partition(dataset, fs_id, t0))
        return read_range(self, dataset, fs_id, t0, t1)

    def open_spy(self, fs_id, day):
        record(self, Partition("samples", fs_id, day))
        return open_samples(self, fs_id, day)

    monkeypatch.setattr(Store, "read_range", read_spy)
    monkeypatch.setattr(Store, "open_samples", open_spy)
    ingest_files(store, [stats], [jobs])  # into an empty store
    ingest_files(store, [stats], [jobs])  # over the stored rows
    # each stored partition is read once, under its lock, in strict mode too
    assert locked == ["samples", "jobs"]
    assert unlocked == []


def test_ingest_conflict_across_inputs_in_one_call(tmp_path):
    store = Store(tmp_path / "store")
    a = stats_file(tmp_path, "a.csv", [f"2017-10-09T00:00:00Z,fs2,nid1,{counters(1)}"])
    b = stats_file(tmp_path, "b.csv", [f"2017-10-09T00:00:00Z,fs2,nid1,{counters(9)}"])
    with pytest.raises(IngestError):
        ingest_files(store, [a, b])


DAY_3 = [
    f"2017-10-11T00:0{m}:00Z,fs{f},nid{n},{counters(n)}"
    for m in (0, 3, 6)
    for f in (2, 3)
    for n in (1, 2)
]


def test_a_refused_strict_ingest_leaves_the_store_as_it_was(tmp_path):
    store = Store(tmp_path / "store")
    ingest_files(store, [stats_file(tmp_path, "a.csv", REDELIVERED)])
    before = tree(store.root)
    # four partitions and the window length record, each with its lock file
    assert len(before) == 10

    # the file's only bad row is its last line
    last_bad = stats_file(tmp_path, "b.csv", DAY_3 + ["2017-10-11T00:09:00Z,fs2,nid1,1,2"])
    with pytest.raises(IngestError) as err:
        ingest_files(store, [last_bad])
    assert (err.value.line, err.value.reason) == (len(DAY_3) + 2, "expected 24 columns, got 5")
    assert tree(store.root) == before

    # the second input changes a row of the first
    changed = stats_file(tmp_path, "c.csv", [DAY_3[-1].replace(counters(2), counters(7))])
    with pytest.raises(IngestError, match="conflicts across inputs"):
        ingest_files(store, [stats_file(tmp_path, "d.csv", DAY_3), changed])
    assert tree(store.root) == before

    # a later partition changes a stored row, after rows added to an earlier one
    added = REDELIVERED[0].replace("T00:00:00Z", "T00:06:00Z")
    conflict = REDELIVERED[-1].replace(counters(2), counters(7))
    with pytest.raises(IngestError, match="conflicts with stored data"):
        ingest_files(store, [stats_file(tmp_path, "e.csv", [added, conflict])])
    assert tree(store.root) == before

    # a job changes a stored one, with samples for a day not yet stored
    job = "app1,1.sdb,u,2017-10-11T00:00:00Z,2017-10-11T01:00:00Z,nid1,./a.x"
    ingest_files(store, [], [jobs_file(tmp_path, "j.csv", [job])])
    before = tree(store.root)
    changed_job = jobs_file(tmp_path, "k.csv", [job.replace("./a.x", "./b.x")])
    with pytest.raises(IngestError, match="job app1 conflicts with stored data"):
        ingest_files(store, [stats_file(tmp_path, "f.csv", DAY_3)], [changed_job])
    assert tree(store.root) == before

    # a new store is left with no root
    fresh = Store(tmp_path / "fresh")
    with pytest.raises(IngestError):
        ingest_files(fresh, [last_bad])
    assert not fresh.root.exists()


def test_a_conflict_across_inputs_names_the_first_sample_in_key_order(tmp_path):
    """Each partition is merged alone, in (fs, day) order, yet the error
    names the first changed sample in (window, fs, node) order, as a merge
    of the whole files does; a bad row in a later input comes after it."""
    rows = [
        f"2017-10-10T00:00:00Z,fs1,nid5,{counters(1)}",
        f"2017-10-09T00:03:00Z,fs2,nid9,{counters(1)}",
        f"2017-10-09T00:03:00Z,fs2,nid1,{counters(1)}",
    ]
    a = stats_file(tmp_path, "a.csv", rows)
    b = stats_file(tmp_path, "b.csv", [r.replace(counters(1), counters(2)) for r in rows])
    bad = stats_file(tmp_path, "bad.csv", ["not a row"])
    store = Store(tmp_path / "store")
    named = f"sample ('fs2', 'nid1', {BASE_DAY + 180}) conflicts across inputs ({b})"
    for paths in ([a, b], [a, b, bad]):
        with pytest.raises(IngestError) as err:
            ingest_files(store, paths)
        assert err.value.reason == named
    with pytest.raises(IngestError) as err:
        ingest_files(store, [a, bad, b])
    assert (err.value.line, err.value.reason) == (2, "expected 24 columns, got 1")
    assert tree(store.root) == {}


def test_a_stored_conflict_before_a_conflict_across_inputs_names_the_latter(tmp_path):
    """The error a strict ingest raises does not depend on the order the
    loop meets them in: an earlier partition changing a stored row loses
    to a later partition changing a row across inputs."""
    store = Store(tmp_path / "store")
    stored = f"2017-10-09T00:00:00Z,fs2,nid1,{counters(1)}"
    ingest_files(store, [stats_file(tmp_path, "s.csv", [stored])])
    before = tree(store.root)
    later = f"2017-10-10T00:00:00Z,fs2,nid1,{counters(1)}"
    a = stats_file(tmp_path, "a.csv", [stored.replace(counters(1), counters(5)), later])
    b = stats_file(tmp_path, "b.csv", [later.replace(counters(1), counters(2))])
    with pytest.raises(IngestError) as err:
        ingest_files(store, [a, b])
    assert err.value.reason == f"sample ('fs2', 'nid1', {REPORT_DAY}) conflicts across inputs ({b})"
    assert tree(store.root) == before
    with pytest.raises(IngestError) as err:
        ingest_files(store, [a])
    assert err.value.reason == f"sample ('fs2', 'nid1', {BASE_DAY}) conflicts with stored data"
    assert tree(store.root) == before


@pytest.fixture(scope="module")
def taskfarm(tmp_path_factory):
    """The task-farm scenario's inputs (four samples partitions, two jobs
    days, 600 s windows), and a re-delivery of its stats that adds a key to
    every samples partition."""
    scenario = synth.parse_scenario(TASKFARM_SCENARIO.read_text(encoding="utf-8"))
    out = tmp_path_factory.mktemp("taskfarm")
    gen = synth.generate(scenario, out / "data", with_oracle=False)
    lines = gen.stats_path.read_text(encoding="utf-8").splitlines(keepends=True)
    added = [line.replace(",nid", ",zznid", 1) for line in lines[1::97]]
    redelivery = out / "redelivery.csv"
    redelivery.write_text("".join(lines[:1] + added), encoding="utf-8")
    return gen.stats_path, gen.jobs_path, redelivery


def samples_partitions(store) -> list[Partition]:
    return [
        Partition("samples", fs_id, day)
        for fs_id in store.list_fs("samples")
        for day in store.partition_dates("samples", fs_id)
    ]


def test_ingest_loads_each_spilled_partition_twice_and_opens_each_partition_once(
    tmp_path, taskfarm, monkeypatch
):
    """SpilledStats.report loads each input's partitions once to find the
    repeated keys; the ingest loop loads them once more to merge them, and
    opens each partition, stored or not, once, in strict mode too."""
    stats, jobs, _ = taskfarm
    loads, opens = [], []
    load, open_samples = ingest.SpilledStats._load, Store.open_samples

    def load_spy(self, segments):
        loads.append(len(segments))
        return load(self, segments)

    def open_spy(self, fs_id, day):
        opens.append((fs_id, day))
        return open_samples(self, fs_id, day)

    monkeypatch.setattr(ingest.SpilledStats, "_load", load_spy)
    monkeypatch.setattr(Store, "open_samples", open_spy)
    counts = []
    for inputs in ([stats], [stats], [stats, stats]):
        loads.clear()
        opens.clear()
        summary = ingest_files(Store(tmp_path / "store", window_len=600), inputs, [jobs])
        counts.append((len(loads), len(opens), summary.written))
    assert len(samples_partitions(Store(tmp_path / "store"))) == 4
    assert counts == [(8, 4, 6), (8, 4, 0), (16, 4, 0)]


@pytest.mark.parametrize("stored", [False, True], ids=["new store", "re-delivery"])
def test_a_held_partition_lock_refuses_the_whole_ingest(tmp_path, taskfarm, stored):
    """With the last samples partition's lock held by another writer, a
    strict and a lenient ingest each raise StoreLockError and write nothing:
    no partition, record, staged file or new lock file."""
    stats, jobs, redelivery = taskfarm
    probe = Store(tmp_path / "probe", window_len=600)
    ingest_files(probe, [stats], [jobs])
    store = Store(tmp_path / "store", window_len=600)
    if stored:
        ingest_files(store, [stats], [jobs])
    path = store.path(samples_partitions(probe)[-1])
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path.with_name(path.name + ".lock"), "a") as held:
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        before = tree(store.root)
        for mode in ("strict", "lenient"):
            with pytest.raises(StoreLockError, match="locked by another writer"):
                ingest_files(Store(store.root, 600), [redelivery if stored else stats], [jobs], mode)
            assert tree(store.root) == before
    summary = ingest_files(Store(store.root, 600), [redelivery if stored else stats], [jobs])
    assert summary.written == (4 if stored else 6)


def leftovers(root) -> list:
    return [p for p in root.rglob("*") if ".tmp" in p.name or p.name.startswith(".stage")]


def test_a_failed_staged_write_leaves_the_store_as_it_was(tmp_path, taskfarm, monkeypatch):
    """A fault at any one file fsync, of a staged partition or of the
    record, leaves no trace: a strict ingest into a new store leaves no
    root, and a lenient re-delivery rewriting four partitions leaves every
    file as it was, with no staged or temp file anywhere under the root."""
    stats, jobs, redelivery = taskfarm
    synced = fsync_spy(monkeypatch)
    ingest_files(Store(tmp_path / "clean", window_len=600), [stats], [jobs])
    fresh_files = synced.count("file")
    assert fresh_files == 7  # four samples partitions, two jobs days and the record
    for k in range(1, fresh_files + 1):
        fsync_fault(monkeypatch, k)
        store = Store(tmp_path / f"fresh{k}", window_len=600)
        with pytest.raises(OSError, match=f"fsync of file {k} failed on purpose"):
            ingest_files(store, [stats], [jobs])
        assert not store.root.exists()

    store = Store(tmp_path / "store", window_len=600)
    ingest_files(store, [stats], [jobs])
    before = tree(store.root)
    for k in range(1, 5):
        fsync_fault(monkeypatch, k)
        with pytest.raises(OSError, match=f"fsync of file {k} failed on purpose"):
            ingest_files(Store(store.root), [redelivery], mode="lenient")
        assert tree(store.root) == before and leftovers(store.root) == []
    fsync_fault(monkeypatch, 5)
    summary = ingest_files(Store(store.root), [redelivery], mode="lenient")
    assert summary.written == 4 and leftovers(store.root) == []


def traced_peak(call):
    """call's result and the peak of traced memory while it ran."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ingest_memory_is_bounded_by_a_partition_not_the_file(tmp_path, monkeypatch):
    """numpy reports its buffers to tracemalloc, so the traced peak shows
    what ingest holds at once: a range of input or one of the 16 (fs, day)
    partitions, never the whole file's columns. compute_outputs_from_files
    runs that ingest and then aggregates one of the 4 days at a time, so it
    never holds the whole file's columns either."""
    scenario = synth.parse_scenario(
        scenario_text(
            days=4,
            node_pool=40,
            filesystems="fs1:48 fs2:48 fs3:48 fs4:48",
            background="[background fs1]\nread_kb = 40\n",
        )
    )
    gen = synth.generate(scenario, tmp_path / "data", with_oracle=False)
    # int32 fs and node codes, int64 window, line and 21 counters per row
    columns = gen.sample_rows * (4 + 4 + 8 + 8 + 21 * 8)
    store = Store(tmp_path / "store")
    summary, peak = traced_peak(lambda: ingest_files(store, [gen.stats_path]))
    assert (summary.samples, summary.partitions) == (gen.sample_rows, 16)
    assert peak < columns / 3, (peak, columns)

    period = (scenario.start, scenario.start + 4 * DAY)
    outputs, peak = traced_peak(
        lambda: pipeline.compute_outputs_from_files(gen.stats_path, gen.jobs_path, period)
    )
    assert len(outputs.fs_hours) == 4 * 4 * 24
    assert peak < columns, (peak, columns)

    # the whole-file form spills too, and is one call of its public name
    parses = count_calls(monkeypatch, "parse_stats_csv")
    parsed, _ = ingest.parse_stats_csv(gen.stats_path)
    assert parses == [gen.stats_path]
    assert len(parsed) == 16
    assert sum(map(len, parsed.values())) == gen.sample_rows


def test_a_redelivery_that_changes_nothing_copies_no_counters():
    """_union compares repeated keys' counter rows a bounded number at a
    time, so a re-delivery that adds and changes no row returns the stored
    block itself, and peaks below the size of its counters."""
    nodes, windows = 20, 480
    rng = np.random.default_rng(5)
    old = SampleBlock.from_columns(
        "fs2",
        [f"nid{i:05d}" for i in range(nodes)],
        np.tile(np.arange(nodes, dtype=np.int32), windows),
        np.repeat(BASE_DAY + 180 * np.arange(windows, dtype=np.int64), nodes),
        rng.integers(0, 10**6, (nodes * windows, len(ALL_FIELDS)), dtype=np.int64),
        180,
    )
    # the same rows in reverse order, so from_columns sorts them into new arrays
    whole = SampleBlock.from_columns(
        "fs2", old.node_labels, old.node[::-1], old.window[::-1], old.counters[::-1], 180
    )
    assert not np.shares_memory(whole.counters, old.counters)
    for new in (whole, old.take(slice(len(old) // 3, len(old) // 2))):
        (merged, changed), peak = traced_peak(lambda: pipeline._union(old, new))
        assert merged is old and len(changed) == 0
        assert peak < old.counters.nbytes, (peak, old.counters.nbytes)
    # blocks of two filesystems have no union
    with pytest.raises(ValueError, match="cannot merge samples of fs3 into fs2"):
        pipeline._union(old, SampleBlock.empty("fs3", 180))


def whole_block_union(old: SampleBlock, new: SampleBlock) -> tuple[SampleBlock, np.ndarray]:
    """The union both sides held whole, as one sort of every key: the
    reference the streamed union (pipeline._union) must agree with."""
    if not len(old):
        return new, np.empty(0, np.int64)
    node_labels, node = model.label_codes(
        old.node_labels + new.node_labels,
        np.concatenate([old.node, new.node + len(old.node_labels)]),
    )
    window = np.concatenate([old.window, new.window])
    source = np.repeat(np.array([0, 1], np.int8), [len(old), len(new)])
    order = np.lexsort((source, node, window))
    a, b = order[:-1], order[1:]
    repeat = np.r_[(window[a] == window[b]) & (node[a] == node[b]), False]
    replaced = order[repeat]
    replacing = order[np.flatnonzero(repeat) + 1] - len(old)
    changed = replacing[(old.counters[replaced] != new.counters[replacing]).any(1)]
    if not len(changed) and len(replaced) == len(new):
        return old, changed
    keep = order[~repeat]
    counters = np.concatenate([old.counters, new.counters])[keep]
    return SampleBlock(new.fs_id, node_labels, node[keep], window[keep], counters, 180), changed


def savez_bytes(block: SampleBlock) -> bytes:
    ids = [label.encode("utf-8") for label in block.node_labels]
    out = io.BytesIO()
    np.savez(
        out,
        node_labels=np.frombuffer(b"".join(ids), np.uint8),
        node_label_ends=np.cumsum([len(i) for i in ids], dtype=np.int64),
        node=block.node,
        window=block.window,
        counters=block.counters,
    )
    return out.getvalue()


NODE_POOLS = (("n1", "n2", "n3"), ("m1", "m2"), ("n2", "m1", "z"))


@st.composite
def union_case(draw):
    """Old and new rows of fs2 on BASE_DAY: new ones from the same, another
    or an overlapping pool of node ids, or a copy of some old rows; small
    counters, so new rows often leave an old row as it was."""
    def rows(pool):
        return st.lists(
            st.tuples(st.sampled_from(pool), st.integers(0, 5), st.integers(0, 2)),
            max_size=12,
            unique_by=lambda r: r[:2],
        )

    old = draw(rows(NODE_POOLS[0]))
    if draw(st.booleans()):
        new = [r for r in old if draw(st.booleans())]
    else:
        new = draw(rows(draw(st.sampled_from(NODE_POOLS))))
    return tuple(
        mk_block([mk_sample("fs2", n, BASE_DAY + 180 * w, read_kb=v, open=w) for n, w, v in side])
        for side in (old, new)
    )


@settings(max_examples=150, deadline=None)
@given(union_case(), st.sampled_from([1, 2, 1024]))
def test_the_streamed_union_equals_the_whole_block_union(case, step):
    """Against a stored partition, read a few rows at a time: the same
    changed rows, the stored rows themselves when nothing changes, and
    otherwise a union whose file holds the np.savez bytes of the whole-block
    union's columns; held blocks give the same."""
    old, new = case
    want, want_changed = whole_block_union(old, new)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_READ_ROWS", step)
        store = Store(tmp)
        store.write_partition(old, Partition("samples", "fs2", BASE_DAY))
        with store.open_samples("fs2", BASE_DAY) as stored:
            for side in (stored, old):
                got, changed = pipeline._union(side, new)
                assert changed.tolist() == want_changed.tolist()
                if want is old:
                    assert got is side
                elif want is new:
                    assert got is new
                else:
                    out = io.BytesIO()
                    samples_file.write_samples_npz(out, got)
                    assert out.getvalue() == savez_bytes(want)


def wide_partition(nodes=208, windows=480, seed=11) -> SampleBlock:
    """A one-day partition of fs2, every node in every 180 s window: by
    default 99,840 samples, 16.8 MB of counters."""
    rng = np.random.default_rng(seed)
    return SampleBlock.from_columns(
        "fs2",
        [f"nid{i:05d}" for i in range(nodes)],
        np.tile(np.arange(nodes, dtype=np.int32), windows),
        np.repeat(BASE_DAY + 180 * np.arange(windows, dtype=np.int64), nodes),
        rng.integers(0, 10**6, (nodes * windows, len(ALL_FIELDS)), dtype=np.int64),
        180,
    )


def test_a_strict_ingest_never_holds_an_incoming_partition_whole(tmp_path):
    """A stats file of one 99,840-sample partition is spilled and written
    from the spill a few rows at a time: the ingest peaks below a third of
    the partition's counter bytes, and stores the np.savez bytes of its
    block."""
    block = wide_partition()
    path = tmp_path / "stats.csv"
    path.write_text(serialize_stats_csv(block), encoding="utf-8")
    store = Store(tmp_path / "store")
    summary, peak = traced_peak(lambda: ingest_files(store, [path]))
    assert (summary.samples, summary.written) == (len(block), 1)
    third = block.counters.nbytes / 3
    assert peak < third, (peak, third)
    assert store.path(Partition("samples", "fs2", BASE_DAY)).read_bytes() == savez_bytes(block)


def test_aggregate_and_redelivery_never_hold_a_stored_partition_whole(tmp_path):
    """A stored partition of 99,840 samples (208 nodes, 480 windows): its
    aggregate, read in hour ranges, peaks below half the partition's
    counter bytes; a lenient re-delivery that changes 1,000 of its rows and
    adds 480, whose merge plan is the size of the re-delivery and whose
    counters are read a few rows at a time into the merged file, below a
    fifth of them."""
    windows = 480
    stored = wide_partition(windows=windows)
    store = Store(tmp_path / "store")
    store.write_partition(stored, Partition("samples", "fs2", BASE_DAY))
    job = mk_job("app1", ["nid00001", "nid00002"], BASE_DAY + HOUR, BASE_DAY + 5 * HOUR)
    store.write_partition([job], Partition("jobs", None, BASE_DAY))
    half = stored.counters.nbytes / 2

    summary, peak = traced_peak(lambda: aggregate_range(store, BASE_DAY, BASE_DAY + DAY))
    assert (summary.app_hour_records, summary.fs_hour_records) == (4, 24)
    assert peak < half, (peak, half)

    changed = stored.take(np.arange(1000))  # a copy: a slice would be a view
    changed.counters[:, 0] += 1
    added = SampleBlock(
        "fs2", ("nid99999",), np.zeros(windows, np.int32), np.unique(stored.window),
        np.ones((windows, len(ALL_FIELDS)), np.int64), 180,
    )
    redelivery = tmp_path / "redelivery.csv"
    redelivery.write_text(serialize_stats_csv(changed, added), encoding="utf-8")
    summary, peak = traced_peak(lambda: ingest_files(store, [redelivery], mode="lenient"))
    assert (summary.rejected, summary.written) == (1000, 1)
    fifth = stored.counters.nbytes / 5
    assert peak < fifth, (peak, fifth)
    want = whole_block_union(whole_block_union(stored, changed)[0], added)[0]
    assert read_samples(store, "fs2", BASE_DAY) == want


def stats_lines(block: SampleBlock, reverse=False) -> list[str]:
    """A block's stats rows, in canonical order or reversed."""
    lines = serialize_stats_csv(block).splitlines()[1:]
    return lines[::-1] if reverse else lines


def test_ingest_merges_and_writes_incoming_partitions_from_the_spill(tmp_path, monkeypatch):
    """No ingest path reads a partition whole, incoming or stored (a spy
    on the one file reader's counter_rows, which every read of a spilled
    or stored partition's counters goes through, block included, refuses
    more than a row step at once): a lenient ingest of two or three stats files, each
    changing and adding rows of the ones before it, stores the np.savez
    bytes of the whole-block union of them in order; strict ingests refuse
    a change across two files and a change to a stored row with their
    messages word for word, and write nothing."""
    real = samples_file.FileSamples.counter_rows

    def bounded(self, rows):
        assert len(rows) <= model._READ_ROWS, "an ingest path held a partition whole"
        return real(self, rows)

    monkeypatch.setattr(samples_file.FileSamples, "counter_rows", bounded)
    monkeypatch.setattr(model, "_READ_ROWS", 7)
    rng = np.random.default_rng(3)
    a = wide_partition(nodes=12, windows=40, seed=3)
    b = a.take(np.flatnonzero(rng.random(len(a)) < 0.3))
    b.counters[rng.random(len(b)) < 0.2, 4] += 1
    extra = SampleBlock(
        "fs2", ("nid00003x", "nid99999"), np.tile(np.arange(2, dtype=np.int32), 50),
        np.repeat(BASE_DAY + 180 * np.arange(50, dtype=np.int64), 2),
        np.full((100, len(ALL_FIELDS)), 9, np.int64), 180,
    )
    b = whole_block_union(b, extra)[0]
    c = b.take(np.flatnonzero(rng.random(len(b)) < 0.5))
    c.counters[:, 0] += 2
    ab, changed = whole_block_union(a, b)
    assert len(changed) and len(ab) > len(a)
    paths = [
        stats_file(tmp_path, f"{name}.csv", stats_lines(block, reverse=name == "b"))
        for name, block in (("a", a), ("b", b), ("c", c))
    ]
    partition = Partition("samples", "fs2", BASE_DAY)
    for inputs, want in ((paths[:2], ab), (paths, whole_block_union(ab, c)[0])):
        store = Store(tmp_path / f"lenient{len(inputs)}")
        summary = ingest_files(store, inputs, mode="lenient")
        assert (summary.samples, summary.written) == (len(want), 1)
        assert store.path(partition).read_bytes() == savez_bytes(want)

    first = b.key(int(changed[0]))
    store = Store(tmp_path / "strict")
    with pytest.raises(IngestError) as err:
        ingest_files(store, paths[:2])
    assert err.value.reason == f"sample {first} conflicts across inputs ({paths[1]})"
    assert tree(store.root) == {}
    ingest_files(store, paths[:1])
    before = tree(store.root)
    with pytest.raises(IngestError) as err:
        ingest_files(store, paths[1:2])
    assert err.value.reason == f"sample {first} conflicts with stored data"
    assert tree(store.root) == before


JOB_A = "app1,1.sdb,u,2017-10-09T00:00:00Z,2017-10-09T01:00:00Z,nid1,./a.x"
JOB_B = "app1,1.sdb,u,2017-10-09T00:00:00Z,2017-10-09T01:00:00Z,nid1,./b.x"
JOB_C = "app1,1.sdb,u,2017-10-09T00:00:00Z,2017-10-09T01:00:00Z,nid1,./c.x"
JOB_2 = "app2,2.sdb,u,2017-10-09T02:00:00Z,2017-10-09T03:00:00Z,nid2,./d.x"


def test_strict_ingest_refuses_a_job_changed_across_inputs(tmp_path):
    store = Store(tmp_path / "store")
    a = jobs_file(tmp_path, "a.csv", [JOB_A])
    b = jobs_file(tmp_path, "b.csv", [JOB_B])
    with pytest.raises(IngestError, match="app1"):
        ingest_files(store, jobs_paths=[a, b])


def test_strict_ingest_refuses_a_job_changed_from_the_store(tmp_path):
    store = Store(tmp_path / "store")
    ingest_files(store, jobs_paths=[jobs_file(tmp_path, "a.csv", [JOB_A])])
    with pytest.raises(IngestError, match="app1"):
        ingest_files(store, jobs_paths=[jobs_file(tmp_path, "b.csv", [JOB_B])])


def test_lenient_ingest_counts_job_overrides_and_keeps_the_new_job(tmp_path):
    store = Store(tmp_path / "store")
    ingest_files(store, jobs_paths=[jobs_file(tmp_path, "a.csv", [JOB_A, JOB_2])])
    b = jobs_file(tmp_path, "b.csv", [JOB_B, JOB_2])
    c = jobs_file(tmp_path, "c.csv", [JOB_C])
    summary = ingest_files(store, jobs_paths=[b, c], mode="lenient")
    # c overrides b's app1, which overrides the stored app1; app2 is unchanged
    assert (summary.jobs, summary.rejected) == (2, 2)
    stored = store.read_range("jobs", None, BASE_DAY, BASE_DAY + DAY)
    assert {j.app_id: j.command for j in stored} == {"app1": "./c.x", "app2": "./d.x"}


JOB_MOVED = "app1,1.sdb,u,2017-10-10T00:00:00Z,2017-10-10T01:00:00Z,nid1,./a.x"


def test_strict_ingest_refuses_a_job_moved_to_another_day(tmp_path):
    store = Store(tmp_path / "store")
    ingest_files(store, jobs_paths=[jobs_file(tmp_path, "a.csv", [JOB_A])])
    moved = jobs_file(tmp_path, "b.csv", [JOB_MOVED])
    # a new Store, as each CLI command makes, holds no parse of the old day
    with pytest.raises(IngestError, match="job app1 conflicts with stored data"):
        ingest_files(Store(store.root), jobs_paths=[moved])
    assert not store.path(Partition("jobs", None, BASE_DAY + DAY)).exists()


def test_lenient_ingest_moves_a_redelivered_job_to_its_new_day(tmp_path):
    store = Store(tmp_path / "store")
    ingest_files(store, jobs_paths=[jobs_file(tmp_path, "a.csv", [JOB_A, JOB_2])])
    moved = jobs_file(tmp_path, "b.csv", [JOB_MOVED])
    before = snapshot(store)
    summary = ingest_files(Store(store.root), jobs_paths=[moved], mode="lenient")
    # both days are written: the old one loses the job, the new one gains it
    assert (summary.jobs, summary.rejected, summary.partitions, summary.written) == (1, 1, 2, 2)
    old_path = store.path(Partition("jobs", None, BASE_DAY))
    assert snapshot(store)[old_path] != before[old_path]
    assert store.path(Partition("jobs", None, BASE_DAY + DAY)).exists()
    old_day = store.read_range("jobs", None, BASE_DAY, BASE_DAY + DAY)
    assert [j.app_id for j in old_day] == ["app2"]
    both_days = store.query_jobs_overlapping(BASE_DAY, BASE_DAY + 2 * DAY)
    assert [(j.app_id, floor_day(j.start)) for j in both_days] == [
        ("app2", BASE_DAY),
        ("app1", BASE_DAY + DAY),
    ]
    # the moved job is one record again, so a rollup over both days accepts it
    aggregate_range(store, BASE_DAY, BASE_DAY + 2 * DAY)


def write_fixture(store, fixture):
    """The hand-computed fixture's samples and jobs, plus a job with no activity."""
    days = fixture.samples.window - fixture.samples.window % DAY
    for day in sorted(set(days.tolist())):
        store.write_partition(fixture.samples.take(days == day), Partition("samples", "fs2", day))
    ghost = mk_job("app5", ["nid00009"], REPORT_DAY + 10 * HOUR, REPORT_DAY + 11 * HOUR)
    store.write_partition(list(fixture.jobs) + [ghost], Partition("jobs", None, REPORT_DAY))


def test_the_rollup_checks_conservation(tmp_path, monkeypatch, exposure_fixture):
    """aggregate_range is the one rollup; `lassi verify` runs it too. Each
    partition's rollup is checked before the next partition is read."""
    store = Store(tmp_path / "store")
    write_fixture(store, exposure_fixture)
    real = pipeline.aggregate_hourly
    read_kb = ALL_FIELDS.index("read_kb")
    lost = []

    def lossy(result):
        # lose one KiB from the partition's first app-hour that read anything
        records = real(result)
        for i, r in enumerate(records):
            if r.counters[read_kb]:
                vec = list(r.counters)
                vec[read_kb] -= 1
                records[i] = replace(r, counters=tuple(vec))
                lost.append(r.hour)
                break
        return records

    monkeypatch.setattr(pipeline, "aggregate_hourly", lossy)
    with pytest.raises(LassiError, match="conservation violated for fs2 hour") as err:
        aggregate_range(store, BASE_DAY, REPORT_DAY + DAY)
    assert len(lost) == 1 and f"hour {lost[0]} read_kb" in str(err.value)
    assert aggregate_files(store) == {}


def test_hourly_conservation_check_names_the_first_differing_field():
    check = pipeline._check_hourly_conservation
    fs_hour = FsHourRecord("fs2", BASE_DAY, mk_counters(read_kb=5, open=2), mk_counters(read_kb=1))
    app_hours = [
        AppHourRecord("app1", "fs2", BASE_DAY, mk_counters(read_kb=3)),
        AppHourRecord("app2", "fs2", BASE_DAY, mk_counters(read_kb=1, open=2)),
    ]
    check(app_hours, [fs_hour])
    check(app_hours + [AppHourRecord("app1", "fs2", BASE_DAY + HOUR, mk_counters())], [fs_hour])

    short = [app_hours[0], replace(app_hours[1], counters=mk_counters(read_kb=1, open=1))]
    with pytest.raises(LassiError, match=f"fs2 hour {BASE_DAY} open: 1 \\+ 0 != 2"):
        check(short, [fs_hour])
    # an app-hour where the filesystem has no totals has nothing to share
    stray = AppHourRecord("app1", "fs2", BASE_DAY + HOUR, mk_counters(write_kb=4))
    with pytest.raises(LassiError, match=f"fs2 hour {BASE_DAY + HOUR} write_kb: 4 \\+ 0 != 0"):
        check(app_hours + [stray], [fs_hour])
    # the records of one check belong to one filesystem
    other = AppHourRecord("app3", "fs3", BASE_DAY, mk_counters())
    with pytest.raises(ValueError, match="hourly records of several filesystems: fs2, fs3"):
        check(app_hours + [other], [fs_hour])


def test_aggregate_range_validation(tmp_path):
    store = Store(tmp_path / "store")
    with pytest.raises(ValueError):
        aggregate_range(store, BASE_DAY + HOUR, BASE_DAY + DAY)
    with pytest.raises(ValueError):
        aggregate_range(store, BASE_DAY, BASE_DAY)


def test_aggregate_writes_header_only_partitions_for_idle_days(tmp_path):
    store = Store(tmp_path / "store")
    stats = stats_file(tmp_path, "s.csv", [f"2017-10-09T00:00:00Z,fs2,nid1,{counters()}"])
    ingest_files(store, [stats])
    summary = aggregate_range(store, BASE_DAY, BASE_DAY + 2 * DAY)
    assert summary.filesystems == ("fs2",)
    assert summary.partitions == 4  # 2 datasets x 2 days
    idle = store.path(Partition("app_hours", "fs2", BASE_DAY + DAY))
    assert idle.exists()
    assert len(idle.read_text().splitlines()) == 1  # header only


@pytest.fixture
def exposure_store(tmp_path, exposure_fixture):
    """The hand-computed two-day fixture, ingested and aggregated."""
    store = Store(tmp_path / "store")
    write_fixture(store, exposure_fixture)
    aggregate_range(store, BASE_DAY, REPORT_DAY + DAY, AttributionConfig())
    build_baselines(store, *exposure_fixture.baseline_period)
    return store


def test_build_baselines_default_label_is_period_start(exposure_store, exposure_fixture):
    baseline = exposure_store.load_baseline("fs2", BASE_DAY)
    assert baseline.period == exposure_fixture.baseline_period
    assert baseline.means["read_kb"] == 2000.0
    assert baseline.means["open"] == 200.0


def test_build_baselines_requires_aggregates(tmp_path):
    with pytest.raises(ValueError):
        build_baselines(Store(tmp_path / "empty"), BASE_DAY, BASE_DAY + DAY)


def test_build_baselines_refuses_a_day_never_aggregated(exposure_store, exposure_fixture):
    stored = exposure_store.path(Partition("baselines", "fs2", BASE_DAY))
    before = stored.read_bytes()
    with pytest.raises(FileNotFoundError) as err:
        build_baselines(exposure_store, BASE_DAY, REPORT_DAY + 2 * DAY)
    assert str(err.value) == (
        "no aggregates for fs2 on 2017-10-11; run `lassi aggregate` first"
    )
    with pytest.raises(FileNotFoundError, match="no aggregates for fs9 on 2017-10-09"):
        build_baselines(exposure_store, *exposure_fixture.baseline_period, fs_ids=["fs9"])
    assert stored.read_bytes() == before


def test_find_job(exposure_store):
    job = find_job(exposure_store, "app1")
    assert job.app_id == "app1"
    with pytest.raises(ValueError):
        find_job(exposure_store, "app99")


def test_find_job_parses_each_jobs_partition_once(exposure_store, monkeypatch):
    parses = count_calls(monkeypatch, "parse_jobs_csv")
    fresh = Store(exposure_store.root)
    for app_id in ("app1", "app5", "app1"):
        assert find_job(fresh, app_id).app_id == app_id
    assert len(parses) == len(fresh.partition_dates("jobs", None))


def test_exposure_for_matches_hand_computation(exposure_store, exposure_fixture):
    (record,) = exposure_for(exposure_store, "app1")
    assert record.fs_id == "fs2"
    assert record.hours == 3
    assert record.risk_oss_sum == exposure_fixture.expected_exposure_oss
    assert record.risk_mds_sum == exposure_fixture.expected_exposure_mds


def test_exposure_for_alpha_override(exposure_store):
    # alpha 4 doubles the thresholds to 8000 KiB / 800 ops:
    #   read_kb risks (404000-8000)/8000 = 49.5, then 99.5, then 100.5
    #   open risks    (10400-800)/800   = 12.0, then 12.5, then 12.5
    (record,) = exposure_for(exposure_store, "app1", alpha=4.0)
    assert record.risk_oss_sum == 249.5
    assert record.risk_mds_sum == 37.0


def test_exposure_for_requires_aggregates(exposure_store):
    store_path = exposure_store.path(Partition("fs_hours", "fs2", REPORT_DAY))
    store_path.unlink()
    with pytest.raises(FileNotFoundError) as err:
        exposure_for(exposure_store, "app1", "fs2")
    assert "lassi aggregate" in str(err.value)


def test_exposure_for_app_without_activity(exposure_store):
    with pytest.raises(ValueError) as err:
        exposure_for(exposure_store, "app5")
    assert "no attributed activity" in str(err.value)


def test_exposure_for_counts_only_activity_during_the_run(exposure_store):
    # an app-hour of app5 on its run's day but after the run is no activity in it
    partition = Partition("app_hours", "fs2", REPORT_DAY)
    records = exposure_store.read_range("app_hours", "fs2", REPORT_DAY, REPORT_DAY + DAY)
    later = AppHourRecord("app5", "fs2", REPORT_DAY + 16 * HOUR, mk_counters(read_kb=1))
    exposure_store.write_partition(records + [later], partition)
    with pytest.raises(ValueError, match="no attributed activity"):
        exposure_for(exposure_store, "app5")


def test_long_lived_and_fresh_stores_give_the_same_exposures(tmp_path):
    scenario = synth.parse_scenario(TASKFARM_SCENARIO.read_text(encoding="utf-8"))
    gen = synth.generate(scenario, tmp_path / "data", with_oracle=False)
    start = parse_utc("2017-10-10T00:00:00Z")
    store = Store(tmp_path / "store", window_len=600)
    ingest_files(store, [gen.stats_path], [gen.jobs_path])
    aggregate_range(
        store, start, start + 2 * DAY, AttributionConfig("proportional", window_len=600)
    )
    build_baselines(store, start, start + DAY)

    assert len(gen.jobs) == 16
    assert {floor_day(j.start) for j in gen.jobs} == {start, start + DAY}
    for job in gen.jobs:
        fresh = exposure_for(Store(store.root, window_len=600), job.app_id)
        assert exposure_for(store, job.app_id) == fresh
        assert fresh and all(r.app_id == job.app_id for r in fresh)


def test_ids_are_coded_once_per_file_not_once_per_sample(tmp_path, monkeypatch):
    """After the parser's one dedup, id strings are coded once per label
    table, never once per sample: ingest maps each partition's node table to
    sorted order once, and an aggregate maps a partition's table once per
    row range it rolls up (SampleKeys.block), at most once an hour, and
    codes no other id string, since owners are numbered in app_id order and
    each rollup holds one filesystem."""
    scenario = synth.parse_scenario(TASKFARM_SCENARIO.read_text(encoding="utf-8"))
    gen = synth.generate(scenario, tmp_path / "data", with_oracle=False)
    with open(gen.stats_path, encoding="utf-8", newline="") as fh:
        nodes = {row["node"] for row in csv.DictReader(fh)}
    coded = []
    real = model.label_codes

    def label_codes(labels, codes):
        coded.append(len(labels))
        return real(labels, codes)

    for module in (model, ingest):
        monkeypatch.setattr(module, "label_codes", label_codes)
    start = parse_utc("2017-10-10T00:00:00Z")
    store = Store(tmp_path / "store", window_len=600)
    ingested = ingest_files(store, [gen.stats_path], [gen.jobs_path])
    # one node table per samples partition (2 filesystems x 2 days)
    assert coded == [len(nodes)] * 4
    coded.clear()
    summary = aggregate_range(
        store, start, start + 2 * DAY, AttributionConfig("proportional", window_len=600)
    )
    # at least one row range per partition, a table of at most every node each
    assert 4 <= len(coded) <= 4 * 24 and max(coded) <= len(nodes)
    assert ingested.samples > 10 * (summary.app_hour_records + summary.fs_hour_records)


# --- day-bounded aggregation -------------------------------------------------

WLEN = 600
DAYS = (BASE_DAY, BASE_DAY + DAY, BASE_DAY + 2 * DAY)


def three_day_case():
    """Samples and jobs over three days, fs1 the home filesystem.

    cross runs over the first midnight on n1 and shows on fs2 on day 1 only,
    so the range rule zero-fills its fs2 hours on day 2; long runs on n2 from
    day 1 into day 3; early started before the range and late ends after
    it; cut starts and ends inside windows; n3 is never busy.
    """
    jobs = [
        mk_job("cross", ["n1"], BASE_DAY + 22 * HOUR, BASE_DAY + DAY + 3 * HOUR),
        mk_job("long", ["n2"], BASE_DAY + 12 * HOUR + 250, DAYS[2] + 6 * HOUR + 300),
        mk_job("early", ["n1"], BASE_DAY - 2 * HOUR, BASE_DAY + 2 * HOUR),
        mk_job("late", ["n1"], DAYS[2] + 20 * HOUR, DAYS[2] + DAY + 5 * HOUR),
        mk_job("cut", ["n3", "n4"], DAYS[1] + 5 * HOUR + 100, DAYS[1] + 7 * HOUR + 420),
    ]
    rows = []
    for w in range(BASE_DAY, DAYS[2] + DAY, WLEN):
        k = (w - BASE_DAY) // WLEN
        for n, node in enumerate(("n1", "n2", "n3", "n4")):
            rows.append(mk_sample("fs1", node, w, read_kb=k % 97 + n, open=(k * 7 + n) % 13))
        if BASE_DAY + 22 * HOUR <= w < DAYS[1]:
            rows.append(mk_sample("fs2", "n1", w, write_kb=k % 11 + 1, getattr=k % 5))
        if k % 3 == 0:
            rows.append(mk_sample("fs3", "n2", w, other=k % 4))
    return fs_blocks(rows, WLEN), jobs


def store_case(root, blocks, jobs):
    """A store holding each block's rows by (fs, day) partition, and the jobs."""
    store = Store(root, window_len=WLEN)
    for (fs_id, day), block in partitions(*blocks).items():
        store.write_partition(block, Partition("samples", fs_id, day))
    by_day = {}
    for job in jobs:
        by_day.setdefault(floor_day(job.start), []).append(job)
    for day, day_jobs in by_day.items():
        store.write_partition(day_jobs, Partition("jobs", None, day))
    return store


def aggregate_files(store):
    return {
        path.relative_to(store.root): path.read_bytes()
        for tree in ("app_hours", "fs_hours")
        for path in sorted((store.root / tree).rglob("*.csv"))
    }


@pytest.mark.parametrize("policy", attribution.BOUNDARY_POLICIES)
def test_aggregate_range_equals_the_whole_range_rollup(tmp_path, policy):
    blocks, jobs = three_day_case()
    config = AttributionConfig(policy, WLEN)
    t0, t1 = DAYS[0], DAYS[2] + DAY
    store = store_case(tmp_path / "days", blocks, jobs)
    summary = aggregate_range(store, t0, t1, config)

    # the reference: one attribute call over each filesystem's whole-range
    # block, its app-hours zero-filled by the range rule written out here,
    # split by a filter loop
    ranged = store.query_jobs_overlapping(t0, t1)
    assert [j.app_id for j in ranged] == ["early", "long", "cross", "cut", "late"]
    assert [b.fs_id for b in blocks] == ["fs1", "fs2", "fs3"]
    fs_hours, cells = [], {}
    for block in blocks:
        result = attribution.attribute(block, ranged, config)
        fs_hours += attribution.fs_hourly_totals(block, result)
        cells.update(
            ((r.hour, r.fs_id, r.app_id), r) for r in attribution.aggregate_hourly(result)
        )
    jobs_by_id = {j.app_id: j for j in ranged}
    for _, fs_id, app_id in list(cells):
        job = jobs_by_id[app_id]
        first, last = max(floor_hour(job.start), t0), min(floor_hour(job.end - 1), t1 - HOUR)
        for hour in range(first, last + 1, HOUR):
            if (hour, fs_id, app_id) not in cells:
                cells[hour, fs_id, app_id] = AppHourRecord(app_id, fs_id, hour, mk_counters())
    app_hours = [cells[key] for key in sorted(cells)]
    reference = Store(tmp_path / "whole", window_len=WLEN)
    for fs_id in ("fs1", "fs2", "fs3"):
        for day in DAYS:
            reference.write_aggregates(
                fs_id,
                day,
                [r for r in app_hours if r.fs_id == fs_id and floor_day(r.hour) == day],
                [r for r in fs_hours if r.fs_id == fs_id and floor_day(r.hour) == day],
            )
    assert aggregate_files(store) == aggregate_files(reference)
    assert len(aggregate_files(store)) == 2 * 3 * 3
    assert summary == pipeline.AggregateSummary(
        ("fs1", "fs2", "fs3"), len(app_hours), len(fs_hours), 18
    )

    # cross saw fs2 on day 1 only; day 2 holds its zero-filled hours there
    day2 = store.read_range("app_hours", "fs2", DAYS[1], DAYS[1] + DAY)
    assert [(r.app_id, r.hour - DAYS[1], any(r.counters)) for r in day2] == [
        ("cross", h * HOUR, False) for h in range(3)
    ]
    # fs1 holds a record for every hour of each run inside the range: long's
    # over three days, early's and late's clamped to the range
    stored = [
        r for fs_id in ("fs1", "fs2", "fs3") for r in store.read_range("app_hours", fs_id, t0, t1)
    ]
    assert len(stored) == summary.app_hour_records
    fs1_hours = {}
    for r in stored:
        if r.fs_id == "fs1":
            fs1_hours.setdefault(r.app_id, []).append(r.hour)
    assert fs1_hours == {
        "early": [t0, t0 + HOUR],
        "long": list(range(BASE_DAY + 12 * HOUR, DAYS[2] + 7 * HOUR, HOUR)),
        "cross": list(range(BASE_DAY + 22 * HOUR, DAYS[1] + 3 * HOUR, HOUR)),
        "cut": list(range(DAYS[1] + 5 * HOUR, DAYS[1] + 8 * HOUR, HOUR)),
        "late": list(range(DAYS[2] + 20 * HOUR, t1, HOUR)),
    }


@pytest.mark.parametrize("policy", attribution.BOUNDARY_POLICIES)
def test_aggregate_range_rolls_up_in_hour_ranges_with_the_same_result(
    tmp_path, monkeypatch, policy
):
    """A partition is rolled up in row ranges of whole hours: one hour per
    range (a budget of 1 row), a few hours, the default budget and one range
    per partition all write the same aggregates."""
    blocks, jobs = three_day_case()
    config = AttributionConfig(policy, WLEN)
    written, rollups = {}, {}
    for budget in (1, 100, pipeline._ROLLUP_ROWS, 10**9):
        monkeypatch.setattr(pipeline, "_ROLLUP_ROWS", budget)
        calls = []
        rollup = pipeline._rollup
        monkeypatch.setattr(
            pipeline, "_rollup", lambda block, *a: calls.append(len(block)) or rollup(block, *a)
        )
        store = store_case(tmp_path / str(budget), blocks, jobs)
        aggregate_range(store, DAYS[0], DAYS[2] + DAY, config)
        monkeypatch.setattr(pipeline, "_rollup", rollup)
        written[budget], rollups[budget] = aggregate_files(store), calls
    assert len({tuple(files.items()) for files in written.values()}) == 1
    # fs1 holds 4 rows a window, 24 a 600 s hour, in each of the 72 hours;
    # fs3 holds rows in every hour too, and fs2 in two
    assert max(rollups[1]) == 24 and len(rollups[1]) == 72 + 2 + 72
    assert max(rollups[100]) == 96
    assert len(rollups[pipeline._ROLLUP_ROWS]) == len(rollups[10**9]) == 7


def test_hour_ranges_of_a_week_partition():
    """A 16,320-row partition, 680 rows an hour, goes in four 6-hour ranges,
    and an hour holding more rows than the budget is one range alone."""
    window = np.repeat(BASE_DAY + 180 * np.arange(480, dtype=np.int64), 34)
    assert len(window) == 16320
    assert pipeline._hour_chunks(window, BASE_DAY) == [
        (k * 4080, (k + 1) * 4080) for k in range(4)
    ]
    dense = np.repeat(window, 8)  # 5,440 rows an hour
    chunks = pipeline._hour_chunks(dense, BASE_DAY)
    assert chunks == [(h * 5440, (h + 1) * 5440) for h in range(24)]
    # hours without rows take no range of their own
    sparse = window[(window < BASE_DAY + HOUR) | (window >= BASE_DAY + 20 * HOUR)]
    assert pipeline._hour_chunks(sparse, BASE_DAY) == [(0, 680 * 5)]


def test_a_corrupt_partition_on_the_last_day_writes_no_aggregate(tmp_path):
    """Every partition of the range is read and checked before the first
    aggregate is written, so a refusal on the last day leaves no day
    aggregated."""
    blocks, jobs = three_day_case()
    store = store_case(tmp_path / "store", blocks, jobs)
    path = store.path(Partition("samples", "fs3", DAYS[2]))
    path.write_bytes(path.read_bytes()[:-100])
    with pytest.raises(StoreError, match=re.escape(f"{path}: unreadable samples partition")):
        aggregate_range(store, DAYS[0], DAYS[2] + DAY, AttributionConfig("midpoint", WLEN))
    assert aggregate_files(store) == {}


def test_the_sum_bound_names_the_partitions_rows_not_a_ranges(tmp_path, monkeypatch):
    """Four samples over two hours, rolled up an hour (two rows) at a time:
    a counter that two rows could sum but four could not is refused, naming
    the partition's four rows; nothing is written."""
    big = model.INT64_MAX // 4 + 1
    rows = [
        mk_sample("fs2", n, BASE_DAY + h * HOUR, read_kb=big) for h in (0, 1) for n in ("n1", "n2")
    ]
    store = store_case(tmp_path / "store", [mk_block(rows, WLEN)], [])
    monkeypatch.setattr(pipeline, "_ROLLUP_ROWS", 1)
    assert pipeline._hour_chunks(mk_block(rows, WLEN).window, BASE_DAY) == [(0, 2), (2, 4)]
    message = "^summing 4 samples could exceed the int64 counter range$"
    with pytest.raises(LassiError, match=message):
        aggregate_range(store, BASE_DAY, BASE_DAY + DAY, AttributionConfig("midpoint", WLEN))
    assert aggregate_files(store) == {}


def test_aggregate_range_reads_samples_without_the_csv_parser(tmp_path, monkeypatch):
    blocks, jobs = three_day_case()
    store = store_case(tmp_path / "store", blocks, jobs)
    parses = count_calls(monkeypatch, "parse_stats_csv")
    summary = aggregate_range(store, DAYS[0], DAYS[2] + DAY, AttributionConfig("midpoint", WLEN))
    assert summary.partitions == 18
    assert parses == []


def aggregate_stored(tmp_path, blocks, jobs, config):
    aggregate_range(store_case(tmp_path / "store", blocks, jobs), DAYS[0], DAYS[2] + DAY, config)


def verify_files(tmp_path, blocks, jobs, config, period=(DAYS[0] - DAY, DAYS[2] + 2 * DAY)):
    """What `lassi verify` runs, over the case as stats and jobs files; the
    default period holds every job, as the exposures' risk series must."""
    stats, jobs_csv = tmp_path / "stats.csv", tmp_path / "jobs.csv"
    stats.write_text(serialize_stats_csv(*blocks), encoding="utf-8")
    jobs_csv.write_text(serialize_jobs_csv(jobs), encoding="utf-8")
    return pipeline.compute_outputs_from_files(
        stats, jobs_csv, period, window_len=WLEN, boundary_policy=config.boundary_policy
    )


# the three-day case's samples partitions, days outer: fs2 holds day 1 only
PARTITIONS = [
    (fs_id, day)
    for day, fs_ids in zip(DAYS, (("fs1", "fs2", "fs3"), ("fs1", "fs3"), ("fs1", "fs3")))
    for fs_id in fs_ids
]


@pytest.mark.parametrize(
    "flow",
    [
        pytest.param(aggregate_stored, id="aggregate_stored"),
        # verify's period holds an idle day on either side of the samples,
        # whose missing partitions are never attributed
        pytest.param(verify_files, id="verify_files"),
    ],
)
def test_each_attribute_call_sees_one_utc_day(tmp_path, monkeypatch, flow):
    """Each call sees one filesystem's samples on one UTC day: a partition."""
    blocks, jobs = three_day_case()
    seen = []
    real = pipeline.attribute

    def spy(samples, job_list, config):
        days = {floor_day(w) for w in samples.window.tolist()}
        seen.append((samples.fs_id, sorted(days)))
        assert [j.app_id for j in job_list] == ["early", "long", "cross", "cut", "late"]
        return real(samples, job_list, config)

    monkeypatch.setattr(pipeline, "attribute", spy)
    flow(tmp_path, blocks, jobs, AttributionConfig("proportional", WLEN))
    assert seen == [(fs_id, [day]) for fs_id, day in PARTITIONS]


def test_an_app_seen_only_on_the_later_day_is_zero_filled_on_the_earlier(tmp_path):
    """cross's reverse: a run over midnight that shows on fs2 only after it
    gets all-zero fs2 hours on the day before, which has no fs2 samples."""
    job = mk_job("rev", ["n1"], BASE_DAY + 22 * HOUR, DAYS[1] + 2 * HOUR)
    rows = [mk_sample("fs1", "n1", w, read_kb=1) for w in range(job.start, job.end, WLEN)]
    rows.append(mk_sample("fs2", "n1", DAYS[1] + HOUR, write_kb=5))
    store = store_case(tmp_path / "store", fs_blocks(rows, WLEN), [job])
    aggregate_range(store, DAYS[0], DAYS[2], AttributionConfig("midpoint", WLEN))
    write_kb = ALL_FIELDS.index("write_kb")
    assert [
        (r.hour - BASE_DAY, r.counters[write_kb])
        for r in store.read_range("app_hours", "fs2", DAYS[0], DAYS[2])
    ] == [(22 * HOUR, 0), (23 * HOUR, 0), (DAY, 0), (DAY + HOUR, 5)]


def test_verify_refuses_a_period_not_day_aligned_before_reading_input(tmp_path):
    """Neither file exists, so reading one would raise FileNotFoundError."""
    missing = (tmp_path / "stats.csv", tmp_path / "jobs.csv")
    for period in ((DAYS[0] + HOUR, DAYS[2]), (DAYS[0], DAYS[0])):
        with pytest.raises(ValueError, match="period must be day-aligned and non-empty"):
            pipeline.compute_outputs_from_files(*missing, period, window_len=WLEN)


def test_verify_refuses_stats_outside_its_period_and_leaves_no_store(tmp_path, monkeypatch):
    """aggregate_range would drop the rows outside the period, so verify
    names the first such (filesystem, day) partition instead; its temporary
    store goes on success and on refusal alike."""
    temp = tmp_path / "tmp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    blocks, jobs = three_day_case()
    config = AttributionConfig("midpoint", WLEN)
    with pytest.raises(ValueError, match=f"stats rows for fs1 on {date_str(DAYS[0])} lie outside"):
        verify_files(tmp_path, blocks, jobs, config, period=(DAYS[1], DAYS[2]))
    assert list(temp.iterdir()) == []
    assert len(verify_files(tmp_path, blocks, jobs, config).fs_hours) > 0
    assert list(temp.iterdir()) == []


@pytest.mark.parametrize("drop, app", [((), "early"), (("early",), "late")], ids=["start", "end"])
def test_verify_refuses_a_run_crossing_a_period_end(tmp_path, drop, app):
    """early starts before the period and late ends after it; each has
    app-hours in it, so its exposure would need risk from outside it."""
    blocks, jobs = three_day_case()
    jobs = [j for j in jobs if j.app_id not in drop]
    period = (DAYS[0], DAYS[2] + DAY)
    want = f"app {app!r} has app-hours in the period {date_str(period[0])} to {date_str(period[1])}"
    with pytest.raises(ValueError, match=re.escape(want)):
        verify_files(tmp_path, blocks, jobs, AttributionConfig("midpoint", WLEN), period)


def test_verify_exposes_each_app_fs_pair_of_its_app_hours(tmp_path):
    """The pair rule: one exposure per distinct (app, fs) of the period's
    app-hours, zero-filled hours included, in (app, fs) order."""
    scenario = synth.parse_scenario(TASKFARM_SCENARIO.read_text(encoding="utf-8"))
    gen = synth.generate(scenario, tmp_path / "data", with_oracle=False)
    outputs = pipeline.compute_outputs_from_files(
        gen.stats_path,
        gen.jobs_path,
        (scenario.start, scenario.end),
        alpha=scenario.alpha,
        window_len=scenario.window_len,
        boundary_policy=scenario.boundary_policy,
    )
    pairs = [(e.app_id, e.fs_id) for e in outputs.exposures]
    assert pairs == sorted({(r.app_id, r.fs_id) for r in outputs.app_hours})
    # each of the farm's tasks touches one filesystem
    assert len(pairs) == len(gen.jobs)


def conflicting_jobs_on_day_3(store):
    """Two jobs holding n3 at once on the range's last day."""
    a = mk_job("a", ["n3"], DAYS[2] + 10 * HOUR, DAYS[2] + 12 * HOUR)
    b = mk_job("b", ["n3"], DAYS[2] + 11 * HOUR, DAYS[2] + 13 * HOUR)
    jobs = store.read_range("jobs", None, DAYS[2], DAYS[2] + DAY)
    store.write_partition(jobs + [a, b], Partition("jobs", None, DAYS[2]))


def no_samples(store):
    shutil.rmtree(store.root / "samples")


def corrupt_samples_on_day_3(store):
    path = store.path(Partition("samples", "fs1", DAYS[2]))
    path.write_bytes(path.read_bytes()[:-1])


@pytest.mark.parametrize(
    "faults, error, match",
    [
        ((conflicting_jobs_on_day_3,), AttributionConflictError, "n3"),
        # no partition to attribute, and still the conflict is refused
        ((no_samples, conflicting_jobs_on_day_3), AttributionConflictError, "n3"),
        ((corrupt_samples_on_day_3,), StoreError, "samples/fs1/2017-10-11"),
        # overlapping jobs are refused before any partition is read
        (
            (conflicting_jobs_on_day_3, corrupt_samples_on_day_3),
            AttributionConflictError,
            "n3",
        ),
    ],
    ids=["conflict", "conflict without samples", "corrupt", "both"],
)
def test_a_failing_later_day_writes_no_aggregate(tmp_path, faults, error, match):
    blocks, jobs = three_day_case()
    store = store_case(tmp_path / "store", blocks, jobs)
    for fault in faults:
        fault(store)
    with pytest.raises(error, match=match):
        aggregate_range(store, DAYS[0], DAYS[2] + DAY, AttributionConfig("midpoint", WLEN))
    assert aggregate_files(store) == {}


BIG = 2**62


def test_the_sum_bound_holds_per_day(tmp_path):
    """No sum crosses an hour or a filesystem, so a partition's samples
    bound every sum: two big samples on two days are summed apart, where one
    block of them is refused, and two on two filesystems of one day are
    two blocks."""
    job = mk_job("app1", ["n1", "n2"], BASE_DAY, DAYS[1] + HOUR)
    rows = [
        mk_sample("fs1", "n1", BASE_DAY, read_kb=BIG),
        mk_sample("fs1", "n1", DAYS[1], read_kb=BIG),
    ]
    store = store_case(tmp_path / "store", [mk_block(rows, WLEN)], [job])
    config = AttributionConfig("midpoint", WLEN)
    with pytest.raises(LassiError, match="summing 2 samples could exceed"):
        pipeline._rollup(mk_block(rows, WLEN), [job], config)
    aggregate_range(store, BASE_DAY, DAYS[2], config)
    read_kb = ALL_FIELDS.index("read_kb")
    for day in DAYS[:2]:
        (hour,) = store.read_range("fs_hours", "fs1", day, day + DAY)
        assert (hour.hour, hour.counters[read_kb]) == (day, BIG)

    # two filesystems are two blocks, each summed alone
    two_fs = fs_blocks([rows[0], mk_sample("fs2", "n1", BASE_DAY, read_kb=BIG)], WLEN)
    for block in two_fs:
        (hour,) = pipeline._rollup(block, [job], config)[1]
        assert (hour.fs_id, hour.counters[read_kb]) == (block.fs_id, BIG)
    store = store_case(tmp_path / "two_fs", two_fs, [job])
    aggregate_range(store, BASE_DAY, DAYS[1], config)
    for fs_id in ("fs1", "fs2"):
        (hour,) = store.read_range("fs_hours", fs_id, BASE_DAY, DAYS[1])
        assert (hour.hour, hour.counters[read_kb]) == (BASE_DAY, BIG)

    # a partition that could overflow is refused, and the message counts
    # that partition's samples, not the range's
    rows.append(mk_sample("fs1", "n2", DAYS[1], read_kb=BIG))
    with pytest.raises(LassiError, match="summing 3 samples could exceed"):
        pipeline._rollup(mk_block(rows, WLEN), [job], config)
    store = store_case(tmp_path / "again", [mk_block(rows, WLEN)], [job])
    with pytest.raises(LassiError, match="summing 2 samples could exceed"):
        aggregate_range(store, BASE_DAY, DAYS[2], config)
    assert aggregate_files(store) == {}
    # that day's refusal comes before a later day's corrupt partition is read
    rows = [
        mk_sample("fs1", "n1", BASE_DAY, read_kb=BIG),
        mk_sample("fs1", "n2", BASE_DAY, read_kb=BIG),
        mk_sample("fs1", "n1", DAYS[2], read_kb=1),
    ]
    store = store_case(tmp_path / "both", [mk_block(rows, WLEN)], [job])
    corrupt_samples_on_day_3(store)
    with pytest.raises(LassiError, match="summing 2 samples could exceed"):
        aggregate_range(store, BASE_DAY, DAYS[2] + DAY, config)
    assert aggregate_files(store) == {}
