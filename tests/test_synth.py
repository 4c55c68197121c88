"""Scenario parsing, deterministic generation, and oracle verification."""

import ast
import os
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lassi import oracle, synth
from lassi.errors import ScenarioError
from lassi.oracle import read_oracle, verify
from lassi.pipeline import compute_outputs_from_files
from lassi.synth import ARCHETYPES, generate, load_scenario, parse_scenario
from lassi.timeutil import DAY, HOUR, parse_utc

from helpers import reference_stats_csv, scenario_text

START = parse_utc("2017-10-10T00:00:00Z")


def test_parse_minimal_scenario():
    sc = parse_scenario(scenario_text(seed=7, filesystems="fsa:4 fsb:8"))
    assert sc.seed == 7
    assert sc.start == START
    assert sc.days == 1
    assert sc.end == START + DAY
    assert sc.fs_ids == ("fsa", "fsb")
    assert sc.filesystems == (("fsa", 4), ("fsb", 8))
    assert sc.alpha == 2.0
    assert sc.actors == ()


def test_parse_background_and_actor():
    text = scenario_text(
        background="[background fs2]\nread_kb = 40\nnoise = 0.3\n",
        actors=(
            "[actor storm]\n"
            "type = taskfarm_mds_storm\n"
            "fs = fs2\n"
            "nodes = 2\n"
            "tasks = 3\n"
            "start_hour = 10\n"
            "hours = 1.5\n"
            "intensity = 2.0\n"
            "open = 7\n"
        ),
    )
    sc = parse_scenario(text)
    assert sc.background["fs2"]["read_kb"] == 40.0
    assert sc.background["fs2"]["__noise__"] == 0.3
    (actor,) = sc.actors
    assert actor.name == "storm"
    assert actor.nodes == 2
    assert actor.tasks == 3
    # archetype rates scale with intensity; explicit overrides are absolute
    assert actor.rates["close"] == ARCHETYPES["taskfarm_mds_storm"]["close"] * 2.0
    assert actor.rates["open"] == 7.0


@pytest.mark.parametrize(
    "text",
    [
        "just not ini at [all",
        "[other]\nx = 1\n",  # no [scenario]
        scenario_text().replace("seed = 1\n", ""),
        scenario_text(window_len=7),
        scenario_text(days=0),
        scenario_text(node_pool=0),
        scenario_text(filesystems="fs2"),  # missing :osts
        scenario_text(filesystems="fs2:4 fs2:8"),
        scenario_text().replace("alpha = 2.0", "alpha = 0"),
        scenario_text(background="[background fs9]\nread_kb = 1\n"),
        scenario_text(background="[background fs2]\nbogus_stat = 1\n"),
        scenario_text(background="[background fs2]\nread_kb = -1\n"),
        scenario_text(background="[background fs2]\nnoise = -0.5\n"),
        scenario_text(actors="[actor a]\ntype = quantum\nfs = fs2\n"),
        scenario_text(actors="[actor a]\ntype = steady_app\nfs = fs9\n"),
        scenario_text(actors="[actor a]\ntype = steady_app\nfs = fs2\nwat = 1\n"),
        scenario_text(actors="[actor a]\ntype = steady_app\nfs = fs2\nintensity = 0\n"),
        scenario_text(actors="[actor ]\ntype = steady_app\nfs = fs2\n"),
        scenario_text(actors="[widget a]\nx = 1\n"),
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ScenarioError):
        parse_scenario(text)


def quiet_scenario(seed=1, extra_actor=""):
    return parse_scenario(
        scenario_text(
            seed=seed,
            node_pool=4,
            filesystems="fs2:48 fs3:48",
            window_len=900,
            background="[background fs2]\nread_kb = 2\nopen = 0.1\n",
            actors=extra_actor,
        )
    )


def test_generate_full_grid_row_count(tmp_path):
    generated = generate(quiet_scenario(), tmp_path, with_oracle=False)
    # every node reports every window on its home fs: 96 windows x 4 nodes
    assert generated.sample_rows == (DAY // 900) * 4
    lines = generated.stats_path.read_text().splitlines()
    assert len(lines) == generated.sample_rows + 1
    assert generated.oracle_dir is None
    assert generated.jobs == ()


def test_generate_zero_noise_values_exact(tmp_path):
    generated = generate(quiet_scenario(), tmp_path, with_oracle=False)
    for line in generated.stats_path.read_text().splitlines()[1:]:
        parts = line.split(",")
        node = parts[2]
        read_kb, opens = int(parts[3]), int(parts[8])
        if parts[1] == "fs2":
            assert node in ("nid00000", "nid00002")
            assert read_kb == 2 * 900  # rate x window seconds, no noise
            assert opens == 90
        else:
            assert node in ("nid00001", "nid00003")
            assert read_kb == 0 and opens == 0


def test_generate_is_deterministic_even_with_noise(tmp_path):
    text = scenario_text(
        seed=5,
        node_pool=3,
        window_len=900,
        background="[background fs2]\nwrite_kb = 10\nnoise = 0.4\n",
        actors="[actor app]\ntype = steady_app\nfs = fs2\nnoise = 0.2\nhours = 2\n",
    )
    a = generate(parse_scenario(text), tmp_path / "a", with_oracle=False)
    b = generate(parse_scenario(text), tmp_path / "b", with_oracle=False)
    assert a.stats_path.read_bytes() == b.stats_path.read_bytes()
    assert a.jobs_path.read_bytes() == b.jobs_path.read_bytes()


def test_planner_names_ids_and_home_fs_preference(tmp_path):
    actor = (
        "[actor sweep]\n"
        "type = steady_app\n"
        "fs = fs2\n"
        "tasks = 2\n"
        "start_hour = 1\n"
        "hours = 2\n"
    )
    generated = generate(quiet_scenario(extra_actor=actor), tmp_path, with_oracle=False)
    a, b = generated.jobs
    assert (a.app_id, a.job_id) == ("app0001", "4201.sdb")
    assert (b.app_id, b.job_id) == ("app0002", "4202.sdb")
    assert a.user == "usr01"
    assert a.command == "aprun -n 36 ./sweep.x"
    # concurrent tasks: first home-fs node each, in index order
    assert a.nodes == frozenset({"nid00000"})
    assert b.nodes == frozenset({"nid00002"})
    assert a.start == START + HOUR
    assert a.end == START + 3 * HOUR


# three nodes on a pool with two fs2-homed nodes: one runs on a foreign filesystem
SPILL_ACTOR = (
    "[actor wide]\n"
    "type = small_write_tracer\n"
    "fs = fs2\n"
    "nodes = 3\n"
    "hours = 1\n"
)


def test_planner_spills_to_foreign_nodes_and_emits_sparse_rows(tmp_path):
    generated = generate(quiet_scenario(extra_actor=SPILL_ACTOR), tmp_path, with_oracle=False)
    (job,) = generated.jobs
    # two fs2-homed nodes, then the first fs3-homed one
    assert job.nodes == frozenset({"nid00000", "nid00002", "nid00001"})
    # nid00001 reports its full fs3 grid plus fs2 rows only while active
    lines = generated.stats_path.read_text().splitlines()[1:]
    fs2_foreign = [l for l in lines if l.split(",")[1] == "fs2" and ",nid00001," in l]
    assert len(fs2_foreign) == HOUR // 900
    assert generated.sample_rows == (DAY // 900) * 4 + len(fs2_foreign)


@pytest.mark.parametrize(
    "actor",
    [
        "[actor big]\ntype = steady_app\nfs = fs2\nnodes = 5\n",  # pool is 4
        "[actor late]\ntype = steady_app\nfs = fs2\nstart_hour = 23.5\nhours = 1\n",
        "[actor early]\ntype = steady_app\nfs = fs2\nstart_hour = -1\n",
        "[actor twin]\ntype = steady_app\nfs = fs2\ntasks = 2\ndurations = 100\n",
        "[actor zero]\ntype = steady_app\nfs = fs2\ndurations = 0\n",
    ],
)
def test_planner_rejects_impossible_schedules(tmp_path, actor):
    with pytest.raises(ScenarioError):
        generate(quiet_scenario(extra_actor=actor), tmp_path, with_oracle=False)


def non_ascii_fs_scenario():
    # a filesystem id that is not ASCII; 120 s windows give 720 a day, more
    # than one of the writer's blocks holds
    return parse_scenario(
        scenario_text(
            seed=4,
            node_pool=3,
            filesystems="fsé2:48 fs3:48",
            window_len=120,
            background="[background fsé2]\nread_kb = 9\nopen = 0.2\nnoise = 0.5\n",
            actors=SPILL_ACTOR.replace("fs2", "fsé2"),
        )
    )


STATS_CASES = {
    "foreign_rows": lambda: quiet_scenario(extra_actor=SPILL_ACTOR),
    "all_zero": lambda: parse_scenario(scenario_text(node_pool=3, window_len=900)),
    "non_ascii_fs": non_ascii_fs_scenario,
}


@pytest.mark.parametrize("case", sorted(STATS_CASES))
def test_generated_stats_equal_a_row_by_row_writer(tmp_path, case):
    scenario = STATS_CASES[case]()
    generated = generate(scenario, tmp_path)
    want = reference_stats_csv(scenario)
    assert generated.stats_path.read_text(encoding="utf-8") == want
    assert generated.sample_rows == want.count("\n") - 1
    if case == "non_ascii_fs":
        # nid00001 is homed on fs3 and spills onto fsé2
        assert ",fsé2,nid00001," in want


@pytest.mark.parametrize("name", ['fs"2', "fs\x002"])
def test_a_filesystem_id_holding_a_quote_or_nul_is_refused(name):
    """No stats line may hold a quote or NUL, so no scenario writes one."""
    with pytest.raises(ScenarioError, match="holds a quote or NUL"):
        parse_scenario(scenario_text(filesystems=f"{name}:48 fs3:48"))


@pytest.mark.parametrize("case", sorted(STATS_CASES))
def test_the_oracle_changes_no_stats_byte(tmp_path, case):
    scenario = STATS_CASES[case]()
    with_oracle = generate(scenario, tmp_path / "a")
    without = generate(scenario, tmp_path / "b", with_oracle=False)
    assert with_oracle.stats_path.read_bytes() == without.stats_path.read_bytes()
    assert with_oracle.sample_rows == without.sample_rows
    assert with_oracle.jobs_path.read_bytes() == without.jobs_path.read_bytes()


@pytest.mark.parametrize("with_oracle", [True, False])
def test_generate_passes_over_the_rows_once(tmp_path, monkeypatch, with_oracle):
    passes = []
    real_write = synth._write_stats

    def write_spy(*args):
        passes.append(0)
        for block in real_write(*args):
            passes[-1] += len(block)
            yield block

    stamps = []
    real_format = synth.format_utc
    monkeypatch.setattr(synth, "_write_stats", write_spy)
    monkeypatch.setattr(synth, "format_utc", lambda t: stamps.append(t) or real_format(t))
    generated = generate(
        quiet_scenario(extra_actor=SPILL_ACTOR), tmp_path, with_oracle=with_oracle
    )
    assert passes == [generated.sample_rows]
    # each window's timestamp is formatted once, not once per row
    assert stamps == [START + i * 900 for i in range(DAY // 900)]


# --- a scenario generated in window spans by forked workers ---------------


def split_in(monkeypatch, spans):
    """Make generate split a scenario of any size into this many spans."""
    monkeypatch.setattr(synth, "_usable_cpus", lambda: spans)
    monkeypatch.setattr(synth, "_SPAN_ROWS", 1)


def no_children():
    """Whether this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def span_edge_scenario():
    """720 windows of 120 s in 7 spans, a filesystem id that is not ASCII,
    and a job of 06:00..08:00 spilling onto a foreign filesystem; the span
    starting at window 205 (06:50) cuts both its hour and the job."""
    return parse_scenario(
        scenario_text(
            seed=4,
            node_pool=3,
            filesystems="fsé2:48 fs3:48",
            window_len=120,
            background="[background fsé2]\nread_kb = 9\nopen = 0.2\nnoise = 0.5\n"
            "[background fs3]\nwrite_kb = 3\nnoise = 0.2\n",
            actors=SPILL_ACTOR.replace("fs2", "fsé2").replace("hours = 1", "start_hour = 6\nhours = 2")
            + "noise = 0.3\n",
        )
    )


def test_a_scenario_in_spans_writes_the_one_span_bytes(tmp_path, monkeypatch):
    scenario = span_edge_scenario()
    whole = generate(scenario, tmp_path / "whole")
    generate(scenario, tmp_path / "whole-no-oracle", with_oracle=False)
    split_in(monkeypatch, 7)
    spans = synth._window_spans(scenario)
    assert len(spans) == 7 and 720 % 7
    (job,) = whole.jobs
    edges = [scenario.start + windows.start * 120 for windows in spans[1:]]
    assert any(e % HOUR and job.start < e < job.end for e in edges)
    split = generate(scenario, tmp_path / "split")
    assert tree_bytes(tmp_path / "split") == tree_bytes(tmp_path / "whole")
    assert ",fsé2,nid00001," in split.stats_path.read_text(encoding="utf-8")
    assert split.sample_rows == whole.sample_rows
    generate(scenario, tmp_path / "split-no-oracle", with_oracle=False)
    assert tree_bytes(tmp_path / "split-no-oracle") == tree_bytes(tmp_path / "whole-no-oracle")
    assert no_children()


# rows of two filesystems and four nodes over two hours, and the jobs that
# own some of them
SUM_JOBS = [
    ("app1", frozenset({"n0", "n1"}), START + 600, START + 4000),
    ("app2", frozenset({"n2"}), START, START + 1800),
]
sample_rows = st.lists(
    st.tuples(
        st.sampled_from(["fs1", "fs2"]),
        st.sampled_from(["n0", "n1", "n2", "n3"]),
        st.integers(0, 39).map(lambda i: START + i * 180),
        st.lists(st.integers(0, 2**40), min_size=21, max_size=21),
    ),
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(rows=sample_rows, cut=st.integers(0, 40))
def test_the_sums_of_two_parts_merge_into_the_sums_of_all(rows, cut):
    """At any cut: the same sums, with the keys in the same order."""
    want = oracle.sum_samples(rows, SUM_JOBS, 180)
    got = oracle.sum_samples(rows[:cut], SUM_JOBS, 180)
    got.merge(oracle.sum_samples(rows[cut:], SUM_JOBS, 180))
    assert got == want
    for table in ("app_hours", "fs_hours", "unattributed"):
        assert list(getattr(got, table)) == list(getattr(want, table))


def fail_in_workers(monkeypatch, fail):
    """Make every forked worker fail as it starts to write its span."""
    parent = os.getpid()
    real = synth._write_stats

    def write_stats(*args):
        if os.getpid() != parent:
            fail()
        return real(*args)

    monkeypatch.setattr(synth, "_write_stats", write_stats)


def disk_full():
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize(
    "fail, error",
    [(disk_full, "No space left on device"), (lambda: os._exit(1), "synth worker exited with status 1")],
)
def test_a_failed_worker_fails_generate_and_leaves_no_temporary_file(
    tmp_path, monkeypatch, fail, error
):
    split_in(monkeypatch, 3)
    fail_in_workers(monkeypatch, fail)
    with pytest.raises(OSError, match=error):
        generate(span_edge_scenario(), tmp_path)
    assert os.listdir(tmp_path) == ["stats.csv"]
    assert no_children()


class WorkerSpy:
    started: list = []

    def __init__(self, *args):
        self.started.append(args)
        raise AssertionError("a worker was forked")


def test_a_small_scenario_or_a_second_thread_starts_no_worker(tmp_path, monkeypatch):
    """13,824 rows, as a two-day task farm of 48 nodes reports, stay one
    span however many CPUs there are; so does any scenario while another
    thread runs, since a fork copies only the calling thread."""
    monkeypatch.setattr(synth, "_Worker", WorkerSpy)
    monkeypatch.setattr(synth, "_usable_cpus", lambda: 64)
    farm = parse_scenario(scenario_text(days=2, node_pool=48, window_len=600))
    assert synth._window_spans(farm) == [range(288)]
    assert generate(farm, tmp_path / "farm").sample_rows == 13824
    split_in(monkeypatch, 3)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(60,))
    other.start()
    try:
        generate(span_edge_scenario(), tmp_path / "threads")
    finally:
        stop.set()
        other.join(10)
    assert WorkerSpy.started == []


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "sc.ini"
    path.write_text(scenario_text(seed=9), encoding="utf-8")
    assert load_scenario(path).seed == 9


VERIFY_ACTOR = (
    "[actor mix]\n"
    "type = cfd_open_close\n"
    "fs = fs2\n"
    "tasks = 2\n"
    "start_hour = 2\n"
    "hours = 3\n"
    "stagger_s = 1800\n"
)


def run_pipeline_against(generated):
    sc = generated.scenario
    return compute_outputs_from_files(
        generated.stats_path,
        generated.jobs_path,
        (sc.start, sc.end),
        alpha=sc.alpha,
        window_len=sc.window_len,
        boundary_policy=sc.boundary_policy,
    )


@pytest.mark.parametrize("seed", [1, 2])
def test_pipeline_matches_oracle(tmp_path, seed):
    generated = generate(quiet_scenario(seed=seed, extra_actor=VERIFY_ACTOR), tmp_path)
    outputs = run_pipeline_against(generated)
    report = verify(outputs, generated.oracle_dir)
    assert report.ok, report.summary()
    assert report.compared > 0
    assert report.diffs == ()


def test_verify_catches_tampering(tmp_path):
    generated = generate(quiet_scenario(extra_actor=VERIFY_ACTOR), tmp_path)
    outputs = run_pipeline_against(generated)

    target = generated.oracle_dir / "app_hours.csv"
    lines = target.read_text().splitlines()
    cols = lines[1].split(",")
    cols[3] = str(int(cols[3]) + 1)
    lines[1] = ",".join(cols)
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")

    report = verify(outputs, generated.oracle_dir)
    assert not report.ok
    assert any("app_hours" in d for d in report.diffs)


def test_verify_reports_missing_oracle_file(tmp_path):
    generated = generate(quiet_scenario(extra_actor=VERIFY_ACTOR), tmp_path)
    outputs = run_pipeline_against(generated)
    (generated.oracle_dir / "exposures.csv").unlink()
    report = verify(outputs, generated.oracle_dir)
    assert not report.ok
    assert any("missing oracle file" in d for d in report.diffs)


def test_oracle_round_trip(tmp_path):
    generated = generate(quiet_scenario(extra_actor=VERIFY_ACTOR), tmp_path)
    data = read_oracle(generated.oracle_dir)
    assert data.meta["window_len"] == 900
    assert len(data.app_hours) > 0
    assert len(data.exposures) == 2  # one record per (app, fs) pair with activity
    assert [(e[0], e[1]) for e in data.exposures] == [
        ("app0001", "fs2"), ("app0002", "fs2"),
    ]


def test_oracle_module_is_stdlib_only():
    """The reference evaluator must not lean on the code it checks."""
    source = Path(__file__).parent.parent / "src" / "lassi" / "oracle.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    allowed = {
        "__future__", "csv", "json", "math", "dataclasses", "datetime",
        "pathlib", "typing",
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in allowed, alias.name
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "oracle must not import package modules"
            assert node.module.split(".")[0] in allowed, node.module
