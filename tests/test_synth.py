"""Scenario parsing, deterministic generation, and oracle verification."""

import ast
from pathlib import Path

import pytest

from lassi import synth
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


def quoted_fs_scenario():
    # a double quote in the filesystem id makes csv quote the field; 120 s
    # windows give 720 a day, more than one of the writer's blocks holds
    return parse_scenario(
        scenario_text(
            seed=4,
            node_pool=3,
            filesystems='fs"2:48 fs3:48',
            window_len=120,
            background='[background fs"2]\nread_kb = 9\nopen = 0.2\nnoise = 0.5\n',
            actors=SPILL_ACTOR.replace("fs2", 'fs"2'),
        )
    )


STATS_CASES = {
    "foreign_rows": lambda: quiet_scenario(extra_actor=SPILL_ACTOR),
    "all_zero": lambda: parse_scenario(scenario_text(node_pool=3, window_len=900)),
    "quoted_fs": quoted_fs_scenario,
}


@pytest.mark.parametrize("case", sorted(STATS_CASES))
def test_generated_stats_equal_a_row_by_row_csv_writer(tmp_path, case):
    scenario = STATS_CASES[case]()
    generated = generate(scenario, tmp_path)
    want = reference_stats_csv(scenario)
    assert generated.stats_path.read_text(encoding="utf-8") == want
    assert generated.sample_rows == want.count("\n") - 1
    if case == "quoted_fs":
        # nid00001 is homed on fs3 and spills onto the quoted filesystem
        assert ',"fs""2",nid00001,' in want


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
