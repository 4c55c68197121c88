"""What oracle.verify reports when a table disagrees.

verify compares each key's row as a whole and labels a row only when it
differs; then it compares that row field by field as before. These tests
edit one oracle table at a time (one value changed, one key dropped, one
key added) and pin the report: ok, the count of values compared and every
diff line, in order. The pinned figures are those of the field-by-field
comparison, so the row-wise one must report exactly what it did.
"""

import ast
import csv
import random
import shutil
from pathlib import Path

import pytest

from lassi import oracle, synth
from lassi.oracle import ORACLE_FILES, STAT_NAMES, verify
from lassi.pipeline import compute_outputs_from_files

from helpers import TASKFARM_SCENARIO

UNMODIFIED = "OK: 4290 values compared, 0 diffs"


@pytest.fixture(scope="module")
def taskfarm(tmp_path_factory):
    """The task-farm scenario's pipeline outputs and its oracle directory."""
    out = tmp_path_factory.mktemp("taskfarm")
    scenario = synth.parse_scenario(TASKFARM_SCENARIO.read_text(encoding="utf-8"))
    gen = synth.generate(scenario, out)
    sc = gen.scenario
    outputs = compute_outputs_from_files(
        gen.stats_path,
        gen.jobs_path,
        (sc.start, sc.end),
        alpha=sc.alpha,
        window_len=sc.window_len,
        boundary_policy=sc.boundary_policy,
    )
    return outputs, gen.oracle_dir


def _bumped(cell: str) -> str:
    """A counter plus one, a float plus one."""
    return str(int(cell) + 1) if cell.isdigit() else repr(float(cell) + 1.0)


def edited_oracle(oracle_dir, tmp_path, name, edit):
    """A copy of oracle_dir whose table name holds edit(rows) instead of its rows."""
    copy = tmp_path / "oracle"
    shutil.copytree(oracle_dir, copy)
    rewrite_table(copy / name, edit)
    return copy


def rewrite_table(path, edit):
    """Replace the rows of the table at path by edit(rows), its header kept."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *edit(rows)])


def change_drop_add(value_col, key_col, new_key):
    """Row 0's value_col bumped, row 1 dropped, and a copy of row 2 with
    new_key in key_col added at the end."""

    def edit(rows):
        changed = list(rows[0])
        changed[value_col] = _bumped(changed[value_col])
        added = list(rows[2])
        added[key_col] = new_key
        return [changed, *rows[2:], added]

    return edit


def unattributed_edit(rows):
    """In fs_hours.csv's un_ columns: one value changed, one row's
    unattributed counters zeroed (its key leaves the table) and one
    all-zero row given a count (its key joins it)."""
    un = slice(23, 44)
    nonzero = [r for r in rows if any(int(v) for v in r[un])]
    zero = [r for r in rows if not any(int(v) for v in r[un])]
    changed, dropped, added = nonzero[0], nonzero[1], zero[0]
    col = 23 + next(i for i, v in enumerate(changed[un]) if int(v))
    changed[col] = _bumped(changed[col])
    dropped[un] = ["0"] * 21
    added[23] = "1"
    return rows


CASES = {
    "app_hours": (
        "app_hours.csv",
        change_drop_add(3, 2, "app9999"),
        4269,
        (
            "app_hours[app0001,fs3,2017-10-10T00:00:00Z]: unexpected in pipeline",
            "app_hours[app0009,fs2,2017-10-10T00:00:00Z].read_kb: got 120000, want 120001",
            "app_hours[app9999,fs2,2017-10-10T04:00:00Z]: missing from pipeline",
        ),
    ),
    "fs_hours": (
        "fs_hours.csv",
        change_drop_add(2, 1, "fs9"),
        4248,
        (
            "fs_hours[fs2,2017-10-10T00:00:00Z].read_kb: got 576000, want 576001",
            "fs_hours[fs3,2017-10-10T00:00:00Z]: unexpected in pipeline",
            "fs_hours[fs9,2017-10-10T01:00:00Z]: missing from pipeline",
            "unattributed[fs3,2017-10-10T00:00:00Z]: unexpected in pipeline",
            "unattributed[fs9,2017-10-10T01:00:00Z]: missing from pipeline",
        ),
    ),
    "unattributed": (
        "fs_hours.csv",
        unattributed_edit,
        4269,
        (
            "unattributed[fs2,2017-10-10T00:00:00Z].read_kb: got 456000, want 456001",
            "unattributed[fs3,2017-10-10T00:00:00Z]: unexpected in pipeline",
            "unattributed[fs3,2017-10-10T01:00:00Z]: missing from pipeline",
        ),
    ),
    "fs_risk": (
        "risk_fs.csv",
        change_drop_add(2, 0, "fs9"),
        4288,
        (
            "fs_risk[fs2,2017-10-10T00:00:00Z].oss: got 6.0, want 7.0",
            "fs_risk[fs2,2017-10-10T01:00:00Z]: unexpected in pipeline",
            "fs_risk[fs9,2017-10-10T02:00:00Z]: missing from pipeline",
        ),
    ),
    "app_risk": (
        "risk_apps.csv",
        change_drop_add(3, 2, "app9999"),
        4288,
        (
            "app_risk[fs2,2017-10-10T00:00:00Z,app0009].oss: got 6.0, want 7.0",
            "app_risk[fs2,2017-10-10T04:00:00Z,app0010]: unexpected in pipeline",
            "app_risk[fs2,2017-10-10T05:00:00Z,app9999]: missing from pipeline",
        ),
    ),
    "ops": (
        "ops.csv",
        change_drop_add(3, 0, "fs9"),
        4288,
        (
            "ops[fs2,2017-10-10T00:00:00Z].write: got 1024.0, want 1025.0",
            "ops[fs2,2017-10-10T01:00:00Z]: unexpected in pipeline",
            "ops[fs9,2017-10-10T02:00:00Z]: missing from pipeline",
        ),
    ),
    "exposures": (
        "exposures.csv",
        change_drop_add(4, 0, "app9999"),
        4287,
        (
            "exposure[app0001,fs3].hours: got 1, want 2",
            "exposure[app0002,fs3]: unexpected in pipeline",
            "exposure[app9999,fs3]: missing from pipeline",
        ),
    ),
}


def test_the_unmodified_oracle_agrees(taskfarm):
    outputs, oracle_dir = taskfarm
    report = verify(outputs, oracle_dir)
    assert report.summary() == UNMODIFIED
    assert (report.ok, report.diffs) == (True, ())


@pytest.mark.parametrize("case", sorted(CASES))
def test_an_edited_table_reports_what_field_by_field_comparison_did(taskfarm, tmp_path, case):
    outputs, oracle_dir = taskfarm
    name, edit, compared, diffs = CASES[case]
    report = verify(outputs, edited_oracle(oracle_dir, tmp_path, name, edit))
    assert (report.ok, report.compared, report.diffs) == (False, compared, diffs)


def test_floats_within_tolerance_are_no_diff(taskfarm, tmp_path):
    """A pair that differs inside rel_tol is compared field by field and passes."""
    outputs, oracle_dir = taskfarm

    def nudge(rows):
        for row in rows:
            row[2:4] = [repr(float(v) * (1 + 1e-12)) for v in row[2:4]]
        return rows

    report = verify(outputs, edited_oracle(oracle_dir, tmp_path, "exposures.csv", nudge))
    assert report.summary() == UNMODIFIED
    assert report.diffs == ()


def test_the_unmodified_oracle_agrees_in_any_row_order(taskfarm, tmp_path):
    """Every table's rows shuffled at once: verify reads each row as it comes."""
    outputs, oracle_dir = taskfarm
    copy = tmp_path / "oracle"
    shutil.copytree(oracle_dir, copy)
    for name in ORACLE_FILES[1:]:
        rewrite_table(copy / name, lambda rows: random.Random(name).sample(rows, len(rows)))
    report = verify(outputs, copy)
    assert (report.ok, report.summary()) == (True, UNMODIFIED)


@pytest.mark.parametrize("case", sorted(CASES))
def test_an_edited_table_in_any_row_order_reports_the_same(taskfarm, tmp_path, case):
    """The diffs are sorted by key, not listed in the order the rows come."""
    outputs, oracle_dir = taskfarm
    name, edit, compared, diffs = CASES[case]

    def shuffled(rows):
        rows = edit(rows)
        random.Random(case).shuffle(rows)
        return rows

    report = verify(outputs, edited_oracle(oracle_dir, tmp_path, name, shuffled))
    assert (report.ok, report.compared, report.diffs) == (False, compared, diffs)


@pytest.mark.parametrize("name", ORACLE_FILES)
def test_a_missing_oracle_file_is_the_only_diff(taskfarm, tmp_path, name):
    """Each file's existence is checked before anything is compared."""
    outputs, oracle_dir = taskfarm
    copy = tmp_path / "oracle"
    shutil.copytree(oracle_dir, copy)
    (copy / name).unlink()
    report = verify(outputs, copy)
    assert (report.ok, report.compared, report.diffs) == (
        False,
        0,
        (f"missing oracle file: {copy / name}",),
    )


def _raised(cell: str) -> str:
    """A counter plus 1000, a float plus 1000."""
    return str(int(cell) + 1000) if cell.isdigit() else repr(float(cell) + 1000.0)


# per table: the column of row 1 raised in its copy, and the diffs verify gives
REPEATS = {
    "app_hours.csv": (
        3,
        (
            "app_hours[app0009,fs2,2017-10-10T00:00:00Z].read_kb: got 120000, want 121000",
            "app_hours[app0009,fs2,2017-10-10T00:00:00Z]: repeated in oracle",
        ),
    ),
    "fs_hours.csv": (
        2,
        (
            "fs_hours[fs2,2017-10-10T00:00:00Z].read_kb: got 576000, want 577000",
            "fs_hours[fs2,2017-10-10T00:00:00Z]: repeated in oracle",
        ),
    ),
    "baseline.csv": (
        2,
        (
            "baseline[fs2].read_kb: got 576000.0, want 577000.0",
            "baseline[fs2,read_kb]: repeated in oracle",
        ),
    ),
    "risk_fs.csv": (
        2,
        (
            "fs_risk[fs2,2017-10-10T00:00:00Z].oss: got 6.0, want 1006.0",
            "fs_risk[fs2,2017-10-10T00:00:00Z]: repeated in oracle",
        ),
    ),
    "risk_apps.csv": (
        3,
        (
            "app_risk[fs2,2017-10-10T00:00:00Z,app0009].oss: got 6.0, want 1006.0",
            "app_risk[fs2,2017-10-10T00:00:00Z,app0009]: repeated in oracle",
        ),
    ),
    "ops.csv": (
        2,
        (
            "ops[fs2,2017-10-10T00:00:00Z].read: got 0.0, want 1000.0",
            "ops[fs2,2017-10-10T00:00:00Z]: repeated in oracle",
        ),
    ),
    "exposures.csv": (
        2,
        (
            "exposure[app0001,fs3].risk_oss_sum: got 8.333333333333334, want 1008.3333333333334",
            "exposure[app0001,fs3]: repeated in oracle",
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(REPEATS))
def test_a_key_the_oracle_repeats_is_a_diff(taskfarm, tmp_path, name):
    """A copy of row 1 with one value raised by 1000, put before row 1: the
    copy is compared as the key's row, and the real row 1 is a diff."""
    outputs, oracle_dir = taskfarm
    col, diffs = REPEATS[name]

    def repeat_first(rows):
        copy = list(rows[0])
        copy[col] = _raised(copy[col])
        return [copy, *rows]

    report = verify(outputs, edited_oracle(oracle_dir, tmp_path, name, repeat_first))
    assert (report.ok, report.compared, report.diffs) == (False, 4290, diffs)


def test_past_the_cap_the_first_diffs_in_key_order_are_listed(taskfarm, tmp_path):
    """Every app_hours and fs_hours counter raised, the rows reversed: many
    more diffs than the report lists, and those it lists are the first by
    table, key and field."""
    outputs, oracle_dir = taskfarm

    def raise_all(first):
        def edit(rows):
            for row in rows:
                row[first:] = [_raised(v) for v in row[first:]]
            return rows[::-1]

        return edit

    copy = edited_oracle(oracle_dir, tmp_path, "app_hours.csv", raise_all(3))
    rewrite_table(copy / "fs_hours.csv", raise_all(2))
    with open(copy / "app_hours.csv", newline="", encoding="utf-8") as fh:
        rows = sorted(list(csv.reader(fh))[1:], key=lambda r: (r[2], r[1], r[0]))
    want = [
        f"app_hours[{app},{fs},{hour}].{stat}: got {int(v) - 1000}, want {v}"
        for hour, fs, app, *values in rows
        for stat, v in zip(STAT_NAMES, values)
    ]
    report = verify(outputs, copy)
    assert report.diffs == (*want[: oracle._DIFF_CAP], "... further diffs suppressed")
    assert report.compared == 4290


def test_a_keys_diffs_keep_their_order_when_the_held_diffs_are_cut():
    """The differ holds at most twice the cap; a key whose diffs are found
    either side of a cut still lists them in the order found."""
    d = oracle._Differ(rel_tol=1e-9)
    for _ in range(2 * oracle._DIFF_CAP):
        d.add((2, ("b",)), "a later table")
    d.add((1, ("a",)), "first")  # the cut keeps it and 199 others
    d.add((1, ("a",)), "second")
    diffs = d.report().diffs
    assert diffs[:3] == ("first", "second", "a later table")
    assert (len(diffs), diffs[-1]) == (oracle._DIFF_CAP + 1, "... further diffs suppressed")


def test_the_oracle_imports_nothing_from_lassi():
    """The judge shares no code with what it judges: no lassi module and no
    relative import."""
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import at line {node.lineno}"
            names = [node.module]
        else:
            continue
        assert all(name.split(".")[0] != "lassi" for name in names), names
