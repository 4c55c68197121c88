"""What oracle.verify reports when a table disagrees.

verify compares each key's row as a whole and labels a row only when it
differs; then it compares that row field by field as before. These tests
edit one oracle table at a time (one value changed, one key dropped, one
key added) and pin the report: ok, the count of values compared and every
diff line, in order. The pinned figures are those of the field-by-field
comparison, so the row-wise one must report exactly what it did.
"""

import csv
import shutil

import pytest

from lassi import synth
from lassi.oracle import verify
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
    path = copy / name
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *edit(rows)])
    return copy


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
