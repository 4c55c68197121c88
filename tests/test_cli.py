"""CLI behavior: exit codes, output formats, and config precedence."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import lassi
from lassi import cli
from lassi import oracle as oracle_mod
from lassi.analysis import group_key
from lassi.cli import main
from lassi.ingest import JOBS_HEADER, STATS_HEADER
from lassi.report import build_daily_report, bundle_to_json
from lassi.store import Store
from lassi.timeutil import parse_date

from helpers import TASKFARM_SCENARIO, scenario_text, tree

STATS_HEADER_LINE = ",".join(STATS_HEADER)
JOBS_HEADER_LINE = ",".join(JOBS_HEADER)

SETTING_VARS = (
    "LASSI_STORE",
    "LASSI_WINDOW_LEN",
    "LASSI_ALPHA",
    "LASSI_BOUNDARY_POLICY",
    "LASSI_FS_RISK_BASIS",
    "LASSI_TOP_K",
    "LASSI_CONFIG",
)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for var in SETTING_VARS:
        monkeypatch.delenv(var, raising=False)


SCENARIO = scenario_text(
    seed=3,
    node_pool=4,
    filesystems="fs2:48 fs3:48",
    window_len=900,
    background="[background fs2]\nread_kb = 2\nopen = 0.1\n",
    actors=(
        "[actor mix]\n"
        "type = cfd_open_close\n"
        "fs = fs2\n"
        "tasks = 2\n"
        "start_hour = 2\n"
        "hours = 3\n"
        "stagger_s = 1800\n"
    ),
)


def test_full_cli_flow(tmp_path, capsys):
    scenario_path = tmp_path / "scenario.ini"
    scenario_path.write_text(SCENARIO, encoding="utf-8")
    data = tmp_path / "data"
    store = ["--store", str(tmp_path / "store")]

    assert main(["synth", "--scenario", str(scenario_path), "--out", str(data)]) == 0
    out = capsys.readouterr().out
    assert "stats.csv samples=" in out
    assert "jobs.csv jobs=2" in out
    assert "oracle files=8" in out

    assert main(["verify", str(data)]) == 0
    assert "0 diffs" in capsys.readouterr().out

    assert (
        main(
            ["ingest", *store, "--window-len", "900", "--stats", str(data / "stats.csv"),
             "--jobs", str(data / "jobs.csv")]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.startswith("ingested samples=")
    assert "jobs=2" in out
    assert "rejected=0" in out
    assert out.endswith(" partitions=3 written=3\n")

    # the same files again change no stored row, so no partition is written;
    # the store keeps the window length its first samples were written with
    assert main(["ingest", *store, "--stats", str(data / "stats.csv"),
                 "--jobs", str(data / "jobs.csv")]) == 0
    assert capsys.readouterr().out.endswith(" rejected=0 partitions=3 written=0\n")

    assert main(["aggregate", *store, "--date", "2017-10-10"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("aggregated fs=fs2,fs3")

    assert main(["baseline", *store, "--date", "2017-10-10"]) == 0
    out = capsys.readouterr().out
    assert "baseline fs=fs2" in out
    assert "label=2017-10-10" in out

    assert main(["report", *store, "--fs", "fs2", "--date", "2017-10-10"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("wrote ")
    assert "files=9" in out
    report_dir = tmp_path / "store" / "reports" / "fs2" / "2017-10-10"
    assert (report_dir / "report.json").exists()

    assert main(["rsd", *store, "--date", "2017-10-10"]) == 0
    assert "filesystems=" in capsys.readouterr().out

    assert main(["slowdown", *store]) == 0
    out = capsys.readouterr().out
    assert "groups=1 flagged_runs=0" in out

    assert main(["exposure", *store, "--app", "app0001"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("app=app0001 fs=fs2 hours=")
    assert "risk_oss=" in out

    assert main(["scatter", *store, "--app", "app0001"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "app_id,runtime_s,risk_oss_sum,risk_mds_axis"
    assert len(lines) == 3
    assert lines[1].startswith("app0001,10800,")


def taskfarm_store(tmp_path, capsys) -> tuple[list[str], list[str]]:
    """Synth, ingest, aggregate and baseline the task farm scenario.

    Returns the store options and the group key of each of its commands.
    """
    data = tmp_path / "data"
    store = ["--store", str(tmp_path / "store")]
    stats, jobs = ["--stats", str(data / "stats.csv")], ["--jobs", str(data / "jobs.csv")]
    assert main(["synth", "--scenario", str(TASKFARM_SCENARIO), "--out", str(data)]) == 0
    assert main(["ingest", *store, "--window-len", "600", *stats, *jobs]) == 0
    assert main(["aggregate", *store, "--from", "2017-10-10", "--to", "2017-10-12",
                 "--boundary-policy", "proportional"]) == 0
    assert main(["baseline", *store, "--date", "2017-10-10"]) == 0
    capsys.readouterr()

    with open(data / "jobs.csv", encoding="utf-8", newline="") as fh:
        commands = {row["command"] for row in csv.DictReader(fh)}
    assert len(commands) == 2
    return store, [group_key(command) for command in sorted(commands)]


def test_scatter_output_survives_an_unrelated_reingest(tmp_path, capsys):
    store, keys = taskfarm_store(tmp_path, capsys)
    data = tmp_path / "data"
    stats, jobs = ["--stats", str(data / "stats.csv")], ["--jobs", str(data / "jobs.csv")]

    def scatter():
        out = {}
        for key in keys:
            assert main(["scatter", *store, "--key", key]) == 0
            out[key] = capsys.readouterr().out
        return out

    before = scatter()
    # a header line and one line per run of the group's eight
    assert all(len(text.splitlines()) == 9 for text in before.values())

    # the same files again plus one job of another command, in the same jobs
    # partition: that partition's bytes change, the scattered groups do not
    other = tmp_path / "other.csv"
    other.write_text(
        JOBS_HEADER_LINE + "\n"
        "solo1,77.sdb,u,2017-10-10T05:00:00Z,2017-10-10T06:00:00Z,nid99,./solo.x\n",
        encoding="utf-8",
    )
    jobs_day = tmp_path / "store" / "jobs" / "all" / "2017-10-10.csv"
    old_jobs = jobs_day.read_bytes()
    assert main(["ingest", *store, *stats, *jobs, "--jobs", str(other)]) == 0
    assert "rejected=0" in capsys.readouterr().out
    assert jobs_day.read_bytes() != old_jobs
    assert scatter() == before


def test_scatter_honours_alpha_like_exposure(tmp_path, capsys):
    store, keys = taskfarm_store(tmp_path, capsys)

    def scatter_rows(*alpha):
        rows = []
        for key in keys:
            assert main(["scatter", *store, "--key", key, *alpha]) == 0
            rows += list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
        return rows

    rows = scatter_rows("--alpha", "4")
    assert len(rows) == 16
    assert rows != scatter_rows()  # alpha 4 scores differently from the stored 2.0
    for app_id, _runtime, risk_oss_sum, risk_mds_axis in rows:
        assert main(["exposure", *store, "--app", app_id, "--alpha", "4"]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        fields = dict(item.split("=", 1) for item in line.split())
        assert float(fields["risk_oss"]) == float(risk_oss_sum)
        assert float(fields["risk_mds"]) == -float(risk_mds_axis)


def test_truncated_store_row_exits_1(tmp_path, capsys):
    store, _ = taskfarm_store(tmp_path, capsys)
    path = tmp_path / "store" / "app_hours" / "fs2" / "2017-10-10.csv"
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[1] = ",".join(lines[1].split(",")[:-3])  # 18 of the 21 counters
    path.write_text("\n".join(lines), encoding="utf-8")

    assert main(["report", *store, "--fs", "fs2", "--date", "2017-10-10"]) == 1
    assert f"{path}: line 2: expected 24 columns, got 21" in capsys.readouterr().err


def test_baseline_and_rsd_refuse_a_day_never_aggregated(tmp_path, capsys):
    store, _ = taskfarm_store(tmp_path, capsys)  # aggregated 2017-10-10 and 2017-10-11
    baselines = tmp_path / "store" / "baselines"
    before = {p: p.read_bytes() for p in baselines.rglob("*.csv")}
    week = ["--from", "2017-10-10", "--to", "2017-10-13"]

    for argv in (["baseline", *store, *week], ["rsd", *store, *week]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "no aggregates for fs2 on 2017-10-12; run `lassi aggregate` first" in err
    assert main(["baseline", *store, "--date", "2017-10-10", "--fs", "fs9"]) == 1
    assert "no aggregates for fs9 on 2017-10-10" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in baselines.rglob("*.csv")} == before
    assert not (tmp_path / "store" / "reports").exists()


def test_report_alpha_rescores_the_stored_baseline(tmp_path, capsys):
    store, _ = taskfarm_store(tmp_path, capsys)
    day = parse_date("2017-10-11")
    report_json = tmp_path / "store" / "reports" / "fs2" / "2017-10-11" / "report.json"

    assert main(["report", *store, "--fs", "fs2", "--date", "2017-10-11"]) == 0
    default = json.loads(report_json.read_text(encoding="utf-8"))
    assert main(["report", *store, "--fs", "fs2", "--date", "2017-10-11", "--alpha", "4"]) == 0
    text = report_json.read_text(encoding="utf-8")
    assert json.loads(text)["metadata"]["alpha"] == 4.0

    stored = Store(tmp_path / "store", window_len=600)
    baseline = replace(stored.load_baseline("fs2", day), alpha=4.0)
    assert text == bundle_to_json(build_daily_report(stored, "fs2", day, baseline=baseline))
    assert json.loads(text)["risk_stats"] != default["risk_stats"]


def test_usage_errors_exit_64(capsys):
    for argv in (
        [],
        ["frobnicate"],
        ["report", "--fs", "fs2"],  # missing required --date
        ["aggregate", "--date", "not-a-date"],
        ["aggregate", "--date", "2017-10-9"],  # dates are exactly YYYY-MM-DD
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64, argv
        capsys.readouterr()


def test_removed_settings_are_refused(tmp_path, monkeypatch, capsys):
    store = ["--store", str(tmp_path / "s")]
    for argv in (
        ["report", *store, "--fs", "fs2", "--date", "2017-10-10", "--fs-risk-basis", "sum"],
        ["slowdown", *store, "--exclude-self"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64, argv
        capsys.readouterr()

    cfg = tmp_path / "lassi.ini"
    cfg.write_text("[lassi]\nfs_risk_basis = sum\n", encoding="utf-8")
    assert main(["ingest", "--config", str(cfg), "--stats", "x.csv"]) == 2
    assert "unknown key 'fs_risk_basis'" in capsys.readouterr().err

    # the old variable is ignored like any other unknown LASSI_* variable
    monkeypatch.setenv("LASSI_FS_RISK_BASIS", "totals")
    ingest_into(["ingest", *store], tmp_path, capsys)
    assert (tmp_path / "s" / "samples").is_dir()


# the setting flags each command takes; report adds its own --top-k
SETTING_FLAGS = {
    "--store": "DIR",
    "--config": "FILE",
    "--window-len": "600",
    "--alpha": "2.5",
    "--boundary-policy": "midpoint",
}
COMMAND_FLAGS = {
    "ingest": (["--stats", "x.csv"], {"--store", "--config", "--window-len"}),
    "aggregate": (["--date", "2017-10-10"], {"--store", "--config", "--boundary-policy"}),
    "baseline": (["--date", "2017-10-10"], {"--store", "--config", "--alpha"}),
    "report": (["--fs", "fs2", "--date", "2017-10-10"], {"--store", "--config", "--alpha"}),
    "exposure": (["--app", "app1"], {"--store", "--config", "--alpha"}),
    "scatter": (["--app", "app1"], {"--store", "--config", "--alpha"}),
    "rsd": (["--date", "2017-10-10"], {"--store", "--config"}),
    "slowdown": ([], {"--store", "--config"}),
    "synth": (["--scenario", "s.ini", "--out", "out"], set()),
    "verify": (["data"], set()),
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_each_command_takes_only_the_setting_flags_it_reads(command, capsys):
    """A setting flag a command does not read is a usage error, exit 64,
    before anything runs."""
    required, kept = COMMAND_FLAGS[command]
    parser = cli.build_parser()
    for flag, value in SETTING_FLAGS.items():
        argv = [command, *required, flag, value]
        if flag in kept:
            args = parser.parse_args(argv)
            assert str(getattr(args, flag[2:].replace("-", "_"))) == value
            continue
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64, argv
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_a_command_reads_only_the_settings_it_takes_flags_for(tmp_path, monkeypatch):
    """aggregate reads no window length, verify no setting at all: neither
    is moved by a bad or other value in the environment or config file."""
    monkeypatch.setenv("LASSI_WINDOW_LEN", "7")
    monkeypatch.setenv("LASSI_ALPHA", "-1")
    monkeypatch.setenv("LASSI_STORE", "/nonexistent")
    cfg = tmp_path / "lassi.ini"
    cfg.write_text("[lassi]\nwarp_factor = 9\n", encoding="utf-8")
    monkeypatch.setenv("LASSI_CONFIG", str(cfg))
    settings = cli.resolve_settings(cli.build_parser().parse_args(["verify", "data"]))
    assert settings == cli.Settings()
    monkeypatch.delenv("LASSI_CONFIG")
    args = cli.build_parser().parse_args(
        ["aggregate", "--store", "s", "--date", "2017-10-10", "--boundary-policy", "proportional"]
    )
    assert cli.resolve_settings(args) == cli.Settings(store="s", boundary_policy="proportional")


def test_ingest_at_another_window_length_than_the_store_exits_1(tmp_path, capsys):
    stats = tmp_path / "stats.csv"
    stats.write_text(
        STATS_HEADER_LINE + "\n"
        + "".join(f"2017-10-10T00:{m}:00Z,fs2,nid1," + ",".join(["1"] * 21) + "\n"
                  for m in ("00", "10", "20")),
        encoding="utf-8",
    )
    store = ["--store", str(tmp_path / "s")]
    assert main(["ingest", *store, "--window-len", "600", "--stats", str(stats)]) == 0
    capsys.readouterr()
    root = tmp_path / "s"
    before = tree(root)
    assert main(["ingest", *store, "--window-len", "300", "--stats", str(stats)]) == 1
    assert "window_len 300 given, the store's is 600" in capsys.readouterr().err
    assert tree(root) == before
    # without the flag, ingest and aggregate use the store's
    assert main(["ingest", *store, "--stats", str(stats)]) == 0
    assert capsys.readouterr().out.endswith(" written=0\n")
    assert main(["aggregate", *store, "--date", "2017-10-10"]) == 0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("lassi ")


def test_missing_input_file_exits_1(tmp_path, capsys):
    code = main(["ingest", "--store", str(tmp_path / "s"),
                 "--stats", str(tmp_path / "nope.csv")])
    assert code == 1
    assert "lassi:" in capsys.readouterr().err


def test_validation_errors_exit_2(tmp_path, capsys):
    store = ["--store", str(tmp_path / "s")]
    assert main(["ingest", *store]) == 2  # nothing to ingest
    assert main(["report", *store, "--fs", "fs2", "--date", "2017-10-10"]) == 2
    err = capsys.readouterr().err
    assert "lassi baseline" in err
    assert main(["aggregate", *store, "--date", "2017-10-10",
                 "--from", "2017-10-10"]) == 2


def test_attribution_conflict_exits_3(tmp_path, capsys):
    stats = tmp_path / "stats.csv"
    stats.write_text(
        STATS_HEADER_LINE + "\n"
        "2017-10-10T00:00:00Z,fs2,nid1," + ",".join(["1"] * 21) + "\n",
        encoding="utf-8",
    )
    jobs = tmp_path / "jobs.csv"
    jobs.write_text(
        JOBS_HEADER_LINE + "\n"
        "app1,1.sdb,u,2017-10-10T00:00:00Z,2017-10-10T02:00:00Z,nid1,./a.x\n"
        "app2,2.sdb,u,2017-10-10T01:00:00Z,2017-10-10T03:00:00Z,nid1,./b.x\n",
        encoding="utf-8",
    )
    store = ["--store", str(tmp_path / "s")]
    assert main(["ingest", *store, "--stats", str(stats), "--jobs", str(jobs)]) == 0
    capsys.readouterr()
    assert main(["aggregate", *store, "--date", "2017-10-10"]) == 3
    assert "nid1" in capsys.readouterr().err


def test_ingest_refuses_a_window_len_off_the_hour(tmp_path, capsys):
    """In either mode, before any row is read or any partition written."""
    stats = tmp_path / "stats.csv"
    stats.write_text(
        STATS_HEADER_LINE + "\n2017-10-10T00:00:00Z,fs2,nid1," + ",".join(["1"] * 21) + "\n",
        encoding="utf-8",
    )
    store = ["--store", str(tmp_path / "s"), "--window-len", "7", "--stats", str(stats)]
    for mode in ("strict", "lenient"):
        assert main(["ingest", *store, "--mode", mode]) == 2
        assert "window_len 7 must divide 3600" in capsys.readouterr().err
    assert not (tmp_path / "s" / "samples").exists()


def test_verify_mismatch_exits_2(tmp_path, capsys):
    scenario_path = tmp_path / "scenario.ini"
    scenario_path.write_text(SCENARIO, encoding="utf-8")
    data = tmp_path / "data"
    assert main(["synth", "--scenario", str(scenario_path), "--out", str(data)]) == 0
    capsys.readouterr()

    target = data / "oracle" / "baseline.csv"
    text = target.read_text(encoding="utf-8")
    lines = text.splitlines()
    cols = lines[1].split(",")
    cols[-1] = str(float(cols[-1]) + 1.0)
    lines[1] = ",".join(cols)
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")

    assert main(["verify", str(data)]) == 2
    out = capsys.readouterr().out
    assert "diff" in out


def test_verify_reads_only_the_oracle_meta_for_its_settings(tmp_path, capsys, monkeypatch):
    scenario_path = tmp_path / "scenario.ini"
    scenario_path.write_text(SCENARIO, encoding="utf-8")
    data = tmp_path / "data"
    assert main(["synth", "--scenario", str(scenario_path), "--out", str(data)]) == 0
    capsys.readouterr()

    def read_oracle(oracle_dir):
        raise AssertionError("the oracle's tables were read whole")

    monkeypatch.setattr(oracle_mod, "read_oracle", read_oracle)
    assert main(["verify", str(data)]) == 0
    assert capsys.readouterr().out.endswith(", 0 diffs\n")


def test_verify_refuses_an_incomplete_oracle_before_the_store_flow(tmp_path, capsys, monkeypatch):
    """A missing table is verify's one diff, found before any store is built."""
    scenario_path = tmp_path / "scenario.ini"
    scenario_path.write_text(SCENARIO, encoding="utf-8")
    data = tmp_path / "data"
    assert main(["synth", "--scenario", str(scenario_path), "--out", str(data)]) == 0
    capsys.readouterr()
    (data / "oracle" / "ops.csv").unlink()

    def compute_outputs_from_files(*args, **kwargs):
        raise AssertionError("the store flow ran for an incomplete oracle")

    monkeypatch.setattr(cli, "compute_outputs_from_files", compute_outputs_from_files)
    assert main(["verify", str(data)]) == 2
    out = capsys.readouterr().out
    assert out == (
        "MISMATCH: 0 values compared, 1 diffs\n"
        f"  missing oracle file: {data / 'oracle' / 'ops.csv'}\n"
    )


def test_verify_refuses_stats_outside_the_oracle_period(tmp_path, capsys):
    scenario_path = tmp_path / "scenario.ini"
    scenario_path.write_text(SCENARIO, encoding="utf-8")
    data = tmp_path / "data"
    assert main(["synth", "--scenario", str(scenario_path), "--out", str(data)]) == 0
    capsys.readouterr()

    # the file's last row again, a day later: the oracle's period is one day
    stats = data / "stats.csv"
    last = stats.read_text(encoding="utf-8").splitlines()[-1].split(",")
    fs_id = last[1]
    last[0] = "2017-10-11T00:00:00Z"
    with open(stats, "a", encoding="utf-8") as fh:
        fh.write(",".join(last) + "\n")

    assert main(["verify", str(data)]) == 2
    err = capsys.readouterr().err
    assert f"stats rows for {fs_id} on 2017-10-11 lie outside the period" in err


def test_synth_no_oracle(tmp_path, capsys):
    scenario_path = tmp_path / "scenario.ini"
    scenario_path.write_text(scenario_text(window_len=900), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["synth", "--scenario", str(scenario_path), "--out", str(out_dir),
                 "--no-oracle"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 2  # no third "wrote <oracle>" line
    assert not (out_dir / "oracle").exists()


def ingest_into(argv_prefix, tmp_path, capsys):
    """Run a tiny ingest and report which store root it wrote to."""
    stats = tmp_path / "one.csv"
    if not stats.exists():
        stats.write_text(
            STATS_HEADER_LINE + "\n"
            "2017-10-10T00:00:00Z,fs2,nid1," + ",".join(["0"] * 21) + "\n",
            encoding="utf-8",
        )
    assert main([*argv_prefix, "--stats", str(stats)]) == 0
    capsys.readouterr()


def test_config_precedence(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "lassi.ini"
    cfg.write_text(f"[lassi]\nstore = {tmp_path / 'cfg-store'}\n", encoding="utf-8")

    # config file alone
    ingest_into(["ingest", "--config", str(cfg)], tmp_path, capsys)
    assert (tmp_path / "cfg-store" / "samples").is_dir()

    # environment beats the file
    monkeypatch.setenv("LASSI_STORE", str(tmp_path / "env-store"))
    ingest_into(["ingest", "--config", str(cfg)], tmp_path, capsys)
    assert (tmp_path / "env-store" / "samples").is_dir()

    # flag beats both
    ingest_into(
        ["ingest", "--config", str(cfg), "--store", str(tmp_path / "flag-store")],
        tmp_path, capsys,
    )
    assert (tmp_path / "flag-store" / "samples").is_dir()


def test_config_file_via_env(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "lassi.ini"
    cfg.write_text(f"[lassi]\nstore = {tmp_path / 'envcfg-store'}\n", encoding="utf-8")
    monkeypatch.setenv("LASSI_CONFIG", str(cfg))
    ingest_into(["ingest"], tmp_path, capsys)
    assert (tmp_path / "envcfg-store" / "samples").is_dir()


def test_bad_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "lassi.ini"
    cfg.write_text("[lassi]\nwarp_factor = 9\n", encoding="utf-8")
    assert main(["ingest", "--config", str(cfg), "--stats", "x.csv"]) == 2
    assert "unknown key" in capsys.readouterr().err

    # a bad value is refused by a command that reads it, and by no other
    cfg.write_text("[lassi]\nalpha = loud\n", encoding="utf-8")
    assert main(["baseline", "--config", str(cfg), "--date", "2017-10-10"]) == 2
    assert "bad setting value" in capsys.readouterr().err
    store = ["--store", str(tmp_path / "s")]
    assert main(["ingest", "--config", str(cfg), *store, "--stats", "x.csv"]) == 1
    assert "x.csv" in capsys.readouterr().err

    cfg.write_text("[lassi]\nboundary_policy = psychic\n", encoding="utf-8")
    assert main(["aggregate", "--config", str(cfg), "--date", "2017-10-10"]) == 2
    assert "boundary_policy must be one of" in capsys.readouterr().err


# xml.sax.saxutils, for one, pulls these in through urllib.request; hashlib
# loads OpenSSL's _hashlib, some 3.5 MiB, where CPython's own SHA-256 does not
UNWANTED_MODULES = ("ssl", "socket", "http.client", "urllib.request", "email", "_hashlib")


def modules_loaded_by(code: str) -> str:
    """The UNWANTED_MODULES a fresh interpreter has loaded after running
    code, as the list's repr."""
    code += f"\nimport sys; print([m for m in {UNWANTED_MODULES!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(Path(lassi.__file__).parents[1]))
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return loaded.stdout.strip()


def test_importing_the_cli_loads_no_network_or_openssl_modules():
    assert modules_loaded_by("import lassi.cli") == "[]"


def test_grouping_the_task_farm_runs_loads_no_openssl(tmp_path):
    """Group keys are hashed without OpenSSL, on every supported Python."""
    main(["synth", "--scenario", str(TASKFARM_SCENARIO), "--out", str(tmp_path), "--no-oracle"])
    code = (
        "import lassi.cli\n"
        "from lassi.analysis import group_jobs\n"
        "from lassi.ingest import parse_jobs_csv\n"
        f"jobs, _report = parse_jobs_csv({str(tmp_path / 'jobs.csv')!r})\n"
        "assert len(group_jobs(jobs)) > 1"
    )
    assert modules_loaded_by(code) == "[]"
