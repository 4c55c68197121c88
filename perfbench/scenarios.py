"""Seeded, download-free inputs for the benchmark workloads.

Each workload's scenario is INI text for ``lassi.synth``; the seed drives the
generator's noise, so every seed gives the same volume and job layout with
different counter values. The week_store workload also gets a late
re-delivery file: one mid-week day of the source rows with one bad row injected per
thousand, cycling through four defects the lenient parser must reject.
"""

from __future__ import annotations

import csv
import hashlib
import random
import shutil
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

from lassi.synth import generate, parse_scenario

START = "2017-10-09T00:00:00Z"
REDELIVERY_DAY = 3
INJECT_EVERY = 1000
DEFECTS = ("negative_counter", "off_grid_timestamp", "short_row", "non_integer_counter")

_TS = "%Y-%m-%dT%H:%M:%SZ"


def week_scenario(seed: int, days: int = 7, node_pool: int = 100) -> str:
    """The acceptance-criterion-9 week: storms on fs2, steady apps on fs1."""
    actors = []
    for day in range(days):
        actors.append(
            f"[actor storm_d{day}]\ntype = taskfarm_mds_storm\nfs = fs2\nnodes = 4\n"
            f"tasks = 2\nstart_hour = {day * 24 + 9}\nhours = 2\nstagger_s = 7200\n"
        )
        actors.append(
            f"[actor steady_d{day}]\ntype = steady_app\nfs = fs1\nnodes = 8\n"
            f"tasks = 1\nstart_hour = {day * 24 + 11}\nhours = 5\n"
        )
    return (
        f"[scenario]\nseed = {seed}\nstart = {START}\ndays = {days}\n"
        f"window_len = 180\nnode_pool = {node_pool}\n"
        "filesystems = fs1:48 fs2:48 fs3:24\nalpha = 2.0\n"
        "[background fs1]\n"
        "read_kb = 120\nread_ops = 0.4\nwrite_kb = 260\nwrite_ops = 0.5\n"
        "other = 1\nopen = 0.6\nclose = 0.6\ngetattr = 1.2\nnoise = 0.3\n"
        "[background fs2]\n"
        "read_kb = 60\nwrite_kb = 90\nwrite_ops = 0.2\nopen = 0.4\nclose = 0.4\n"
        "noise = 0.3\n"
        "[background fs3]\n"
        "write_kb = 30\nwrite_ops = 0.1\ngetattr = 0.2\nnoise = 0.3\n" + "".join(actors)
    )


def taskfarm_scenario(seed: int, tasks: int = 150, node_pool: int = 48) -> str:
    """Two days of single-node task farms, one actor per archetype.

    Tasks run 0.75 h and start 1116 s apart, so two or three of each actor
    run at once and nearly every job boundary falls inside a 600 s window.
    """
    actors = ""
    for i, (kind, fs) in enumerate(
        (
            ("steady_app", "fs2"),
            ("taskfarm_mds_storm", "fs3"),
            ("small_write_tracer", "fs2"),
            ("cfd_open_close", "fs3"),
        )
    ):
        actors += (
            f"[actor farm_{kind}]\ntype = {kind}\nfs = {fs}\ntasks = {tasks}\n"
            f"start_hour = {i * 0.2}\nhours = 0.75\nstagger_s = 1116\nnoise = 0.2\n"
        )
    return (
        f"[scenario]\nseed = {seed}\nstart = {START}\ndays = 2\n"
        f"window_len = 600\nnode_pool = {node_pool}\n"
        "filesystems = fs2:48 fs3:24\nalpha = 2.0\n"
        "[background fs2]\nread_kb = 40\nopen = 0.5\ngetattr = 0.5\nnoise = 0.3\n"
        "[background fs3]\nwrite_kb = 20\nwrite_ops = 0.1\ngetattr = 0.2\nnoise = 0.3\n"
        + actors
    )


def _corrupt(row: list[str], defect: str, rng: random.Random, window_len: int) -> list[str]:
    bad = list(row)
    col = rng.randrange(3, len(row))
    if defect == "negative_counter":
        bad[col] = f"-{int(row[col]) + 1}"
    elif defect == "off_grid_timestamp":
        t = datetime.strptime(row[0], _TS) + timedelta(seconds=rng.randrange(1, window_len))
        bad[0] = t.strftime(_TS)
    elif defect == "short_row":
        bad = bad[: rng.randrange(3, len(row))]
    else:
        bad[col] = f"{row[col]}.5"
    return bad


def write_redelivery(
    stats_path: Path, out_path: Path, day_start: str, seed: int, window_len: int
) -> list[int]:
    """Copy one day's rows with injected bad rows; returns their line numbers."""
    day0 = datetime.strptime(day_start, _TS).replace(tzinfo=timezone.utc)
    lo = day0.strftime(_TS)
    hi = (day0 + timedelta(days=1)).strftime(_TS)
    rng = random.Random(seed)
    injected: list[int] = []
    with open(stats_path, encoding="utf-8", newline="") as src, open(
        out_path, "w", encoding="utf-8", newline=""
    ) as dst:
        reader = csv.reader(src)
        writer = csv.writer(dst, lineterminator="\n")
        writer.writerow(next(reader))
        line = 1
        kept: list[list[str]] = []
        for row in reader:
            if not lo <= row[0] < hi:  # ISO timestamps sort as text
                continue
            writer.writerow(row)
            line += 1
            kept.append(row)
            if len(kept) == INJECT_EVERY:
                defect = DEFECTS[len(injected) % len(DEFECTS)]
                writer.writerow(_corrupt(rng.choice(kept), defect, rng, window_len))
                line += 1
                injected.append(line)
                kept = []
    return injected


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def build_inputs(scenario_text: str, out_dir: Path, seed: int, redeliver: bool) -> dict:
    """Synthesize data plus oracle, and the re-delivery file when asked.

    Returns the input paths and what the checks expect of them, as plain
    values that pass unchanged to the measured child process.
    """
    scenario = parse_scenario(scenario_text)
    generated = generate(scenario, out_dir, with_oracle=True)
    redelivery_path = None
    injected: list[int] = []
    if redeliver:
        day = scenario.start + REDELIVERY_DAY * 86400
        day_text = datetime.fromtimestamp(day, timezone.utc).strftime(_TS)
        redelivery_path = out_dir / "redelivery.csv"
        injected = write_redelivery(
            generated.stats_path, redelivery_path, day_text, seed, scenario.window_len
        )
    return {
        "stats_path": str(generated.stats_path),
        "jobs_path": str(generated.jobs_path),
        "oracle_dir": str(generated.oracle_dir),
        "start": scenario.start,
        "end": scenario.end,
        "window_len": scenario.window_len,
        "alpha": scenario.alpha,
        "sample_rows": generated.sample_rows,
        "jobs": [j.app_id for j in generated.jobs],
        "redelivery_path": None if redelivery_path is None else str(redelivery_path),
        "injected_lines": injected,
        "filesystems": list(scenario.fs_ids),
    }


def set_up(
    scenario_text: str, work: Path, seed: int, redeliver: bool, repeats: int, min_seconds: float
) -> tuple[dict, list[float], list[dict[str, str]]]:
    """Build the inputs at least ``repeats`` times and until ``min_seconds``
    of set-up have been timed; keep the last build, time every one.

    Returns the inputs, each set-up's seconds, and each set-up's file
    digests, so the caller can check that one seed gives identical bytes.
    """
    seconds: list[float] = []
    digests = []
    while len(seconds) < repeats or sum(seconds) < min_seconds:
        if seconds:
            shutil.rmtree(out)
        out = work / f"setup{len(seconds)}"
        t0 = time.perf_counter()
        inputs = build_inputs(scenario_text, out, seed, redeliver)
        seconds.append(time.perf_counter() - t0)
        names = ("stats_path", "jobs_path", "redelivery_path")
        digests.append({n: file_digest(inputs[n]) for n in names if inputs[n] is not None})
    return inputs, seconds, digests
