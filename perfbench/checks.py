"""Correctness checks on what one iteration wrote and returned.

Each check names the call whose output it judges and returns a list of
(call, message) failures; an empty list means the output is correct. Store
partitions are read back with the csv module, not with lassi's own readers,
and compared with the stdlib oracle that ``lassi.synth`` wrote.
"""

from __future__ import annotations

import csv
import random
from datetime import datetime, timezone
from pathlib import Path

from lassi import oracle
from lassi.ingest import parse_stats_csv
from lassi.report import build_daily_report, write_bundle
from lassi.store import Store

N_STATS = 21
DAY = 86400


def _unix(text: str) -> int:
    return int(
        datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc).timestamp()
    )


def read_hour_tables(store_root: Path) -> tuple[dict, dict, dict]:
    """app_hours, fs totals and non-zero unattributed rows as plain dicts."""
    apps: dict = {}
    totals: dict = {}
    unattributed: dict = {}
    for path in sorted((Path(store_root) / "app_hours").glob("*/*.csv")):
        with open(path, encoding="utf-8", newline="") as fh:
            for row in list(csv.reader(fh))[1:]:
                apps[(row[2], row[1], _unix(row[0]))] = [int(v) for v in row[3:]]
    for path in sorted((Path(store_root) / "fs_hours").glob("*/*.csv")):
        with open(path, encoding="utf-8", newline="") as fh:
            for row in list(csv.reader(fh))[1:]:
                key = (row[1], _unix(row[0]))
                totals[key] = [int(v) for v in row[2 : 2 + N_STATS]]
                un = [int(v) for v in row[2 + N_STATS :]]
                if any(un):
                    unattributed[key] = un
    return apps, totals, unattributed


def _table_diff(name: str, got: dict, want: dict) -> list[str]:
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
    if not (missing or extra or wrong):
        return []
    return [
        f"{name}: {len(missing)} rows missing, {len(extra)} unexpected, {len(wrong)} differ "
        f"(first: {(missing + extra + wrong)[0]})"
    ]


def store_matches_oracle(store_root: Path, oracle_dir: Path) -> list[tuple[str, str]]:
    """Midpoint policy: every written hourly table equals the oracle's."""
    apps, totals, unattributed = read_hour_tables(store_root)
    want = oracle.read_oracle(oracle_dir)
    problems = (
        _table_diff("app_hours", apps, want.app_hours)
        + _table_diff("fs_hours", totals, want.fs_hours)
        + _table_diff("unattributed", unattributed, want.unattributed)
    )
    return [("aggregate_range", p) for p in problems]


def store_conserves(store_root: Path, oracle_dir: Path) -> list[tuple[str, str]]:
    """Any policy: fs totals equal the oracle's, and app-hours plus
    unattributed equal the totals, field by field, per (fs, hour)."""
    apps, totals, unattributed = read_hour_tables(store_root)
    problems = _table_diff("fs_hours", totals, oracle.read_oracle(oracle_dir).fs_hours)
    sums: dict = {key: list(vec) for key, vec in unattributed.items()}
    for (_app, fs, hour), vec in apps.items():
        slot = sums.setdefault((fs, hour), [0] * N_STATS)
        for i in range(N_STATS):
            slot[i] += vec[i]
    for key in sorted(set(sums) | set(totals)):
        got = sums.get(key, [0] * N_STATS)
        if got != totals.get(key, [0] * N_STATS):
            problems.append(f"conservation broken at {key}: attributed+unattributed {got}")
            break
    return [("aggregate_range", p) for p in problems]


def ingest_complete(facts: dict, inputs: dict) -> list[tuple[str, str]]:
    got = facts.get("ingest")
    want = {"samples": inputs["sample_rows"], "jobs": len(inputs["jobs"]), "rejected": 0}
    if got != want:
        return [("ingest_files", f"summary {got}, expected {want}")]
    return []


def rejects_exact(facts: dict, inputs: dict) -> tuple[list[tuple[str, str]], int]:
    """The lenient re-delivery rejects exactly the injected rows.

    Returns the failures and the number of calls the check made itself.
    """
    injected = list(inputs["injected_lines"])
    problems = []
    got = facts.get("reingest", {}).get("rejected")
    if got != len(injected):
        problems.append(("reingest", f"rejected {got} rows, injected {len(injected)}"))
    _, parsed = parse_stats_csv(inputs["redelivery_path"], "lenient", inputs["window_len"])
    lines = [line for line, _reason in parsed.rejected_reasons]
    if lines != injected:
        problems.append(("reingest", f"rejected lines {lines[:5]}..., injected {injected[:5]}..."))
    return problems, 1


def bundle_stable(store_root: Path, inputs: dict, seed: int) -> tuple[list[tuple[str, str]], int]:
    """One bundle, rebuilt and rewritten, is byte-identical to the first."""
    rng = random.Random(seed)
    fs = rng.choice(list(inputs["filesystems"]))
    day = rng.randrange(inputs["start"], inputs["end"], DAY)
    store = Store(store_root, window_len=inputs["window_len"])
    out_dir = Path(store_root) / "reports" / fs / datetime.fromtimestamp(
        day, timezone.utc
    ).strftime("%Y-%m-%d")
    try:
        before = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        write_bundle(build_daily_report(store, fs, day), store_root)
        after = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    except Exception as exc:  # the rebuild is a call like any other; count its failure
        return [("report", f"bundle {fs} {out_dir.name} rebuild failed: {exc}")], 1
    if not before or before != after:
        return [("report", f"bundle {fs} {out_dir.name} changed on rebuild")], 1
    return [], 1


def taskfarm_answers(facts: dict, inputs: dict) -> list[tuple[str, str]]:
    problems = []
    slow = facts.get("slowdown", {})
    if slow.get("jobs") != len(inputs["jobs"]) or slow.get("groups") != 4 or slow.get("flagged"):
        problems.append(("detect_slowdown", f"slowdown {slow}, expected 4 groups, none flagged"))
    scatter = facts.get("scatter", {})
    points = scatter.get("points", {})
    if (
        len(points) != 4
        or scatter.get("multi_fs")
        or any(runs != got for runs, got in points.values())
        or sum(runs for runs, _ in points.values()) != len(inputs["jobs"])
    ):
        problems.append(("runtime_vs_risk", f"scatter {scatter}"))
    return problems


def week_answers(facts: dict, inputs: dict) -> list[tuple[str, str]]:
    exposures = facts.get("exposures", [])
    if len(exposures) != len(inputs["jobs"]) or min(exposures, default=0) < 1:
        return [("exposure_for", f"exposure record counts {exposures}")]
    return []


def verify_clean(facts: dict) -> list[tuple[str, str]]:
    verdict = facts.get("verify", {})
    if not verdict.get("ok") or not verdict.get("compared") or verdict.get("diffs"):
        return [("verify", f"oracle verdict {verdict}")]
    return []


def check_iteration(workload: str, result: dict, inputs: dict, seed: int):
    """All checks for one iteration; returns (failures, calls the checks made)."""
    facts = result["facts"]
    if result["error"] is not None:
        return [], 0  # the failed call is already counted
    store_root = Path(facts["store"])
    problems = ingest_complete(facts, inputs)
    calls = 0
    if workload == "week_store":
        problems += store_matches_oracle(store_root, inputs["oracle_dir"])
        problems += week_answers(facts, inputs)
        found, made = rejects_exact(facts, inputs)
        problems += found
        calls += made
    else:
        problems += store_conserves(store_root, inputs["oracle_dir"])
        problems += taskfarm_answers(facts, inputs)
        problems += verify_clean(facts)
    found, made = bundle_stable(store_root, inputs, seed)
    return problems + found, calls + made
