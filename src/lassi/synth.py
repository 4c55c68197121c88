"""Synthetic workload generation with a built-in reference oracle.

A scenario file is INI-style key=value text, one [scenario] section plus
optional background and actor blocks:

    [scenario]
    seed = 42
    start = 2017-10-10T00:00:00Z
    days = 1
    window_len = 180
    node_pool = 8
    filesystems = fs2:48 fs3:48
    alpha = 2.0

    [background fs2]           ; per-node mean counter rates, per second
    read_kb = 40
    read_ops = 0.2
    noise = 0.3                ; log-normal sigma, 0 = exact means

    [actor storm]
    type = taskfarm_mds_storm  ; archetype, see ARCHETYPES
    fs = fs2
    nodes = 2                  ; nodes per task
    tasks = 4                  ; jobs sharing one launch command
    start_hour = 10
    hours = 1.5
    intensity = 2.0            ; scales the archetype's rates
    open = 80                  ; absolute per-second override for one stat

Every node reports a sample for every window on its home filesystem (nodes
round-robin over the filesystem list), so a scenario with zero rates still
produces a full grid of all-zero samples. Actors add counters on their nodes,
merged into the same (fs, node, window) cell. Node occupancy is exclusive;
an unsatisfiable schedule is a scenario error, not a silent overlap.

Generation is deterministic: the same scenario text yields byte-identical
CSVs. Alongside the data, generate() writes an oracle directory of expected
aggregates, baselines, risk series, and exposures computed by the separate
direct-evaluation module; verify() compares pipeline results against it.
generate() takes one pass over the sample rows: each row's CSV line is
written, a block of windows at a time, and the same row is handed to the
oracle, so stats.csv is the same bytes with or without an oracle.
"""

from __future__ import annotations

import configparser
import csv
import io
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import oracle as oracle_mod
from .errors import ScenarioError
from .ingest import STATS_HEADER, serialize_jobs_csv
from .model import ALL_FIELDS, JobRecord
from .timeutil import DAY, HOUR, format_utc, parse_utc

ACTOR_TYPES = ("steady_app", "taskfarm_mds_storm", "small_write_tracer", "cfd_open_close")

# Base per-second per-node rates for each actor archetype. steady_app moves
# bulk data at healthy sizes; the task farm hammers metadata; the tracer
# writes 1 KiB per operation; the open/close app cycles file handles.
ARCHETYPES: dict[str, dict[str, float]] = {
    "steady_app": {
        "read_kb": 512.0,
        "read_ops": 0.5,
        "write_kb": 1024.0,
        "write_ops": 1.0,
        "other": 2.0,
        "open": 0.5,
        "close": 0.5,
        "getattr": 1.0,
    },
    "taskfarm_mds_storm": {
        "open": 40.0,
        "close": 40.0,
        "getattr": 20.0,
        "setattr": 4.0,
        "unlink": 2.0,
        "mkdir": 1.0,
        "rmdir": 1.0,
        "other": 1.0,
        "read_kb": 64.0,
        "read_ops": 0.5,
        "write_kb": 64.0,
        "write_ops": 0.5,
    },
    "small_write_tracer": {
        "write_ops": 1.0,
        "write_kb": 1.0,
        "other": 0.1,
    },
    "cfd_open_close": {
        "open": 60.0,
        "close": 60.0,
        "getattr": 10.0,
        "write_kb": 256.0,
        "write_ops": 0.25,
        "other": 0.5,
    },
}

# rows per stats.csv write, rounded to whole windows: a small block is still
# in cache and still young to the garbage collector when the oracle reads it
# (the week's generate took about 1.9 s at 500 rows, 2.4 s at 48,000)
_BLOCK_ROWS = 500
_ROW_FORMAT = ",".join(["%d"] * len(ALL_FIELDS)) + "\n"

_ACTOR_KEYS = {
    "type",
    "fs",
    "nodes",
    "tasks",
    "start_hour",
    "hours",
    "intensity",
    "noise",
    "user",
    "command",
    "durations",
    "stagger_s",
}


@dataclass(frozen=True)
class ActorSpec:
    name: str
    type: str
    fs_id: str
    nodes: int = 1
    tasks: int = 1
    start_hour: float = 0.0
    hours: float = 1.0
    intensity: float = 1.0
    noise: float = 0.0
    user: str = ""
    command: str = ""
    durations: tuple[int, ...] = ()
    stagger_s: int = 0
    rates: dict[str, float] | None = None


@dataclass(frozen=True)
class Scenario:
    seed: int
    start: int
    days: int
    window_len: int = 180
    node_pool: int = 8
    filesystems: tuple[tuple[str, int], ...] = (("fs1", 8),)
    alpha: float = 2.0
    boundary_policy: str = "midpoint"
    background: dict[str, dict[str, float]] | None = None
    actors: tuple[ActorSpec, ...] = ()

    @property
    def end(self) -> int:
        return self.start + self.days * DAY

    @property
    def fs_ids(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.filesystems)


@dataclass(frozen=True)
class PlannedJob:
    index: int
    app_id: str
    job_id: str
    user: str
    command: str
    fs_id: str
    start: int
    end: int
    node_indices: tuple[int, ...]
    rates: dict[str, float]
    noise: float


@dataclass(frozen=True)
class GeneratedScenario:
    scenario: Scenario
    stats_path: Path
    jobs_path: Path
    oracle_dir: Path | None
    sample_rows: int
    jobs: tuple[JobRecord, ...]


def _fail(section: str, message: str) -> ScenarioError:
    return ScenarioError(f"[{section}] {message}")


def _number(section, key: str, default: float) -> float:
    raw = section.get(key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise _fail(section.name, f"{key} must be a number, got {raw!r}") from None


def _parse_filesystems(raw: str) -> tuple[tuple[str, int], ...]:
    out = []
    for token in raw.replace(",", " ").split():
        name, sep, osts = token.partition(":")
        if not name or not sep or not osts.isdigit():
            raise ScenarioError(f"bad filesystem token {token!r}; want name:ost_count")
        out.append((name, int(osts)))
    if not out:
        raise ScenarioError("filesystems list is empty")
    if len({n for n, _ in out}) != len(out):
        raise ScenarioError("duplicate filesystem name")
    return tuple(out)


def _parse_rates(section, fs_or_actor: str) -> tuple[dict[str, float], float]:
    rates: dict[str, float] = {}
    noise = 0.0
    for key, raw in section.items():
        if key == "noise":
            noise = float(raw)
            if noise < 0:
                raise _fail(section.name, "noise must be >= 0")
        elif key in ALL_FIELDS:
            value = float(raw)
            if value < 0:
                raise _fail(section.name, f"{key} rate must be >= 0")
            rates[key] = value
        elif fs_or_actor == "background":
            raise _fail(section.name, f"unknown key {key!r}")
    return rates, noise


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; raises ScenarioError on anything malformed."""
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    cp.optionxform = str  # stat names are case-sensitive
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"unparseable scenario: {exc}") from exc
    if "scenario" not in cp:
        raise ScenarioError("missing [scenario] section")
    sc = cp["scenario"]
    for key in ("seed", "start", "days"):
        if key not in sc:
            raise _fail("scenario", f"missing required key {key}")
    try:
        start = parse_utc(sc["start"])
    except ValueError as exc:
        raise _fail("scenario", f"bad start: {exc}") from None
    window_len = int(_number(sc, "window_len", 180))
    if window_len <= 0 or HOUR % window_len != 0:
        raise _fail("scenario", f"window_len {window_len} must divide 3600")
    days = int(sc["days"])
    if days < 1:
        raise _fail("scenario", "days must be >= 1")
    node_pool = int(_number(sc, "node_pool", 8))
    if node_pool < 1:
        raise _fail("scenario", "node_pool must be >= 1")
    alpha = _number(sc, "alpha", 2.0)
    if alpha <= 0:
        raise _fail("scenario", "alpha must be positive")
    policy = sc.get("boundary_policy", "midpoint")
    filesystems = _parse_filesystems(sc.get("filesystems", "fs1:8"))
    fs_ids = {name for name, _ in filesystems}

    background: dict[str, dict[str, float]] = {}
    actors: list[ActorSpec] = []
    for name in cp.sections():
        if name == "scenario":
            continue
        kind, _, rest = name.partition(" ")
        rest = rest.strip()
        if kind == "background":
            if rest not in fs_ids:
                raise _fail(name, f"unknown filesystem {rest!r}")
            rates, noise = _parse_rates(cp[name], "background")
            rates["__noise__"] = noise
            background[rest] = rates
        elif kind == "actor":
            if not rest:
                raise _fail(name, "actor needs a name: [actor myname]")
            actors.append(_parse_actor(cp[name], rest, fs_ids))
        else:
            raise ScenarioError(f"unknown section [{name}]")

    return Scenario(
        seed=int(sc["seed"]),
        start=start,
        days=days,
        window_len=window_len,
        node_pool=node_pool,
        filesystems=filesystems,
        alpha=alpha,
        boundary_policy=policy,
        background=background,
        actors=tuple(actors),
    )


def _parse_actor(section, name: str, fs_ids: set[str]) -> ActorSpec:
    actor_type = section.get("type")
    if actor_type not in ACTOR_TYPES:
        raise _fail(section.name, f"type must be one of {ACTOR_TYPES}, got {actor_type!r}")
    fs_id = section.get("fs")
    if fs_id not in fs_ids:
        raise _fail(section.name, f"unknown filesystem {fs_id!r}")
    for key in section:
        if key not in _ACTOR_KEYS and key not in ALL_FIELDS:
            raise _fail(section.name, f"unknown key {key!r}")
    intensity = _number(section, "intensity", 1.0)
    if intensity <= 0:
        raise _fail(section.name, "intensity must be positive")
    overrides, noise = _parse_rates(section, "actor")
    rates = {stat: rate * intensity for stat, rate in ARCHETYPES[actor_type].items()}
    rates.update(overrides)
    tasks = int(_number(section, "tasks", 1))
    nodes = int(_number(section, "nodes", 1))
    if tasks < 1 or nodes < 1:
        raise _fail(section.name, "tasks and nodes must be >= 1")
    return ActorSpec(
        name=name,
        type=actor_type,
        fs_id=fs_id,
        nodes=nodes,
        tasks=tasks,
        start_hour=_number(section, "start_hour", 0.0),
        hours=_number(section, "hours", 1.0),
        intensity=intensity,
        noise=noise,
        user=section.get("user", ""),
        command=section.get("command", ""),
        durations=tuple(int(t) for t in section.get("durations", "").split()),
        stagger_s=int(_number(section, "stagger_s", 0)),
        rates=rates,
    )


def load_scenario(path: str | Path) -> Scenario:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def _node_name(i: int) -> str:
    return f"nid{i:05d}"


def _plan_jobs(scenario: Scenario) -> list[PlannedJob]:
    home = {
        i: scenario.fs_ids[i % len(scenario.fs_ids)] for i in range(scenario.node_pool)
    }
    busy: dict[int, list[tuple[int, int]]] = {i: [] for i in range(scenario.node_pool)}
    jobs: list[PlannedJob] = []
    counter = 0
    for actor_idx, actor in enumerate(scenario.actors):
        if actor.durations and len(actor.durations) != actor.tasks:
            raise ScenarioError(
                f"actor {actor.name}: durations lists {len(actor.durations)} values "
                f"for {actor.tasks} tasks"
            )
        command = actor.command or f"aprun -n {actor.nodes * 36} ./{actor.name}.x"
        user = actor.user or f"usr{actor_idx + 1:02d}"
        for task in range(actor.tasks):
            start = scenario.start + round(actor.start_hour * HOUR) + task * actor.stagger_s
            duration = (
                actor.durations[task] if actor.durations else round(actor.hours * HOUR)
            )
            end = start + duration
            if duration <= 0:
                raise ScenarioError(f"actor {actor.name} task {task}: non-positive duration")
            if start < scenario.start or end > scenario.end:
                raise ScenarioError(
                    f"actor {actor.name} task {task}: runs {format_utc(start)}.."
                    f"{format_utc(end)}, outside the scenario"
                )
            # prefer nodes whose home filesystem matches the actor
            candidates = sorted(
                range(scenario.node_pool), key=lambda i: (home[i] != actor.fs_id, i)
            )
            chosen: list[int] = []
            for i in candidates:
                if all(e <= start or s >= end for s, e in busy[i]):
                    chosen.append(i)
                    if len(chosen) == actor.nodes:
                        break
            if len(chosen) < actor.nodes:
                raise ScenarioError(
                    f"actor {actor.name} task {task}: needs {actor.nodes} free nodes "
                    f"at {format_utc(start)}, pool of {scenario.node_pool} exhausted"
                )
            for i in chosen:
                busy[i].append((start, end))
            counter += 1
            jobs.append(
                PlannedJob(
                    index=counter,
                    app_id=f"app{counter:04d}",
                    job_id=f"{4200 + counter}.sdb",
                    user=user,
                    command=command,
                    fs_id=actor.fs_id,
                    start=start,
                    end=end,
                    node_indices=tuple(sorted(chosen)),
                    rates=dict(actor.rates or {}),
                    noise=actor.noise,
                )
            )
    return jobs


def _noisy(rng, means: np.ndarray, noise: float) -> np.ndarray:
    if noise > 0:
        means = means * rng.lognormal(-noise * noise / 2.0, noise, size=means.shape)
    return np.rint(means).astype(np.int64)


def _build_cells(
    scenario: Scenario, jobs: Sequence[PlannedJob]
) -> dict[tuple[int, str], np.ndarray]:
    """Per (node, fs) counter matrices of shape (n_windows, 21)."""
    wlen = scenario.window_len
    n_windows = scenario.days * DAY // wlen
    fs_ids = scenario.fs_ids
    background = scenario.background or {}
    cells: dict[tuple[int, str], np.ndarray] = {}

    for node_i in range(scenario.node_pool):
        home = fs_ids[node_i % len(fs_ids)]
        arr = np.zeros((n_windows, len(ALL_FIELDS)), dtype=np.int64)
        bg = background.get(home, {})
        noise = bg.get("__noise__", 0.0)
        rng = np.random.default_rng((scenario.seed, 0, node_i))
        for si, stat in enumerate(ALL_FIELDS):
            rate = bg.get(stat, 0.0)
            if rate <= 0:
                continue
            arr[:, si] = _noisy(rng, np.full(n_windows, rate * wlen), noise)
        cells[(node_i, home)] = arr

    for job in jobs:
        i0 = (job.start - scenario.start) // wlen
        i1 = (job.end - scenario.start - 1) // wlen
        w_starts = scenario.start + np.arange(i0, i1 + 1) * wlen
        overlap = np.minimum(w_starts + wlen, job.end) - np.maximum(w_starts, job.start)
        frac = overlap / wlen
        for node_i in job.node_indices:
            key = (node_i, job.fs_id)
            cell = cells.get(key)
            if cell is None:
                cell = np.zeros((n_windows, len(ALL_FIELDS)), dtype=np.int64)
                cells[key] = cell
            rng = np.random.default_rng((scenario.seed, 1, job.index, node_i))
            for si, stat in enumerate(ALL_FIELDS):
                rate = job.rates.get(stat, 0.0)
                if rate <= 0:
                    continue
                cell[i0 : i1 + 1, si] += _noisy(rng, rate * wlen * frac, job.noise)
    return cells


def _cell_order(
    scenario: Scenario, cells: dict[tuple[int, str], np.ndarray]
) -> list[tuple[str, str, np.ndarray, list[bool] | None]]:
    """Cells in canonical (fs, node) order as (fs, node name, counters, mask).

    A node reports every window on its home filesystem, so its home cell has
    no mask; a cell on a foreign filesystem reports only the windows where
    its mask is set, those with a nonzero counter.
    """
    home_of = {i: scenario.fs_ids[i % len(scenario.fs_ids)] for i in range(scenario.node_pool)}
    order = []
    for (node_i, fs_id), arr in cells.items():
        mask = None if home_of[node_i] == fs_id else arr.any(axis=1).tolist()
        order.append((fs_id, _node_name(node_i), arr, mask))
    order.sort(key=lambda cell: cell[:2])
    return order


def _csv_line(row: Sequence) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(row)
    return buf.getvalue()


def _write_stats(
    scenario: Scenario, order: Sequence[tuple[str, str, np.ndarray, list[bool] | None]], fh
) -> Iterator[list[tuple[str, str, int, list[int]]]]:
    """Write stats.csv to fh, rows in (window, fs, node) order, and yield each
    written block's rows as (fs, node, window_start, counters), the oracle's
    sample form.

    A block takes one tolist() per cell and one write. A row's ",fs,node,"
    text comes from csv.writer, so an id that needs quoting is quoted as a
    row-by-row writer would quote it.
    """
    wlen = scenario.window_len
    n_windows = scenario.days * DAY // wlen
    keys = [_csv_line(("", fs_id, node, ""))[:-1] for fs_id, node, _, _ in order]
    fh.write(_csv_line(STATS_HEADER))
    step = max(1, _BLOCK_ROWS // len(order))
    for b0 in range(0, n_windows, step):
        b1 = min(b0 + step, n_windows)
        cells = [
            (fs_id, node, key, arr[b0:b1].tolist(), mask)
            for (fs_id, node, arr, mask), key in zip(order, keys)
        ]
        lines: list[str] = []
        rows: list[tuple[str, str, int, list[int]]] = []
        for i in range(b0, b1):
            w = scenario.start + i * wlen
            stamp = format_utc(w)
            for fs_id, node, key, counts, mask in cells:
                if mask is not None and not mask[i]:
                    continue
                vec = counts[i - b0]
                lines.append(stamp + key + _ROW_FORMAT % tuple(vec))
                rows.append((fs_id, node, w, vec))
        fh.write("".join(lines))
        yield rows


def _job_records(jobs: Sequence[PlannedJob]) -> tuple[JobRecord, ...]:
    return tuple(
        JobRecord(
            app_id=j.app_id,
            job_id=j.job_id,
            user=j.user,
            start=j.start,
            end=j.end,
            nodes=frozenset(_node_name(i) for i in j.node_indices),
            command=j.command,
        )
        for j in jobs
    )


def generate(
    scenario: Scenario, out_dir: str | Path, with_oracle: bool = True
) -> GeneratedScenario:
    """Write stats.csv, jobs.csv, and (by default) the oracle directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jobs = _plan_jobs(scenario)
    cells = _build_cells(scenario, jobs)

    order = _cell_order(scenario, cells)
    n_windows = scenario.days * DAY // scenario.window_len
    rows = sum(n_windows if mask is None else sum(mask) for _, _, _, mask in order)
    stats_path = out / "stats.csv"
    oracle_dir = out / "oracle" if with_oracle else None
    with open(stats_path, "w", encoding="utf-8", newline="") as fh:
        blocks = _write_stats(scenario, order, fh)
        if with_oracle:
            raw_jobs = [
                (j.app_id, frozenset(_node_name(i) for i in j.node_indices), j.start, j.end)
                for j in jobs
            ]
            meta = {
                "t0": scenario.start,
                "t1": scenario.end,
                "window_len": scenario.window_len,
                "alpha": scenario.alpha,
                "boundary_policy": "midpoint",
                "filesystems": list(scenario.fs_ids),
            }
            data = oracle_mod.compute_oracle(chain.from_iterable(blocks), raw_jobs, meta)
        for _ in blocks:  # what the oracle left unread, or every block without one
            pass

    job_records = _job_records(jobs)
    jobs_path = out / "jobs.csv"
    jobs_path.write_text(serialize_jobs_csv(job_records), encoding="utf-8")

    if with_oracle:
        oracle_mod.write_oracle(data, oracle_dir)

    return GeneratedScenario(
        scenario=scenario,
        stats_path=stats_path,
        jobs_path=jobs_path,
        oracle_dir=oracle_dir,
        sample_rows=rows,
        jobs=job_records,
    )
