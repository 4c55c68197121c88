"""Seeded benchmark of lassi's daily flow.

    python3 perfbench/run.py --workload week_store --seed 1 --seconds 45 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

  week_store      a 336,000-sample week through the store flow: strict ingest,
                  aggregate, baselines, 21 daily bundles, RSD table, an
                  exposure query per job, and a lenient late re-delivery of
                  one day with injected bad rows
  taskfarm_store  600 short jobs over two days under the proportional
                  policy: the store flow, then `slowdown` over all jobs,
                  `scatter` (one exposure query per run) for each command
                  group, and `lassi verify` (compute_outputs_from_files and
                  oracle.verify, bypassing the store)

The inputs come from lassi.synth with the seed; set-up is repeated and timed,
and must give identical bytes each time. Each measured iteration runs in a
fresh interpreter (closed loop, one caller, no threads), iterations repeat
while another fits in --seconds, and every output is checked. The last line
of standard output is one JSON object: with --trace 0 the end-to-end metrics
of BENCHMARK.json, with --trace 1 the per-layer metrics of a traced iteration
plus the tracing overhead against an untraced one. Only flow_s, setup_s and
peak_rss_mib exist on every workload, so only they enter the result line; the
lines before it print every end-to-end figure the workload supports (ingest,
re-ingest and aggregate rates, report and exposure latency percentiles,
verify_s, ops_failed_share). The exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from spans import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

# set-up is repeated and its median reported: at least twice, and until this
# much set-up has been timed, so a short set-up is not one noisy sample; more
# repeats of the week's 8 s set-up would push a full set of runs past its limit
SETUP_REPEATS = 2
SETUP_MIN_S = 4.0
# a run must end within 180 s; an iteration still going at this point is killed
DEADLINE_S = 170

# (metric, unit); must match "end_to_end" in BENCHMARK.json
END_TO_END = (("flow_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))

# candidate tail percentiles, in tenths of a percent
LADDER = (500, 900, 950, 990, 999)
MIN_BEYOND = 10


def rank(n: int, q_per_mille: int) -> int:
    """Nearest-rank position (1-based) of a percentile among n samples."""
    return -(-q_per_mille * n // 1000)


def tail(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns (percentile, value), or None when there are too few samples for
    even the median to have ten beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for q in LADDER:
        r = rank(n, q)
        if n - r >= MIN_BEYOND:
            best = (q / 10, ordered[r - 1])
    return best


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("week_store", "taskfarm_store")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit; must match "per_layer" in BENCHMARK.json."""
    units = {metric: unit for metric, unit, _span, _what in PER_LAYER}
    units["store.jobs_files_parsed_per_exposure"] = "count"
    units["trace.overhead_share"] = "share"
    return units


def run_child(
    workload: str, inputs: dict, work: Path, trace: bool, run_id: str, timeout: float
) -> dict:
    """One iteration in a fresh interpreter; a crash counts as a failed call."""
    work.mkdir(parents=True)
    spec = {
        "workload": workload,
        "inputs": inputs,
        "work": str(work),
        "trace": trace,
        "run_id": run_id,
        "result_path": str(work / "result.json"),
        "spans_path": str(work / "spans.jsonl"),
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "flows.py"), str(spec_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"flow_s": None, "ops": [], "facts": {}, "error": "iteration timed out"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"flow_s": None, "ops": [], "facts": {}, "error": f"child died: {tail[0]}"}
    return json.loads(Path(spec["result_path"]).read_text(encoding="utf-8"))


def account(results: list[dict], problems: list, check_calls: int) -> tuple[int, int]:
    """(attempted, failed) public calls; a call whose output failed a check failed."""
    attempted = sum(len(r["ops"]) for r in results) + check_calls
    failed = len(problems)
    for r in results:
        raised = sum(1 for op in r["ops"] if "error" in op)
        # an error outside any timed call still failed the iteration
        failed += raised if raised or r["error"] is None else 1
    return max(attempted, 1), min(failed, max(attempted, 1))


def op_times(results: list[dict], name: str) -> list[float]:
    return [op["s"] for r in results for op in r["ops"] if op["name"] == name and "error" not in op]


def end_to_end(results: list[dict], setup_times: list[float]) -> dict:
    """Every end-to-end figure this workload supports, as name -> (value, unit, note)."""
    ok = [r for r in results if r["error"] is None]
    out = {"setup_s": (median(setup_times), "s", f"n={len(setup_times)}")}
    if not ok:
        return out
    flows = [r["flow_s"] for r in ok]
    out["flow_s"] = (median(flows), "s", f"n={len(ok)}, min {min(flows):.3f}, max {max(flows):.3f}")
    out["peak_rss_mib"] = (median([r["peak_rss_mib"] for r in ok]), "MiB", f"n={len(ok)}")

    def rate(metric, fact, count_of, op_name):
        values = [
            count_of(r["facts"][fact]) / t
            for r in ok
            if fact in r["facts"]
            for t in op_times([r], op_name)[:1]
        ]
        if values:
            out[metric] = (median(values), "1/s", f"n={len(values)}")

    rate("ingest_rows_per_s", "ingest", lambda f: f["samples"] + f["jobs"], "ingest_files")
    rate("reingest_rows_per_s", "reingest", lambda f: f["rows_read"], "reingest")
    rate("aggregate_samples_per_s", "ingest", lambda f: f["samples"], "aggregate_range")
    for metric, op_name in (("report", "report"), ("exposure", "exposure_for")):
        times = [t * 1000 for t in op_times(ok, op_name)]
        if not times:
            continue
        tail_q = tail(times)
        note = f"n={len(times)}" + (f", p{tail_q[0]:g}={tail_q[1]:.4f} ms" if tail_q else "")
        out[f"{metric}_p50_ms"] = (median(times), "ms", note)
        if tail_q is not None and tail_q[0] > 50:
            out[f"{metric}_tail_ms"] = (tail_q[1], "ms", f"p{tail_q[0]:g}, n={len(times)}")
    if "verify" in ok[0]["facts"]:
        per_iter = [
            sum(op_times([r], "compute_outputs_from_files") + op_times([r], "verify")) for r in ok
        ]
        out["verify_s"] = (median(per_iter), "s", f"n={len(per_iter)}")
    return out


def measure(args, work: Path, started: float) -> tuple[list[dict], list[float], list, int]:
    """Set up, then run iterations and check each one.

    Returns the iteration results (with --trace 1, an untraced one then a
    traced one), the set-up times, the failed checks, and the number of
    public calls the set-up and the checks made themselves.
    """
    import checks
    import scenarios

    week = args.workload.startswith("week")
    scenario = scenarios.week_scenario if week else scenarios.taskfarm_scenario
    inputs, setup_times, digests = scenarios.set_up(
        scenario(args.seed),
        work / "inputs",
        args.seed,
        args.workload == "week_store",
        SETUP_REPEATS,
        SETUP_MIN_S,
    )
    problems = []
    if any(d != digests[0] for d in digests):
        problems.append(("generate", f"one seed gave different inputs: {digests}"))

    results: list[dict] = []
    calls = len(setup_times)
    start = perf_counter()
    while True:
        traced = bool(args.trace) and len(results) == 1
        t0 = perf_counter()
        iter_dir = work / f"iter{len(results)}"
        timeout = max(1.0, DEADLINE_S - (perf_counter() - started))
        result = run_child(args.workload, inputs, iter_dir, traced, work.name, timeout)
        found, made = checks.check_iteration(args.workload, result, inputs, args.seed)
        problems += found
        calls += made
        results.append(result)
        if traced and (iter_dir / "spans.jsonl").exists():
            keep = WORK / "traces"
            keep.mkdir(parents=True, exist_ok=True)
            shutil.copy(iter_dir / "spans.jsonl", keep / f"{args.workload}-seed{args.seed}.jsonl")
        last = perf_counter() - t0
        if args.trace:
            if len(results) == 2:
                break
        elif result["error"] is not None or perf_counter() - start + last > args.seconds:
            break
    return results, setup_times, problems, calls


def main(argv=None) -> int:
    started = perf_counter()
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        results, setup_times, problems, calls = measure(args, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = account(results, problems, calls)
    untraced = results[:1] if args.trace else results
    figures = end_to_end(untraced, setup_times)
    figures["ops_failed_share"] = (failed / attempted, "share", f"{failed}/{attempted} calls")
    for name, (value, unit, note) in figures.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} ({note})")
    for op, message in problems:
        print(f"FAILED {op}: {message}")
    for r in results:
        if r["error"] is not None:
            print(f"FAILED iteration: {r['error']}")

    if args.trace:
        traced = results[-1]
        layers = dict(traced.get("layers", {}))
        # CPU time of the traced iteration over the untraced one, minus one:
        # CPU time moves less than wall time with the host's speed swings,
        # but this is still one pair of iterations
        cpus = [r.get("cpu_s") for r in results]
        layers["trace.overhead_share"] = cpus[1] / cpus[0] - 1 if None not in cpus else None
        for label, seconds in traced.get("roadmap", []):
            shown = "unmeasured" if seconds is None else f"{seconds:.3f} s"
            print(f"roadmap {label}: {shown}")
        metrics = {m: {"value": layers.get(m), "unit": u} for m, u in per_layer_units().items()}
    else:
        metrics = {
            m: {"value": figures[m][0] if m in figures else None, "unit": u} for m, u in END_TO_END
        }
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
