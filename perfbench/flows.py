"""The measured sequences, one per workload; run as a child process.

``python3 perfbench/flows.py SPEC.json`` runs one iteration of one workload
in a fresh interpreter, so its peak RSS excludes set-up and its caches start
cold, as a nightly job's would. It writes a result JSON holding the wall time
of the whole sequence, each public call's time and outcome, the facts the
checks need, and, when traced, the spans and per-layer metrics.

Every call goes through the module attribute its caller would use (for
example ``pipeline.ingest_files``), so the tracer's wrappers see it.
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, process_time

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lassi import analysis, oracle, pipeline, report  # noqa: E402
from lassi.attribution import AttributionConfig  # noqa: E402
from lassi.store import Store  # noqa: E402
from spans import Tracer, layer_metrics, peak_rss_mib, roadmap_rows  # noqa: E402

DAY = 86400
# baselines come from the first two days, so every later day reports against them
BASELINE_DAYS = 2


class Calls:
    """Times each public call and records whether it raised."""

    def __init__(self) -> None:
        self.ops: list[dict] = []

    def __call__(self, name: str, fn, *args, **kwargs):
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.ops.append(
                {"name": name, "s": perf_counter() - t0, "error": f"{type(exc).__name__}: {exc}"}
            )
            raise
        self.ops.append({"name": name, "s": perf_counter() - t0})
        return result


def _store_flow(inputs: dict, work: Path, call: Calls, policy: str) -> tuple[Store, dict]:
    """Ingest, aggregate, baseline and report every (fs, day)."""
    start, end = inputs["start"], inputs["end"]
    store = Store(work / "store", window_len=inputs["window_len"])
    summary = call(
        "ingest_files", pipeline.ingest_files, store, [inputs["stats_path"]], [inputs["jobs_path"]]
    )
    facts = {
        "store": str(store.root),
        "ingest": {"samples": summary.samples, "jobs": summary.jobs, "rejected": summary.rejected},
    }
    config = AttributionConfig(boundary_policy=policy, window_len=inputs["window_len"])
    call("aggregate_range", pipeline.aggregate_range, store, start, end, config)
    call(
        "build_baselines",
        pipeline.build_baselines,
        store,
        start,
        start + BASELINE_DAYS * DAY,
        alpha=inputs["alpha"],
    )

    def daily_report(fs: str, day: int):
        return report.write_bundle(report.build_daily_report(store, fs, day), store.root)

    for fs in inputs["filesystems"]:
        for day in range(start, end, DAY):
            call("report", daily_report, fs, day)
    return store, facts


def week_store(inputs: dict, work: Path, call: Calls) -> dict:
    store, facts = _store_flow(inputs, work, call, "midpoint")
    call("build_rsd_table", report.build_rsd_table, store, inputs["start"], inputs["end"])
    facts["exposures"] = [
        len(call("exposure_for", pipeline.exposure_for, store, app)) for app in inputs["jobs"]
    ]
    summary = call(
        "reingest",
        pipeline.ingest_files,
        store,
        [inputs["redelivery_path"]],
        [],
        mode="lenient",
    )
    facts["reingest"] = {
        "samples": summary.samples,
        "rejected": summary.rejected,
        "rows_read": summary.samples + summary.rejected,
    }
    return facts


def taskfarm_store(inputs: dict, work: Path, call: Calls) -> dict:
    store, facts = _store_flow(inputs, work, call, "proportional")
    start, end = inputs["start"], inputs["end"]

    # `lassi slowdown` over every stored job
    jobs = call("query_jobs_overlapping", store.query_jobs_overlapping, start, end)
    groups = call("group_jobs", analysis.group_jobs, jobs)
    flagged = [len(call("detect_slowdown", analysis.detect_slowdown, g).flagged) for g in groups]
    facts["slowdown"] = {"jobs": len(jobs), "groups": len(groups), "flagged": sum(flagged)}

    # `lassi scatter --key K` for each command group
    points = {}
    multi_fs = 0
    for key in [g.group_key for g in groups]:
        stored = call("query_jobs_overlapping", store.query_jobs_overlapping, start, end)
        regrouped = call("group_jobs", analysis.group_jobs, stored)
        group = next(g for g in regrouped if g.group_key == key)
        exposures = {}
        for app_id, _runtime in group.runs:
            records = call("exposure_for", pipeline.exposure_for, store, app_id)
            multi_fs += len(records) != 1
            exposures[app_id] = records[0]
        scatter = call("runtime_vs_risk", analysis.runtime_vs_risk, group, exposures)
        points[key] = [len(group.runs), len(scatter)]
    facts["scatter"] = {"points": points, "multi_fs": multi_fs}

    facts["verify"] = verify_path(inputs, call)
    return facts


def verify_path(inputs: dict, call: Calls) -> dict:
    """`lassi verify`: the in-memory pipeline from the source files, bypassing
    the store, judged by the oracle (which uses the midpoint policy)."""
    outputs = call(
        "compute_outputs_from_files",
        pipeline.compute_outputs_from_files,
        inputs["stats_path"],
        inputs["jobs_path"],
        period=(inputs["start"], inputs["end"]),
        alpha=inputs["alpha"],
        window_len=inputs["window_len"],
        boundary_policy="midpoint",
    )
    verdict = call("verify", oracle.verify, outputs, inputs["oracle_dir"])
    return {"ok": verdict.ok, "compared": verdict.compared, "diffs": list(verdict.diffs[:5])}


FLOWS = {"week_store": week_store, "taskfarm_store": taskfarm_store}


def run_iteration(workload: str, inputs: dict, work: Path, tracer=None) -> dict:
    """One timed pass of a workload's sequence; a call that raises ends it."""
    call = Calls()
    flow = FLOWS[workload]
    error = None
    facts: dict = {}
    t0, cpu0 = perf_counter(), process_time()
    try:
        with tracer.installed() if tracer else nullcontext():
            facts = flow(inputs, work, call)
    except Exception as exc:  # recorded and counted as a failed call by the parent
        error = f"{type(exc).__name__}: {exc}"
    flow_s, cpu_s = perf_counter() - t0, process_time() - cpu0
    return {"flow_s": flow_s, "cpu_s": cpu_s, "ops": call.ops, "facts": facts, "error": error}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    tracer = Tracer(spec["run_id"]) if spec["trace"] else None
    work = Path(spec["work"])
    work.mkdir(parents=True, exist_ok=True)
    result = run_iteration(spec["workload"], spec["inputs"], work, tracer)
    result["peak_rss_mib"] = peak_rss_mib()
    if tracer is not None:
        tracer.write(Path(spec["spans_path"]))
        result["layers"] = layer_metrics(tracer.spans, tracer.installed_names)
        if spec["workload"] == "week_store":
            result["roadmap"] = roadmap_rows(tracer.spans)
    Path(spec["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
