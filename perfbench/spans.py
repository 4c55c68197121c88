"""Spans around the calls into each lassi layer, installed from outside.

The tracer wraps public functions at the names their callers bind (for
example ``lassi.pipeline.attribute``, which is what ``aggregate_range``
calls, and ``lassi.ingest.parse_stats_csv``, which is what the store calls).
Spans stay in memory and are written out once, after the traced run. A
wrapped name that no longer exists is reported as unmeasured, never as zero.
"""

from __future__ import annotations

import importlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


def peak_rss_mib() -> float:
    """This process's peak RSS (VmHWM), which, unlike ru_maxrss, exec resets.

    getrusage's ru_maxrss carries over across exec, so a child would start
    with its parent's high-water mark already counted.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _report_rows(args, kwargs, result) -> dict:
    report = result[1]
    return {"rows": report.rows_read, "rejects": report.rows_rejected}


def _first_len(key: str):
    def count(args, kwargs, result) -> dict:
        return {key: len(args[0])}

    return count


def _result_len(key: str):
    def count(args, kwargs, result) -> dict:
        return {key: len(result)}

    return count


def _written(args, kwargs, result) -> dict:
    store, partition = args[0], args[2] if len(args) > 2 else kwargs["partition"]
    return {"rows": result, "bytes": os.path.getsize(store.path(partition))}


def _read_range_name(args, kwargs) -> str:
    dataset = args[1] if len(args) > 1 else kwargs["dataset"]
    if dataset in ("app_hours", "fs_hours"):
        return "store.read_range.aggregates"
    return f"store.read_range.{dataset}"


_read_range_name.names = ("store.read_range.samples", "store.read_range.aggregates")


def _bundle_bytes(args, kwargs, result) -> dict:
    return {"bytes": sum(len(text.encode("utf-8")) for text in result.values())}


def _svg_bytes(args, kwargs, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


def _compared(args, kwargs, result) -> dict:
    return {"values": result.compared}


# (module, class or None, attribute, span name or name function, counter)
TARGETS = (
    ("lassi.ingest", None, "parse_stats_csv", "ingest.parse_stats", _report_rows),
    ("lassi.pipeline", None, "parse_stats_csv", "ingest.parse_stats", _report_rows),
    ("lassi.ingest", None, "parse_jobs_csv", "ingest.parse_jobs", _report_rows),
    ("lassi.pipeline", None, "parse_jobs_csv", "ingest.parse_jobs", _report_rows),
    ("lassi.ingest", None, "serialize_stats_csv", "ingest.serialize", None),
    ("lassi.ingest", None, "serialize_jobs_csv", "ingest.serialize", None),
    ("lassi.store", "Store", "write_partition", "store.write_partition", _written),
    ("lassi.store", "Store", "read_range", _read_range_name, _result_len("rows")),
    ("lassi.store", "Store", "query_jobs_overlapping", "store.query_jobs_overlapping", None),
    ("lassi.store", "Store", "load_baseline", "store.load_baseline", None),
    ("lassi.pipeline", None, "attribute", "attribution.attribute", _first_len("samples")),
    ("lassi.pipeline", None, "aggregate_hourly", "attribution.aggregate_hourly",
     _result_len("records_out")),
    ("lassi.pipeline", None, "fs_hourly_totals", "attribution.fs_hourly_totals", None),
    ("lassi.pipeline", None, "ingest_files", "pipeline.ingest_files", None),
    ("lassi.pipeline", None, "aggregate_range", "pipeline.aggregate_range", None),
    ("lassi.pipeline", None, "build_baselines", "pipeline.build_baselines", None),
    ("lassi.pipeline", None, "exposure_for", "pipeline.exposure_for", None),
    ("lassi.pipeline", None, "find_job", "pipeline.find_job", None),
    ("lassi.pipeline", None, "compute_outputs", "pipeline.compute_outputs", None),
    ("lassi.pipeline", None, "compute_outputs_from_files",
     "pipeline.compute_outputs_from_files", None),
    ("lassi.pipeline", None, "compute_baseline", "metrics.compute_baseline", None),
    ("lassi.pipeline", None, "fs_risk_series", "metrics.fs_risk_series",
     _first_len("records_in")),
    ("lassi.report", None, "fs_risk_series", "metrics.fs_risk_series", _first_len("records_in")),
    ("lassi.pipeline", None, "run_risk_exposure", "analysis.run_risk_exposure", None),
    ("lassi.report", None, "top_contributors", "analysis.top_contributors", None),
    ("lassi.analysis", None, "group_jobs", "analysis.group_jobs", None),
    ("lassi.report", None, "build_daily_report", "report.build_daily_report", None),
    ("lassi.report", None, "write_bundle", "report.write_bundle", None),
    ("lassi.report", None, "bundle_files", "report.bundle_files", _bundle_bytes),
    ("lassi.report", None, "build_rsd_table", "report.build_rsd_table", None),
    ("lassi.report", None, "render_timeseries_chart", "charts.render", _svg_bytes),
    ("lassi.oracle", None, "verify", "oracle.verify", _compared),
)

# spans whose growth of the process's peak RSS is recorded
RSS_SPANS = (
    "pipeline.ingest_files",
    "pipeline.aggregate_range",
    "pipeline.compute_outputs",
    "pipeline.compute_outputs_from_files",
)

# (metric, unit, span, what): busy, self, calls, count:<key>, rate:<key>, rss
PER_LAYER = (
    ("ingest.parse_stats.busy_s", "s", "ingest.parse_stats", "busy"),
    ("ingest.parse_stats.rows", "count", "ingest.parse_stats", "count:rows"),
    ("ingest.parse_stats.rows_per_s", "1/s", "ingest.parse_stats", "rate:rows"),
    ("ingest.parse_stats.rejects", "count", "ingest.parse_stats", "count:rejects"),
    ("ingest.serialize.busy_s", "s", "ingest.serialize", "busy"),
    ("ingest.parse_jobs.busy_s", "s", "ingest.parse_jobs", "busy"),
    ("ingest.parse_jobs.rows", "count", "ingest.parse_jobs", "count:rows"),
    ("store.write_partition.busy_s", "s", "store.write_partition", "busy"),
    ("store.write_partition.calls", "count", "store.write_partition", "calls"),
    ("store.write_partition.rows", "count", "store.write_partition", "count:rows"),
    ("store.write_partition.bytes", "B", "store.write_partition", "count:bytes"),
    ("store.read_range.samples.busy_s", "s", "store.read_range.samples", "busy"),
    ("store.read_range.samples.rows", "count", "store.read_range.samples", "count:rows"),
    ("store.read_range.aggregates.busy_s", "s", "store.read_range.aggregates", "busy"),
    ("store.read_range.aggregates.rows", "count", "store.read_range.aggregates", "count:rows"),
    ("store.query_jobs_overlapping.busy_s", "s", "store.query_jobs_overlapping", "busy"),
    ("store.query_jobs_overlapping.calls", "count", "store.query_jobs_overlapping", "calls"),
    ("store.load_baseline.calls", "count", "store.load_baseline", "calls"),
    ("attribution.attribute.busy_s", "s", "attribution.attribute", "busy"),
    ("attribution.attribute.samples", "count", "attribution.attribute", "count:samples"),
    ("attribution.attribute.samples_per_s", "1/s", "attribution.attribute", "rate:samples"),
    ("attribution.aggregate_hourly.busy_s", "s", "attribution.aggregate_hourly", "busy"),
    ("attribution.aggregate_hourly.records_out", "count", "attribution.aggregate_hourly",
     "count:records_out"),
    ("attribution.fs_hourly_totals.busy_s", "s", "attribution.fs_hourly_totals", "busy"),
    ("pipeline.ingest_files.self_s", "s", "pipeline.ingest_files", "self"),
    ("pipeline.aggregate_range.self_s", "s", "pipeline.aggregate_range", "self"),
    ("pipeline.exposure_for.self_s", "s", "pipeline.exposure_for", "self"),
    ("pipeline.compute_outputs.self_s", "s", "pipeline.compute_outputs", "self"),
    ("pipeline.find_job.busy_s", "s", "pipeline.find_job", "busy"),
    ("metrics.fs_risk_series.busy_s", "s", "metrics.fs_risk_series", "busy"),
    ("metrics.fs_risk_series.records_in", "count", "metrics.fs_risk_series", "count:records_in"),
    ("metrics.compute_baseline.busy_s", "s", "metrics.compute_baseline", "busy"),
    ("analysis.run_risk_exposure.busy_s", "s", "analysis.run_risk_exposure", "busy"),
    ("analysis.run_risk_exposure.calls", "count", "analysis.run_risk_exposure", "calls"),
    ("analysis.top_contributors.busy_s", "s", "analysis.top_contributors", "busy"),
    ("analysis.group_jobs.busy_s", "s", "analysis.group_jobs", "busy"),
    ("report.build_daily_report.self_s", "s", "report.build_daily_report", "self"),
    ("report.bundle_files.busy_s", "s", "report.bundle_files", "busy"),
    ("report.bundle.bytes", "B", "report.bundle_files", "count:bytes"),
    ("report.build_rsd_table.busy_s", "s", "report.build_rsd_table", "busy"),
    ("charts.render.busy_s", "s", "charts.render", "busy"),
    ("charts.render.calls", "count", "charts.render", "calls"),
    ("charts.render.bytes", "B", "charts.render", "count:bytes"),
    ("oracle.verify.busy_s", "s", "oracle.verify", "busy"),
    ("oracle.values_compared", "count", "oracle.verify", "count:values"),
) + tuple((f"{name}.rss_growth_mib", "MiB", name, "rss") for name in RSS_SPANS)


class Tracer:
    """Collects spans for one run; each span names its parent span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.installed_names: set[str] = set()
        self._stack: list[int] = []

    def wrap(self, fn, name, count=None):
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            span = {
                "id": len(self.spans),
                "run": self.run_id,
                "name": span_name,
                "parent": self._stack[-1] if self._stack else None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            rss0 = peak_rss_mib() if span_name in RSS_SPANS else None
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if rss0 is not None:
                span["rss_growth_mib"] = peak_rss_mib() - rss0
            if count is not None:
                span["counts"] = count(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets=TARGETS):
        """Patch every target that exists; restore the originals on exit."""
        undo = []
        try:
            for module_name, class_name, attr, name, count in targets:
                try:
                    owner = importlib.import_module(module_name)
                    if class_name is not None:
                        owner = getattr(owner, class_name)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    continue
                setattr(owner, attr, self.wrap(original, name, count))
                undo.append((owner, attr, original))
                self.installed_names.update(name.names if callable(name) else (name,))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = {}
    for span in spans:
        kids = [
            (max(lo, span["start"]), min(hi, span["end"]))
            for lo, hi in children.get(span["id"], ())
        ]
        out[span["id"]] = span["end"] - span["start"] - _covered([k for k in kids if k[0] < k[1]])
    return out


def _ancestors(span: dict, by_id: dict[int, dict]):
    parent = span["parent"]
    while parent is not None:
        yield by_id[parent]
        parent = by_id[parent]["parent"]


def _outermost(spans: list[dict], by_id: dict[int, dict]) -> list[dict]:
    """Spans with no ancestor of the same name, so busy time is not doubled."""
    return [s for s in spans if all(a["name"] != s["name"] for a in _ancestors(s, by_id))]


def layer_metrics(spans: list[dict], installed_names: set[str]) -> dict[str, float | None]:
    """Per-layer metrics from spans; None where the target was not installed."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    out: dict[str, float | None] = {}
    for metric, _unit, name, what in PER_LAYER:
        if name not in installed_names:
            out[metric] = None
            continue
        group = by_name.get(name, [])
        if what == "calls":
            out[metric] = len(group)
        elif what == "busy":
            out[metric] = sum(s["end"] - s["start"] for s in _outermost(group, by_id))
        elif what == "self":
            out[metric] = sum(selfs[s["id"]] for s in group)
        elif what == "rss":
            out[metric] = max((s["rss_growth_mib"] for s in group), default=0.0)
        else:
            kind, key = what.split(":")
            total = sum(s.get("counts", {}).get(key, 0) for s in group)
            if kind == "count":
                out[metric] = total
            else:
                busy = sum(s["end"] - s["start"] for s in _outermost(group, by_id))
                out[metric] = total / busy if busy > 0 else 0.0

    exposures = by_name.get("pipeline.exposure_for", [])
    if {"pipeline.exposure_for", "ingest.parse_jobs"} <= installed_names:
        parsed = sum(
            1
            for s in by_name.get("ingest.parse_jobs", [])
            if any(a["name"] == "pipeline.exposure_for" for a in _ancestors(s, by_id))
        )
        out["store.jobs_files_parsed_per_exposure"] = (
            parsed / len(exposures) if exposures else 0.0
        )
    else:
        out["store.jobs_files_parsed_per_exposure"] = None
    return out


def roadmap_rows(spans: list[dict]) -> list[tuple[str, float | None]]:
    """A traced week_store pass laid out as the ROADMAP stage-timing rows.

    The ROADMAP re-ingest row timed a strict re-ingest of the whole week;
    this flow re-delivers one day in lenient mode instead.
    """
    by_id = {s["id"]: s for s in spans}
    top = [s for s in spans if s["parent"] is None]

    def dur(span):
        return None if span is None else span["end"] - span["start"]

    def under(root, name):
        if root is None:
            return None
        return sum(
            s["end"] - s["start"]
            for s in spans
            if s["name"] == name and any(a is root for a in _ancestors(s, by_id))
        )

    ingests = [s for s in top if s["name"] == "pipeline.ingest_files"] + [None, None]
    aggregate = next((s for s in top if s["name"] == "pipeline.aggregate_range"), None)
    daily = ("pipeline.build_baselines", "report.build_daily_report", "report.write_bundle")
    return [
        ("strict stats parse", under(ingests[0], "ingest.parse_stats")),
        ("ingest_files", dur(ingests[0])),
        ("re-ingest (one lenient day)", dur(ingests[1])),
        ("aggregate_range", dur(aggregate)),
        ("... store re-read of samples", under(aggregate, "store.read_range.samples")),
        ("... attribute", under(aggregate, "attribution.attribute")),
        ("... fs_hourly_totals", under(aggregate, "attribution.fs_hourly_totals")),
        ("baseline + report", sum(dur(s) for s in top if s["name"] in daily)),
    ]
