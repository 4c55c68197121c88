"""Metric-based analytics for Lustre filesystem load.

The package turns per-node server counter samples and scheduler job records
into per-application hourly aggregates, risk and operation-size metrics
against historical baselines, daily report bundles, and run-level views:
slowdown detection, ambient-risk exposure, and runtime-vs-risk scatter data.

Typical flow: ingest CSVs into a Store, aggregate a date range, build
baselines, then build reports or query analyses. synth/oracle generate
synthetic scenarios with independently computed expected results for
end-to-end verification.

The API is the modules themselves: lassi.pipeline for the end-to-end flows,
lassi.store, lassi.ingest, lassi.attribution, lassi.metrics, lassi.analysis,
lassi.report, lassi.synth and lassi.oracle.
"""

from .version import __version__

__all__ = ["__version__"]
