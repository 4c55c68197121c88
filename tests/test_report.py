"""Report bundles, charts, and RSD tables: content, formats, determinism."""

import json
import math
import xml.etree.ElementTree as ET
from xml.sax import saxutils

import pytest

from lassi.charts import ChartSeries, ChartSpec, escape, render_timeseries_chart
from lassi.metrics import FsBaseline
from lassi.model import ALL_FIELDS, AppHourRecord, FsHourRecord
from lassi.report import (
    RSD_MDS_STATS,
    build_daily_report,
    build_rsd_table,
    bundle_csvs,
    bundle_files,
    bundle_to_json,
    fmt_num,
    rsd_table_csvs,
    rsd_table_json,
    write_bundle,
    write_rsd_table,
)
from lassi.store import Partition, Store
from lassi.timeutil import DAY, HOUR, parse_utc

from helpers import REPORT_DAY, fsync_spy, mk_counters, mk_job

H = [REPORT_DAY + i * HOUR for i in range(24)]


@pytest.mark.parametrize(
    "value,expected",
    [
        (None, ""),
        (math.inf, "inf"),
        (2.0, "2"),
        (-1.0, "-1"),
        (0.5, "0.5"),
        (1 / 3, "0.3333333333333333"),
        (7, "7"),
        (0.0, "0"),
    ],
)
def test_fmt_num_pinned(value, expected):
    assert fmt_num(value) == expected


def app_hour(app, hour, **counters):
    return AppHourRecord(app_id=app, fs_id="fs2", hour=hour, counters=mk_counters(**counters))


def fs_hour(hour, **counters):
    return FsHourRecord(
        fs_id="fs2", hour=hour, counters=mk_counters(**counters), unattributed=mk_counters()
    )


@pytest.fixture
def report_store(tmp_path):
    """Store with one report day: two risky apps at 05:00, odd ops at 06:00."""
    store = Store(tmp_path / "data")
    means = {name: 1.0 for name in ALL_FIELDS}
    means["read_kb"] = 10.0  # alpha 2 -> threshold 20
    baseline = FsBaseline(
        fs_id="fs2", period=(REPORT_DAY - 7 * DAY, REPORT_DAY), alpha=2.0, means=means
    )
    store.write_baseline(baseline, REPORT_DAY)
    store.write_partition(
        [
            app_hour("app1", H[5], read_kb=40),  # risk (40-20)/20 = 1.0
            app_hour("app2", H[5], read_kb=60),  # risk 2.0
            app_hour("app1", H[6], read_kb=20),  # risk 0.0
        ],
        Partition("app_hours", "fs2", REPORT_DAY),
    )
    store.write_partition(
        [
            fs_hour(H[5], read_kb=100, read_ops=25),
            fs_hour(H[6], write_ops=5),
        ],
        Partition("fs_hours", "fs2", REPORT_DAY),
    )
    return store


def test_daily_report_grid_and_risk(report_store):
    bundle = build_daily_report(report_store, "fs2", REPORT_DAY)
    assert bundle.hours == tuple(H)
    assert len(bundle.oss.fs_risk) == 24
    assert bundle.oss.fs_risk[5] == 3.0
    assert sum(bundle.oss.fs_risk) == 3.0
    assert bundle.mds.fs_risk == (0.0,) * 24
    assert bundle.alpha == 2.0
    # top contributors ranked by summed risk, shares against the fs total
    assert [(c.app_id, c.total) for c in bundle.oss.top] == [("app2", 2.0), ("app1", 1.0)]
    assert bundle.oss.top[0].share == 2 / 3
    assert bundle.oss.contributions["app2"][5] == 2.0
    assert bundle.oss.other == (0.0,) * 24
    assert bundle.mds.top == ()


def test_daily_report_ops_column(report_store):
    bundle = build_daily_report(report_store, "fs2", REPORT_DAY)
    assert bundle.read_kb_ops[5] == 256.0  # 25 * 1024 / 100
    assert bundle.read_kb_ops[6] is None  # no reads at all
    assert bundle.write_kb_ops[6] == math.inf  # ops with zero volume
    assert bundle.read_kb_ops[0] is None  # hour with no record


def test_daily_report_validation(report_store):
    with pytest.raises(ValueError):
        build_daily_report(report_store, "fs2", REPORT_DAY + 60)
    with pytest.raises(ValueError):
        build_daily_report(report_store, "fs2", REPORT_DAY, k=0)
    with pytest.raises(FileNotFoundError) as err:
        build_daily_report(report_store, "fs2", REPORT_DAY + DAY)
    assert "lassi aggregate" in str(err.value)


def test_bundle_json_shape(report_store):
    bundle = build_daily_report(report_store, "fs2", REPORT_DAY)
    obj = json.loads(bundle_to_json(bundle))
    assert obj["fs"] == "fs2"
    assert obj["date"] == "2017-10-10"
    assert "generated_at" not in obj["metadata"]
    assert obj["risk_stats"]["risk_oss"][5] == 3.0
    assert obj["ops_metric"]["read_kb_ops"][6] is None
    assert obj["ops_metric"]["write_kb_ops"][6] == "inf"
    assert obj["oss_risk"]["top"][0] == {
        "app_id": "app2", "risk_sum": 2.0, "share": 2 / 3,
    }

    stamped = build_daily_report(
        report_store, "fs2", REPORT_DAY, generated_at=REPORT_DAY + DAY
    )
    meta = json.loads(bundle_to_json(stamped))["metadata"]
    assert meta["generated_at"] == "2017-10-11T00:00:00Z"


def test_bundle_csv_layout(report_store):
    bundle = build_daily_report(report_store, "fs2", REPORT_DAY)
    csvs = bundle_csvs(bundle)
    risk_lines = csvs["risk_stats.csv"].splitlines()
    assert risk_lines[0] == "hour,risk_oss,risk_mds"
    assert risk_lines[1 + 5] == "2017-10-10T05:00:00Z,3,0"
    assert len(risk_lines) == 25

    oss_lines = csvs["oss_risk.csv"].splitlines()
    assert oss_lines[0] == "hour,fs_risk,app2,app1,other"
    assert oss_lines[1 + 5] == "2017-10-10T05:00:00Z,3,2,1,0"

    ops_lines = csvs["ops_metric.csv"].splitlines()
    assert ops_lines[1 + 6] == "2017-10-10T06:00:00Z,,inf"


def test_bundle_stack_covers_fs_risk(report_store):
    bundle = build_daily_report(report_store, "fs2", REPORT_DAY, k=1)
    # k=1 keeps only app2; app1's hour-5 risk moves into "other"
    assert [c.app_id for c in bundle.oss.top] == ["app2"]
    assert bundle.oss.other[5] == 1.0
    stacked = [
        sum(vals) + other
        for vals, other in zip(zip(*bundle.oss.contributions.values()), bundle.oss.other)
    ]
    assert stacked[5] == bundle.oss.fs_risk[5]


def test_write_bundle_files_and_determinism(report_store, tmp_path):
    bundle = build_daily_report(report_store, "fs2", REPORT_DAY)
    out = write_bundle(bundle, tmp_path / "out")
    assert out == tmp_path / "out" / "reports" / "fs2" / "2017-10-10"
    assert sorted(p.name for p in out.iterdir()) == [
        "mds_risk.csv", "mds_risk.svg", "ops_metric.csv", "ops_metric.svg",
        "oss_risk.csv", "oss_risk.svg", "report.json",
        "risk_stats.csv", "risk_stats.svg",
    ]
    first = {p.name: p.read_bytes() for p in out.iterdir()}

    again = build_daily_report(report_store, "fs2", REPORT_DAY)
    write_bundle(again, tmp_path / "out")
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_a_bundle_fsyncs_each_file_and_its_directory_once(report_store, tmp_path, monkeypatch):
    bundle = build_daily_report(report_store, "fs2", REPORT_DAY)
    synced = fsync_spy(monkeypatch)
    write_bundle(bundle, tmp_path / "out")
    assert synced == ["file"] * 9 + ["dir"]


def chart_spec(values_a, values_b=None, labels=None):
    n = len(values_a)
    series = [ChartSeries("alpha", tuple(values_a))]
    if values_b is not None:
        series.append(ChartSeries("beta", tuple(values_b)))
    return ChartSpec(
        title="t", x_labels=tuple(labels or [f"{i:02d}" for i in range(n)]),
        series=tuple(series), y_label="y",
    )


@pytest.mark.parametrize("style", ["dual_axis", "stacked", "lines"])
def test_charts_are_valid_xml_and_deterministic(style):
    spec = chart_spec([0.0, 1.5, 3.0], [0.5, 0.0, 2.0])
    doc = render_timeseries_chart(spec, style)
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    assert doc == render_timeseries_chart(spec, style)


@pytest.mark.parametrize(
    "text", ["", "plain", "& < > \" '", "a&amp;b<c>d", "&lt;&&>>", "<<&>>\"'\"'"]
)
def test_chart_escape_matches_saxutils(text):
    assert escape(text) == saxutils.escape(text)


def test_chart_metadata_carries_source_values():
    spec = chart_spec([1.0, None, math.inf], [0.0, 2.0, 4.0])
    doc = render_timeseries_chart(spec, "lines")
    root = ET.fromstring(doc)
    (meta,) = [el for el in root.iter() if el.tag.endswith("metadata")]
    payload = json.loads(meta.text)
    assert payload["series"]["alpha"] == [1.0, None, "inf"]
    assert payload["series"]["beta"] == [0.0, 2.0, 4.0]
    assert payload["x"] == ["00", "01", "02"]


def test_chart_none_breaks_line_and_inf_marks_top():
    solid = render_timeseries_chart(chart_spec([1.0, 2.0, 3.0, 4.0]), "lines")
    broken = render_timeseries_chart(chart_spec([1.0, 2.0, None, 4.0]), "lines")
    # the gap splits one polyline into a line segment plus an isolated point
    assert solid.count("<path") != broken.count("<path") or "<circle" in broken

    with_inf = render_timeseries_chart(chart_spec([1.0, math.inf, 2.0]), "lines")
    assert "<circle" in with_inf


def test_chart_validation():
    spec = chart_spec([1.0, 2.0])
    with pytest.raises(ValueError):
        render_timeseries_chart(spec, "pie")
    bad = ChartSpec(
        title="t", x_labels=("a", "b"),
        series=(ChartSeries("s", (1.0,)),),
    )
    with pytest.raises(ValueError):
        render_timeseries_chart(bad, "lines")
    empty = ChartSpec(title="t", x_labels=(), series=())
    with pytest.raises(ValueError):
        render_timeseries_chart(empty, "lines")


@pytest.fixture
def rsd_store(tmp_path):
    """Two hours of fs totals, one two-node job, for exact dispersion math."""
    store = Store(tmp_path / "data")
    store.write_partition(
        [
            fs_hour(H[0], read_kb=2048, open=4),
            fs_hour(H[1], open=4),
        ],
        Partition("fs_hours", "fs2", REPORT_DAY),
    )
    store.write_partition(
        [app_hour("app1", H[0], read_kb=2048)],
        Partition("app_hours", "fs2", REPORT_DAY),
    )
    job = mk_job("app1", ["nid1", "nid2"], H[0], H[1])
    stranger = mk_job("app9", ["nid9"], H[0], H[2])
    store.write_partition([job, stranger], Partition("jobs", None, REPORT_DAY))
    return store


def test_rsd_table_exact_values(rsd_store):
    table = build_rsd_table(rsd_store, REPORT_DAY, REPORT_DAY + 2 * HOUR)
    (row,) = table.rows
    assert row.fs_id == "fs2"
    # two nodes for one of the two hours; app9 never touched fs2
    assert row.app_hours == 2.0
    assert row.cells["read_mb"].mean == 1.0  # 2048 KiB over 2 h / 1024
    assert row.cells["read_mb"].cv == 1.0  # values [2048, 0]
    assert row.cells["open"].mean == 4.0
    assert row.cells["open"].cv == 0.0
    assert row.cells["write_ops"].cv is None  # all-zero column
    for stat in ("getxattr", "setxattr", "sdr", "cdr"):
        assert stat not in row.cells
        assert stat not in RSD_MDS_STATS


def test_rsd_table_zero_fills_missing_hours(rsd_store):
    table = build_rsd_table(rsd_store, REPORT_DAY, REPORT_DAY + 4 * HOUR)
    (row,) = table.rows
    assert row.cells["read_mb"].mean == 0.5  # same total, 4 hour denominator
    assert row.cells["open"].mean == 2.0


def test_rsd_table_validation(rsd_store):
    with pytest.raises(ValueError):
        build_rsd_table(rsd_store, REPORT_DAY, REPORT_DAY)
    with pytest.raises(ValueError):
        build_rsd_table(rsd_store, REPORT_DAY, REPORT_DAY + 90)


def test_rsd_table_refuses_a_day_never_aggregated(rsd_store):
    with pytest.raises(FileNotFoundError) as err:
        build_rsd_table(rsd_store, REPORT_DAY, REPORT_DAY + DAY + HOUR)
    assert str(err.value) == (
        "no aggregates for fs2 on 2017-10-11; run `lassi aggregate` first"
    )


def test_rsd_table_files(rsd_store, tmp_path):
    table = build_rsd_table(rsd_store, REPORT_DAY, REPORT_DAY + 2 * HOUR)
    csvs = rsd_table_csvs(table)
    oss_lines = csvs["rsd_oss.csv"].splitlines()
    assert oss_lines[0].startswith("fs,app_hours,read_mb_mean,read_mb_cv,")
    assert oss_lines[1].split(",")[:4] == ["fs2", "2", "1", "1"]
    mds_header = csvs["rsd_mds.csv"].splitlines()[0]
    assert "getxattr" not in mds_header

    obj = json.loads(rsd_table_json(table))
    assert obj["rows"][0]["stats"]["open"] == {"mean": 4.0, "cv": 0.0}

    out = write_rsd_table(table, tmp_path / "out")
    assert out == tmp_path / "out" / "reports" / "rsd" / "2017-10-10_2017-10-10"
    assert sorted(p.name for p in out.iterdir()) == [
        "rsd.json", "rsd_mds.csv", "rsd_oss.csv",
    ]


def test_an_rsd_table_fsyncs_each_file_and_its_directory_once(rsd_store, tmp_path, monkeypatch):
    table = build_rsd_table(rsd_store, REPORT_DAY, REPORT_DAY + 2 * HOUR)
    synced = fsync_spy(monkeypatch)
    write_rsd_table(table, tmp_path / "out")
    assert synced == ["file"] * 3 + ["dir"]
