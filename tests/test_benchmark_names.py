"""The benchmark's traced run measures every layer it names.

perfbench/spans.py wraps lassi functions by module and attribute name. A
name that lassi no longer binds is skipped, and each per-layer value of its
span then reads as unmeasured (None), so renaming or moving a wrapped
function must keep some target of each span resolvable.
"""

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_span_is_installed():
    spans = load_spans()
    tracer = spans.Tracer("names")
    with tracer.installed():
        installed = set(tracer.installed_names)
    missing = sorted({name for _, _, name, _ in spans.PER_LAYER} - installed)
    assert missing == []
    values = spans.layer_metrics([], installed)
    assert [metric for metric, value in values.items() if value is None] == []
