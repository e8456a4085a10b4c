"""The benchmark's layer table names only what nsplab defines.

`perfbench/layers.py` lists the nsplab functions the benchmark wraps and
the spans each workload must or must not reach.  A name deleted or renamed
in nsplab fails here, in milliseconds, instead of in the benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_targets_resolve(layers):
    for span, modname, qual in layers.TARGETS:
        module = importlib.import_module(modname)
        if "." in qual:
            cls_name, meth = qual.split(".")
            # the tracer patches the class's own slot, not an inherited one
            assert meth in vars(getattr(module, cls_name)), (span, qual)
        else:
            assert callable(getattr(module, qual, None)), (span, qual)


def test_workload_spans_are_targets(layers):
    spans = {span for span, _, _ in layers.TARGETS} | {"fft"}
    for table in (layers.EXERCISES, layers.BYPASSES):
        for workload, names in table.items():
            assert set(names) <= spans, (workload, set(names) - spans)
