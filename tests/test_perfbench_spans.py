"""The benchmark's trace wrappers name library attributes by string.

``perfbench/spans.py`` wraps each entry of its ``LAYERS`` table, reading
methods through ``cls.__dict__[attr]``, so a renamed or moved function
would make every traced benchmark run fail.  These tests load that file
by path and check each entry against the imported ``orefree``.
"""

import importlib
import importlib.util
import pathlib

import orefree

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("orefree_bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_layer_resolves():
    for module, names in _load_spans().LAYERS.items():
        mod = importlib.import_module("orefree." + module)
        for qual in names:
            if "." in qual:
                cls_name, attr = qual.split(".")
                assert attr in vars(getattr(mod, cls_name)), qual
            else:
                assert callable(getattr(mod, qual, None)), qual


def test_tracer_installs_and_restores():
    spans = _load_spans()
    for module in spans.LAYERS:
        importlib.import_module("orefree." + module)
    before = dict(vars(orefree.field.MPoly))
    tracer = spans.Tracer()
    try:
        tracer.install(orefree)
        assert tracer.patched
        t = orefree.field.FunctionField(0, ["t"]).poly_var("t")
        assert (t * t).divide_exact(t) == t
    finally:
        tracer.uninstall()
    assert dict(vars(orefree.field.MPoly)) == before
    assert tracer.stats["field.MPoly.mul"][0] >= 1
