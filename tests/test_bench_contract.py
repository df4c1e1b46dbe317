"""The benchmark's tracer looks legshift functions up by name: each traced
name must resolve, so that deleting one fails here and not in a traced run."""

import importlib
import importlib.util
import pathlib

import legshift
from legshift.hyper import hyp2f1

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for layer, names in _tracing().LAYERS.items():
        module = importlib.import_module("legshift." + layer)
        for name in names:
            assert callable(getattr(module, name, None)), f"legshift.{layer}.{name}"


def test_tracer_enters_and_exits_cleanly():
    tracing = _tracing()
    with tracing.Tracer() as tracer:
        legshift.hyper.hyp2f1(0.5, 1.5, 2.5, 0.3)
    assert tracer.summary()["hyper.hyp2f1"][0] == 1
    assert legshift.hyper.hyp2f1 is hyp2f1
