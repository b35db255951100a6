"""The benchmark's tracer wraps navfuse entry points by name
(``bench/tracing.py``).  Renaming one breaks the traced benchmark run, so
this fast check installs every wrapper and requires each original back
afterwards."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_entry_point():
    tracer = load_tracing().Tracer()
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in tracer._patches()]
    with tracer.installed():
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original, attr
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr
