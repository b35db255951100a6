"""The benchmark's tracer wraps navfuse entry points by name
(``bench/tracing.py``).  Renaming one breaks the traced benchmark run, so
this fast check installs every wrapper and requires each original back
afterwards.  The benchmark worker times its set-up imports (``setup_s``),
so a second check keeps scipy out of them."""

import importlib.util
import os
import subprocess
import sys
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


def test_worker_setup_imports_load_no_scipy():
    """``import scipy.linalg`` alone takes longer than the whole set-up."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, navfuse, navfuse.config, navfuse.events, "
            "navfuse.pipeline\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], text=True,
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, check=True).stdout
    assert out.strip() == "[]"
