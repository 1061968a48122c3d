"""The benchmark tracer must still find every name it wraps.

`perfbench/tracer.py` replaces functions at the module namespaces that
import them, so renaming or inlining one of them breaks traced benchmark
runs.  This test instruments fresh modules, runs one traced job and
restores the originals.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("cli", "easiness", "asai", "lang", "cache", "points", "grouplaw", "fields")


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fresh_modules(monkeypatch):
    """Freshly imported asaitwist modules, the growth script and the tracer."""
    for name in [n for n in sys.modules if n == "asaitwist" or n.startswith("asaitwist.")]:
        monkeypatch.delitem(sys.modules, name)  # put back after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    mods = {k: importlib.import_module(f"asaitwist.{k}") for k in MODULES}
    script = _load("centralizer_growth", ROOT / "scripts" / "centralizer_growth.py")
    tracing = _load("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    return mods, script, tracing


def test_tracer_instruments_and_restores_fresh_modules(monkeypatch, tmp_path):
    mods, script, tracing = _fresh_modules(monkeypatch)
    cli = mods["cli"]
    originals = {attr: cli.__dict__[attr] for attr in ("_emit", "norm_map", "enumerate_group")}

    tracer = tracing.Tracer()
    tracing.instrument(tracer, mods, script)
    try:
        out = tmp_path / "r.json"
        args = ["asai", "--group", "n2", "--q", "3", "--out", str(out)]
        tracer.run_job(0, lambda: cli.main(args=args, standalone_mode=False))
    finally:
        tracer.restore()

    metrics = tracer.metrics()
    assert metrics["cli.report_bytes"] == out.stat().st_size
    assert tracer.calls["asai.norm_map"] == 1
    assert tracer.calls["points.enumerate"] == 1
    assert all(cli.__dict__[attr] is fn for attr, fn in originals.items())


def test_tracer_sees_each_easiness_level(monkeypatch, tmp_path):
    mods, script, tracing = _fresh_modules(monkeypatch)
    cli = mods["cli"]
    tracer = tracing.Tracer()
    tracing.instrument(tracer, mods, script)
    try:
        out = tmp_path / "r.json"
        args = ["easy-check", "--group", "n2", "--q", "3", "--max-m", "2", "--out", str(out)]
        tracer.run_job(0, lambda: cli.main(args=args, standalone_mode=False))
    finally:
        tracer.restore()

    levels = json.loads(out.read_text())["levels"]
    assert len(levels) == 2
    assert tracer.calls["easiness.crosscheck"] == 1
    assert tracer.calls["asai.norm_map"] == len(levels)
    assert tracer.calls["asai.witness"] == sum(len(lv["classes"]) for lv in levels)
