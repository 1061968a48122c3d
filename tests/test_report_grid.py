"""Report bytes pinned over a grid of built-in and DSL jobs.

tests/report_grid.json holds the DSL laws of the grid as text and, for
each `asai` and `easy-check` job of scripts/pin_report_grid.py, its exit
code and the sha256 of its report, or of its stdout and stderr when it
fails.  A change meant to alter reports bumps SCHEMA_VERSION and
re-records the file with that script.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _pin_script():
    path = ROOT / "scripts" / "pin_report_grid.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_grid_is_pinned(tmp_path):
    pin = _pin_script()
    recorded = pin.load_grid()
    laws = recorded["laws"]
    assert [e["args"] for e in recorded["jobs"]] == pin.grid_jobs(laws)
    changed = []
    for entry in recorded["jobs"]:
        got = pin.run_job(entry["args"], laws, tmp_path, keys=False)
        if any(got[k] != entry[k] for k in got):
            changed.append(" ".join(entry["args"]))
    assert not changed, f"{len(changed)} jobs changed, first: {changed[:5]}"
