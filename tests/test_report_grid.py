"""Report bytes pinned over a grid of built-in jobs.

tests/report_grid.json holds, for each `asai` and `easy-check` job of
scripts/pin_report_grid.py, its exit code and the sha256 of its report,
or of its stdout and stderr when it fails.  A change meant to alter
reports bumps SCHEMA_VERSION and re-records the file with that script.
"""

import importlib.util
import json
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
    recorded = json.loads(pin.GRID_PATH.read_text(encoding="utf-8"))
    assert [e["args"] for e in recorded] == pin.grid_jobs()
    changed = []
    for entry in recorded:
        got = pin.run_job(entry["args"], tmp_path, keys=False)
        if any(got[k] != entry[k] for k in got):
            changed.append(" ".join(entry["args"]))
    assert not changed, f"{len(changed)} jobs changed, first: {changed[:5]}"
