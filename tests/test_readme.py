"""README's examples run as written: the `Library use` block states what
it computes, and every line of the `CLI` and `Experiment scripts` blocks
exits 0 and writes the files it names."""

import json
import re
import runpy
import shlex
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from asaitwist import is_asai_trivial, moved_classes
from asaitwist.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _block_lines(heading):
    """The lines of the first fenced block after a README heading."""
    section = README.read_text(encoding="utf-8").split(heading, 1)[1]
    return re.search(r"```\n(.*?)```", section, re.S).group(1).splitlines()


def _named_outputs(args):
    return [Path(args[i + 1]) for i, a in enumerate(args) if a in ("--out", "--cache")]


def test_readme_library_use_block():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "# False: six of nine classes move" in code
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    result, table = namespace["result"], namespace["table"]
    assert is_asai_trivial(result) is False
    assert len(table) == 9 and len(moved_classes(result)) == 6
    # the comment's closed form: (a, b) -> (a, b - a^2) over F_3
    for ci in range(len(table)):
        a, b = (c.coeffs[0] for c in table.rep_point(ci).coords)
        image = tuple(c.coeffs[0] for c in result.images[ci].coords)
        assert image == (a, (b - a * a) % 3)


def test_readme_cli_block(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    job = {"command": "asai", "group": "n2", "q": 3, "m": 1, "out": "r.json"}
    Path("batch.json").write_text(json.dumps({"jobs": [job]}))
    lines = _block_lines("## CLI")
    assert len(lines) == 5
    for line in lines:
        prog, *args = shlex.split(line)
        assert prog == "asaitwist"
        res = CliRunner().invoke(main, args, catch_exceptions=False)
        assert res.exit_code == 0, line
        for path in _named_outputs(args):
            assert path.is_file() or any(path.iterdir()), line
    assert Path("r.json").is_file()


def test_readme_experiment_scripts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the scripts prepend src
    lines = _block_lines("## Experiment scripts")
    assert len(lines) == 2
    for line in lines:
        prog, script, *args = shlex.split(line)
        assert prog == "python"
        monkeypatch.setattr(sys, "argv", [script, *args])
        with pytest.raises(SystemExit) as done:
            runpy.run_path(str(ROOT / script), run_name="__main__")
        assert done.value.code == 0, line
        for path in _named_outputs(args):
            assert path.is_file(), line
