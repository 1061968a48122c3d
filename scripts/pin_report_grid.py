#!/usr/bin/env python3
"""Record the pinned report grid that tests/test_report_grid.py checks.

The grid has two halves, run in-process through the CLI with
--max-order 60000.  The built-in half is every `asai` and `easy-check`
job over the built-in laws ul(2..4), n2 and ga_power(1..3), at q in
{2, 3, 4, 5, 7, 8, 9} and m / max-m 1..3: 294 jobs.  The DSL half runs
each DSL law the file keeps under "laws" as the same two commands at
q in {p, p^2} and m / max-m 1..2: 8 jobs a law.  The laws are stored as
text, so the grid does not depend on the generator that first drew them;
to add one, add its text under "laws" and re-record.

For each job the file keeps its arguments and exit code.  For exit 0 it
keeps the sha256 of the report and a short digest of each top-level
report key; otherwise the sha256 of stdout and of stderr without the
`elapsed` line.  A DSL job's --dsl argument is its law's name; the law's
text is written to a file of that name when the job runs.

Re-recording prints each job whose entry changed and, for reports, the
top-level keys that changed.  A change meant to alter reports bumps
SCHEMA_VERSION, re-records the grid and quotes this output.

Usage:
    python scripts/pin_report_grid.py    # re-record tests/report_grid.json
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from click.testing import CliRunner  # noqa: E402

from asaitwist.cli import main as cli_main  # noqa: E402
from asaitwist.grouplaw import parse_group_dsl  # noqa: E402

GRID_PATH = ROOT / "tests" / "report_grid.json"
GROUPS = ["ul(2)", "ul(3)", "ul(4)", "n2", "ga_power(1)", "ga_power(2)", "ga_power(3)"]
QS = [2, 3, 4, 5, 7, 8, 9]
MS = [1, 2, 3]
DSL_MS = [1, 2]
MAX_ORDER = 60000
COMMANDS = (("asai", "--m"), ("easy-check", "--max-m"))


def load_grid() -> dict:
    """{"laws": {name: DSL text}, "jobs": [entry, ...]} as recorded."""
    return json.loads(GRID_PATH.read_text(encoding="utf-8"))


def grid_jobs(laws: dict[str, str]) -> list[list[str]]:
    """The CLI arguments of every job, in recording order."""
    def job(command, level, law, q, m):
        return [command, *law, "--q", str(q), level, str(m), "--max-order", str(MAX_ORDER)]

    jobs = [
        job(command, level, ["--group", group], q, m)
        for command, level in COMMANDS for group in GROUPS for q in QS for m in MS
    ]
    for command, level in COMMANDS:
        for name in sorted(laws):
            p = parse_group_dsl(laws[name]).p
            jobs.extend(
                job(command, level, ["--dsl", name], q, m) for q in (p, p * p) for m in DSL_MS
            )
    return jobs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_job(args: list[str], laws: dict[str, str], workdir: Path, keys: bool = True) -> dict:
    """The grid entry of one job: its exit code and the digests of what it
    wrote, with the per-key digests of a report only if keys is set."""
    out = workdir / "report.json"
    out.unlink(missing_ok=True)
    cli_args = list(args)
    if "--dsl" in args:
        i = args.index("--dsl") + 1
        cli_args[i] = str(workdir / args[i])
        Path(cli_args[i]).write_text(laws[args[i]], encoding="utf-8")
    res = CliRunner().invoke(cli_main, cli_args + ["--out", str(out)])
    entry = {"args": args, "exit": res.exit_code}
    if res.exit_code == 0:
        report = out.read_bytes()
        entry["report"] = _sha(report)
        if keys:
            entry["keys"] = {
                k: _sha(json.dumps(v, sort_keys=True).encode("utf-8"))[:16]
                for k, v in json.loads(report).items()
            }
    else:
        stderr = [ln for ln in res.stderr.splitlines() if not ln.startswith("elapsed ")]
        entry["stdout"] = _sha(res.stdout.encode("utf-8"))
        entry["stderr"] = _sha("\n".join(stderr).encode("utf-8"))
    return entry


def run_grid(laws: dict[str, str], keys: bool = True) -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        return [run_job(args, laws, Path(tmp), keys) for args in grid_jobs(laws)]


def changes(old: list[dict], new: list[dict]) -> list[str]:
    """One line per job whose entry differs, naming the changed report keys."""
    before = {tuple(e["args"]): e for e in old}
    lines = []
    for entry in new:
        prev = before.pop(tuple(entry["args"]), None)
        if prev == entry:
            continue
        name = " ".join(entry["args"])
        if prev is None:
            lines.append(f"{name}: new job")
        elif prev["exit"] != entry["exit"]:
            lines.append(f"{name}: exit {prev['exit']} -> {entry['exit']}")
        elif "keys" in entry:
            a, b = prev["keys"], entry["keys"]
            keys = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            lines.append(f"{name}: report keys {', '.join(keys) or 'none (layout only)'}")
        else:
            streams = [s for s in ("stdout", "stderr") if prev[s] != entry[s]]
            lines.append(f"{name}: {' and '.join(streams)}")
    lines.extend(f"{' '.join(args)}: job dropped" for args in before)
    return lines


def main() -> int:
    old = load_grid() if GRID_PATH.exists() else {"laws": {}, "jobs": []}
    laws = old["laws"]
    new = run_grid(laws)
    diff = changes(old["jobs"], new)
    for line in diff:
        print(line)
    print(f"{len(new)} jobs, {len(diff)} changed", file=sys.stderr)
    # one law and one job per line keeps a re-recording's git diff to the
    # jobs that changed
    law_lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(laws[k])}" for k in sorted(laws))
    job_lines = ",\n".join(json.dumps(e, sort_keys=True) for e in new)
    text = f'{{\n"laws": {{\n{law_lines}\n}},\n"jobs": [\n{job_lines}\n]\n}}\n'
    GRID_PATH.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
