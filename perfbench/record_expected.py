#!/usr/bin/env python3
"""Record expected.json: the outputs the benchmark's checks compare with.

For every built-in job of every workload, and for the built-in each
seeded DSL variant is derived from, this runs the job once and stores its
digest, class-size/fixedness profile and verdict (see checks.facts).
Run it from the root of a checkout, only when a change is meant to alter
reports:

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from checks import facts
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.OUT, prefix="record-"))
    try:
        mods, _ = run._import_fresh()
        state = run.State(mods, run._load_script(), work)
        jobs = {job.reference.key: job.reference for w in WORKLOADS.values() for job in w.jobs}
        expected = {}
        for key, job in sorted(jobs.items()):
            o = run.run_job(state, job, work / "report.json", None)
            if o.code != 0:
                print(f"{key}: exit code {o.code}\n{o.stderr}", file=sys.stderr)
                return 1
            expected[key] = facts(job.command, run.read_report(o), o.stdout)
            print(f"{key}: {o.seconds:.2f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
