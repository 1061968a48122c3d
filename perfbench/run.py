#!/usr/bin/env python3
"""The asaitwist benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it repeats rounds until S seconds have passed (at least
three): each round runs set-up (importing asaitwist afresh, writing the
seed's DSL laws, filling the warm cache) for at least a quarter second,
then one pass over the workload's job list.  It reports medians of the
end-to-end metrics.  With --trace 1 it alternates untraced and traced
passes and reports the per-layer metrics of the traced passes and the
tracing overhead, and writes the spans of the first traced pass as JSONL
under perfbench/out/.  Every job's output is checked after each pass,
outside the timed region.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Jobs call the click commands in-process, one process and one thread;
the program sees only the generated DSL text, never the seed.
"""

from __future__ import annotations

import os

# pin native thread pools before numpy is imported: the benchmark is one
# thread, so pool wake-ups and their contention stay out of the timings
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GROWTH_SCRIPT = ROOT / "scripts" / "centralizer_growth.py"
OUT = HERE / "out"

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Job, Workload  # noqa: E402

# set-up runs before every pass, repeated until it has taken this long,
# so that its samples spread over the whole run like the passes' do
SETUP_SLOT_SECONDS = 0.25
MIN_PASSES = 3
MODULES = ("cli", "easiness", "asai", "lang", "cache", "points", "grouplaw", "fields")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "classes_per_s": "1/s",
    "largest_job_s": "s",
    "peak_rss_mb": "MB",
}
# per-layer metrics computed from the traced run rather than one tracer
DERIVED_LAYER_METRICS = {
    "cache.hit_frac": "ratio",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.max_self_gap_s": "s",
}


def smallest_prime_factor(q: int) -> int:
    return next(d for d in range(2, q + 1) if q % d == 0)


@dataclass
class State:
    """What set-up leaves for the passes: modules, law files, cache."""

    mods: dict
    script: object
    work: Path
    law_files: dict = field(default_factory=dict)  # (group, p) -> DSL file

    @property
    def warm_cache(self) -> Path:
        return self.work / "warm-cache"


def _import_fresh():
    """Import asaitwist (and the generator that builds on it) from scratch."""
    for name in list(sys.modules):
        if name == "asaitwist" or name.startswith("asaitwist.") or name == "lawgen":
            del sys.modules[name]
    pkg = importlib.import_module("asaitwist")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"asaitwist was imported from {pkg.__file__}, not {SRC}")
    mods = {k: importlib.import_module(f"asaitwist.{k}") for k in MODULES}
    return mods, importlib.import_module("lawgen")


def _load_script():
    spec = importlib.util.spec_from_file_location("centralizer_growth", GROWTH_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def set_up(workload: Workload, seed: int, work: Path) -> State:
    """Import, write the seed's DSL laws and fill the warm cache."""
    mods, lawgen = _import_fresh()
    needs_script = any(j.command == "growth" for j in workload.jobs)
    state = State(mods, _load_script() if needs_script else None, work)
    for job in workload.jobs:
        key = (job.group, smallest_prime_factor(job.q))
        if job.variant and key not in state.law_files:
            path = work / "laws" / f"{job.group.replace('(', '_').rstrip(')')}-p{key[1]}.law"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(lawgen.variant_text(*key, seed, "variant"), encoding="utf-8")
            state.law_files[key] = path
    for i, job in enumerate(workload.jobs):
        if job.cache == "warm":
            args = ["classes", *_law_args(state, job), "--q", str(job.q), "--m", str(job.level),
                    "--cache", str(state.warm_cache), "--out", str(work / f"fill-{i}.json")]
            code, err = _call_click(state.mods["cli"].main, args)
            if code:
                raise RuntimeError(f"filling the cache failed for {job.key}: {err}")
    return state


def _law_args(state: State, job: Job) -> list[str]:
    if job.variant:
        return ["--dsl", str(state.law_files[job.group, smallest_prime_factor(job.q)])]
    return ["--group", job.group]


def _call_click(command, args) -> tuple[int, str]:
    """Run a click command in-process the way `asaitwist run` does."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            command.main(args=args, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = int(exc.code or 0)
        except Exception:  # a job boundary: record it and keep going
            err.write(traceback.format_exc())
            code = 1
    return code, err.getvalue()


@dataclass
class Outcome:
    job: Job
    seconds: float
    code: int
    stderr: str
    stdout: str = ""
    report_path: Path | None = None


def run_job(state: State, job: Job, report: Path, cold_cache: Path | None = None) -> Outcome:
    if job.command == "growth":
        argv = ["centralizer_growth.py", "--group", job.group, "--q", str(job.q),
                "--levels", str(job.level)]
        out, err = io.StringIO(), io.StringIO()
        saved_argv = sys.argv
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            sys.argv = argv
            try:
                code = state.script.main()
            except Exception:  # a job boundary: record it and keep going
                err.write(traceback.format_exc())
                code = 1
            finally:
                sys.argv = saved_argv
        seconds = time.perf_counter() - start
        return Outcome(job, seconds, code, err.getvalue(), stdout=out.getvalue())
    cli = state.mods["cli"]
    command = cli.asai if job.command == "asai" else cli.easy_check
    flag = "--m" if job.command == "asai" else "--max-m"
    args = [*_law_args(state, job), "--q", str(job.q), flag, str(job.level), "--out", str(report)]
    if job.cache:
        args += ["--cache", str(state.warm_cache if job.cache == "warm" else cold_cache)]
    start = time.perf_counter()
    code, err = _call_click(command, args)
    seconds = time.perf_counter() - start
    return Outcome(job, seconds, code, err, report_path=report)


@dataclass
class Pass:
    wall_s: float
    outcomes: list
    failures: list
    classes: int


def run_pass(state: State, workload: Workload, expected: dict, tracer=None) -> Pass:
    """One timed pass over the job list, then its output checks."""
    pass_dir = Path(tempfile.mkdtemp(dir=state.work, prefix="pass-"))
    cold_cache = pass_dir / "cache"
    outcomes = []
    start = time.perf_counter()
    for i, job in enumerate(workload.jobs):
        report = pass_dir / f"{i}.json"
        if tracer is None:
            outcomes.append(run_job(state, job, report, cold_cache))
        else:
            outcomes.append(tracer.run_job(
                i, lambda job=job, report=report: run_job(state, job, report, cold_cache)))
    wall = time.perf_counter() - start
    failures, classes = [], 0
    for o in outcomes:
        problems, report = _check(o, expected)
        if problems:
            failures.append((o.job.key, problems))
        else:
            classes += checks.classes_processed(o.job.command, report, o.stdout)
    shutil.rmtree(pass_dir)
    return Pass(wall, outcomes, failures, classes)


def read_report(o: Outcome):
    if o.report_path is None:
        return None
    return json.loads(o.report_path.read_text(encoding="utf-8"))


def _check(o: Outcome, expected: dict) -> tuple[list[str], object]:
    """Problems with one outcome, and its parsed report."""
    if o.code != 0:
        return [f"exit code {o.code}: {o.stderr.strip()[-2000:]}"], None
    problems = []
    if o.job.cache == "warm" and "cache hit:" not in o.stderr:
        problems.append("warm cache was not hit")
    if o.job.cache == "cold" and "cache miss:" not in o.stderr:
        problems.append("cold cache was not missed")
    try:
        report = read_report(o)
    except (OSError, json.JSONDecodeError) as exc:
        return problems + [f"report unreadable: {exc}"], None
    p = smallest_prime_factor(o.job.q)
    try:
        return problems + checks.check(o.job, p, expected, report, o.stdout), report
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return problems + [f"report malformed: {exc!r}"], report


def _time_left(start: float, seconds: float, rounds: list[float]) -> bool:
    """Whether a typical round of the loop still ends within `seconds`."""
    return time.perf_counter() - start + statistics.median(rounds) <= seconds


def _spread(values) -> str:
    return (f"median {statistics.median(values):.4f} min {min(values):.4f} "
            f"max {max(values):.4f} n={len(values)}")


def measure(workload: Workload, seed: int, seconds: float, work: Path, expected: dict):
    setup_times: list[float] = []
    passes: list[Pass] = []
    rounds: list[float] = []
    state = None
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or _time_left(start, seconds, rounds):
        begin_round = slot = time.perf_counter()
        while state is None or time.perf_counter() - slot < SETUP_SLOT_SECONDS:
            begin = time.perf_counter()
            fresh = set_up(workload, seed, work / f"setup-{len(setup_times)}")
            setup_times.append(time.perf_counter() - begin)
            if state is not None:
                shutil.rmtree(state.work)
            state = fresh
        passes.append(run_pass(state, workload, expected))
        rounds.append(time.perf_counter() - begin_round)
    largest = [j.key for j in workload.jobs].index(workload.largest)
    walls = [p.wall_s for p in passes]
    largest_times = [p.outcomes[largest].seconds for p in passes]
    wall = statistics.median(walls)
    print(f"setup_s        {_spread(setup_times)}")
    print(f"wall_s         {_spread(walls)}")
    print(f"largest_job_s  {_spread(largest_times)}  ({workload.largest})")
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "classes_per_s": passes[0].classes / wall,
        "largest_job_s": statistics.median(largest_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    return passes, metrics, []


def measure_traced(workload: Workload, seed: int, seconds: float, work: Path, expected: dict):
    state = set_up(workload, seed, work / "setup")
    plain: list[Pass] = []
    traced: list[tuple[Pass, tracing.Tracer]] = []
    rounds: list[float] = []
    start = time.perf_counter()
    while not traced or _time_left(start, seconds, rounds):
        begin_round = time.perf_counter()
        plain.append(run_pass(state, workload, expected))
        tr = tracing.Tracer()
        tracing.instrument(tr, state.mods, state.script)
        try:
            traced.append((run_pass(state, workload, expected, tracer=tr), tr))
        finally:
            tr.restore()
        rounds.append(time.perf_counter() - begin_round)
    problems = []
    layer = [tr.metrics() for _, tr in traced]
    metrics = {}
    for name, (_, unit) in tracing.LAYER_METRICS.items():
        values = [m[name] for m in layer]
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
        else:
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between traced passes: {values}")
            metrics[name] = (values[0], unit)
    gap = max(abs(g) for _, tr in traced for g in tr.self_time_gaps().values())
    if gap > 1e-6:
        problems.append(f"per-layer self times miss a job's traced time by {gap:.3g} s")
    lookups = metrics["cache.hits"][0] + metrics["cache.misses"][0]
    plain_wall = statistics.median(p.wall_s for p in plain)
    traced_wall = statistics.median(p.wall_s for p, _ in traced)
    derived = {
        "cache.hit_frac": metrics["cache.hits"][0] / lookups if lookups else 0.0,
        "trace.untraced_wall_s": plain_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.max_self_gap_s": gap,
    }
    metrics.update({name: (derived[name], unit) for name, unit in DERIVED_LAYER_METRICS.items()})
    spans = OUT / f"trace-{workload.name}-seed{seed}.jsonl"
    traced[0][1].write_jsonl(spans)
    print(f"spans of the first traced pass: {spans.relative_to(ROOT)}")
    print(f"traced wall_s   {_spread([p.wall_s for p, _ in traced])}")
    print(f"untraced wall_s {_spread([p.wall_s for p in plain])}")
    return plain + [p for p, _ in traced], metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=OUT, prefix=f"{workload.name}-"))
    try:
        measure_fn = measure_traced if args.trace else measure
        passes, metrics, problems = measure_fn(
            workload, args.seed, args.seconds, work, expected)
    except ImportError as exc:
        print(f"cannot run the benchmark here: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    for p in passes:
        for key, why in p.failures:
            print(f"FAILED {key}: {'; '.join(why)}", file=sys.stderr)
    for why in problems:
        print(f"FAILED check: {why}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<30} {value:.6g} {unit}")
    print(f"fail_frac {failed}/{attempted}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
