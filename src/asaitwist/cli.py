"""Command-line harness: validation, class tables, norm maps, easiness.

Subcommands: validate | classes | asai | easy-check | run.  Reports are
single JSON documents rendered with sorted keys, so two runs with the
same configuration produce byte-identical files; wall-clock timing and
cache hit/miss chatter go to stderr only.  The report's "timings" block
holds deterministic work counters for the same reason.

Exit codes: 0 success, 2 parse error, 3 validation failure, 4 cap
exceeded, 5 internal inconsistency (fixed-class/witness biconditional
violated: always a bug).
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import click

from . import __version__
from .asai import centralizer_witness, is_asai_trivial, moved_classes, norm_map
from .cache import SCHEMA_VERSION, class_table_path, load_class_table, save_class_table
from .easiness import easiness_crosscheck
from .errors import (
    CapExceeded,
    GroupLawSemanticError,
    GroupLawSyntaxError,
    IncompatibleFields,
    InternalInconsistencyError,
    ParameterError,
)
from .fields import DEFAULT_DEGREE_CAP, FieldTower, is_prime
from .grouplaw import canonical_text, parse_group_dsl, parse_group_name, validate_law
from .lang import default_degree_cap
from .points import DEFAULT_MAX_ORDER, Point, conjugacy_classes, enumerate_group


@dataclass
class RunConfig:
    """One batch job: which command to run and with what knobs.

    Runs are seedless-deterministic by construction: identical configs
    always produce identical reports, so there is no seed to carry.
    """

    command: str
    q: int
    group: str | None = None
    dsl: str | None = None
    m: int | None = None
    max_m: int | None = None
    out: str | None = None
    cache: str | None = None
    max_order: int = DEFAULT_MAX_ORDER
    max_ext: int | None = None
    sample_budget: int = 1000

    def __post_init__(self):
        if self.command not in ("validate", "classes", "asai", "easy-check"):
            raise ParameterError(f"unknown command {self.command!r}")
        if (self.group is None) == (self.dsl is None):
            raise ParameterError("exactly one of group/dsl is required")
        if self.max_order <= 0 or (self.max_ext is not None and self.max_ext <= 0):
            raise ParameterError("caps must be positive")

    def to_args(self, cmd: click.Command) -> list[str]:
        """Argv for `cmd`, passing only the options it declares."""
        args = []
        for param in cmd.params:
            value = getattr(self, param.name)
            if value is not None:
                args.extend(["--" + param.name.replace("_", "-"), str(value)])
        return args


def _smallest_prime_factor(q: int) -> int:
    d = 2
    while d * d <= q:
        if q % d == 0:
            return d
        d += 1
    return q


def _resolve_law(
    group: str | None,
    dsl: str | None,
    q: int,
    max_ext: int | None,
    check_axioms: bool = False,
):
    if (group is None) == (dsl is None):
        raise ParameterError("exactly one of --group or --dsl is required")
    if q < 2:
        raise ParameterError("q must be a prime power >= 2")
    p = _smallest_prime_factor(q)
    if not is_prime(p):
        raise ParameterError(f"q = {q} is not a prime power")
    qq = q
    while qq > 1:
        if qq % p:
            raise ParameterError(f"q = {q} is not a prime power")
        qq //= p
    if dsl is not None:
        text = Path(dsl).read_text(encoding="utf-8")
        law = parse_group_dsl(text)
    else:
        law = parse_group_name(group, p)
    if law.p != p:
        raise ParameterError(f"law characteristic {law.p} does not match q = {q}")
    tower = FieldTower(p, degree_cap=max_ext if max_ext else DEFAULT_DEGREE_CAP)
    if check_axioms and dsl is not None:
        # the parser checks identity and triangularity only; associativity
        # must be validated before a user law is first computed with
        rep = validate_law(law, tower, q)
        if not rep.passed:
            raise GroupLawSemanticError(
                "law fails validation: " + "; ".join(rep.failures())
            )
    return law, tower


def _serialize_point(pt: Point) -> list[list[int]]:
    return [list(c.coeffs) for c in pt.coords]


def _emit(report: dict, out: str | None):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text, encoding="utf-8")
        click.echo(f"report written to {out}", err=True)
    else:
        click.echo(text, nl=False)


def _classes_block(table) -> list[dict]:
    return [
        {"rep": _serialize_point(table.rep_point(ci)), "size": size}
        for ci, size in enumerate(table.sizes)
    ]


def _group_block(law) -> dict:
    return {
        "name": law.name,
        "family": law.family,
        "p": law.p,
        "dim": law.dim,
        "law": canonical_text(law),
    }


def _load_or_compute_table(law, tower, q, m, max_order, cache_dir):
    if cache_dir:
        path = class_table_path(cache_dir, law, q, m)
        table = load_class_table(
            path, law, tower, q, m, max_order=max_order,
            warn=lambda msg: click.echo(f"warning: {msg}", err=True),
        )
        if table is not None:
            click.echo(f"cache hit: {path.name}", err=True)
            return table
        view = enumerate_group(law, tower, q, m, max_order=max_order)
        table = conjugacy_classes(view)
        save_class_table(path, table)
        click.echo(f"cache miss: computed and saved {path.name}", err=True)
        return table
    view = enumerate_group(law, tower, q, m, max_order=max_order)
    return conjugacy_classes(view)


def _guarded(body) -> None:
    t0 = time.monotonic()
    try:
        body()
        code = 0
    except GroupLawSyntaxError as exc:
        click.echo(f"error: {exc}", err=True)
        code = 2
    except (GroupLawSemanticError, ParameterError, IncompatibleFields) as exc:
        click.echo(f"error: {exc}", err=True)
        code = 3
    except CapExceeded as exc:
        click.echo(f"error: cap exceeded: {exc}", err=True)
        code = 4
    except InternalInconsistencyError as exc:
        click.echo(f"internal inconsistency: {exc}", err=True)
        code = 5
    click.echo(f"elapsed {time.monotonic() - t0:.3f}s", err=True)
    if code:
        sys.exit(code)


_group_opt = click.option("--group", default=None, help="builtin name: ul(N), ga_power(D), n2")
_dsl_opt = click.option("--dsl", default=None, type=click.Path(), help="path to a DSL law file")
_q_opt = click.option("--q", required=True, type=int, help="base field size, a power of the law's p")
_out_opt = click.option("--out", default=None, type=click.Path(), help="report path (default stdout)")
_cache_opt = click.option("--cache", default=None, type=click.Path(), help="cache directory for class tables")
_max_order_opt = click.option("--max-order", default=DEFAULT_MAX_ORDER, type=int, show_default=True, help="largest group order to enumerate")
_max_ext_opt = click.option("--max-ext", default=None, type=int, help="extension-degree cap over F_p (default p^dim * m * deg(q))")


@click.group()
@click.version_option(version=__version__)
def main():
    """Norm maps and Asai twisting on unipotent group laws over finite fields."""


@main.command()
@_group_opt
@_dsl_opt
@_q_opt
@click.option("--sample-budget", default=1000, type=int, show_default=True)
def validate(group, dsl, q, sample_budget):
    """Check group axioms of a law at level F_q."""

    def body():
        law, tower = _resolve_law(group, dsl, q, None)
        report = validate_law(law, tower, q, sample_budget=sample_budget)
        for name, ok, detail in report.checks:
            click.echo(f"{'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
        if not report.passed:
            raise GroupLawSemanticError("; ".join(report.failures()))

    _guarded(body)


@main.command()
@_group_opt
@_dsl_opt
@_q_opt
@click.option("--m", default=1, type=int, show_default=True)
@_out_opt
@_cache_opt
@_max_order_opt
def classes(group, dsl, q, m, out, cache, max_order):
    """Conjugacy classes of G(F_{q^m})."""

    def body():
        law, tower = _resolve_law(group, dsl, q, None, check_axioms=True)
        table = _load_or_compute_table(law, tower, q, m, max_order, cache)
        report = {
            "version": __version__,
            "schema": SCHEMA_VERSION,
            "group": _group_block(law),
            "p": law.p,
            "q": q,
            "m": m,
            "order": table.view.order,
            "classes": _classes_block(table),
            "caps": {"max_order": max_order},
        }
        _emit(report, out)

    _guarded(body)


@main.command()
@_group_opt
@_dsl_opt
@_q_opt
@click.option("--m", default=1, type=int, show_default=True)
@_out_opt
@_cache_opt
@_max_order_opt
@_max_ext_opt
def asai(group, dsl, q, m, out, cache, max_order, max_ext):
    """Norm-map permutation and twisting-operator triviality at one m."""

    def body():
        law, tower = _resolve_law(group, dsl, q, max_ext, check_axioms=True)
        max_degree = max_ext if max_ext else default_degree_cap(law, q, m)
        table = _load_or_compute_table(law, tower, q, m, max_order, cache)
        result = norm_map(table.view, table, max_degree=max_degree)
        witnesses = [centralizer_witness(result, ci) for ci in range(len(table))]
        fixed = [result.perm[ci] == ci for ci in range(len(table))]
        class_block = _classes_block(table)
        report = {
            "version": __version__,
            "schema": SCHEMA_VERSION,
            "group": _group_block(law),
            "p": law.p,
            "q": q,
            "m": m,
            "order": table.view.order,
            "classes": class_block,
            "norm_perm": list(result.perm),
            "fixed": fixed,
            "centralizer_witnesses": [
                {"found": False}
                if w is None
                else {
                    "found": True,
                    "degree": w.z.field.degree,
                    "z": _serialize_point(w.z),
                }
                for w in witnesses
            ],
            "verdict": {
                "trivial": is_asai_trivial(result),
                "moved_classes": moved_classes(result),
            },
            # recorded empirically, asserted nowhere: whether the pullback
            # preserves the inner product of delta functions, i.e. whether
            # the permutation preserves class sizes
            "operator_preserves_class_sizes": all(
                class_block[image]["size"] == c["size"]
                for image, c in zip(result.perm, class_block)
            ),
            "caps": {"max_order": max_order, "max_degree": max_degree},
            "timings": dict(
                result.stats,
                note="deterministic work counters; wall-clock goes to stderr",
            ),
        }
        _emit(report, out)
        for ci, w in enumerate(witnesses):
            if (w is not None) != fixed[ci]:
                raise InternalInconsistencyError(
                    f"class {ci}: fixedness and witness existence disagree"
                )

    _guarded(body)


@main.command(name="easy-check")
@_group_opt
@_dsl_opt
@_q_opt
@click.option("--max-m", default=3, type=int, show_default=True)
@_out_opt
@_max_order_opt
@_max_ext_opt
def easy_check(group, dsl, q, max_m, out, max_order, max_ext):
    """Scan m = 1..max_m, crosscheck witnesses, compare the family label."""

    def body():
        law, tower = _resolve_law(group, dsl, q, max_ext, check_axioms=True)
        max_degree = max_ext if max_ext else default_degree_cap(law, q, max_m)
        rep = easiness_crosscheck(
            law, tower, q, max_m=max_m, max_order=max_order, max_degree=max_degree
        )
        levels = []
        for lc in rep.levels:
            table = lc.result.table
            levels.append(
                {
                    "m": lc.m,
                    "order": table.view.order,
                    "classes": _classes_block(table),
                    "norm_perm": list(lc.result.perm),
                    "fixed": lc.fixed,
                    "witness_found": [w is not None for w in lc.witnesses],
                    "agree": lc.agree,
                }
            )
        verdict = rep.verdict
        report = {
            "version": __version__,
            "schema": SCHEMA_VERSION,
            "group": _group_block(law),
            "p": law.p,
            "q": q,
            "max_m": max_m,
            "levels": levels,
            "internally_consistent": rep.internally_consistent,
            "family_label": {
                "family": rep.family_label.family,
                "label": rep.family_label.label,
                "condition": rep.family_label.condition,
                "rationale": rep.family_label.rationale,
            },
            "label_status": rep.label_status,
            "verdict": {
                "kind": verdict.kind,
                "witness": None if verdict.witness is None else _serialize_point(verdict.witness),
                "witness_m": verdict.witness_m,
                "up_to_m": verdict.up_to_m,
                "evidence": [[m, triv] for m, triv in verdict.evidence],
            },
            "caps": {"max_order": max_order, "max_degree": max_degree},
            "timings": {
                "levels_completed": len(levels),
                "note": "deterministic work counters; wall-clock goes to stderr",
            },
        }
        _emit(report, out)
        if not rep.internally_consistent:
            raise InternalInconsistencyError(
                "fixed-class/witness biconditional violated; see report"
            )
        if rep.label_status == "CONTRADICTION":
            raise InternalInconsistencyError(
                "a ground-truth easy family showed a nontrivial operator; see report"
            )

    _guarded(body)


@main.command()
@click.option("--config", required=True, type=click.Path(exists=True), help="batch config JSON")
def run(config):
    """Run a batch of jobs from a config file.

    The config is {"jobs": [{...}]} where each job carries "command"
    (validate | classes | asai | easy-check) plus that command's options.
    """
    doc = json.loads(Path(config).read_text(encoding="utf-8"))
    jobs = doc.get("jobs", [])
    commands = {
        "validate": validate,
        "classes": classes,
        "asai": asai,
        "easy-check": easy_check,
    }
    worst = 0
    for i, job in enumerate(jobs):
        try:
            cfg = RunConfig(**job)
        except (TypeError, ParameterError) as exc:
            click.echo(f"job {i}: bad config: {exc}", err=True)
            worst = max(worst, 3)
            continue
        cmd = commands[cfg.command]
        args = cfg.to_args(cmd)
        click.echo(f"job {i}: {cfg.command} {' '.join(args)}", err=True)
        try:
            cmd.main(args=args, standalone_mode=False)
        except SystemExit as exc:
            worst = max(worst, int(exc.code or 0))
        except click.ClickException as exc:
            click.echo(f"job {i}: {exc.message}", err=True)
            worst = max(worst, 2)
    if worst:
        sys.exit(worst)


if __name__ == "__main__":
    main()
