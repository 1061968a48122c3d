"""Command-line harness: validation, class tables, norm maps, easiness.

Subcommands: validate | classes | asai | easy-check | run.  Reports are
single JSON documents rendered with sorted keys, so two runs with the
same configuration produce byte-identical files; wall-clock timing and
cache hit/miss chatter go to stderr only.  The report's "timings" block
holds deterministic work counters for the same reason.  `_emit` writes
the bytes of json.dumps(sort_keys=True, indent=2), with the class and
witness lists rendered straight from arrays.

A job is one `RunConfig`: a direct command and each job of a `run` batch
go through the same `_job`, which checks the options once, runs the
command's body and maps its failure to an exit code.

Exit codes: 0 success, 2 parse error, 3 validation failure (bad options,
or an unreadable input or unwritable output file), 4 cap exceeded, 5
internal inconsistency (fixed-class/witness biconditional violated) or
an unexpected error: always a bug.  `run` exits with its worst job's code.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

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
from .fields import DEFAULT_DEGREE_CAP, FieldTower, characteristic
from .grouplaw import canonical_text, parse_group_dsl, parse_group_name, validate_law
from .lang import default_degree_cap
from .points import DEFAULT_MAX_ORDER, conjugacy_classes, enumerate_group, point_digits


@dataclass
class RunConfig:
    """One job: which command to run and with what options.

    The defaults are the CLI's, and every option check lives here, so a
    direct command and a `run` job accept and reject the same options.
    Runs are seedless-deterministic by construction: identical configs
    always produce identical reports, so there is no seed to carry.
    """

    command: str
    q: int
    group: str | None = None
    dsl: str | None = None
    m: int = 1
    max_m: int = 3
    out: str | None = None
    cache: str | None = None
    max_order: int = DEFAULT_MAX_ORDER
    max_ext: int | None = None
    sample_budget: int = 1000

    def __post_init__(self):
        if self.command not in _BODIES:
            raise ParameterError(f"unknown command {self.command!r}")
        for name in ("q", "m", "max_m", "max_order", "sample_budget", "max_ext"):
            value = getattr(self, name)
            if type(value) is not int and not (name == "max_ext" and value is None):
                raise ParameterError(f"{name} must be an integer, not {value!r}")
        for name in ("group", "dsl", "out", "cache"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ParameterError(f"{name} must be a string")
        if (self.group is None) == (self.dsl is None):
            raise ParameterError("exactly one of --group or --dsl is required")
        if any(c is not None and c <= 0 for c in (self.max_order, self.sample_budget, self.max_ext)):
            raise ParameterError("max_order, max_ext and sample_budget must be positive")
        if self.m < 1 or self.max_m < 1:
            raise ParameterError("m and max_m must be at least 1")


def _resolve_law(cfg: RunConfig, check_axioms: bool = False):
    p = characteristic(cfg.q)
    if cfg.dsl is not None:
        law = parse_group_dsl(Path(cfg.dsl).read_text(encoding="utf-8"))
    else:
        law = parse_group_name(cfg.group, p)
    if law.p != p:
        raise ParameterError(f"law characteristic {law.p} does not match q = {cfg.q}")
    tower = FieldTower(p, degree_cap=cfg.max_ext or DEFAULT_DEGREE_CAP)
    if check_axioms and cfg.dsl is not None:
        # the parser checks identity and triangularity only; associativity
        # must be validated before a user law is first computed with, on a
        # tower of its own so that --max-ext caps only the job's fields
        rep = validate_law(law, FieldTower(p), cfg.q)
        if not rep.passed:
            raise GroupLawSemanticError(
                "law fails validation: " + "; ".join(rep.failures())
            )
    return law, tower


_SLOT = "%d"  # an int leaf of a row shape, filled from the row's values


@dataclass
class _Rows:
    """A report list rendered from int arrays, one %-template per shape.

    Item i has the shape shapes[kind[i]][0], a JSON value whose _SLOT
    leaves take, in rendering order, the values of the next row of
    shapes[kind[i]][1]; so the rows of a shape are its items in order.
    """

    kind: np.ndarray
    shapes: list[tuple[object, np.ndarray]]


def _block(opening: str, items: list[str], closing: str, level: int) -> str:
    if not items:
        return opening + closing
    inner = "\n" + "  " * (level + 1)
    return opening + inner + ("," + inner).join(items) + "\n" + "  " * level + closing


def _render(value, level: int = 0) -> str:
    """The bytes of json.dumps(value, sort_keys=True, indent=2) for a
    value nested `level` deep, with _Rows rendered as the lists they stand for."""
    if isinstance(value, _Rows):
        items = np.empty(len(value.kind), dtype=object)
        for s, (shape, rows) in enumerate(value.shapes):
            template = _render(shape, level + 1).replace("%", "%%").replace('"%%d"', "%d")
            items[value.kind == s] = [template % tuple(row) for row in rows.tolist()]
        return _block("[", items.tolist(), "]", level)
    if type(value) is dict and all(type(k) is str for k in value):
        items = [f"{json.dumps(k)}: {_render(value[k], level + 1)}" for k in sorted(value)]
        return _block("{", items, "}", level)
    if type(value) is list:
        types = set(map(type, value))
        if types == {int}:
            return _block("[", list(map(str, value)), "]", level)
        if types == {bool}:
            return _block("[", ["true" if v else "false" for v in value], "]", level)
        return _block("[", [_render(v, level + 1) for v in value], "]", level)
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + "  " * level)


def _emit(report: dict, out: str | None):
    text = _render(report) + "\n"
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text, encoding="utf-8")
        click.echo(f"report written to {out}", err=True)
    else:
        click.echo(text, nl=False)


def _classes_block(table) -> _Rows:
    """classes[{rep, size}], from one digit conversion of the representatives."""
    reps = table.view.digits(table.reps)
    n, d, k = reps.shape
    rows = np.concatenate([reps.reshape(n, d * k), np.diff(table.offsets)[:, None]], axis=1)
    shape = {"rep": [[_SLOT] * k] * d, "size": _SLOT}
    return _Rows(np.zeros(n, dtype=np.int64), [(shape, rows)])


def _witnesses_block(result) -> _Rows:
    """centralizer_witnesses[{found, degree?, z?}], read from norm_map's
    witness levels: shape 0 is a moved class, shape 1 + i level i."""
    fixed = result.fixed
    kind = np.where(fixed, result.where[:, 0] + 1, 0)
    shapes = [({"found": False}, np.empty((int((~fixed).sum()), 0), dtype=np.int64))]
    for i, (lvl, z) in enumerate(result.levels):
        rows = z[result.where[kind == i + 1, 1]]
        c, d, k = rows.shape
        shape = {"degree": lvl.degree, "found": True, "z": [[_SLOT] * k] * d}
        shapes.append((shape, rows.reshape(c, d * k)))
    return _Rows(kind, shapes)


def _header(law, cfg: RunConfig) -> dict:
    """The keys every report opens with: versions, the law and the field."""
    return {
        "version": __version__,
        "schema": SCHEMA_VERSION,
        "group": {
            "name": law.name,
            "family": law.family,
            "p": law.p,
            "dim": law.dim,
            "law": canonical_text(law),
        },
        "p": law.p,
        "q": cfg.q,
    }


def _level_block(result) -> dict:
    """One level's classes and norm map, as `asai` and `easy-check` report them."""
    table = result.table
    return {
        "order": table.view.order,
        "classes": _classes_block(table),
        "norm_perm": list(result.perm),
        "fixed": result.fixed.tolist(),
    }


def _load_or_compute_table(law, tower, cfg: RunConfig):
    path = class_table_path(cfg.cache, law, cfg.q, cfg.m) if cfg.cache else None
    if path:
        table = load_class_table(
            path, law, tower, cfg.q, cfg.m, max_order=cfg.max_order,
            warn=lambda msg: click.echo(f"warning: {msg}", err=True),
        )
        if table is not None:
            click.echo(f"cache hit: {path.name}", err=True)
            return table
    view = enumerate_group(law, tower, cfg.q, cfg.m, max_order=cfg.max_order)
    table = conjugacy_classes(view)
    if path:
        save_class_table(path, table)
        click.echo(f"cache miss: computed and saved {path.name}", err=True)
    return table


def _validate_body(cfg: RunConfig) -> None:
    law, tower = _resolve_law(cfg)
    report = validate_law(law, tower, cfg.q, sample_budget=cfg.sample_budget)
    for name, ok, detail in report.checks:
        click.echo(f"{'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    if not report.passed:
        raise GroupLawSemanticError("; ".join(report.failures()))


def _classes_body(cfg: RunConfig) -> None:
    law, tower = _resolve_law(cfg, check_axioms=True)
    table = _load_or_compute_table(law, tower, cfg)
    report = {
        **_header(law, cfg),
        "m": cfg.m,
        "order": table.view.order,
        "classes": _classes_block(table),
        "caps": {"max_order": cfg.max_order},
    }
    _emit(report, cfg.out)


def _asai_body(cfg: RunConfig) -> None:
    law, tower = _resolve_law(cfg, check_axioms=True)
    max_degree = cfg.max_ext or default_degree_cap(law, cfg.q, cfg.m)  # reported only
    table = _load_or_compute_table(law, tower, cfg)
    result = norm_map(table)
    if result.witness_errors:
        centralizer_witness(result, min(result.witness_errors))  # raises the class's error
    sizes = table.sizes
    report = {
        **_header(law, cfg),
        "m": cfg.m,
        **_level_block(result),
        "centralizer_witnesses": _witnesses_block(result),
        "verdict": {
            "trivial": is_asai_trivial(result),
            "moved_classes": moved_classes(result),
        },
        # recorded empirically, asserted nowhere: whether the pullback
        # preserves the inner product of delta functions, i.e. whether
        # the permutation preserves class sizes
        "operator_preserves_class_sizes": all(
            sizes[image] == size for image, size in zip(result.perm, sizes)
        ),
        "caps": {"max_order": cfg.max_order, "max_degree": max_degree},
        "timings": dict(
            result.stats,
            note="deterministic work counters; wall-clock goes to stderr",
        ),
    }
    _emit(report, cfg.out)


def _easy_check_body(cfg: RunConfig) -> None:
    law, tower = _resolve_law(cfg, check_axioms=True)
    max_degree = cfg.max_ext or default_degree_cap(law, cfg.q, cfg.max_m)  # reported only
    rep = easiness_crosscheck(law, tower, cfg.q, max_m=cfg.max_m, max_order=cfg.max_order)
    levels = [
        {
            "m": result.view.m,
            **_level_block(result),
            "witness_found": result.has_witness.tolist(),
            "agree": (result.has_witness == result.fixed).tolist(),
        }
        for result in rep.levels
    ]
    verdict = rep.verdict
    report = {
        **_header(law, cfg),
        "max_m": cfg.max_m,
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
            "witness": None if verdict.witness is None else point_digits(verdict.witness).tolist(),
            "witness_m": verdict.witness_m,
            "up_to_m": verdict.up_to_m,
            "evidence": [[m, triv] for m, triv in verdict.evidence],
        },
        "caps": {"max_order": cfg.max_order, "max_degree": max_degree},
        "timings": {
            "levels_completed": len(levels),
            "note": "deterministic work counters; wall-clock goes to stderr",
        },
    }
    _emit(report, cfg.out)
    if not rep.internally_consistent:
        raise InternalInconsistencyError(
            "fixed-class/witness biconditional violated; see report"
        )
    if rep.label_status == "CONTRADICTION":
        raise InternalInconsistencyError(
            "a ground-truth easy family showed a nontrivial operator; see report"
        )


_BODIES = {
    "validate": _validate_body,
    "classes": _classes_body,
    "asai": _asai_body,
    "easy-check": _easy_check_body,
}


def _job(command: str, **opts) -> int:
    """Check the options, run the command's body, return its exit code."""
    t0 = time.monotonic()
    try:
        cfg = RunConfig(command, **opts)
        _BODIES[cfg.command](cfg)
        code = 0
    except GroupLawSyntaxError as exc:
        click.echo(f"error: {exc}", err=True)
        code = 2
    except (GroupLawSemanticError, ParameterError, IncompatibleFields, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        code = 3
    except CapExceeded as exc:
        click.echo(f"error: cap exceeded: {exc}", err=True)
        code = 4
    except InternalInconsistencyError as exc:
        click.echo(f"internal inconsistency: {exc}", err=True)
        code = 5
    except Exception:  # a bug: show where, and keep a batch going
        click.echo(traceback.format_exc(), err=True, nl=False)
        code = 5
    click.echo(f"elapsed {time.monotonic() - t0:.3f}s", err=True)
    return code


def _exit(code: int) -> None:
    if code:
        sys.exit(code)


_group_opt = click.option("--group", default=None, help="builtin name: ul(N), ga_power(D), n2")
_dsl_opt = click.option("--dsl", default=None, type=click.Path(), help="path to a DSL law file")
_q_opt = click.option("--q", required=True, type=int, help="base field size, a power of the law's p")
_m_opt = click.option("--m", default=RunConfig.m, type=int, show_default=True)
_out_opt = click.option("--out", default=None, type=click.Path(), help="report path (default stdout)")
_cache_opt = click.option("--cache", default=None, type=click.Path(), help="cache directory for class tables")
_max_order_opt = click.option("--max-order", default=RunConfig.max_order, type=int, show_default=True, help="largest group order to enumerate")
_max_ext_opt = click.option("--max-ext", default=None, type=int, help=f"the field tower's extension-degree cap over F_p [default: {DEFAULT_DEGREE_CAP}]")


@click.group()
@click.version_option(version=__version__)
def main():
    """Norm maps and Asai twisting on unipotent group laws over finite fields."""


@main.command()
@_group_opt
@_dsl_opt
@_q_opt
@click.option("--sample-budget", default=RunConfig.sample_budget, type=int, show_default=True)
def validate(**opts):
    """Check group axioms of a law at level F_q."""
    _exit(_job("validate", **opts))


@main.command()
@_group_opt
@_dsl_opt
@_q_opt
@_m_opt
@_out_opt
@_cache_opt
@_max_order_opt
def classes(**opts):
    """Conjugacy classes of G(F_{q^m})."""
    _exit(_job("classes", **opts))


@main.command()
@_group_opt
@_dsl_opt
@_q_opt
@_m_opt
@_out_opt
@_cache_opt
@_max_order_opt
@_max_ext_opt
def asai(**opts):
    """Norm-map permutation and twisting-operator triviality at one m."""
    _exit(_job("asai", **opts))


@main.command(name="easy-check")
@_group_opt
@_dsl_opt
@_q_opt
@click.option("--max-m", default=RunConfig.max_m, type=int, show_default=True)
@_out_opt
@_max_order_opt
@_max_ext_opt
def easy_check(**opts):
    """Scan m = 1..max_m, crosscheck witnesses, compare the family label."""
    _exit(_job("easy-check", **opts))


def _bad_job(job) -> str | None:
    """Why a batch job cannot run, or None; its keys are its command's options."""
    command = job.get("command") if isinstance(job, dict) else None
    if not isinstance(command, str) or command not in _BODIES:
        return "a job is an object whose command is one of " + ", ".join(_BODIES)
    params = main.commands[command].params
    extra = sorted(set(job) - {"command"} - {p.name for p in params})
    missing = [p.name for p in params if p.required and p.name not in job]
    if extra:
        return f"{command} has no option {', '.join(extra)}"
    if missing:
        return f"{command} needs option {', '.join(missing)}"
    return None


@main.command()
@click.option("--config", required=True, type=click.Path(exists=True), help="batch config JSON")
def run(config):
    """Run a batch of jobs from a config file.

    The config is {"jobs": [{...}]} where each job carries "command"
    (validate | classes | asai | easy-check) plus options of that command.
    Every job runs; the batch exits with the worst job's code.  A file
    that is not such an object, "jobs" key included, is a bad config
    (exit 3).
    """
    try:
        doc = json.loads(Path(config).read_text(encoding="utf-8"))
        if not isinstance(doc, dict) or not isinstance(doc.get("jobs"), list):
            raise ValueError('the top level must be an object whose "jobs" is a list')
    except (OSError, ValueError) as exc:
        click.echo(f"error: bad config: {exc}", err=True)
        sys.exit(3)
    worst = 0
    for i, job in enumerate(doc["jobs"]):
        click.echo(f"job {i}: {json.dumps(job, sort_keys=True)}", err=True)
        problem = _bad_job(job)
        if problem:
            click.echo(f"job {i}: bad config: {problem}", err=True)
            worst = max(worst, 3)
        else:
            worst = max(worst, _job(**job))
    _exit(worst)


if __name__ == "__main__":
    main()
