#!/usr/bin/env python3
"""Survey the built-in families: norm-map triviality and easiness verdicts.

Runs the crosscheck engine over the example family (unitriangular), the
additive powers, and the dimension-2 noncommutative family at several
characteristics, then prints one verdict line per run and optionally a
JSON dump of the evidence.

Usage:
    python scripts/run_survey.py [--max-m 3] [--out survey.json]
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from asaitwist.cli import RunConfig  # noqa: E402
from asaitwist.easiness import easiness_crosscheck  # noqa: E402
from asaitwist.errors import ParameterError  # noqa: E402
from asaitwist.fields import FieldTower  # noqa: E402
from asaitwist.grouplaw import builtin  # noqa: E402

SURVEY = [
    ("ul", 2, 3, 2),
    ("ul", 3, 3, 3),
    ("ga_power", 2, 2, 2),
    ("ga_power", 3, 2, 3),
    ("n2", 3, None, 3),
    ("n2", 5, None, 5),
    ("n2", 2, None, 2),  # exploratory: no ground-truth label at p = 2
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-m", type=int, default=3)
    ap.add_argument("--max-order", type=int, default=2_000_000)
    ap.add_argument("--out", type=str, default=None)
    args = ap.parse_args()
    try:
        # the caps are easy-check's, so they are checked the way the CLI checks them
        RunConfig("easy-check", q=2, group="ul(3)", max_m=args.max_m, max_order=args.max_order)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    rows = []
    for family, p, param, q in SURVEY:
        law = builtin(family, p, param)
        tower = FieldTower(p)
        t0 = time.monotonic()
        rep = easiness_crosscheck(
            law, tower, q, max_m=args.max_m, max_order=args.max_order
        )
        dt = time.monotonic() - t0
        v = rep.verdict
        if v.kind == "not_easy":
            detail = f"witness {tuple(c.coeffs for c in v.witness.coords)} at m={v.witness_m}"
        elif v.kind == "easy_up_to":
            detail = f"identity permutation for every m <= {v.up_to_m}"
        else:
            detail = f"cap hit after m={v.up_to_m}"
        flag = "!!" if not rep.internally_consistent else "ok"
        print(
            f"[{flag}] {law.name:<4} p={p} q={q}  verdict={v.kind:<10} "
            f"label={rep.family_label.label:<8} status={rep.label_status:<11} "
            f"({detail}; {dt:.2f}s)"
        )
        rows.append(
            {
                "family": law.name,
                "p": p,
                "q": q,
                "verdict": v.kind,
                "witness_m": v.witness_m,
                "up_to_m": v.up_to_m,
                "evidence": v.evidence,
                "label": rep.family_label.label,
                "label_status": rep.label_status,
                "internally_consistent": rep.internally_consistent,
                "classes_per_m": [len(result.table) for result in rep.levels],
            }
        )
        if not rep.internally_consistent:
            return 5
    if args.out:
        # as the CLI writes --out: a missing directory is made, and an
        # unwritable path is one error line and exit 3
        try:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.out).write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
