#!/usr/bin/env python3
"""Centralizer point counts across field levels, per conjugacy class.

For every class representative of G(F_q) this prints |Z(g)(F_{q^N})| over
a window of levels together with the dimension / component estimates
(heuristic: reported only when stable across the window).  The growth
profile separates central elements (full-dimensional centralizer, one
component) from the noncentral ones whose component group carries the
obstruction to easiness.

Usage:
    python scripts/centralizer_growth.py --group n2 --q 3 --levels 3

Exit codes, as the CLI's: 0 success, 3 bad options (q not a prime power,
levels < 1, unknown group, max-order < 1; the options the CLI shares are
checked by its RunConfig), 4 cap exceeded.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from asaitwist.cli import RunConfig  # noqa: E402
from asaitwist.errors import CapExceeded, ParameterError  # noqa: E402
from asaitwist.fields import FieldTower, characteristic  # noqa: E402
from asaitwist.grouplaw import parse_group_name  # noqa: E402
from asaitwist.points import (  # noqa: E402
    centralizer_counts,
    conjugacy_classes,
    enumerate_group,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--group", default="n2")
    ap.add_argument("--q", type=int, default=3)
    ap.add_argument("--levels", type=int, default=3)
    ap.add_argument("--max-order", type=int, default=2_000_000)
    args = ap.parse_args()

    try:
        if args.levels < 1:
            raise ParameterError("--levels must be at least 1")
        RunConfig("classes", q=args.q, group=args.group, max_order=args.max_order)
        p = characteristic(args.q)
        law = parse_group_name(args.group, p)
        tower = FieldTower(p)
        view = enumerate_group(law, tower, args.q, 1, max_order=args.max_order)
        table = conjugacy_classes(view)
        print(f"{law.name} over F_{args.q}: {view.order} points, {len(table)} classes")
        sizes = table.sizes
        reps = [table.rep_point(ci) for ci in range(len(table))]
        growths = centralizer_counts(
            law, tower, reps, args.q, 1, range(1, args.levels + 1),
            max_order=args.max_order,
        )
        for ci, (g, growth) in enumerate(zip(reps, growths)):
            counts = " ".join(f"{c}" for _, c in growth.counts)
            if growth.stable:
                est = f"dim={growth.dimension} components={growth.components}"
            else:
                est = "unstable window (no estimate)"
            rep = tuple(c.coeffs for c in g.coords)
            print(f"  class {ci:>3} rep={rep} |class|={sizes[ci]:>4}  counts: {counts:<24} {est}")
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CapExceeded as exc:
        print(f"error: cap exceeded: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
