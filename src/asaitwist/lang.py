"""Solving the Lang equation x * F^m(x)^{-1} = g at finite levels.

F^m is the Frobenius of F_{q^m} = F_{p^e}, the field g lives in, so the
level is read from g.  The solver and every check use the equation in
product form, g * F^m(x) = x: one product and no inverse.  For a
triangular law mul_i(x, y) = x_i + y_i + (terms in x_1..x_{i-1},
y_1..y_{i-1}), so with x_i = t coordinate i reads
t^{p^e} - t = -mul_i(g, F^m(xt)), xt the partial solution with
coordinates >= i still zero: each coordinate is one Artin-Schreier
equation t^{p^e} - t = c over the field generated so far.  Every step
extends the working field by a factor of at most p, so the witness lives
in degree at most p^d * e over F_p.  The tower's degree_cap is the only
limit on that degree: a solve that needs a larger field raises
CapExceeded when the tower is asked to build it.

lang_solve_batch solves many g at once on (rows, d, e) digit arrays.  It
walks the coordinates with the rows grouped by their current level,
solves each group's Artin-Schreier equations in one call, and regroups
the rows whose solution moved to a larger field.  Every row is verified
on the full law by one vectorized g * F^m(x) == x check, solves_lang,
which verify_witness, the brute-force scan and the norm map's witness
check also use; the solve reads law.mul only.  lang_solve_triangular is
the same solve for one point.

The brute-force solver scans whole groups level by level; it exists as an
independent oracle for the triangular one and is exponential in the
extension degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CapExceeded,
    IncompatibleFields,
    InternalInconsistencyError,
    ParameterError,
)
from .fields import FieldId, FieldTower, p_power_exponent
from .grouplaw import GroupLaw, all_tuples, eval_mul

# perfbench/tracer.py wraps eval_inv at this import site, as in points
from .grouplaw import eval_inv  # noqa: F401
from .points import DEFAULT_MAX_ORDER, Point, digits_point, point_digits

_BRUTE_CHUNK = 1 << 15


@dataclass(frozen=True)
class LangWitness:
    """x with x * F^m(x)^{-1} = g, F^m the Frobenius of g's field;
    x lives in the extension of degree n_multiplier over it."""

    g: Point
    x: Point
    n_multiplier: int


def solves_lang(law: GroupLaw, tower: FieldTower, fid: FieldId, x, g, e: int) -> np.ndarray:
    """Row mask of x * F^e(x)^{-1} == g, checked as g * F^e(x) == x on
    digit arrays (..., d, k) over fid, F the p-power map."""
    lhs = eval_mul(law, tower, fid, g, tower.vfrob(fid, x, e))
    return np.all(lhs == x, axis=(-2, -1))


def _step_rhs(law: GroupLaw, tower: FieldTower, fid: FieldId, i: int, g, xt, e: int) -> np.ndarray:
    """c of step i's t^{p^e} - t = c: -mul_i(g, F^e(xt)), coordinate i of
    g * F^e(x) = x with x_i = t moved across, for xt zero in coordinates
    >= i on digit arrays (..., d, k) over fid: shape (..., k)."""
    return -law.mul[i].evaluate(tower, fid, g, tower.vfrob(fid, xt, e)) % law.p


def default_degree_cap(law: GroupLaw, q: int, m: int) -> int:
    """Bound on the witness degree: triangular solving extends at most
    p-fold per coordinate, so no witness needs more than p^dim times the
    base degree n*m.  Reports record it when no tower cap is given."""
    n = p_power_exponent(q, law.p)
    return law.p**law.dim * m * n


def lang_solve_batch(
    law: GroupLaw, tower: FieldTower, g: np.ndarray
) -> list[tuple[FieldId, np.ndarray, np.ndarray]]:
    """Coordinate-by-coordinate Artin-Schreier reduction for every row of g.

    g has shape (rows, d, e): points of G(F_{p^e}) as digit arrays, and
    F^m is the e-th power of the p-power map.
    Deterministic: each coordinate takes the code-least solution at the
    least feasible level, so each witness is unique and reproducible and
    does not depend on the other rows.  Returns one (field, rows, x)
    group per level, x[j] solving the Lang equation for row rows[j].
    """
    g = np.asarray(g, dtype=np.int64)
    if g.ndim != 3 or g.shape[1] != law.dim:
        raise ParameterError("g must be a (rows, dim, k) digit array")
    base = tower.make_field(g.shape[-1])
    # level degree -> (rows, partial points); coordinates >= i stay zero
    # and do not feed back into coordinate i for triangular laws
    levels = {base.degree: (np.arange(len(g)), np.zeros_like(g))}
    for i in range(law.dim):
        solved: dict[int, list] = {}
        for degree, (rows, xt) in levels.items():
            cur = FieldId(law.p, degree)
            c = _step_rhs(law, tower, cur, i, tower.vembed(base, cur, g[rows]), xt, base.degree)
            for fid, sel, t in tower.vartin_schreier_solve(cur, c, base.degree):
                if fid.degree > degree:
                    level, x = fid, tower.vembed(cur, fid, xt[sel])
                else:
                    level, x = cur, xt[sel].copy()
                    t = tower.vembed(fid, cur, t)
                x[:, i] = t
                solved.setdefault(level.degree, []).append((rows[sel], x))
        levels = {
            degree: tuple(np.concatenate(arrays) for arrays in zip(*parts))
            for degree, parts in sorted(solved.items())
        }
    groups = []
    for degree, (rows, x) in levels.items():
        fid = FieldId(law.p, degree)
        ge = tower.vembed(base, fid, g[rows])
        if not solves_lang(law, tower, fid, x, ge, base.degree).all():
            raise InternalInconsistencyError("triangular Lang witness failed to verify")
        groups.append((fid, rows, x))
    return groups


def lang_solve_triangular(law: GroupLaw, tower: FieldTower, g: Point) -> LangWitness:
    """Coordinate-by-coordinate Artin-Schreier reduction: lang_solve_batch
    on the single point g, so its witness is the same code-least one."""
    [(fid, _, x)] = lang_solve_batch(law, tower, point_digits(g)[None])
    return LangWitness(g, digits_point(fid, x[0]), fid.degree // g.field.degree)


def lang_solve_bruteforce(
    law: GroupLaw,
    tower: FieldTower,
    g: Point,
    n_cap: int = 8,
    max_order: int = DEFAULT_MAX_ORDER,
) -> LangWitness | None:
    """Scan G(F_{q^{mN}}) for N = 1, 2, ... <= n_cap, where F_{q^m} is
    g's field; independent oracle.

    Returns the canonically least witness at the least feasible N, or None
    when the cap is reached (inconclusive, never a proof of nonexistence).
    """
    base = g.field.degree
    gd = point_digits(g)
    for N in range(1, n_cap + 1):
        order = law.p ** (base * N * law.dim)
        if order > max_order:
            return None
        try:
            fid = tower.make_field(base * N)
        except CapExceeded:
            return None
        ge = tower.vembed(g.field, fid, gd)
        for start in range(0, order, _BRUTE_CHUNK):
            codes = np.arange(start, min(start + _BRUTE_CHUNK, order), dtype=np.int64)
            xs = all_tuples(tower, fid, law.dim, codes)
            hits = np.nonzero(solves_lang(law, tower, fid, xs, ge, base))[0]
            if hits.size:
                x = digits_point(fid, xs[int(hits[0])])
                return LangWitness(g, x, N)
    return None


def verify_witness(law: GroupLaw, tower: FieldTower, w: LangWitness) -> bool:
    """Check g * F^m(x) == x, the Lang equation, at x's level; False when
    x's field does not extend g's."""
    try:
        fid = w.x.field
        ge = tower.vembed(w.g.field, fid, point_digits(w.g))
        return bool(solves_lang(law, tower, fid, point_digits(w.x), ge, w.g.field.degree))
    except IncompatibleFields:
        return False
