"""Solving the Lang equation x * F^m(x)^{-1} = g at finite levels.

F^m is the Frobenius of F_{q^m} = F_{p^e}, the field g lives in, so the
level is read from g.  For a triangular law the i-th coordinate of
x * F^m(x)^{-1} is t_i - t_i^{p^e} + (known expression in t_1..t_{i-1}),
so each coordinate is one Artin-Schreier equation t^{p^e} - t = c over
the field generated so far.  Every step extends the working field by a
factor of at most p, so the witness lives in degree at most p^d * e over
F_p.  The tower's degree_cap is the only limit on that degree: a solve
that needs a larger field raises CapExceeded when the tower is asked to
build it.

lang_solve_batch solves many g at once on (rows, d, e) digit arrays.  It
walks the coordinates with the rows grouped by their current level,
solves each group's Artin-Schreier equations in one call, and regroups
the rows whose solution moved to a larger field.  Every row is verified
by one vectorized x * F^m(x)^{-1} == g check.  lang_solve_triangular is
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
from .grouplaw import GroupLaw, all_tuples, eval_inv, eval_mul
from .points import DEFAULT_MAX_ORDER, Point, digits_point, point_digits

_BRUTE_CHUNK = 1 << 15


@dataclass(frozen=True)
class LangWitness:
    """x with x * F^m(x)^{-1} = g, F^m the Frobenius of g's field;
    x lives in the extension of degree n_multiplier over it."""

    g: Point
    x: Point
    n_multiplier: int


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
            fx = tower.vfrob(cur, xt, base.degree)
            z = eval_mul(law, tower, cur, xt, eval_inv(law, tower, cur, fx))
            c = (z[:, i] - tower.vembed(base, cur, g[rows, i])) % law.p
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
        fx = tower.vfrob(fid, x, base.degree)
        lang = eval_mul(law, tower, fid, x, eval_inv(law, tower, fid, fx))
        if not np.array_equal(lang, tower.vembed(base, fid, g[rows])):
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
            fx = tower.vfrob(fid, xs, base)
            lang = eval_mul(law, tower, fid, xs, eval_inv(law, tower, fid, fx))
            mask = np.all(lang == ge[None], axis=(-2, -1))
            hits = np.nonzero(mask)[0]
            if hits.size:
                x = digits_point(fid, xs[int(hits[0])])
                return LangWitness(g, x, N)
    return None


def verify_witness(law: GroupLaw, tower: FieldTower, w: LangWitness) -> bool:
    """Re-evaluate x * F^m(x)^{-1} and compare with g at a common level;
    False when x's field does not extend g's."""
    try:
        xd = point_digits(w.x)
        fid = w.x.field
        fx = tower.vfrob(fid, xd, w.g.field.degree)
        lang = eval_mul(law, tower, fid, xd, eval_inv(law, tower, fid, fx))
        ge = tower.vembed(w.g.field, fid, point_digits(w.g))
        return bool(np.array_equal(lang, ge))
    except IncompatibleFields:
        return False
