"""Finite-level points of a group law: enumeration, classes, centralizers.

G(F_{q^m}) for a triangular law over F_p is the full coordinate space
(F_{q^m})^d: the q^m-power Frobenius acts coordinate-wise, so its fixed
points are exactly the tuples with every coordinate in F_{q^m}.  Elements
are indexed canonically by a mixed-radix code with coordinate 1 the most
significant digit, which makes the ordinal of an element equal to its
code: list position, lookup key and canonical order all coincide.

For levels with at most CODE_TABLE_MAX_Q field elements the view carries
add/mul lookup tables, so a whole-group conjugation pass is a handful of
fancy-indexing operations; bigger levels fall back to the digit kernels.
Views and class tables are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, ParameterError
from .fields import FieldElement, FieldId, FieldTower, p_power_exponent
from .grouplaw import (
    GroupLaw,
    Polynomial,
    all_tuples,
    eval_inv,
    eval_mul,
    point_frobenius,
)

DEFAULT_MAX_ORDER = 2_000_000
CODE_TABLE_MAX_Q = 2048
_CHUNK = 1 << 16


@dataclass(frozen=True)
class Point:
    """A point of G with all coordinates at one field level."""

    coords: tuple[FieldElement, ...]

    def __post_init__(self):
        fields = {c.field for c in self.coords}
        if len(fields) > 1:
            raise ParameterError("point coordinates live at different levels")

    @property
    def field(self) -> FieldId:
        return self.coords[0].field

    def is_identity(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __repr__(self):
        inner = "; ".join(",".join(map(str, c.coeffs)) for c in self.coords)
        return f"Pt({inner})@{self.field.p}^{self.field.degree}"


def point_digits(pt: Point) -> np.ndarray:
    return np.array([c.coeffs for c in pt.coords], dtype=np.int64)


def digits_point(fid: FieldId, digits: np.ndarray) -> Point:
    return Point(tuple(FieldElement(fid, tuple(int(v) for v in row)) for row in digits))


class LawOps:
    """Scalar point operations for one (law, tower) pair, at any level."""

    def __init__(self, law: GroupLaw, tower: FieldTower):
        self.law = law
        self.tower = tower

    def identity(self, fid: FieldId) -> Point:
        return digits_point(fid, np.zeros((self.law.dim, fid.degree), dtype=np.int64))

    def mul(self, a: Point, b: Point) -> Point:
        if a.field != b.field:
            raise ParameterError("points at different levels; embed first")
        z = eval_mul(self.law, self.tower, a.field, point_digits(a), point_digits(b))
        return digits_point(a.field, z)

    def inv(self, a: Point) -> Point:
        return digits_point(
            a.field, eval_inv(self.law, self.tower, a.field, point_digits(a))
        )

    def conj(self, h: Point, g: Point) -> Point:
        """h^{-1} g h."""
        return self.mul(self.inv(h), self.mul(g, h))

    def frobenius(self, a: Point, q: int, times: int = 1) -> Point:
        n = p_power_exponent(q, self.tower.p)
        dig = point_frobenius(self.tower, a.field, point_digits(a), n * times)
        return digits_point(a.field, dig)

    def embed(self, a: Point, target: FieldId) -> Point:
        return Point(tuple(self.tower.embed(c, target) for c in a.coords))

    def section(self, a: Point, target: FieldId) -> Point:
        return Point(tuple(self.tower.section(c, target) for c in a.coords))

    def element_order(self, a: Point) -> int:
        n = 1
        cur = a
        while not cur.is_identity():
            cur = self.mul(cur, a)
            n += 1
        return n


class _CodeTables:
    """Add/mul lookup tables over element codes of one small field level."""

    def __init__(self, tower: FieldTower, fid: FieldId):
        q = fid.order
        digs = tower.codes_to_digits(fid, np.arange(q, dtype=np.int64))
        add = np.empty((q, q), dtype=np.int32)
        mul = np.empty((q, q), dtype=np.int32)
        step = max(1, _CHUNK // q)
        for lo in range(0, q, step):
            hi = min(lo + step, q)
            block = digs[lo:hi, None, :]
            add[lo:hi] = tower.digits_to_codes(fid, tower.vadd(block, digs[None, :, :]))
            mul[lo:hi] = tower.digits_to_codes(
                fid, tower.vmul(fid, block, digs[None, :, :])
            )
        self.add = add
        self.mul = mul

    def pow(self, base: np.ndarray, e: int) -> np.ndarray:
        if e == 1:
            return base
        result = None
        b = base
        while e:
            if e & 1:
                result = b if result is None else self.mul[result, b]
            e >>= 1
            if e:
                b = self.mul[b, b]
        return result


def _eval_poly_codes(poly: Polynomial, tab: _CodeTables, x, y=None) -> np.ndarray:
    d = poly.nvars // 2
    shape = np.broadcast_shapes(x.shape[:-1], () if y is None else y.shape[:-1])
    acc = np.zeros(shape, dtype=np.int32)
    for coeff, exps in poly.terms:
        term = None
        for idx, e in enumerate(exps):
            if not e:
                continue
            base = x[..., idx] if idx < d else y[..., idx - d]
            f = tab.pow(base, e)
            term = f if term is None else tab.mul[term, f]
        if term is None:
            acc = tab.add[acc, coeff]
        else:
            if coeff != 1:
                term = tab.mul[coeff, term]
            acc = tab.add[acc, term]
    return acc


def _eval_mul_codes(law: GroupLaw, tab: _CodeTables, x, y) -> np.ndarray:
    return np.stack([_eval_poly_codes(p, tab, x, y) for p in law.mul], axis=-1)


def _eval_inv_codes(law: GroupLaw, tab: _CodeTables, x) -> np.ndarray:
    return np.stack([_eval_poly_codes(p, tab, x) for p in law.inv], axis=-1)


class FiniteGroupView:
    """G(F_{q^m}) with canonical element order and vectorized kernels."""

    def __init__(
        self,
        law: GroupLaw,
        tower: FieldTower,
        q: int,
        m: int,
        max_order: int = DEFAULT_MAX_ORDER,
    ):
        n = p_power_exponent(q, law.p)
        big_q = q**m
        order = big_q**law.dim
        if order > max_order:
            raise CapExceeded(f"|G(F_{q}^{m})| = {order} exceeds cap {max_order}")
        self.law = law
        self.tower = tower
        self.q = q
        self.m = m
        self.level_order = big_q
        self.field = tower.make_field(n * m)
        self.order = order
        self.ops = LawOps(law, tower)
        # coordinate codes, ordinal == mixed-radix combined code
        ordinals = np.arange(order, dtype=np.int64)
        cols = []
        for j in range(law.dim):
            shift = big_q ** (law.dim - 1 - j)
            cols.append((ordinals // shift) % big_q)
        self.codes = np.stack(cols, axis=-1)
        self.tables = (
            _CodeTables(tower, self.field) if big_q <= CODE_TABLE_MAX_Q else None
        )
        self.inv_codes = self._compute_inverses()

    def _compute_inverses(self) -> np.ndarray:
        if self.tables is not None:
            return _eval_inv_codes(self.law, self.tables, self.codes)
        out = np.empty_like(self.codes)
        for lo in range(0, self.order, _CHUNK):
            hi = min(lo + _CHUNK, self.order)
            digs = self._codes_to_digits(self.codes[lo:hi])
            inv = eval_inv(self.law, self.tower, self.field, digs)
            out[lo:hi] = self._digits_to_codes(inv)
        return out

    def _codes_to_digits(self, codes: np.ndarray) -> np.ndarray:
        return np.stack(
            [
                self.tower.codes_to_digits(self.field, codes[..., j])
                for j in range(self.law.dim)
            ],
            axis=-2,
        )

    def _digits_to_codes(self, digits: np.ndarray) -> np.ndarray:
        return np.stack(
            [
                self.tower.digits_to_codes(self.field, digits[..., j, :])
                for j in range(self.law.dim)
            ],
            axis=-1,
        )

    def combine(self, codes: np.ndarray) -> np.ndarray:
        out = np.zeros(codes.shape[:-1], dtype=np.int64)
        for j in range(self.law.dim):
            out = out * self.level_order + codes[..., j]
        return out

    def point(self, ordinal: int) -> Point:
        digs = self._codes_to_digits(self.codes[ordinal])
        return digits_point(self.field, digs)

    def index_of(self, pt: Point) -> int:
        if pt.field != self.field:
            raise ParameterError("point is not at this view's level")
        codes = self._digits_to_codes(point_digits(pt))
        return int(self.combine(codes))

    def point_codes(self, pt: Point) -> np.ndarray:
        return self._digits_to_codes(point_digits(pt))

    def points(self):
        for i in range(self.order):
            yield self.point(i)

    def __len__(self) -> int:
        return self.order

    # ---- whole-group conjugation kernels ----

    def conjugates_combined(self, g_codes: np.ndarray) -> np.ndarray:
        """Combined codes of h^{-1} g h over all h, in ordinal order."""
        if self.tables is not None:
            u = _eval_mul_codes(self.law, self.tables, g_codes[None, :], self.codes)
            z = _eval_mul_codes(self.law, self.tables, self.inv_codes, u)
            return self.combine(z)
        out = np.empty(self.order, dtype=np.int64)
        fid, law, tower = self.field, self.law, self.tower
        gd = self._codes_to_digits(g_codes)
        for lo in range(0, self.order, _CHUNK):
            hi = min(lo + _CHUNK, self.order)
            h = self._codes_to_digits(self.codes[lo:hi])
            hinv = self._codes_to_digits(self.inv_codes[lo:hi])
            z = eval_mul(law, tower, fid, hinv, eval_mul(law, tower, fid, gd[None], h))
            out[lo:hi] = self.combine(self._digits_to_codes(z))
        return out

    def find_conjugator(self, g_codes: np.ndarray, target_codes: np.ndarray) -> int | None:
        """Least ordinal h with h^{-1} g h = target, scanning in chunks."""
        target = int(self.combine(target_codes))
        if int(self.combine(g_codes)) == target:
            return 0
        fid, law, tower = self.field, self.law, self.tower
        use_tables = self.tables is not None
        if not use_tables:
            gd = self._codes_to_digits(g_codes)
        for lo in range(0, self.order, _CHUNK):
            hi = min(lo + _CHUNK, self.order)
            if use_tables:
                u = _eval_mul_codes(
                    self.law, self.tables, g_codes[None, :], self.codes[lo:hi]
                )
                z = _eval_mul_codes(self.law, self.tables, self.inv_codes[lo:hi], u)
            else:
                h = self._codes_to_digits(self.codes[lo:hi])
                hinv = self._codes_to_digits(self.inv_codes[lo:hi])
                zd = eval_mul(
                    law, tower, fid, hinv, eval_mul(law, tower, fid, gd[None], h)
                )
                z = self._digits_to_codes(zd)
            hits = np.nonzero(self.combine(z) == target)[0]
            if hits.size:
                return lo + int(hits[0])
        return None


def enumerate_group(
    law: GroupLaw,
    tower: FieldTower,
    q: int,
    m: int,
    max_order: int = DEFAULT_MAX_ORDER,
) -> FiniteGroupView:
    """All (q^m)^d points of the law, canonically ordered."""
    return FiniteGroupView(law, tower, q, m, max_order=max_order)


@dataclass
class ClassTable:
    """Conjugacy classes of a FiniteGroupView.

    Classes are ordered by their least member; each representative is
    the canonically least member of its class.
    """

    view: FiniteGroupView
    reps: np.ndarray  # ordinals of representatives, one per class
    members: list[np.ndarray]  # sorted ordinals per class
    class_of: np.ndarray  # ordinal -> class index

    def __post_init__(self):
        self._sizes = [int(m.size) for m in self.members]

    @property
    def sizes(self) -> list[int]:
        return list(self._sizes)

    def __len__(self) -> int:
        return len(self.members)

    def rep_point(self, ci: int) -> Point:
        return self.view.point(int(self.reps[ci]))


def conjugacy_classes(view: FiniteGroupView) -> ClassTable:
    n = view.order
    if _commutative_as_polynomials(view.law):
        reps = np.arange(n, dtype=np.int64)
        members = [np.array([i], dtype=np.int64) for i in range(n)]
        return ClassTable(view, reps, members, reps.copy())
    class_of = np.full(n, -1, dtype=np.int64)
    reps: list[int] = []
    members: list[np.ndarray] = []
    for seed in range(n):
        if class_of[seed] >= 0:
            continue
        orbit = np.unique(view.conjugates_combined(view.codes[seed]))
        class_of[orbit] = len(reps)
        reps.append(seed)
        members.append(orbit)
    return ClassTable(view, np.array(reps, dtype=np.int64), members, class_of)


def _commutative_as_polynomials(law: GroupLaw) -> bool:
    """True when every mul coordinate is symmetric under x <-> y."""
    d = law.dim
    for poly in law.mul:
        swapped = Polynomial.make(
            law.p,
            poly.nvars,
            [(c, e[d:] + e[:d]) for c, e in poly.terms],
        )
        if swapped.terms != poly.terms:
            return False
    return True


def centralizer(view: FiniteGroupView, g: Point) -> np.ndarray:
    """Ordinals of all h with hg = gh; a subgroup containing g."""
    if g.field != view.field:
        raise ParameterError("g is not in this view")
    gc = view.point_codes(g)
    if view.tables is not None:
        gh = _eval_mul_codes(view.law, view.tables, gc[None, :], view.codes)
        hg = _eval_mul_codes(view.law, view.tables, view.codes, gc[None, :])
        return np.nonzero(view.combine(gh) == view.combine(hg))[0]
    gd = point_digits(g)
    law, tower, fid = view.law, view.tower, view.field
    hits = []
    for lo in range(0, view.order, _CHUNK):
        hi = min(lo + _CHUNK, view.order)
        h = view._codes_to_digits(view.codes[lo:hi])
        gh = eval_mul(law, tower, fid, gd[None], h)
        hg = eval_mul(law, tower, fid, h, gd[None])
        mask = np.all(gh == hg, axis=(-2, -1))
        hits.append(lo + np.nonzero(mask)[0])
    return np.concatenate(hits)


@dataclass
class CentralizerGrowth:
    """Point counts of Z(g) across field levels, with heuristic estimates.

    dimension / components are reported only when the count ratios are a
    constant integral power of q^m across the whole window (stable=True);
    the component figure counts Frobenius-fixed components, not all of
    pi_0, so it is a window-stabilized estimate, flagged as such.
    """

    counts: list[tuple[int, int]]  # (N, |Z(g)(F_{q^{mN}})|)
    dimension: int | None
    components: int | None
    stable: bool


def centralizer_counts(
    law: GroupLaw,
    tower: FieldTower,
    g: Point,
    q: int,
    m: int,
    n_range,
    max_order: int = DEFAULT_MAX_ORDER,
) -> CentralizerGrowth:
    """|Z(g) ∩ G(F_{q^{mN}})| for each N, by enumeration at level q^{mN}."""
    n = p_power_exponent(q, law.p)
    counts = []
    for N in n_range:
        order = (q ** (m * N)) ** law.dim
        if order > max_order:
            raise CapExceeded(f"level q^{m * N}: order {order} exceeds cap")
        fid = tower.make_field(n * m * N)
        gd = np.stack(
            [tower.vembed(g.field, fid, np.array(c.coeffs, dtype=np.int64)) for c in g.coords]
        )
        count = 0
        for lo in range(0, order, _CHUNK):
            codes = np.arange(lo, min(lo + _CHUNK, order), dtype=np.int64)
            elems = all_tuples(tower, fid, law.dim, codes)
            gh = eval_mul(law, tower, fid, gd[None, :, :], elems)
            hg = eval_mul(law, tower, fid, elems, gd[None, :, :])
            count += int(np.sum(np.all(gh == hg, axis=(-2, -1))))
        counts.append((N, count))
    dim, comp, stable = _growth_estimates(counts, q**m)
    return CentralizerGrowth(counts, dim, comp, stable)


def _growth_estimates(counts, base: int):
    if len(counts) < 2:
        return None, None, False
    dims = set()
    for (n1, c1), (n2, c2) in zip(counts, counts[1:]):
        if n2 != n1 + 1 or c2 % c1:
            return None, None, False
        ratio = c2 // c1
        d = 0
        while ratio > 1 and ratio % base == 0:
            ratio //= base
            d += 1
        if ratio != 1:
            return None, None, False
        dims.add(d)
    if len(dims) != 1:
        return None, None, False
    dim = dims.pop()
    comps = {c // base ** (N * dim) for N, c in counts}
    if len(comps) != 1:
        return dim, None, False
    return dim, comps.pop(), True
