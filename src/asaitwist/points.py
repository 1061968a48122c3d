"""Finite-level points of a group law: enumeration, classes, centralizers.

G(F_{q^m}) for a triangular law over F_p is the full coordinate space
(F_{q^m})^d: the q^m-power Frobenius acts coordinate-wise, so its fixed
points are exactly the tuples with every coordinate in F_{q^m}.  Elements
are indexed canonically by a mixed-radix code with coordinate 1 the most
significant digit, which makes the ordinal of an element equal to its
code: list position, lookup key and canonical order all coincide.

Conjugation has one backend: add/mul lookup tables over the codes of
F_{q^m}, so a whole-group conjugation pass is a handful of
fancy-indexing operations.  A view builds its tables the first time
they are read, and a law of dimension 1 (x1 + y1, since it is
triangular) never reads them, so tables that exist have
(q^m)^2 <= (q^m)^d = |G| entries.  Class tables are immutable after
construction.

Conjugacy classes are the orbits of conjugation by the d*deg axis
generators t*e_i (t over an F_p-basis of F_{q^m}, deg its size), found
by min-label propagation with pointer jumping: one conjugation pass per
generator, not one per class.  The axis points generate G: the points
with x_{<i} = 0 form a subgroup K_i, coordinate i is additive on K_i,
and its kernel there is K_{i+1}.  An axis that no cocycle involves
(always axis d) is central, so its generators get no pass.

Conjugator search and centralizers never conjugate by every h.  In
(xy)_i = x_i + y_i + f_i(x_{<i}, y_{<i}) the h_i of g h = h t cancels,
so coordinate i constrains only h_{<i}: a breadth-first filter over
coordinate prefixes, taking every row of a batch at once and expanding
at most min(_CHUNK, |G|) candidates at a time, finds every feasible
h_{<d}, and h_d is free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapExceeded, ParameterError
from .fields import FieldElement, FieldId, FieldTower, p_power_exponent
from .grouplaw import GroupLaw, Polynomial, eval_inv, eval_mul

DEFAULT_MAX_ORDER = 2_000_000
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
        dig = self.tower.vfrob(a.field, point_digits(a), n * times)
        return digits_point(a.field, dig)

    def embed(self, a: Point, target: FieldId) -> Point:
        return Point(tuple(self.tower.embed(c, target) for c in a.coords))

    def section(self, a: Point, target: FieldId) -> Point:
        return Point(tuple(self.tower.section(c, target) for c in a.coords))


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


def _conj_codes(law: GroupLaw, tab: _CodeTables, h_inv, g, h) -> np.ndarray:
    """Codes of h^{-1} g h, broadcasting over the leading axes."""
    return _eval_mul_codes(law, tab, h_inv, _eval_mul_codes(law, tab, g, h))


def _coordinate_agrees(poly: Polynomial, tab: _CodeTables, g, h, t) -> np.ndarray:
    """Rows where coordinate poly of g h equals that of h t."""
    return _eval_poly_codes(poly, tab, g, h) == _eval_poly_codes(poly, tab, h, t)


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
        self.commutative = _commutative_as_polynomials(law)

    @cached_property
    def tables(self) -> _CodeTables:
        return _CodeTables(self.tower, self.field)

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

    def points(self):
        for i in range(self.order):
            yield self.point(i)

    def __len__(self) -> int:
        return self.order

    # ---- whole-group conjugation kernels ----

    def conjugates_combined(self, g_codes: np.ndarray) -> np.ndarray:
        """Combined codes of h^{-1} g h over all h, in ordinal order."""
        if self.commutative:
            return np.full(self.order, int(self.combine(g_codes)), dtype=np.int64)
        h_inv = _eval_inv_codes(self.law, self.tables, self.codes)
        return self.combine(_conj_codes(self.law, self.tables, h_inv, g_codes[None, :], self.codes))

    def conjugation_by(self, s_codes: np.ndarray) -> np.ndarray:
        """Combined codes of s^{-1} g s over all g, in ordinal order.

        Conjugation by s is an automorphism, so this is a permutation of
        the ordinals.
        """
        s_inv = _eval_inv_codes(self.law, self.tables, s_codes)[None, :]
        return self.combine(_conj_codes(self.law, self.tables, s_inv, self.codes, s_codes[None, :]))

    def axis_generators(self) -> np.ndarray:
        """Codes of the d*deg axis points t*e_i, t over the F_p-basis of
        the level: one row per generator, coordinate i major."""
        dim, deg = self.law.dim, self.field.degree
        basis = self.tower.digits_to_codes(self.field, np.eye(deg, dtype=np.int64))
        gens = np.zeros((dim, deg, dim), dtype=np.int64)
        for i in range(dim):
            gens[i, :, i] = basis
        return gens.reshape(dim * deg, dim)

    # ---- conjugator search by prefix filtering ----

    def _feasible_prefixes(
        self, g_rows: np.ndarray, t_rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The prefixes h_{<d} with g h = h t, for every row pair at once.

        Returns (seg, prefix): prefix[k] is the combined code of
        h_1..h_{d-1} and seg[k] the row it solves, sorted by (seg,
        prefix).  Coordinate i of g h = h t involves only h_{<i}, so the
        first coordinates must agree outright, each level extends every
        surviving prefix by all q^m values of the next coordinate in
        order and keeps those that satisfy the coordinate after it, and
        h_d is free.  Blocks of at most min(_CHUNK, |G|) candidates
        bound the temporaries.
        """
        law, big_q = self.law, self.level_order
        seg = np.nonzero(g_rows[:, 0] == t_rows[:, 0])[0]
        prefix = np.zeros(seg.size, dtype=np.int64)
        # no block holds more candidates than a whole-group pass has rows
        step = max(1, min(_CHUNK, self.order) // big_q)
        values = np.arange(big_q, dtype=np.int64)
        for i in range(1, law.dim):
            if not seg.size:
                break
            # ordinal of (h_1..h_i, 0, ..., 0) is the prefix code times stride
            stride = big_q ** (law.dim - i)
            kept_seg, kept_prefix = [], []
            for lo in range(0, seg.size, step):
                s = np.repeat(seg[lo : lo + step], big_q)
                cand = (prefix[lo : lo + step, None] * big_q + values).ravel()
                ok = _coordinate_agrees(
                    law.mul[i], self.tables, g_rows[s], self.codes[cand * stride], t_rows[s]
                )
                kept_seg.append(s[ok])
                kept_prefix.append(cand[ok])
            seg, prefix = np.concatenate(kept_seg), np.concatenate(kept_prefix)
        return seg, prefix

    def find_conjugators(self, g_rows: np.ndarray, t_rows: np.ndarray) -> np.ndarray:
        """Least ordinal h with h^{-1} g h = t per row of codes, -1 where
        there is none: the first feasible prefix, with h_d = 0."""
        seg, prefix = self._feasible_prefixes(g_rows, t_rows)
        found = np.full(len(g_rows), -1, dtype=np.int64)
        rows, first = np.unique(seg, return_index=True)
        found[rows] = prefix[first] * self.level_order
        return found

    def find_conjugator(self, g_codes: np.ndarray, target_codes: np.ndarray) -> int | None:
        """Least ordinal h with h^{-1} g h = target, or None."""
        found = int(self.find_conjugators(g_codes[None, :], target_codes[None, :])[0])
        return None if found < 0 else found


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
    """Conjugacy classes of a FiniteGroupView, stored as CSR.

    Classes are ordered by their least member; each representative is
    the canonically least member of its class.  order lists the ordinals
    grouped by class, ascending within each, and class ci is
    order[offsets[ci]:offsets[ci + 1]].
    """

    view: FiniteGroupView
    reps: np.ndarray  # ordinals of representatives, one per class
    class_of: np.ndarray  # ordinal -> class index
    order: np.ndarray  # ordinals grouped by class
    offsets: np.ndarray  # start of each class in order, then len(order)

    @classmethod
    def from_class_of(cls, view: FiniteGroupView, class_of: np.ndarray) -> ClassTable:
        """The table of a class map numbering classes 0.. by least member;
        one stable sort groups the ordinals."""
        order = np.argsort(class_of, kind="stable")
        offsets = np.concatenate([[0], np.cumsum(np.bincount(class_of))])
        return cls(view, order[offsets[:-1]], class_of, order, offsets)

    @property
    def members(self) -> list[np.ndarray]:
        """Sorted ordinals per class, as slices of order."""
        return np.split(self.order, self.offsets[1:-1])

    @property
    def sizes(self) -> list[int]:
        return np.diff(self.offsets).tolist()

    def __len__(self) -> int:
        return len(self.reps)

    def rep_point(self, ci: int) -> Point:
        return self.view.point(int(self.reps[ci]))


def conjugacy_classes(view: FiniteGroupView) -> ClassTable:
    n = view.order
    if view.commutative:
        return ClassTable.from_class_of(view, np.arange(n, dtype=np.int64))
    # conjugation by a central axis point is the identity: skip its passes
    central = np.repeat(_central_axes(view.law), view.field.degree)
    perms = [view.conjugation_by(s) for s in view.axis_generators()[~central]]
    # label[g] stays a member of g's class and never grows, so an
    # unchanged sum means an unchanged array; at the fixpoint each label
    # is the least member of its class
    label = np.arange(n, dtype=np.int64)
    while True:
        before = int(label.sum())
        for perm in perms:
            np.minimum(label, label[perm], out=label)
            label[perm] = np.minimum(label[perm], label)
        while not np.array_equal(jumped := label[label], label):
            label = jumped
        if int(label.sum()) == before:
            break
    return ClassTable.from_class_of(view, np.unique(label, return_inverse=True)[1])


def _central_axes(law: GroupLaw) -> np.ndarray:
    """Axes i that no cocycle f_j involves; every t*e_i is then central,
    since f_j(t*e_i, g) = f_j(0, g) = 0 and likewise on the right."""
    used = set().union(*(poly.coordinate_indices() - {j} for j, poly in enumerate(law.mul)))
    return np.array([i not in used for i in range(law.dim)])


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
    """Ordinals of all h with hg = gh, ascending; a subgroup containing g.

    Z(g) is the feasible prefixes h_{<d} times every value of h_d.
    """
    codes = view.codes[view.index_of(g)][None, :]  # index_of checks the level
    _, prefix = view._feasible_prefixes(codes, codes)
    big_q = view.level_order
    return (prefix[:, None] * big_q + np.arange(big_q, dtype=np.int64)).ravel()


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
    points: list[Point],
    q: int,
    m: int,
    n_range,
    max_order: int = DEFAULT_MAX_ORDER,
) -> list[CentralizerGrowth]:
    """|Z(g) ∩ G(F_{q^{mN}})| for each point g and each N, one enumeration per level."""
    counts: list[list[tuple[int, int]]] = [[] for _ in points]
    for N in n_range:
        view = enumerate_group(law, tower, q, m * N, max_order=max_order)
        for g, row in zip(points, counts):
            row.append((N, int(centralizer(view, view.ops.embed(g, view.field)).size)))
    return [CentralizerGrowth(row, *_growth_estimates(row, q**m)) for row in counts]


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
