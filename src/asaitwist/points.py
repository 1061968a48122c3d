"""Finite-level points of a group law: enumeration, classes, centralizers.

G(F_{q^m}) for a triangular law over F_p is the full coordinate space
(F_{q^m})^d: the q^m-power Frobenius acts coordinate-wise, so its fixed
points are exactly the tuples with every coordinate in F_{q^m}.  A view
names an element by its ordinal or by its digit array (d, k), and its
methods take and return only those two forms (digits() and ordinals()
convert).  The ordinal is the C-order index of the coordinate codes
(coordinate 1 most significant), so list position, lookup key and
canonical order all coincide.

The codes are the private form of the kernels here.  Conjugation is
the law's conj map, with one backend: add/mul lookup tables over the
codes of F_{q^m}, so a whole-group conjugation pass is a handful of
fancy-indexing operations.  A view builds its tables the first time
they are read, and nothing but the conjugates_combined oracle reads
them for a law of dimension 1 (x1 + y1, since it is triangular), so
tables the pipeline builds have (q^m)^2 <= (q^m)^d = |G| entries.
A class table is its class map class_of, one int32 class index per
ordinal with classes numbered by least member, and those least members
as representatives; sizes and members are read off class_of.  Class
tables are immutable after construction.

Conjugacy classes are the orbits of conjugation by the d*deg axis
generators t*e_i (t over an F_p-basis of F_{q^m}, deg its size), found
by min-label propagation with pointer jumping: one conjugation pass per
generator, not one per class.  The axis points generate G: the points
with x_{<i} = 0 form a subgroup K_i, coordinate i is additive on K_i,
and its kernel there is K_{i+1}.  A pass evaluates only the coordinates
j that its generator moves, those whose conj at y_k = 0 for every k
!= i is not x_j, and adds the ordinal delta (v_j - x_j)*Q^(d-1-j) of
each to the identity permutation.  Axis i is central, and its
generators get no pass, when they move no coordinate: so is every axis
no cocycle involves (always axis d), and every axis of a commutative
law, whose class pass is then no pass at all.  Ordinals, codes and
permutations are int32, so a view refuses a group of more than
2^31 - 1 elements whatever its cap.

Conjugator search and centralizers never conjugate by every h.  The
h_i of h^{-1} g h cancels, so coordinate i of conj involves only
h_{<i}, and checking h^{-1} g h = t one coordinate at a time is exact
(the first i coordinates of a triangular law form a quotient group): a
breadth-first filter over coordinate prefixes, taking every row of a
batch at once and expanding at most min(_CHUNK, |G|) candidates at a
time, finds every feasible h_{<d}, and h_d is free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import CapExceeded, ParameterError
from .fields import FieldElement, FieldId, FieldTower, p_power_exponent
from .grouplaw import GroupLaw, Polynomial, all_tuples, eval_inv, eval_mul
from .modp import power

DEFAULT_MAX_ORDER = 2_000_000
_CHUNK = 1 << 16
_INT32_MAX = 2**31 - 1  # ordinals, codes and class-pass permutations are int32


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


def check_index(i, n: int):
    """i, an int or int array, when all of it lies in [0, n); else it raises."""
    for v in (np.min(i, initial=0), np.max(i, initial=0)):
        if not 0 <= v < n:
            raise ParameterError(f"index {v} is outside [0, {n})")
    return i


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


def _eval_poly_codes(poly: Polynomial, tab: _CodeTables, x, y) -> np.ndarray:
    d = poly.nvars // 2
    shape = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
    acc = np.zeros(shape, dtype=np.int32)
    for coeff, exps in poly.terms:
        term = None
        for idx, e in enumerate(exps):
            if not e:
                continue
            base = x[..., idx] if idx < d else y[..., idx - d]
            f = power(base, e, lambda a, b: tab.mul[a, b], 1)  # 1 is the code of one
            term = f if term is None else tab.mul[term, f]
        if term is None:
            acc = tab.add[acc, coeff]
        else:
            if coeff != 1:
                term = tab.mul[coeff, term]
            acc = tab.add[acc, term]
    return acc


def _coordinate_agrees(poly: Polynomial, tab: _CodeTables, g, h, t) -> np.ndarray:
    """Rows where the coordinate of h^{-1} g h that poly gives equals t."""
    return _eval_poly_codes(poly, tab, g, h) == t


class FiniteGroupView:
    """G(F_{q^m}) with canonical element order and vectorized kernels.

    Every method takes and returns ordinals or digit arrays; the
    coordinate codes of the lookup-table kernels stay inside them.
    """

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
        if order > _INT32_MAX:
            raise CapExceeded(f"|G(F_{q}^{m})| = {order} has ordinals past int32")
        self.law = law
        self.tower = tower
        self.q = q
        self.m = m
        self.level_order = big_q
        self.field = tower.make_field(n * m)
        self.order = order
        self.ops = LawOps(law, tower)
        # the kernels' coordinate codes: row o is the C-order multi-index
        # of ordinal o, the one rule all_tuples and ordinals() also follow,
        # in int32 and stored column by column, as the class pass reads them
        self._radices = (big_q,) * law.dim
        ordinal = np.arange(order, dtype=np.int32)
        self._codes = np.empty((order, law.dim), dtype=np.int32, order="F")
        for j in range(law.dim):
            np.remainder(ordinal // big_q ** (law.dim - 1 - j), big_q, out=self._codes[:, j])

    @cached_property
    def tables(self) -> _CodeTables:
        return _CodeTables(self.tower, self.field)

    def _ordinals_of_codes(self, codes: np.ndarray) -> np.ndarray:
        return np.ravel_multi_index(tuple(np.moveaxis(codes, -1, 0)), self._radices)

    def digits(self, ordinals) -> np.ndarray:
        """Digit arrays (..., d, k) of the elements with these ordinals."""
        return all_tuples(self.tower, self.field, self.law.dim, ordinals)

    def ordinals(self, digits: np.ndarray) -> np.ndarray:
        """Ordinals of the elements with these digit arrays (..., d, k)."""
        return self._ordinals_of_codes(self.tower.digits_to_codes(self.field, digits))

    def point(self, ordinal: int) -> Point:
        return digits_point(self.field, self.digits(check_index(ordinal, self.order)))

    def index_of(self, pt: Point) -> int:
        if pt.field != self.field or len(pt.coords) != self.law.dim:
            raise ParameterError("point is not at this view's level or not of its dimension")
        return int(self.ordinals(point_digits(pt)))

    def __len__(self) -> int:
        return self.order

    # ---- whole-group conjugation kernels ----

    def conjugates_combined(self, g: int) -> np.ndarray:
        """Ordinals of h^{-1} g h over all h, in ordinal order: the law's
        conj without its terms in the coordinates of g that are zero."""
        x = self._codes[[g]]
        zero = np.flatnonzero(x[0] == 0)
        conj = [
            _eval_poly_codes(c.without(zero), self.tables, x, self._codes) for c in self.law.conj
        ]
        return self._ordinals_of_codes(np.stack(conj, axis=-1))

    def conjugation_by(self, s: int) -> np.ndarray:
        """Ordinals of s^{-1} g s over all g, in ordinal order, as int32.

        Conjugation by s is an automorphism, so this is a permutation of
        the ordinals.  Only the coordinates j that s moves are evaluated,
        each adding (v_j - x_j)*Q^(d-1-j) to the identity ordinals.
        """
        codes, big_q, d = self._codes, self.level_order, self.law.dim
        y = codes[[check_index(s, self.order)]]
        perm = np.arange(self.order, dtype=np.int32)
        for j, poly in _moved_coordinates(self.law, tuple(np.flatnonzero(y[0]).tolist())):
            moved = _eval_poly_codes(poly, self.tables, codes, y) - codes[:, j]
            perm += moved * big_q ** (d - 1 - j)
        return perm

    def axis_generators(self) -> np.ndarray:
        """Ordinals of the d*deg axis points t*e_i, t over the F_p-basis of
        the level, coordinate i major: row i*deg + j of the identity
        matrix is the digit array of t^j*e_i."""
        dim, deg = self.law.dim, self.field.degree
        return self.ordinals(np.eye(dim * deg, dtype=np.int64).reshape(-1, dim, deg))

    # ---- conjugator search by prefix filtering ----

    def _feasible_prefixes(self, g: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The prefixes h_{<d} with g h = h t, for every ordinal pair at once.

        Returns (seg, prefix): prefix[k] is the C-order index of the codes
        of h_1..h_{d-1} and seg[k] the pair it solves, sorted by (seg,
        prefix).  Coordinate i of g h = h t involves only h_{<i}, so the
        first coordinates must agree outright, each level extends every
        surviving prefix by all q^m values of the next coordinate in
        order and keeps those that satisfy the coordinate after it, and
        h_d is free.  Blocks of at most min(_CHUNK, |G|) candidates
        bound the temporaries.
        """
        law, big_q = self.law, self.level_order
        g_rows, t_rows = (self._codes[check_index(a, self.order)] for a in (g, t))
        seg = np.nonzero(g_rows[:, 0] == t_rows[:, 0])[0]
        prefix = np.zeros(seg.size, dtype=np.int64)
        # no block holds more candidates than a whole-group pass has rows
        step = max(1, min(_CHUNK, self.order) // big_q)
        values = np.arange(big_q, dtype=np.int64)
        for i in range(1, law.dim):
            if not seg.size:
                break
            # ordinal of (h_1..h_i, 0, ..., 0) is the prefix index times stride
            stride = big_q ** (law.dim - i)
            kept_seg, kept_prefix = [], []
            for lo in range(0, seg.size, step):
                s = np.repeat(seg[lo : lo + step], big_q)
                cand = (prefix[lo : lo + step, None] * big_q + values).ravel()
                ok = _coordinate_agrees(
                    law.conj[i], self.tables, g_rows[s], self._codes[cand * stride], t_rows[s, i]
                )
                kept_seg.append(s[ok])
                kept_prefix.append(cand[ok])
            seg, prefix = np.concatenate(kept_seg), np.concatenate(kept_prefix)
        return seg, prefix

    def find_conjugators(self, g: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Least ordinal h with h^{-1} g h = t per pair of ordinals, -1
        where there is none: the first feasible prefix, with h_d = 0."""
        seg, prefix = self._feasible_prefixes(g, t)
        found = np.full(len(g), -1, dtype=np.int64)
        rows, first = np.unique(seg, return_index=True)
        found[rows] = prefix[first] * self.level_order
        return found

    def find_conjugator(self, g: int, target: int) -> int | None:
        """Least ordinal h with h^{-1} g h = target, or None."""
        found = int(self.find_conjugators([g], [target])[0])
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
    """Conjugacy classes of a FiniteGroupView, as the class map.

    Classes are numbered 0.. in order of their least member, and each
    representative is the least member of its class.  class_of is all
    the table holds per element; sizes and members are read off it.
    """

    view: FiniteGroupView
    reps: np.ndarray  # ordinals of representatives, one per class, ascending
    class_of: np.ndarray  # ordinal -> class index, int32

    @property
    def members(self) -> list[np.ndarray]:
        """Ascending ordinals per class, from one stable sort of class_of."""
        order = np.argsort(self.class_of, kind="stable")
        return np.split(order, np.cumsum(self.sizes)[:-1])

    @property
    def sizes(self) -> list[int]:
        return np.bincount(self.class_of, minlength=len(self.reps)).tolist()

    def __len__(self) -> int:
        return len(self.reps)

    def rep_point(self, ci: int) -> Point:
        return self.view.point(int(self.reps[check_index(ci, len(self))]))


def conjugacy_classes(view: FiniteGroupView) -> ClassTable:
    n = view.order
    # conjugation by a central axis point is the identity: skip its passes
    central = np.repeat(_central_axes(view.law), view.field.degree)
    perms = [view.conjugation_by(s) for s in view.axis_generators()[~central]]
    # label[g] stays a member of g's class and never grows; once every
    # generator maps label to itself it is constant on each class, so
    # each label is the least member of its class
    label = np.arange(n, dtype=np.int32)
    while True:
        for perm in perms:
            np.minimum(label, label[perm], out=label)
            label[perm] = np.minimum(label[perm], label)
        while not np.array_equal(jumped := label[label], label):
            label = jumped
        if all(np.array_equal(label[perm], label) for perm in perms):
            break
    # number the classes by least member: the least members are the g
    # with label[g] == g, in ordinal order
    least = label == np.arange(n, dtype=np.int32)
    class_of = np.cumsum(least, dtype=np.int32) - 1
    return ClassTable(view, np.flatnonzero(least), class_of[label])


@lru_cache(maxsize=256)
def _moved_coordinates(
    law: GroupLaw, axes: tuple[int, ...]
) -> tuple[tuple[int, Polynomial], ...]:
    """(j, conj_j) for each coordinate j of y^{-1} x y that y on these axes
    moves, as polynomials: conj_j at y_k = 0 for every k off the axes is
    not the variable x_j.  Cached, as every pass along an axis asks."""
    d = law.dim
    off = [d + k for k in range(d) if k not in axes]
    moved = [(j, poly.without(off)) for j, poly in enumerate(law.conj)]
    return tuple((j, poly) for j, poly in moved if poly != Polynomial.variable(law.p, 2 * d, j))


def _central_axes(law: GroupLaw) -> np.ndarray:
    """Axes i with y^{-1} x y = x for y on axis i: axis i moves no coordinate."""
    return np.array([not _moved_coordinates(law, (i,)) for i in range(law.dim)])


def _commutative_as_polynomials(law: GroupLaw) -> bool:
    """Every axis is central; the benchmark's own tests import this name."""
    return bool(_central_axes(law).all())


def centralizer(view: FiniteGroupView, g: Point) -> np.ndarray:
    """Ordinals of all h with hg = gh, ascending; a subgroup containing g.

    Z(g) is the feasible prefixes h_{<d} times every value of h_d.
    """
    ordinal = [view.index_of(g)]  # index_of checks the level and dimension
    _, prefix = view._feasible_prefixes(ordinal, ordinal)
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
