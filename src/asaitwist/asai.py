"""The norm map on conjugacy classes and the Asai twisting operator.

The norm map sends a class of g = x * F^m(x)^{-1} in G(F_{q^m}) to the
class of F^m(x)^{-1} * x = x^{-1} g x, with x from the triangular Lang
solver; the twisting operator is its pullback acting on class functions.
The operator is the identity exactly when the norm map fixes every
class, which is decided on the class permutation, never through numeric
comparison of functions.

For a class fixed by the norm map there is a centralizer witness, a
Lang solution of g in Z(g): some z in Z(g) at a finite level with
z F^m(z)^{-1} = g.  If y in G(F_{q^m}) conjugates the norm image back
to g, then z = x*y commutes with g, and z F^m(z)^{-1} = x F^m(x)^{-1}
= g because F^m(y) = y.  Moved classes admit no such witness, so
witness existence and fixedness must agree classwise on every run.

norm_map works in one batched pass over all class representatives, a
chunk of rows at a time, on (rows, d, k) digit arrays: the Lang solve,
the image check, the section of the images to F_{q^m} (their rationality
check) and their class lookup, and z with both of its checks for every
fixed class.  y is the least such rational element, found for every
fixed class of a chunk and level by one call of the coordinate-prefix
filter FiniteGroupView.find_conjugators.  No check evaluates the law's
inverse (see norm_map).  centralizer_witness only reads the result: a
class's witness is its point z.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .errors import InternalInconsistencyError, ParameterError
from .fields import FieldId
from .grouplaw import eval_mul, eval_polys

# lang_solve_triangular is the one-point form of lang_solve_batch; it stays
# bound here because perfbench/tracer.py wraps it at this import site
from .lang import lang_solve_batch, lang_solve_triangular, solves_lang  # noqa: F401
from .points import ClassTable, FiniteGroupView, Point, check_index, digits_point

# class representatives per batch: bounds the (rows, d, k) temporaries
_ROW_CHUNK = 1 << 12


@dataclass
class NormMapResult:
    """The class permutation induced by the norm map, with witnesses.

    perm[c] is the class index of the norm image of class c's
    representative and image_ordinals[c] the ordinal of that image at
    level q^m.  fixed is the bool mask perm == arange(n), the one record
    of which classes the norm map fixes.  levels holds (field, z) per
    witness level: a fixed class c has its centralizer witness
    z[where[c, 1]] in levels[where[c, 0]].  witness_errors maps each
    fixed class whose witness failed its checks to the failure; it is
    empty on a sound run.  has_witness masks the classes with a verified
    witness.
    """

    table: ClassTable
    perm: tuple[int, ...]
    fixed: np.ndarray
    image_ordinals: np.ndarray
    levels: list[tuple[FieldId, np.ndarray]]
    where: np.ndarray
    witness_errors: dict[int, str]
    stats: dict

    @property
    def view(self) -> FiniteGroupView:
        return self.table.view

    @property
    def has_witness(self) -> np.ndarray:
        """Bool mask of the classes with a verified centralizer witness:
        fixed and absent from witness_errors."""
        mask = self.fixed.copy()
        mask[list(self.witness_errors)] = False
        mask.flags.writeable = False
        return mask

    @property
    def images(self) -> list[Point]:
        """The rational points N(rep), one per class."""
        return [self.view.point(int(o)) for o in self.image_ordinals]


def norm_map(table: ClassTable) -> NormMapResult:
    """Batched Lang solve; asserts rather than assumes well-definedness.

    The image x^{-1} g x is evaluated as conj(g, x) and checked to be
    F^m(x)^{-1} x as F^m(x) * image == x, one product.  It is then
    F^m-rational, F^m(x)^{-1} g F^m(x) = x^{-1} g x as F^m(x) = g^{-1} x,
    so its section down to F_{q^m}, which refuses a non-rational row, is
    the one rationality check before the class lookup.  Every fixed
    class gets its centralizer witness z = x y here, checked exactly:
    z g = g z as conj(g, z) = g, and z F^m(z)^{-1} = g by the Lang check
    g F^m(z) = z (_witness_checks).  A failure is recorded in
    witness_errors, the one verdict on witnesses, and raised by
    centralizer_witness.  Extension degrees are bounded by the tower's
    degree_cap (CapExceeded above it).
    """
    view = table.view
    law, tower = view.law, view.tower
    base = view.field
    n = len(table)
    image_ordinals = np.empty(n, dtype=np.int64)
    where = np.empty((n, 2), dtype=np.int64)
    levels: list[tuple[FieldId, np.ndarray]] = []
    errors: dict[int, str] = {}
    for lo in range(0, n, _ROW_CHUNK):
        chunk = np.arange(lo, min(lo + _ROW_CHUNK, n))
        g = view.digits(table.reps[chunk])
        for lvl, rows, x in lang_solve_batch(law, tower, g):
            classes = chunk[rows]
            mul = partial(eval_mul, law, tower, lvl)
            conj = partial(eval_polys, law.conj, tower, lvl)
            solves = partial(solves_lang, law, tower, lvl, e=base.degree)
            ge = tower.vembed(base, lvl, g[rows])
            img = conj(ge, x)
            if not np.array_equal(mul(tower.vfrob(lvl, x, base.degree), img), x):
                raise InternalInconsistencyError(
                    "x^{-1} g x != F^m(x)^{-1} x despite x solving the Lang equation"
                )
            img = tower.vsection(lvl, base, img)
            ords = view.ordinals(img)
            image_ordinals[classes] = ords

            # z = x y for the fixed classes, y the least rational
            # element conjugating the image back to the representative
            fixed = np.nonzero(table.class_of[ords] == classes)[0]
            images, reps = ords[fixed], table.reps[classes[fixed]]
            search = images != reps
            found = view.find_conjugators(images[search], reps[search])
            for row in fixed[search][found < 0]:
                errors[int(classes[row])] = (
                    "class is fixed but no rational y conjugates the norm image back"
                )
            y = np.zeros(len(fixed), dtype=np.int64)
            y[search] = np.maximum(found, 0)  # a failed search keeps y = 1, its error recorded
            yd = tower.vembed(base, lvl, view.digits(y))
            z = np.zeros_like(x)
            z[fixed] = zf = mul(x[fixed], yd)
            commutes, coboundary = _witness_checks(conj, solves, ge[fixed], zf)
            for row in fixed[~(commutes & coboundary)]:
                errors.setdefault(int(classes[row]), "centralizer witness failed its checks")
            where[classes, 0] = len(levels)
            where[classes, 1] = np.arange(len(classes))
            levels.append((lvl, z))
    perm = table.class_of[image_ordinals]
    if not np.array_equal(np.sort(perm), np.arange(n)):
        raise InternalInconsistencyError("norm map did not permute the classes")
    stats = {
        "artin_schreier_solves": law.dim * n,  # one per coordinate and class
        "max_extension_degree": max([base.degree] + [lvl.degree for lvl, _ in levels]),
        "classes": n,
    }
    return NormMapResult(
        table, tuple(perm.tolist()), perm == np.arange(n), image_ordinals, levels, where,
        errors, stats,
    )


def _witness_checks(conj, solves, g, z) -> tuple[np.ndarray, np.ndarray]:
    """Row masks of the two witness checks on digit arrays at one level:
    z g == g z, as conj(g, z) == g, and z F^m(z)^{-1} == g, as the Lang
    check solves(z, g)."""
    return np.all(conj(g, z) == g, axis=(-2, -1)), solves(z, g)


def is_asai_trivial(result: NormMapResult) -> bool:
    """Delta functions separate classes, so the twisting operator is the
    identity on class functions iff the norm map fixes every class."""
    return bool(result.fixed.all())


def moved_classes(result: NormMapResult) -> list[int]:
    return np.nonzero(~result.fixed)[0].tolist()


def image_of_member(result: NormMapResult, ordinal: int) -> Point:
    """Norm image of an arbitrary group element, on demand.

    For h = w^{-1} g w with w rational, w^{-1} x w solves the Lang equation
    at h, so the image is the recorded class image conjugated by w, law.conj.
    """
    view = result.view
    ci = int(result.table.class_of[check_index(ordinal, view.order)])
    w_ord = view.find_conjugator(int(result.table.reps[ci]), ordinal)
    if w_ord is None:
        raise InternalInconsistencyError("ordinal is not in the class of its table")
    image, w = view.digits([int(result.image_ordinals[ci]), w_ord])
    return digits_point(view.field, eval_polys(view.law.conj, view.tower, view.field, image, w))


# ---------------------------------------------------------------------------
# class functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassFunction:
    """Exact rational values, one per conjugacy class."""

    table: ClassTable
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != len(self.table):
            raise ParameterError("value count != class count")


def delta_function(table: ClassTable, ci: int) -> ClassFunction:
    vals = [Fraction(0)] * len(table)
    vals[check_index(ci, len(table))] = Fraction(1)
    return ClassFunction(table, tuple(vals))


def constant_function(table: ClassTable, value) -> ClassFunction:
    return ClassFunction(table, (Fraction(value),) * len(table))


def asai_apply(result: NormMapResult, f: ClassFunction) -> ClassFunction:
    """Pullback along the norm map: (Theta f)(c) = f(perm(c))."""
    if f.table is not result.table:
        raise ParameterError("class function lives on a different table")
    return ClassFunction(f.table, tuple(f.values[result.perm[c]] for c in range(len(f.table))))


def inner_product(f1: ClassFunction, f2: ClassFunction) -> Fraction:
    """Sum over group elements of f1 * conj(f2): class values weighted by
    class size.  Conjugation is trivial on the exact rationals used here."""
    if f1.table is not f2.table:
        raise ParameterError("class functions live on different tables")
    sizes = f1.table.sizes
    return sum(
        (Fraction(sizes[c]) * f1.values[c] * f2.values[c] for c in range(len(f1.table))),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# twisted conjugacy
# ---------------------------------------------------------------------------


def twisted_classes(elements, mult, endo) -> list[list]:
    """Orbits of g ~ endo(h)^{-1} * g * h over all h.

    `elements` must be closed under mult and endo (closure failures
    raise); with endo the identity map this is ordinary conjugacy.  Sized
    for brute-force use on small groups.
    """
    elems = list(elements)
    index = {e: i for i, e in enumerate(elems)}
    if len(index) != len(elems):
        raise ParameterError("duplicate elements")

    def look(e, what):
        if e not in index:
            raise ParameterError(f"{what} leaves the element set: {e!r}")
        return e

    identity = None
    for e in elems:
        if mult(e, elems[0]) == elems[0]:
            identity = e
            break
    if identity is None or any(mult(identity, x) != x for x in elems):
        raise ParameterError("element set has no identity under mult")
    inv = {}
    for e in elems:
        for f in elems:
            if mult(e, f) == identity:
                inv[e] = f
                break
        else:
            raise ParameterError(f"{e!r} has no inverse: not a group")
    twisted = {h: look(endo(h), "endo") for h in elems}

    assigned: dict = {}
    classes: list[list] = []
    for g in elems:
        if g in assigned:
            continue
        orbit_ids = set()
        for h in elems:
            o = look(mult(mult(inv[twisted[h]], g), h), "mult")
            orbit_ids.add(index[o])
        members = [elems[i] for i in sorted(orbit_ids)]
        for e in members:
            assigned[e] = len(classes)
        classes.append(members)
    return classes


# ---------------------------------------------------------------------------
# centralizer witnesses for fixed classes
# ---------------------------------------------------------------------------


def centralizer_witness(result: NormMapResult, ci: int) -> Point | None:
    """The witness z of a fixed class; None for a moved class.

    z is a Lang solution of g in Z(g), g the class representative, and
    lives in an extension of g's field.  norm_map builds z = x y from the
    first y in canonical order with y^{-1} N(g) y = g (nonempty because
    the classes coincide) and re-verifies both witness checks exactly; a
    failure is a bug, not a legitimate outcome, and raises here.
    """
    if not result.fixed[check_index(ci, len(result.table))]:
        return None
    if ci in result.witness_errors:
        raise InternalInconsistencyError(result.witness_errors[ci])
    lvl, z = result.levels[int(result.where[ci, 0])]
    return digits_point(lvl, z[int(result.where[ci, 1])])
