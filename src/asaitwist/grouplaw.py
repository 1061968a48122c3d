"""Unipotent group laws as polynomial multiplication maps on affine d-space.

A law over F_p is a tuple of d polynomials in x1..xd, y1..yd giving the
coordinates of the product.  Accepted laws are triangular: coordinate i
equals x_i + y_i + h_i where h_i involves only coordinates j < i.  That
shape guarantees the identity sits at the origin, inverses are derivable
coordinate by coordinate, and the Lang equation reduces to one
Artin-Schreier equation per coordinate.  A law's conj, the coordinates
of y^{-1} x y, is composed from inv and mul on first read.

validate_law decides the group axioms as polynomial identities, by the
same composition: associativity in 3d variables and the inverse on both
sides.  A law that passes is a group law over every extension of F_p;
nothing is sampled and no field is built.  Polynomial.pow goes by the
base-p digits of the exponent, so composing a Frobenius twist such as
y1^p with a sum never expands (y1 + z1)^p.

builtin and parse_group_dsl are cached for the life of the process:
equal arguments give the one shared GroupLaw, so its inverse and conj
are derived once.  The caches grow with the distinct laws a process
reads and, like the field tower, are for one thread at a time.

The text DSL:

    group   := "group" NAME "dim" INT "char" INT mulstmt+
    mulstmt := "mul" "[" INT "]" "=" poly
    poly    := term (("+" | "-") term)*
    term    := INT? factor ("*" factor)*
    factor  := ("x" | "y") INT ("^" INT)?
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    GroupLawSemanticError,
    GroupLawSyntaxError,
    ParameterError,
)
from .fields import MAX_CHARACTERISTIC, FieldId, FieldTower, is_prime, p_power_exponent
from .modp import digit_power


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Polynomial:
    """Sparse polynomial over F_p in 2*d variables (x1..xd, y1..yd).

    Variable index j < d is x_{j+1}; index d <= j < 2d is y_{j-d+1}.
    Terms are kept in canonical order: ascending total degree, then
    descending lexicographic exponent vectors; coefficients in [1, p).
    """

    p: int
    nvars: int
    terms: tuple[tuple[int, tuple[int, ...]], ...]

    @staticmethod
    def make(p: int, nvars: int, raw) -> "Polynomial":
        """The polynomial of (coefficient, exponents) terms from outside:
        each exponent vector is checked, then the terms are collected."""
        checked = []
        for coeff, exps in raw:
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ParameterError("bad exponent vector")
            checked.append((int(coeff), exps))
        return Polynomial._collect(p, nvars, checked)

    @staticmethod
    def _collect(p: int, nvars: int, raw) -> "Polynomial":
        """Canonical form of terms whose exponent vectors are already
        tuples of nvars non-negative ints, as the operations build them."""
        acc: dict[tuple[int, ...], int] = {}
        for coeff, exps in raw:
            acc[exps] = acc.get(exps, 0) + coeff
        terms = [(c % p, e) for e, c in acc.items() if c % p]
        # canonical order in two stable sorts: exponents descending, then degree
        terms.sort(key=operator.itemgetter(1), reverse=True)
        terms.sort(key=lambda t: sum(t[1]))
        return Polynomial(p, nvars, tuple(terms))

    @staticmethod
    def zero(p: int, nvars: int) -> "Polynomial":
        return Polynomial(p, nvars, ())

    @staticmethod
    def variable(p: int, nvars: int, idx: int) -> "Polynomial":
        exps = [0] * nvars
        exps[idx] = 1
        return Polynomial(p, nvars, ((1, tuple(exps)),))

    def add(self, other: "Polynomial") -> "Polynomial":
        return Polynomial._collect(self.p, self.nvars, self.terms + other.terms)

    def neg(self) -> "Polynomial":
        return Polynomial._collect(self.p, self.nvars, [(-c, e) for c, e in self.terms])

    def sub(self, other: "Polynomial") -> "Polynomial":
        return self.add(other.neg())

    def mul(self, other: "Polynomial") -> "Polynomial":
        raw = [
            (c1 * c2, tuple(map(operator.add, e1, e2)))
            for c1, e1 in self.terms
            for c2, e2 in other.terms
        ]
        return Polynomial._collect(self.p, self.nvars, raw)

    def pow(self, e: int) -> "Polynomial":
        """self^e over the base-p digits of e, so (x + y)^p is never expanded."""
        one = Polynomial(self.p, self.nvars, ((1, (0,) * self.nvars),))
        return digit_power(self, e, self.p, Polynomial.mul, Polynomial._frob, one)

    def _frob(self, j: int) -> "Polynomial":
        """self^(p^j): coefficients lie in F_p, so only the exponents scale,
        and scaling them keeps the canonical order."""
        s = self.p**j
        terms = tuple((c, tuple(k * s for k in e)) for c, e in self.terms)
        return Polynomial(self.p, self.nvars, terms)

    def padded(self, lead: int, nvars: int) -> "Polynomial":
        """The same polynomial in nvars variables, variable j renamed to
        lead + j; the zero padding keeps the canonical order."""
        tail = (0,) * (nvars - lead - self.nvars)
        return Polynomial(self.p, nvars, tuple((c, (0,) * lead + e + tail) for c, e in self.terms))

    def subs(self, mapping: dict[int, "Polynomial"]) -> "Polynomial":
        """Substitute polynomials for variables by index, canonicalizing once."""
        raw = []
        for coeff, exps in self.terms:
            kept = tuple(0 if idx in mapping else e for idx, e in enumerate(exps))
            term = Polynomial(self.p, self.nvars, ((coeff, kept),))
            for idx, e in enumerate(exps):
                if e and idx in mapping:
                    term = term.mul(mapping[idx].pow(e))
            raw.extend(term.terms)
        return Polynomial._collect(self.p, self.nvars, raw)

    def coordinate_indices(self) -> set[int]:
        """Coordinate numbers (0-based) of all variables that occur."""
        d = self.nvars // 2
        used = set()
        for _, exps in self.terms:
            for idx, e in enumerate(exps):
                if e:
                    used.add(idx if idx < d else idx - d)
        return used

    def without(self, variables) -> "Polynomial":
        """The value at zero of these variables: the terms free of them."""
        idx = list(variables)
        keep = [(c, e) for c, e in self.terms if not any(e[j] for j in idx)]
        return Polynomial(self.p, self.nvars, tuple(keep))

    def evaluate(
        self,
        tower: FieldTower,
        fid: FieldId,
        x: np.ndarray,
        y: np.ndarray | None = None,
    ) -> np.ndarray:
        """Evaluate on digit arrays of shape (..., d, k); returns (..., k)."""
        d = self.nvars // 2
        k = fid.degree
        batch = np.broadcast_shapes(
            x.shape[:-2], () if y is None else y.shape[:-2]
        )
        acc = np.zeros(batch + (k,), dtype=np.int64)
        # each term adds at most (p-1)^2; reduce per term only where the sum could wrap
        wraps = len(self.terms) * (self.p - 1) ** 2 >= 1 << 63
        for coeff, exps in self.terms:
            term = None
            for idx, e in enumerate(exps):
                if not e:
                    continue
                base = x[..., idx, :] if idx < d else y[..., idx - d, :]
                fac = base if e == 1 else tower.vpow(fid, base, e)
                term = fac if term is None else tower.vmul(fid, term, fac)
            if term is None:
                acc[..., 0] += coeff
            elif coeff == 1:
                acc = acc + term
            else:
                acc = acc + term * coeff
            if wraps:
                acc %= self.p
        return acc % self.p


# ---------------------------------------------------------------------------
# group laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupLaw:
    """A validated triangular polynomial group law over F_p.

    family/params tag built-in constructions for the label oracle; they
    are metadata and do not take part in equality, so a DSL round trip of
    a builtin compares equal to it.
    """

    name: str
    p: int
    dim: int
    mul: tuple[Polynomial, ...]
    inv: tuple[Polynomial, ...]
    family: str | None = field(default=None, compare=False)
    params: tuple[int, ...] = field(default=(), compare=False)

    @cached_property
    def conj(self) -> tuple[Polynomial, ...]:
        """Coordinates of y^{-1} x y: inv(y) and mul(x, y) substituted into mul."""
        d = self.dim
        _, y = _variables(self.p, d)
        inv_y = [poly.subs({j: y[j] for j in range(d)}) for poly in self.inv]
        images = {j: inv_y[j] for j in range(d)} | {d + j: self.mul[j] for j in range(d)}
        return tuple(poly.subs(images) for poly in self.mul)


def _variables(p: int, dim: int) -> tuple[list[Polynomial], list[Polynomial]]:
    """The variables x_1..x_d and y_1..y_d of a law of dimension d."""
    v = [Polynomial.variable(p, 2 * dim, j) for j in range(2 * dim)]
    return v[:dim], v[dim:]


def _check_identity_polys(p: int, dim: int, mul: tuple[Polynomial, ...]) -> None:
    x, y = _variables(p, dim)
    for i, poly in enumerate(mul):
        if poly.without(range(dim, 2 * dim)) != x[i]:
            raise GroupLawSemanticError(
                f"coordinate {i + 1}: mul(x, 0) != x, identity is not the origin",
                coordinate=i + 1,
            )
        if poly.without(range(dim)) != y[i]:
            raise GroupLawSemanticError(
                f"coordinate {i + 1}: mul(0, y) != y, identity is not the origin",
                coordinate=i + 1,
            )


def _check_triangular(p: int, dim: int, mul: tuple[Polynomial, ...]) -> list[Polynomial]:
    """The cocycles h_i = mul_i - x_i - y_i, each checked to involve only j < i."""
    x, y = _variables(p, dim)
    hs = []
    for i, poly in enumerate(mul):
        h = poly.sub(x[i]).sub(y[i])
        bad = {j for j in h.coordinate_indices() if j >= i}
        if bad:
            raise GroupLawSemanticError(
                f"coordinate {i + 1} depends on index {min(bad) + 1} (non-triangular)",
                coordinate=i + 1,
            )
        hs.append(h)
    return hs


def derive_inverse(mul: tuple[Polynomial, ...], dim: int, p: int) -> tuple[Polynomial, ...]:
    """Inverse coordinates of a triangular law.

    inv_i = -x_i - h_i(x_{<i}, inv_{<i}(x)), expanded symbolically; the
    identity mul(x, inv(x)) = 0 is verified as polynomials.
    """
    x, _ = _variables(p, dim)
    inv: list[Polynomial] = []
    for i, h in enumerate(_check_triangular(p, dim, mul)):
        hsub = h.subs({dim + j: inv[j] for j in range(i)})
        inv.append(x[i].neg().sub(hsub))
    for i in range(dim):
        check = mul[i].subs({dim + j: inv[j] for j in range(dim)})
        if check.terms:
            raise GroupLawSemanticError(
                f"derived inverse fails at coordinate {i + 1}", coordinate=i + 1
            )
    return tuple(inv)


def make_law(
    name: str,
    p: int,
    dim: int,
    mul: tuple[Polynomial, ...],
    family: str | None = None,
    params: tuple[int, ...] = (),
) -> GroupLaw:
    if p <= MAX_CHARACTERISTIC and not is_prime(p):  # a larger p no tower accepts
        raise GroupLawSemanticError(f"characteristic must be prime, got {p}")
    if len(mul) != dim:
        raise GroupLawSemanticError(f"expected {dim} coordinates, got {len(mul)}")
    _check_identity_polys(p, dim, mul)
    inv = derive_inverse(mul, dim, p)
    return GroupLaw(name, p, dim, mul, inv, family, params)


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------


def ul_coordinates(n: int) -> list[tuple[int, int]]:
    """Strictly upper matrix positions ordered by diagonal distance, then row."""
    return [(i, i + dist) for dist in range(1, n) for i in range(1, n - dist + 1)]


@lru_cache(maxsize=None)
def builtin(family: str, p: int, param: int | None = None) -> GroupLaw:
    """Built-in families: ul(n), ga_power(d), n2; one shared law per
    argument tuple."""
    if family == "ul":
        n = param
        if n is None or n < 2:
            raise ParameterError("ul requires n >= 2")
        coords = ul_coordinates(n)
        pos = {c: k for k, c in enumerate(coords)}
        dim = len(coords)
        x, y = _variables(p, dim)
        mul = []
        for (i, j) in coords:
            # (XY)_ij = x_ij + y_ij + sum over i < k < j of x_ik * y_kj
            poly = x[pos[(i, j)]].add(y[pos[(i, j)]])
            for k in range(i + 1, j):
                poly = poly.add(x[pos[(i, k)]].mul(y[pos[(k, j)]]))
            mul.append(poly)
        return make_law(f"ul{n}", p, dim, tuple(mul), family="ul", params=(n,))
    if family == "ga_power":
        d = param
        if d is None or d < 1:
            raise ParameterError("ga_power requires d >= 1")
        x, y = _variables(p, d)
        mul = tuple(xi.add(yi) for xi, yi in zip(x, y))
        return make_law(f"ga{d}", p, d, mul, family="ga_power", params=(d,))
    if family == "n2":
        if param is not None:
            raise ParameterError("n2 takes no parameter")
        (x1, x2), (y1, y2) = _variables(p, 2)
        mul = (x1.add(y1), x2.add(y2).add(x1.mul(y1.pow(p))))
        return make_law("n2", p, 2, mul, family="n2", params=())
    raise ParameterError(f"unknown family {family!r}")


def parse_group_name(text: str, p: int) -> GroupLaw:
    """Parse CLI group names like 'ul(3)', 'ga_power(2)', 'n2'."""
    m = re.fullmatch(r"([a-z_0-9]+)(?:\((\d+)\))?", text.strip())
    if not m:
        raise ParameterError(f"cannot parse group name {text!r}")
    fam, arg = m.group(1), m.group(2)
    return builtin(fam, p, int(arg) if arg is not None else None)


# ---------------------------------------------------------------------------
# DSL parser / printer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|\S")


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _TOKEN_RE.finditer(line):
            t = m.group(0)
            col = m.start() + 1
            if t.isdigit():
                toks.append(_Tok("INT", t, lineno, col))
            elif re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", t):
                toks.append(_Tok("NAME", t, lineno, col))
            elif t in "[]=+-*^":
                toks.append(_Tok(t, t, lineno, col))
            else:
                raise GroupLawSyntaxError(f"unexpected character {t!r}", lineno, col)
    toks.append(_Tok("EOF", "", lineno if text else 1, 1))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, what: str | None = None) -> _Tok:
        t = self.next()
        if t.kind != kind:
            raise GroupLawSyntaxError(
                f"expected {what or kind}, got {t.text!r}", t.line, t.col
            )
        return t

    def expect_kw(self, word: str):
        t = self.next()
        if t.kind != "NAME" or t.text != word:
            raise GroupLawSyntaxError(f"expected '{word}', got {t.text!r}", t.line, t.col)


@lru_cache(maxsize=None)
def parse_group_dsl(text: str) -> GroupLaw:
    """Parse and validate a group law written in the text DSL.

    Syntax errors carry line/column; semantic violations (non-prime
    characteristic, identity not at the origin, non-triangular coordinate)
    raise GroupLawSemanticError.  Equal texts give the one shared law; an
    error is not cached, so it is raised again on every call.
    """
    ps = _Parser(_tokenize(text))
    ps.expect_kw("group")
    name = ps.expect("NAME", "group name").text
    ps.expect_kw("dim")
    dim = int(ps.expect("INT", "dimension").text)
    ps.expect_kw("char")
    p = int(ps.expect("INT", "characteristic").text)
    if dim < 1:
        raise GroupLawSemanticError("dimension must be >= 1")
    if p <= MAX_CHARACTERISTIC and not is_prime(p):  # a larger p no tower accepts
        raise GroupLawSemanticError(f"characteristic must be prime, got {p}")
    polys: dict[int, Polynomial] = {}
    while ps.peek().kind != "EOF":
        t = ps.peek()
        if not (t.kind == "NAME" and t.text == "mul"):
            raise GroupLawSyntaxError(f"expected 'mul', got {t.text!r}", t.line, t.col)
        ps.next()
        ps.expect("[")
        itok = ps.expect("INT", "coordinate index")
        idx = int(itok.text)
        ps.expect("]")
        ps.expect("=")
        if not 1 <= idx <= dim:
            raise GroupLawSemanticError(
                f"coordinate index {idx} out of range 1..{dim}", coordinate=idx
            )
        if idx in polys:
            raise GroupLawSemanticError(
                f"coordinate {idx} defined twice", coordinate=idx
            )
        polys[idx] = _parse_poly(ps, p, dim)
    missing = [i for i in range(1, dim + 1) if i not in polys]
    if missing:
        raise GroupLawSemanticError(f"missing mul[{missing[0]}]", coordinate=missing[0])
    mul = tuple(polys[i] for i in range(1, dim + 1))
    return make_law(name, p, dim, mul)


def _parse_poly(ps: _Parser, p: int, dim: int) -> Polynomial:
    nv = 2 * dim
    raw = []
    sign = 1
    while True:
        raw.append(_parse_term(ps, p, dim, sign))
        t = ps.peek()
        if t.kind == "+":
            sign = 1
            ps.next()
        elif t.kind == "-":
            sign = -1
            ps.next()
        else:
            break
    return Polynomial.make(p, nv, raw)


def _parse_term(ps: _Parser, p: int, dim: int, sign: int):
    nv = 2 * dim
    coeff = 1
    if ps.peek().kind == "INT":
        coeff = int(ps.next().text)
    exps = [0] * nv
    _parse_factor(ps, dim, exps)
    while ps.peek().kind == "*":
        ps.next()
        _parse_factor(ps, dim, exps)
    return (sign * coeff, tuple(exps))


_FACTOR_RE = re.compile(r"([xy])(\d+)")


def _parse_factor(ps: _Parser, dim: int, exps: list[int]):
    t = ps.next()
    m = _FACTOR_RE.fullmatch(t.text) if t.kind == "NAME" else None
    if not m:
        raise GroupLawSyntaxError(
            f"expected a factor like x1 or y2, got {t.text!r}", t.line, t.col
        )
    which, num = m.group(1), int(m.group(2))
    if not 1 <= num <= dim:
        raise GroupLawSemanticError(
            f"variable {t.text} out of range for dimension {dim}"
        )
    e = 1
    if ps.peek().kind == "^":
        ps.next()
        e = int(ps.expect("INT", "exponent").text)
    idx = (num - 1) if which == "x" else dim + (num - 1)
    exps[idx] += e


def _format_poly(poly: Polynomial, dim: int) -> str:
    if not poly.terms:
        return "0"
    parts = []
    for coeff, exps in poly.terms:
        factors = []
        for idx, e in enumerate(exps):
            if not e:
                continue
            name = f"x{idx + 1}" if idx < dim else f"y{idx - dim + 1}"
            factors.append(name if e == 1 else f"{name}^{e}")
        body = " * ".join(factors)
        parts.append(body if coeff == 1 else f"{coeff} {body}")
    return " + ".join(parts)


def canonical_text(law: GroupLaw) -> str:
    """Deterministic DSL print; parsing it back yields an equal law."""
    lines = [f"group {law.name} dim {law.dim} char {law.p}"]
    for i, poly in enumerate(law.mul):
        lines.append(f"mul[{i + 1}] = {_format_poly(poly, law.dim)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def add(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, ok, detail))

    def failures(self) -> list[str]:
        return [f"{n}: {d}" for n, ok, d in self.checks if not ok]


def eval_polys(polys, tower: FieldTower, fid: FieldId, x, y=None) -> np.ndarray:
    """Each polynomial of a tuple on digit arrays (..., d, k), stacked as
    coordinates: (..., len(polys), k)."""
    return np.stack([poly.evaluate(tower, fid, x, y) for poly in polys], axis=-2)


def eval_mul(law: GroupLaw, tower: FieldTower, fid: FieldId, x, y) -> np.ndarray:
    """Vectorized product: digit arrays (..., d, k) -> (..., d, k)."""
    return eval_polys(law.mul, tower, fid, x, y)


def eval_inv(law: GroupLaw, tower: FieldTower, fid: FieldId, x) -> np.ndarray:
    return eval_polys(law.inv, tower, fid, x)


def all_tuples(tower: FieldTower, fid: FieldId, dim: int, ordinals=None) -> np.ndarray:
    """Digit arrays of coordinate tuples, canonically ordered.

    The ordinal of a tuple is the C-order index of its coordinate codes,
    so coordinate 1 is the most significant; ordinals == None enumerates
    the full space.
    """
    q = fid.order
    if ordinals is None:
        ordinals = np.arange(q**dim, dtype=np.int64)
    return tower.codes_to_digits(fid, np.stack(np.unravel_index(ordinals, (q,) * dim), axis=-1))


def validate_law(law: GroupLaw, tower: FieldTower, q: int) -> ValidationReport:
    """Decide the group axioms of a law exactly, as polynomial identities.

    The checks are the identity at the origin, associativity
    mul(mul(x, y), z) = mul(x, mul(y, z)) in 3d variables, and the
    inverse on both sides, mul(x, inv(x)) = mul(inv(x), x) = 0.  An
    identity of polynomials holds on G over every F_{q^m} and over the
    algebraic closure, where Lang's theorem is applied; and since the
    coefficients lie in F_p, the q-power Frobenius is a group
    endomorphism with no check.  q must be a power of law.p; tower is
    not read, and no field is built.
    """
    p_power_exponent(q, law.p)
    p, d = law.p, law.dim
    rep = ValidationReport()
    try:
        _check_identity_polys(p, d, law.mul)
        rep.add("identity", True)
    except GroupLawSemanticError as exc:
        rep.add("identity", False, str(exc))

    def check(name: str, *identities):
        """Each identity is its text and the polynomials, one per
        coordinate, that it says vanish; report the first that does not."""
        for text, zeros in identities:
            for i, poly in enumerate(zeros):
                if poly.terms:
                    return rep.add(name, False, f"coordinate {i + 1}: {text}")
        rep.add(name, True)

    xy = [poly.padded(0, 3 * d) for poly in law.mul]
    yz = [poly.padded(d, 3 * d) for poly in law.mul]
    z = [Polynomial.variable(p, 3 * d, 2 * d + j) for j in range(d)]
    xy_z, x_yz = dict(enumerate(xy + z)), dict(enumerate(yz, start=d))
    assoc = [poly.subs(xy_z).sub(poly.subs(x_yz)) for poly in xy]
    check("associativity", ("mul(mul(x, y), z) != mul(x, mul(y, z))", assoc))

    x, _ = _variables(p, d)
    right, left = dict(enumerate(law.inv, start=d)), dict(enumerate([*law.inv, *x]))
    check(
        "inverse",
        ("mul(x, inv(x)) != 0", [poly.subs(right) for poly in law.mul]),
        ("mul(inv(x), x) != 0", [poly.subs(left) for poly in law.mul]),
    )
    return rep
