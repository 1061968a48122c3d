"""Unipotent group laws as polynomial multiplication maps on affine d-space.

A law over F_p is a tuple of d polynomials in x1..xd, y1..yd giving the
coordinates of the product.  Accepted laws are triangular: coordinate i
equals x_i + y_i + h_i where h_i involves only coordinates j < i.  That
shape guarantees the identity sits at the origin, inverses are derivable
coordinate by coordinate, and the Lang equation reduces to one
Artin-Schreier equation per coordinate.

The text DSL:

    group   := "group" NAME "dim" INT "char" INT mulstmt+
    mulstmt := "mul" "[" INT "]" "=" poly
    poly    := term (("+" | "-") term)*
    term    := INT? factor ("*" factor)*
    factor  := ("x" | "y") INT ("^" INT)?
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GroupLawSemanticError,
    GroupLawSyntaxError,
    ParameterError,
)
from .fields import FieldId, FieldTower, is_prime, p_power_exponent
from .modp import power

_SAMPLE_SEED = 1729


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def _term_key(exps: tuple[int, ...]):
    return (sum(exps), tuple(-e for e in exps))


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
        acc: dict[tuple[int, ...], int] = {}
        for coeff, exps in raw:
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ParameterError("bad exponent vector")
            acc[exps] = (acc.get(exps, 0) + coeff) % p
        terms = tuple(
            (c, e) for e, c in sorted(acc.items(), key=lambda kv: _term_key(kv[0])) if c
        )
        return Polynomial(p, nvars, terms)

    @staticmethod
    def zero(p: int, nvars: int) -> "Polynomial":
        return Polynomial(p, nvars, ())

    @staticmethod
    def variable(p: int, nvars: int, idx: int) -> "Polynomial":
        exps = [0] * nvars
        exps[idx] = 1
        return Polynomial.make(p, nvars, [(1, tuple(exps))])

    def add(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.make(self.p, self.nvars, list(self.terms) + list(other.terms))

    def neg(self) -> "Polynomial":
        return Polynomial.make(self.p, self.nvars, [(-c, e) for c, e in self.terms])

    def sub(self, other: "Polynomial") -> "Polynomial":
        return self.add(other.neg())

    def mul(self, other: "Polynomial") -> "Polynomial":
        raw = []
        for c1, e1 in self.terms:
            for c2, e2 in other.terms:
                raw.append((c1 * c2, tuple(a + b for a, b in zip(e1, e2))))
        return Polynomial.make(self.p, self.nvars, raw)

    def pow(self, e: int) -> "Polynomial":
        one = Polynomial.make(self.p, self.nvars, [(1, (0,) * self.nvars)])
        return power(self, e, Polynomial.mul, one)

    def subs(self, mapping: dict[int, "Polynomial"]) -> "Polynomial":
        """Substitute polynomials for variables by index."""
        out = Polynomial.zero(self.p, self.nvars)
        for coeff, exps in self.terms:
            term = Polynomial.make(self.p, self.nvars, [(coeff, (0,) * self.nvars)])
            for idx, e in enumerate(exps):
                if not e:
                    continue
                rep = mapping.get(idx)
                if rep is None:
                    rep = Polynomial.variable(self.p, self.nvars, idx)
                term = term.mul(rep.pow(e))
            out = out.add(term)
        return out

    def coordinate_indices(self) -> set[int]:
        """Coordinate numbers (0-based) of all variables that occur."""
        d = self.nvars // 2
        used = set()
        for _, exps in self.terms:
            for idx, e in enumerate(exps):
                if e:
                    used.add(idx if idx < d else idx - d)
        return used

    def only_x(self) -> "Polynomial":
        """Terms free of every y variable (i.e. the value at y = 0)."""
        d = self.nvars // 2
        keep = [(c, e) for c, e in self.terms if not any(e[d:])]
        return Polynomial.make(self.p, self.nvars, keep)

    def only_y(self) -> "Polynomial":
        d = self.nvars // 2
        keep = [(c, e) for c, e in self.terms if not any(e[:d])]
        return Polynomial.make(self.p, self.nvars, keep)

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


def _variables(p: int, dim: int) -> tuple[list[Polynomial], list[Polynomial]]:
    """The variables x_1..x_d and y_1..y_d of a law of dimension d."""
    v = [Polynomial.variable(p, 2 * dim, j) for j in range(2 * dim)]
    return v[:dim], v[dim:]


def _check_identity_polys(p: int, dim: int, mul: tuple[Polynomial, ...]) -> None:
    x, y = _variables(p, dim)
    for i, poly in enumerate(mul):
        if poly.only_x().sub(x[i]).terms:
            raise GroupLawSemanticError(
                f"coordinate {i + 1}: mul(x, 0) != x, identity is not the origin",
                coordinate=i + 1,
            )
        if poly.only_y().sub(y[i]).terms:
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
    if not is_prime(p):
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


def builtin(family: str, p: int, param: int | None = None) -> GroupLaw:
    """Built-in families: ul(n), ga_power(d), n2."""
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


def parse_group_dsl(text: str) -> GroupLaw:
    """Parse and validate a group law written in the text DSL.

    Syntax errors carry line/column; semantic violations (non-prime
    characteristic, identity not at the origin, non-triangular coordinate)
    raise GroupLawSemanticError.
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
    if not is_prime(p):
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

# associativity is exhaustive while the number of triples, and the inverse
# check while the number of points, stays within this; both sample above it
_EXHAUSTIVE_LIMIT = 10**6
# sampled checks draw and evaluate at most this many rows at a time
_SAMPLE_CHUNK = 1 << 14


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


def eval_mul(law: GroupLaw, tower: FieldTower, fid: FieldId, x, y) -> np.ndarray:
    """Vectorized product: digit arrays (..., d, k) -> (..., d, k)."""
    return np.stack(
        [poly.evaluate(tower, fid, x, y) for poly in law.mul], axis=-2
    )


def eval_inv(law: GroupLaw, tower: FieldTower, fid: FieldId, x) -> np.ndarray:
    return np.stack([poly.evaluate(tower, fid, x) for poly in law.inv], axis=-2)


def all_tuples(tower: FieldTower, fid: FieldId, dim: int, codes=None) -> np.ndarray:
    """Digit arrays of coordinate tuples, canonically ordered.

    The combined code of a tuple is mixed-radix with coordinate 1 most
    significant; codes == None enumerates the full space.
    """
    q = fid.order
    if codes is None:
        codes = np.arange(q**dim, dtype=np.int64)
    codes = np.asarray(codes, dtype=np.int64)
    coords = []
    for j in range(dim):
        shift = q ** (dim - 1 - j)
        coords.append(tower.codes_to_digits(fid, (codes // shift) % q))
    return np.stack(coords, axis=-2)


def validate_law(
    law: GroupLaw,
    tower: FieldTower,
    q: int,
    sample_budget: int = 1000,
) -> ValidationReport:
    """Check the group axioms of a law at level F_q.

    Associativity is exhaustive over all triples of G(F_q) and the inverse
    check over all points while those counts stay within 10^6; above that
    both sample.  Sampled triples at the q^2 and q^3 levels and
    sampled pairs for the Frobenius homomorphism check are always drawn.
    Samples are drawn and checked _SAMPLE_CHUNK rows at a time, so memory
    does not grow with sample_budget.
    """
    n = p_power_exponent(q, law.p)
    rep = ValidationReport()
    rng = np.random.default_rng(_SAMPLE_SEED)
    fid = tower.make_field(n)
    order = q**law.dim

    def sampled(fj: FieldId, arity: int, count: int, check) -> bool:
        """check(fj, *points) on count uniform arity-tuples of points over
        fj, drawn as digit arrays _SAMPLE_CHUNK rows at a time."""
        ok = True
        for lo in range(0, count, _SAMPLE_CHUNK):
            rows = min(_SAMPLE_CHUNK, count - lo)
            ok &= check(fj, *rng.integers(0, law.p, size=(arity, rows, law.dim, fj.degree)))
        return ok

    def associative(fj: FieldId, a, b, c) -> bool:
        lhs = eval_mul(law, tower, fj, eval_mul(law, tower, fj, a, b), c)
        rhs = eval_mul(law, tower, fj, a, eval_mul(law, tower, fj, b, c))
        return bool(np.array_equal(lhs, rhs))

    def inverse(fj: FieldId, x) -> bool:
        invs = eval_inv(law, tower, fj, x)
        left, right = eval_mul(law, tower, fj, x, invs), eval_mul(law, tower, fj, invs, x)
        return not (left.any() or right.any())

    def frobenius_hom(fj: FieldId, g, h) -> bool:
        lhs = tower.vfrob(fj, eval_mul(law, tower, fj, g, h), n)
        rhs = eval_mul(law, tower, fj, tower.vfrob(fj, g, n), tower.vfrob(fj, h, n))
        return bool(np.array_equal(lhs, rhs))

    # identity at the origin, as polynomials
    try:
        _check_identity_polys(law.p, law.dim, law.mul)
        rep.add("identity", True)
    except GroupLawSemanticError as exc:
        rep.add("identity", False, str(exc))

    elems = all_tuples(tower, fid, law.dim) if order <= _EXHAUSTIVE_LIMIT else None

    # associativity
    if order**3 <= _EXHAUSTIVE_LIMIT:
        ok = associative(fid, *elems[np.indices((order,) * 3).reshape(3, -1)])
        detail = f"exhaustive over {order}^3 triples"
    else:
        ok = sampled(fid, 3, sample_budget, associative)
        detail = f"{sample_budget} sampled triples"
    rep.add("associativity", ok, detail)

    # sampled associativity at the q^2 and q^3 levels
    size = max(sample_budget, 1000)
    for j in (2, 3):
        fj = tower.make_field(n * j)
        rep.add(
            f"associativity_level_{j}",
            sampled(fj, 3, size, associative),
            f"{size} sampled triples over F_q^{j}",
        )

    # inverse correctness on all of G(F_q), or on sampled points above the limit
    if elems is None:
        ok, detail = sampled(fid, 1, sample_budget, inverse), f"{sample_budget} sampled points"
    else:
        ok, detail = inverse(fid, elems), f"all {order} points"
    rep.add("inverse", ok, detail)

    # Frobenius is a group endomorphism (coefficients lie in F_p)
    ok = [sampled(tower.make_field(n * j), 2, sample_budget, frobenius_hom) for j in (1, 2)]
    rep.add("frobenius_endomorphism", all(ok), f"{sample_budget} sampled pairs x 2 levels")
    return rep
