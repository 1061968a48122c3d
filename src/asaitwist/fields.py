"""Exact arithmetic in a compatible tower of finite fields F_{p^k}.

An element of F_{p^k} is a length-k coefficient vector over F_p in the
power basis of a fixed monic irreducible defining polynomial.  All
choices are deterministic:

* the defining polynomial of degree k is the monic irreducible whose
  coefficient vector (c_0, ..., c_{k-1}) minimises the integer code
  sum(c_i * p^i); irreducibility is Berlekamp's criterion, t^{p^k} = t
  mod f by k products with the candidate's Frobenius matrix, then
  rank(Frob - 1) = k - 1;
* each modulus f has one companion matrix x -> t*x mod f: its k-th power
  gives the reduction rows, its p-th power the Frobenius matrix;
* the embedding F_{p^a} -> F_{p^b} sends the degree-a generator to the
  least root (same code order) of the degree-a defining polynomial whose
  embedding composes with x -> a to x -> b for every divisor 1 < x < a
  of a, both chosen by the same rule first: a function of (p, a, b)
  alone, so for a | b | c the composite a -> b -> c always equals
  a -> c, whatever the order of requests;
* those roots lie in the copy of F_{p^a} in F_{p^b}, ker(Frob^a - 1):
  when it has at most _BRUTE_ROOT_BOUND elements, the modulus is
  evaluated on them as combinations of a kernel basis, _ROOT_BLOCK at a
  time, until one is a root; above that bound a root comes from
  splitting by traces from that subfield to F_p, a terms each, over its
  a basis elements.  One root's Frobenius orbit is all of them;
* the Artin-Schreier solver t^{p^e} - t = c returns the code-least
  solution in the smallest field of the chain F_{p^{e s}}, F_{p^{e s p}},
  ... containing one.  It solves whole batches of digit rows at once; the
  scalar call is a batch of one row;
* every linear question over F_p (embedding sections, subfield
  membership, Artin-Schreier, the rank in the irreducibility test) is
  one modp.LinearSolve, whose least solution is the code-least one.

Bulk operations act on numpy int64 "digit" arrays of shape (..., k) with
entry i the coefficient of t^i.  Scalar and bulk paths share the same
kernels.

What depends only on (p, k) lives in one process-wide table, _LEVELS:
the modulus, the reduction matrix, the Frobenius powers, the
Artin-Schreier solvers, the sorted roots of every subfield
modulus with their powers matrices, and the embedding of every
subfield.  A tower takes a level from the table and derives it only on
a miss, so every tower of a process shares it; its arrays are
read-only.  A tower keeps to itself only its degree cap (checked before
the table is read) and the levels make_field registered (counted by
stats["fields_built"]); arithmetic and embedding derivations read other
levels from the table without registering them, so the count does not
depend on what the table already held.  The table and the towers fill
lazily on reads and the table grows with the distinct (p, k) a process
touches, so the module is single-threaded: no two threads may use it
at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from math import isqrt
from typing import Iterator

import numpy as np

from .errors import (
    CapExceeded,
    IncompatibleFields,
    InternalInconsistencyError,
    ParameterError,
)
from .modp import LinearSolve, digit_power, frozen, kernel_rref, matpow_mod

DEFAULT_DEGREE_CAP = 1024

# embedding roots are searched for by brute force in subfields with at
# most this many elements, _ROOT_BLOCK candidates at a time; larger
# subfields go through trace splitting
_BRUTE_ROOT_BOUND = 4096
_ROOT_BLOCK = 256

# (p, k) -> _Level of F_{p^k}, shared by every tower of the process
_LEVELS: dict[tuple[int, int], "_Level"] = {}

# the largest p whose degree-1 products (p - 1)^2 fit int64: no larger
# characteristic is usable, so it is refused before primality is
# decided, and trial division never runs past about 55,000
MAX_CHARACTERISTIC = isqrt((1 << 63) - 1) + 1


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def p_power_exponent(q: int, p: int) -> int:
    """n such that q = p^n, or raise ParameterError."""
    if q < p:
        raise ParameterError(f"{q} is not a power of {p}")
    n, rest = 0, q
    while rest > 1:
        if rest % p:
            raise ParameterError(f"{q} is not a power of {p}")
        rest //= p
        n += 1
    return n


def _iroot(q: int, n: int) -> int:
    """floor(q^(1/n)) for q >= 1, by Newton's method from above."""
    r = 1 << -(-q.bit_length() // n)
    while (s := ((n - 1) * r + q // r ** (n - 1)) // n) < r:
        r = s
    return r


def characteristic(q: int) -> int:
    """The prime p with q = p^n, or raise ParameterError.

    p is the n-th root of q for the largest n that has one; a root past
    MAX_CHARACTERISTIC raises CapExceeded before it is factored.
    """
    if q < 2:
        raise ParameterError("q must be a prime power >= 2")
    p = next(r for n in range(q.bit_length(), 0, -1) if (r := _iroot(q, n)) ** n == q)
    if p > MAX_CHARACTERISTIC:
        raise CapExceeded(
            f"q = {q} is a power of {p}, past {MAX_CHARACTERISTIC}, "
            "the largest characteristic whose products fit int64"
        )
    least = next((d for d in range(2, isqrt(p) + 1) if p % d == 0), p)
    if least != p:
        raise ParameterError(f"{q} is not a power of {least}")
    return p


@dataclass(frozen=True, order=True)
class FieldId:
    """The field F_{p^degree} inside a tower with prime p."""

    p: int
    degree: int

    @property
    def order(self) -> int:
        return self.p ** self.degree


@dataclass(frozen=True)
class FieldElement:
    """Coefficient vector in the power basis of field's defining polynomial."""

    field: FieldId
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.field.degree:
            raise ParameterError("coefficient vector length != field degree")
        if any(c < 0 or c >= self.field.p for c in self.coeffs):
            raise ParameterError("coefficients must lie in [0, p)")

    @property
    def code(self) -> int:
        """Integer key defining the canonical order on field elements."""
        c = 0
        for d in reversed(self.coeffs):
            c = c * self.field.p + d
        return c

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __repr__(self):
        return f"F({self.field.p}^{self.field.degree})[{','.join(map(str, self.coeffs))}]"


class _Level:
    """Data of F_{p^degree} that depends on nothing else: the modulus, the
    reduction matrix, and lazily filled Frobenius powers, Artin-Schreier
    solvers, subfield roots and subfield embeddings."""

    def __init__(self, p: int, degree: int, modulus: np.ndarray, frob: np.ndarray):
        self.p = p
        self.degree = degree
        self.modulus = frozen(modulus)  # (degree+1,) monic over F_p
        self.red = frozen(_reduction_matrix(modulus, p))  # (degree-1, degree)
        # frob[e] is the matrix of x -> x^{p^e}: digit row vectors act on the right
        self._frob: dict[int, np.ndarray] = {
            0: frozen(np.eye(degree, dtype=np.int64)),
            1: frozen(frob),
        }
        # as_solve[e]: the solver of x^{p^e} - x = c here
        self.as_solve: dict[int, LinearSolve] = {}
        # roots[a]: the roots of the degree-a modulus here, in code order,
        # and the powers matrix of each, shape (a, a, degree)
        self.roots: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # emb[a]: the embedding F_{p^a} -> here, by FieldTower._embedding
        self.emb: dict[int, "_Embedding"] = {}

    def frob(self, e: int) -> np.ndarray:
        e = e % self.degree
        if e not in self._frob:
            self._frob[e] = frozen(matpow_mod(self._frob[1], e, self.p))
        return self._frob[e]


def _mul_by_t(modulus: np.ndarray, p: int) -> np.ndarray:
    """Companion matrix of x -> t*x mod modulus: row j = digits of t^{j+1}."""
    k = len(modulus) - 1
    mat = np.eye(k, k, 1, dtype=np.int64)
    mat[k - 1] = (-modulus[:k]) % p
    return mat


def _reduction_matrix(modulus: np.ndarray, p: int) -> np.ndarray:
    """Rows j = digit vector of t^{k+j} mod modulus, for j < k-1."""
    k = len(modulus) - 1
    return matpow_mod(_mul_by_t(modulus, p), k, p)[: k - 1]


def _frobenius_matrix(modulus: np.ndarray, p: int) -> np.ndarray:
    """Matrix with row i = digits of (t^i)^p mod modulus."""
    k = len(modulus) - 1
    tp = matpow_mod(_mul_by_t(modulus, p), p, p)  # x -> t^p * x
    mat = np.zeros((k, k), dtype=np.int64)
    mat[0, 0] = 1
    for i in range(1, k):
        mat[i] = (mat[i - 1] @ tp) % p
    return mat


def _values_on_prime_field(coeffs: np.ndarray, p: int) -> np.ndarray:
    """f(x) for every x in F_p, by Horner's rule on coefficients c_0..c_k."""
    xs = np.arange(p, dtype=np.int64)
    vals = np.zeros(p, dtype=np.int64)
    for c in coeffs[::-1]:
        vals = (vals * xs + int(c)) % p
    return vals


@dataclass
class _Embedding:
    mat: np.ndarray  # (a, kb): row i = digits of (image of generator)^i
    section: LinearSolve  # of x @ mat = y: source digits of y, if y is an image


class FieldTower:
    """All fields F_{p^k} for one prime p up to a degree cap, with
    compatible embeddings.

    Construction is idempotent and append-only; every operation is a pure
    function of its inputs.
    """

    def __init__(self, p: int, degree_cap: int = DEFAULT_DEGREE_CAP):
        if p > MAX_CHARACTERISTIC:  # before is_prime, so its loop stays short
            raise CapExceeded(
                f"characteristic {p} is past {MAX_CHARACTERISTIC}, "
                "the largest whose products fit int64"
            )
        if not is_prime(p):
            raise ParameterError(f"characteristic {p} is not prime")
        self.p = p
        self.degree_cap = degree_cap
        self._levels: dict[int, _Level] = {}
        # fields_built counts the degrees make_field registered, whether
        # the level table held them already or derived them for it
        self.stats = {"fields_built": 0, "artin_schreier_solves": 0}
        self.make_field(1)

    # ---- field construction ----

    def make_field(self, degree: int) -> FieldId:
        if degree not in self._levels:
            self._levels[degree] = self._level(degree)
            self.stats["fields_built"] += 1
        return FieldId(self.p, degree)

    def modulus(self, fid: FieldId) -> tuple[int, ...]:
        return tuple(int(c) for c in self._level(fid.degree).modulus)

    def _level(self, degree: int) -> _Level:
        """The level of F_{p^degree}: a registered one, else the table's
        once the cap allows it, derived there on a miss; registers nothing."""
        lvl = self._levels.get(degree)
        if lvl is not None:
            return lvl
        if degree < 1:
            raise ParameterError("degree must be >= 1")
        if degree > self.degree_cap:
            raise CapExceeded(
                f"degree {degree} exceeds the tower cap {self.degree_cap}"
            )
        if (2 * degree - 1) * (self.p - 1) ** 2 >= 1 << 63:
            raise CapExceeded(f"degree {degree} over F_{self.p} overflows vmul's int64 sums")
        lvl = _LEVELS.get((self.p, degree))
        if lvl is None:
            lvl = _LEVELS[self.p, degree] = _Level(self.p, degree, *self._least_irreducible(degree))
        return lvl

    def _least_irreducible(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The code-least monic irreducible of degree k and the Frobenius
        matrix its irreducibility test built: upper parts g = c_1 t + ... +
        t^k in code order, as Python integers so no degree overflows, each
        evaluated once on F_p, then the constants c_0 outside -g(F_p) (no
        root in F_p, and never 0 = -g(0)), smallest first."""
        p = self.p
        if k == 1:  # t itself: F_p[t]/(t)
            return np.array([0, 1], dtype=np.int64), np.eye(1, dtype=np.int64)
        for upper in product(range(p), repeat=k - 1):
            coeffs = np.array([0, *upper[::-1], 1], dtype=np.int64)
            roots = -_values_on_prime_field(coeffs, p) % p
            for c0 in np.flatnonzero(~np.isin(np.arange(p), roots)):
                coeffs[0] = c0
                if (frob := self._irreducible_frobenius(coeffs)) is not None:
                    return coeffs, frob
        raise InternalInconsistencyError(f"no irreducible of degree {k} found")

    def _irreducible_frobenius(self, coeffs: np.ndarray) -> np.ndarray | None:
        """The Frobenius matrix of F_p[t]/(f) if f is irreducible, else
        None, by Berlekamp's criterion: t^{p^k} = t mod f makes f
        squarefree with factor degrees dividing k, and then the fixed
        space of x -> x^p, one dimension per factor, must be F_p alone."""
        p = self.p
        k = len(coeffs) - 1
        frob = _frobenius_matrix(coeffs, p)
        t = u = _mul_by_t(coeffs, p)[0]  # digits of t mod f
        for _ in range(k):
            u = (u @ frob) % p
        if not np.array_equal(u, t):
            return None
        fixed = LinearSolve((frob - np.eye(k, dtype=np.int64)) % p, p)
        return frob if fixed.rank == k - 1 else None

    # ---- scalar element API ----

    def element(self, fid: FieldId, coeffs) -> FieldElement:
        self.make_field(fid.degree)
        return FieldElement(fid, tuple(int(c) % self.p for c in coeffs))

    def zero(self, fid: FieldId) -> FieldElement:
        return self.element(fid, [0] * fid.degree)

    def one(self, fid: FieldId) -> FieldElement:
        return self.element(fid, [1] + [0] * (fid.degree - 1))

    def element_from_code(self, fid: FieldId, code: int) -> FieldElement:
        return self.element(fid, [code // self.p**i % self.p for i in range(fid.degree)])

    def elements(self, fid: FieldId) -> Iterator[FieldElement]:
        for code in range(fid.order):
            yield self.element_from_code(fid, code)

    def _dig(self, x: FieldElement) -> np.ndarray:
        return np.array(x.coeffs, dtype=np.int64)

    def _el(self, fid: FieldId, digits: np.ndarray) -> FieldElement:
        return FieldElement(fid, tuple(int(v) for v in digits))

    def add(self, x: FieldElement, y: FieldElement) -> FieldElement:
        self._same_field(x, y)
        return self._el(x.field, (self._dig(x) + self._dig(y)) % self.p)

    def sub(self, x: FieldElement, y: FieldElement) -> FieldElement:
        self._same_field(x, y)
        return self._el(x.field, (self._dig(x) - self._dig(y)) % self.p)

    def mul(self, x: FieldElement, y: FieldElement) -> FieldElement:
        self._same_field(x, y)
        return self._el(x.field, self.vmul(x.field, self._dig(x), self._dig(y)))

    def _same_field(self, x: FieldElement, y: FieldElement):
        if x.field != y.field:
            raise IncompatibleFields(f"{x.field} vs {y.field}")

    # ---- bulk digit-array kernels ----

    def vadd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % self.p

    def vmul(self, fid: FieldId, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        k = fid.degree
        lvl = self._level(k)
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
        conv = np.zeros(shape + (2 * k - 1,), dtype=np.int64)
        for i in range(k):
            conv[..., i : i + k] += a[..., i : i + 1] * b
        if k == 1:
            return conv % self.p
        if k * k * (self.p - 1) ** 3 >= 1 << 63:  # unreduced, conv[..., k:] @ red could wrap
            conv[..., k:] %= self.p
        return (conv[..., :k] + conv[..., k:] @ lvl.red) % self.p

    def vpow(self, fid: FieldId, a: np.ndarray, e: int) -> np.ndarray:
        """a^e on every digit row, as the product of (F^j a)^{e_j} over the
        base-p digits e_j of e: each F^j a is one Frobenius matrix product."""
        a = np.asarray(a, dtype=np.int64) % self.p
        one = None if e else np.zeros_like(a) + np.eye(1, fid.degree, dtype=np.int64)[0]
        return digit_power(a, e, self.p, partial(self.vmul, fid), partial(self.vfrob, fid), one)

    def vfrob(self, fid: FieldId, a: np.ndarray, e: int) -> np.ndarray:
        """x -> x^{p^e} applied to every digit row."""
        return (np.asarray(a, dtype=np.int64) @ self._level(fid.degree).frob(e)) % self.p

    def _code_weights(self, fid: FieldId) -> np.ndarray:
        """p^0, ..., p^(k-1): the place values of an element code."""
        if fid.degree * np.log2(self.p) > 62:
            raise CapExceeded("field too large for int64 element codes")
        return self.p ** np.arange(fid.degree, dtype=np.int64)

    def codes_to_digits(self, fid: FieldId, codes: np.ndarray) -> np.ndarray:
        return (np.asarray(codes, dtype=np.int64)[..., None] // self._code_weights(fid)) % self.p

    def digits_to_codes(self, fid: FieldId, digits: np.ndarray) -> np.ndarray:
        return np.asarray(digits, dtype=np.int64) @ self._code_weights(fid)

    # ---- embeddings ----

    def embed(self, x: FieldElement, target: FieldId) -> FieldElement:
        if x.field == target:
            return x
        emb = self._embedding(x.field.degree, target.degree)
        return self._el(target, (self._dig(x) @ emb.mat) % self.p)

    def vembed(self, src: FieldId, dst: FieldId, a: np.ndarray) -> np.ndarray:
        if src == dst:
            return np.asarray(a, dtype=np.int64)
        emb = self._embedding(src.degree, dst.degree)
        return (np.asarray(a, dtype=np.int64) @ emb.mat) % self.p

    def section(self, y: FieldElement, target: FieldId) -> FieldElement:
        """Inverse image of y under embed(target -> y.field)."""
        return self._el(target, self.vsection(y.field, target, self._dig(y)))

    def vsection(self, src: FieldId, dst: FieldId, a: np.ndarray) -> np.ndarray:
        """Pull digit rows at level src down to level dst (dst.degree | src.degree)."""
        if src == dst:
            return np.asarray(a, dtype=np.int64)
        x, ok = self._embedding(dst.degree, src.degree).section.solve(a)
        if not np.all(ok):
            raise IncompatibleFields(
                f"element not in the image of F_{self.p}^{dst.degree}"
            )
        return x

    def _embedding(self, a: int, b: int) -> _Embedding:
        """emb(a -> b), a function of (p, a, b) kept in the level table:
        the code-least root of the degree-a modulus in F_{p^b} whose
        embedding composes with emb(x -> a) to emb(x -> b) for every
        divisor 1 < x < a of a, both derived first by the same rule.  One
        exists because compatible embeddings of subfields extend when the
        Galois group is cyclic; every triangle then commutes, whatever the
        order of requests.  Reads levels without registering them.
        """
        if b % a:
            raise IncompatibleFields(f"degree {a} does not divide {b}")
        lvl = self._level(b)
        if a in lvl.emb:
            return lvl.emb[a]
        if a == b:
            mat = np.eye(a, dtype=np.int64)
        else:
            # the degree-x generator's image in F_{p^a} and in F_{p^b}
            subs = [
                (self._embedding(x, a).mat[1], self._embedding(x, b).mat[1])
                for x in divisors(a)[1:-1]
            ]
            _, candidates = self._root_candidates(a, b)
            mat = next(
                (m for m in candidates
                 if all(np.array_equal(g @ m % self.p, img) for g, img in subs)),
                None,
            )
            if mat is None:
                raise InternalInconsistencyError(
                    f"no root of the degree-{a} modulus in F_{self.p}^{b} is "
                    "compatible with its subfield embeddings"
                )
        section = LinearSolve(mat, self.p)
        if section.rank != a:
            raise InternalInconsistencyError("embedding matrix is not injective")
        lvl.emb[a] = _Embedding(frozen(mat), section)
        return lvl.emb[a]

    def _root_candidates(self, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        """All roots of the degree-a modulus in F_{p^b} (one Frobenius
        orbit) in canonical code order, shape (a, b), and the powers
        matrix of each, shape (a, a, b); found once per process."""
        lvl = self._level(b)
        if a not in lvl.roots:
            fid_b = FieldId(self.p, b)
            conj = [self._subfield_root(a, b)]
            for _ in range(a - 1):
                conj.append(self.vfrob(fid_b, conj[-1], 1))
            # lexicographic order on the reversed digits is code order
            roots = np.array(sorted(conj, key=lambda v: tuple(v[::-1])))
            powers = np.zeros((a, a, b), dtype=np.int64)
            powers[:, 0, 0] = 1
            for i in range(1, a):
                powers[:, i] = self.vmul(fid_b, powers[:, i - 1], roots)
            lvl.roots[a] = (frozen(roots), frozen(powers))
        return lvl.roots[a]

    # ---- roots of a defining polynomial in a bigger field ----

    def _subfield_root(self, a: int, b: int) -> np.ndarray:
        """A root of the degree-a modulus in F_{p^b}, where all of them lie
        in the subfield ker(Frob^a - 1): the first one met there, or one
        from trace splitting over it."""
        p = self.p
        fid_b = FieldId(p, b)
        fa = self._level(a).modulus
        frob_minus_one = (self._level(b).frob(a) - np.eye(b, dtype=np.int64)) % p
        basis = kernel_rref(frob_minus_one.T, p)  # (a, b)
        if p**a > _BRUTE_ROOT_BOUND:
            h = np.zeros((a + 1, b), dtype=np.int64)
            h[:, 0] = fa
            return self._split_root(fid_b, h, basis)
        for start in range(0, p**a, _ROOT_BLOCK):
            codes = np.arange(start, min(start + _ROOT_BLOCK, p**a), dtype=np.int64)
            xs = self.codes_to_digits(FieldId(p, a), codes) @ basis % p
            acc = np.zeros_like(xs)
            for c in fa[::-1]:
                acc = self.vmul(fid_b, acc, xs)
                acc[..., 0] = (acc[..., 0] + int(c)) % p
            hits = np.flatnonzero(~np.any(acc, axis=-1))
            if hits.size:
                return xs[int(hits[0])]
        raise InternalInconsistencyError("modulus has no root in the overfield")

    def _split_root(self, fid: FieldId, h: np.ndarray, basis: np.ndarray) -> np.ndarray:
        """Deterministic root of a monic squarefree polynomial h over fid
        whose roots all lie in the subfield K spanned by the rows of basis.

        Keeps the first proper factor gcd(h, S_w - c), over basis rows w
        and c in F_p, until a linear factor remains: S_w takes the value
        Tr_{K/F_p}(w r) at each root r, and the trace form of K is
        nondegenerate, so some w separates any two roots.
        """
        while h.shape[0] > 2:
            deg = h.shape[0] - 1
            h = next(
                (g for w in basis for g in self._trace_gcds(fid, h, w, len(basis))
                 if 0 < g.shape[0] - 1 < deg),
                None,
            )
            if h is None:
                raise InternalInconsistencyError("trace splitting failed to progress")
        return (-h[0]) % self.p

    def _trace_gcds(self, fid: FieldId, h: np.ndarray, w: np.ndarray, a: int) -> Iterator:
        """gcd(h, S_w - c) for c = 0, 1, ..., p - 1, where S_w is the sum
        of (w T)^{p^j} mod h over j < a, and deg h > 1.  A constant S_w,
        0 included, splits nothing and yields none.  Otherwise S_w is made
        monic once: gcd(h, S_w - c) = gcd(h, S_w/l - c/l), l its leading
        coefficient, so each next c shifts the constant term by -1/l."""
        u = np.stack([np.zeros_like(w), w])  # w * T
        s = np.zeros((h.shape[0] - 1, fid.degree), dtype=np.int64)
        s[:2] = u
        for _ in range(a - 1):
            u = self._pp_powp(fid, u, h)
            s[: u.shape[0]] += u
        s = self._pp_trim(s % self.p)
        if s.shape[0] == 1:
            return
        step = self._inverse(fid, s[-1])
        s = self.vmul(fid, s, step[None, :])
        for _ in range(self.p):
            yield self._pp_gcd(fid, h, s)
            s[0] = (s[0] - step) % self.p

    # polynomial helpers over a level: coefficient arrays of shape (deg+1, k)

    def _pp_trim(self, u: np.ndarray) -> np.ndarray:
        n = u.shape[0]
        while n > 1 and not np.any(u[n - 1]):
            n -= 1
        return u[:n]

    def _pp_mod(self, fid: FieldId, u: np.ndarray, h: np.ndarray) -> np.ndarray:
        """u mod h for monic h."""
        u = u.copy() % self.p
        d = h.shape[0] - 1
        for j in range(u.shape[0] - 1, d - 1, -1):
            cj = u[j]
            if np.any(cj):
                u[j - d : j + 1] = (u[j - d : j + 1] - self.vmul(fid, cj[None, :], h)) % self.p
        return self._pp_trim(u[:d] if d else u[:1] * 0)

    def _inverse(self, fid: FieldId, lead: np.ndarray) -> np.ndarray:
        """lead^{-1} for nonzero lead: lead^{r-1} over the norm lead^r in
        F_p, r = (p^k - 1)/(p - 1), and vpow takes lead^{r-1} as the
        product of the k - 1 Frobenius images lead^p, ..., lead^{p^{k-1}}."""
        conj = self.vpow(fid, lead, (fid.order - 1) // (self.p - 1) - 1)
        norm = int(self.vmul(fid, lead, conj)[0])
        return conj * pow(norm, -1, self.p) % self.p

    def _pp_monic(self, fid: FieldId, u: np.ndarray) -> np.ndarray:
        """u over its leading coefficient."""
        u = self._pp_trim(u % self.p)
        if u[-1, 0] == 1 and not u[-1, 1:].any():
            return u
        return self.vmul(fid, u, self._inverse(fid, u[-1])[None, :])

    def _pp_gcd(self, fid: FieldId, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        u = self._pp_trim(u % self.p)
        v = self._pp_trim(v % self.p)
        while np.any(v):
            v = self._pp_monic(fid, v)
            u, v = v, self._pp_mod(fid, u, v)
        return u

    def _pp_powp(self, fid: FieldId, u: np.ndarray, h: np.ndarray) -> np.ndarray:
        """u^p mod h via the additivity of the p-power map in char p."""
        du = u.shape[0] - 1
        out = np.zeros((du * self.p + 1, fid.degree), dtype=np.int64)
        out[:: self.p] = self.vfrob(fid, u, 1)
        return self._pp_mod(fid, out, h)

    # ---- Frobenius, Artin-Schreier ----

    def frobenius(self, x: FieldElement, q: int) -> FieldElement:
        """x^q for q a power of the tower characteristic."""
        n = p_power_exponent(q, self.p)
        return self._el(x.field, self.vfrob(x.field, self._dig(x), n))

    def artin_schreier_solve(self, c: FieldElement, e: int) -> FieldElement:
        """Code-least t with t^{p^e} - t = c: one row of vartin_schreier_solve."""
        [(fid, _, sol)] = self.vartin_schreier_solve(c.field, self._dig(c)[None, :], e)
        return self._el(fid, sol[0])

    def vartin_schreier_solve(
        self, fid: FieldId, c: np.ndarray, e: int
    ) -> list[tuple[FieldId, np.ndarray, np.ndarray]]:
        """Code-least t with t^{p^e} - t = c for every digit row of c.

        c has shape (rows, fid.degree) and fid must extend F_{p^e}.  Each
        row is first shrunk to the smallest field of the chain F_{p^{es}}
        containing it, so the answer does not depend on the level at which
        it happens to be represented.  Its solution lives either there or
        in the single p-fold extension where the relative trace
        obstruction vanishes; building that extension is the one check
        against the tower's degree cap.  Returns (field, row indices,
        solution digits) groups that together cover every row once.
        """
        if e < 1 or fid.degree % e:
            raise ParameterError(f"c does not lie in an extension of F_{self.p}^{e}")
        c = np.asarray(c, dtype=np.int64)
        self.stats["artin_schreier_solves"] += len(c)
        # degree -> (rows, digits there): each row pulled down to the least
        # field of the divisor chain holding it, whose section solve is the
        # membership test; fid itself, the last divisor, takes the rest
        pulled = {}
        todo = np.arange(len(c))
        for s in divisors(fid.degree // e)[:-1]:
            if not todo.size:
                break
            x, hit = self._embedding(e * s, fid.degree).section.solve(c[todo])
            if hit.any():
                pulled[e * s] = (todo[hit], x[hit])
            todo = todo[~hit]
        if todo.size:
            pulled[fid.degree] = (todo, c[todo])
        groups = []
        for degree, (rows, cb) in pulled.items():
            sub = self.make_field(degree)
            sol, ok = self._as_try(degree, e, cb)
            if ok.any():
                groups.append((sub, rows[ok], sol[ok]))
            if ok.all():
                continue
            big = self.make_field(degree * self.p)
            sol, found = self._as_try(big.degree, e, self.vembed(sub, big, cb[~ok]))
            if not found.all():
                raise InternalInconsistencyError(
                    "Artin-Schreier equation unsolvable in the p-fold extension"
                )
            groups.append((big, rows[~ok], sol))
        return groups

    def _as_try(self, degree: int, e: int, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve x^{p^e} - x = c inside F_{p^degree} for every digit row.

        Returns the least solution of each row and the mask of rows that
        have one; the digits of the other rows mean nothing.
        """
        lvl = self._level(degree)
        if e not in lvl.as_solve:
            frob_minus_one = (lvl.frob(e) - np.eye(degree, dtype=np.int64)) % self.p
            lvl.as_solve[e] = LinearSolve(frob_minus_one, self.p)
        return lvl.as_solve[e].solve(c)
