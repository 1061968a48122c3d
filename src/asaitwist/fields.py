"""Exact arithmetic in a compatible tower of finite fields F_{p^k}.

An element of F_{p^k} is a length-k coefficient vector over F_p in the
power basis of a fixed monic irreducible defining polynomial.  All
choices are deterministic:

* the defining polynomial of degree k is the monic irreducible whose
  coefficient vector (c_0, ..., c_{k-1}) minimises the integer code
  sum(c_i * p^i); irreducibility is Rabin's test, its gcds taken by the
  level polynomial helpers (over F_p) that trace splitting also uses;
* each modulus f has one companion matrix x -> t*x mod f: its k-th power
  gives the reduction rows, its p-th power the Frobenius matrix;
* an embedding F_{p^a} -> F_{p^b} sends the degree-a generator to the
  least root (same code order) of the degree-a defining polynomial that
  is compatible with every embedding already present in the tower, so
  that for a | b | c the composite a -> b -> c always equals a -> c;
* the Artin-Schreier solver t^{p^e} - t = c returns the code-least
  solution in the smallest field of the chain F_{p^{e s}}, F_{p^{e s p}},
  ... containing one.  It solves whole batches of digit rows at once; the
  scalar call is a batch of one row.

Bulk operations act on numpy int64 "digit" arrays of shape (..., k) with
entry i the coefficient of t^i.  Scalar and bulk paths share the same
kernels.  Towers are single-threaded: reads fill per-degree data
(Frobenius powers, Artin-Schreier factorizations, embeddings) lazily, so
a tower must not be shared between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator

import numpy as np

from .errors import (
    CapExceeded,
    IncompatibleFields,
    InternalInconsistencyError,
    ParameterError,
)
from .modp import coset_min, kernel_rref, matpow_mod, power, rref_mod

DEFAULT_DEGREE_CAP = 1024

# fields with at most this many elements are searched by brute force when
# locating embedding roots; larger ones go through trace splitting
_BRUTE_ROOT_BOUND = 4096


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


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


def characteristic(q: int) -> int:
    """The prime p with q = p^n, or raise ParameterError."""
    if q < 2:
        raise ParameterError("q must be a prime power >= 2")
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    p_power_exponent(q, p)
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
    """Per-degree data: modulus, reduction matrix, lazily filled Frobenius powers."""

    def __init__(self, p: int, degree: int, modulus: np.ndarray):
        self.p = p
        self.degree = degree
        self.modulus = modulus  # (degree+1,) monic over F_p
        self.red = _reduction_matrix(modulus, p)  # (degree-1, degree)
        # frob[e] is the matrix of x -> x^{p^e}: digit row vectors act on the right
        self._frob: dict[int, np.ndarray] = {0: np.eye(degree, dtype=np.int64)}
        self._frob[1] = _frobenius_matrix(modulus, p)
        # Artin-Schreier factorizations keyed by the exponent E with Q = p^E
        self.as_cache: dict[int, tuple] = {}

    def frob(self, e: int) -> np.ndarray:
        e = e % self.degree if self.degree > 1 else 0
        if e not in self._frob:
            self._frob[e] = matpow_mod(self._frob[1], e, self.p)
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


@dataclass
class _Embedding:
    mat: np.ndarray  # (a, kb): row i = digits of (image of generator)^i
    sec: np.ndarray  # (kb, a): y @ sec recovers source digits for y in image
    chk: np.ndarray  # (kb, kb-a): y @ chk == 0 iff y lies in the image


class FieldTower:
    """All fields F_{p^k} for one prime p, with compatible embeddings.

    Construction is idempotent and append-only; every operation is a pure
    function of its inputs once the relevant levels exist.
    """

    def __init__(self, p: int, degree_cap: int = DEFAULT_DEGREE_CAP):
        if not is_prime(p):
            raise ParameterError(f"characteristic {p} is not prime")
        self.p = p
        self.degree_cap = degree_cap
        self._levels: dict[int, _Level] = {}
        self._emb: dict[tuple[int, int], _Embedding] = {}
        self.stats = {"fields_built": 0, "artin_schreier_solves": 0}
        self.make_field(1)

    # ---- field construction ----

    def make_field(self, degree: int) -> FieldId:
        if degree < 1:
            raise ParameterError("degree must be >= 1")
        if degree > self.degree_cap:
            raise CapExceeded(
                f"degree {degree} exceeds the tower cap {self.degree_cap}"
            )
        if degree not in self._levels:
            modulus = self._least_irreducible(degree)
            self._levels[degree] = _Level(self.p, degree, modulus)
            self.stats["fields_built"] += 1
        return FieldId(self.p, degree)

    def modulus(self, fid: FieldId) -> tuple[int, ...]:
        return tuple(int(c) for c in self._level(fid.degree).modulus)

    def _level(self, degree: int) -> _Level:
        if degree not in self._levels:
            self.make_field(degree)
        return self._levels[degree]

    def _least_irreducible(self, k: int) -> np.ndarray:
        p = self.p
        if k == 1:
            return np.array([0, 1], dtype=np.int64)  # t itself: F_p[t]/(t)
        weights = p ** np.arange(k, dtype=np.int64)
        xs = np.arange(p, dtype=np.int64)
        for j in range(p**k):
            low = (j // weights) % p
            if low[0] == 0:
                continue  # t divides
            coeffs = np.concatenate([low, [1]])
            vals = np.zeros(p, dtype=np.int64)
            for c in coeffs[::-1]:
                vals = (vals * xs + int(c)) % p
            if np.any(vals == 0):
                continue  # linear factor
            if self._is_irreducible(coeffs):
                return coeffs
        raise InternalInconsistencyError(f"no irreducible of degree {k} found")

    def _is_irreducible(self, coeffs: np.ndarray) -> bool:
        """Rabin's test: t^{p^k} = t mod f and gcd(t^{p^{k/l}} - t, f) = 1 for primes l | k."""
        p = self.p
        k = len(coeffs) - 1
        frob = _frobenius_matrix(coeffs, p)
        if not np.array_equal(matpow_mod(frob, k, p), np.eye(k, dtype=np.int64)):
            return False  # t^{p^k} != t mod f
        t_vec = np.zeros(k, dtype=np.int64)
        t_vec[1] = 1
        prime_field = FieldId(p, 1)
        for ell in prime_divisors(k):
            u = matpow_mod(frob, k // ell, p)[1]  # t^{p^{k/ell}} mod f
            g = self._pp_gcd(prime_field, ((u - t_vec) % p)[:, None], coeffs[:, None])
            if g.shape[0] != 1:
                return False
        return True

    # ---- scalar element API ----

    def element(self, fid: FieldId, coeffs) -> FieldElement:
        self.make_field(fid.degree)
        return FieldElement(fid, tuple(int(c) % self.p for c in coeffs))

    def zero(self, fid: FieldId) -> FieldElement:
        return self.element(fid, [0] * fid.degree)

    def one(self, fid: FieldId) -> FieldElement:
        return self.element(fid, [1] + [0] * (fid.degree - 1))

    def element_from_code(self, fid: FieldId, code: int) -> FieldElement:
        coeffs = []
        for _ in range(fid.degree):
            coeffs.append(code % self.p)
            code //= self.p
        return self.element(fid, coeffs)

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
        if a.ndim == 1 and b.ndim == 1:
            conv = np.convolve(a, b)
        else:
            shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
            conv = np.zeros(shape + (2 * k - 1,), dtype=np.int64)
            for i in range(k):
                conv[..., i : i + k] += a[..., i : i + 1] * b
        if k == 1:
            return conv % self.p
        return (conv[..., :k] + conv[..., k:] @ lvl.red) % self.p

    def vpow(self, fid: FieldId, a: np.ndarray, e: int) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64) % self.p
        one = np.zeros_like(a)
        one[..., 0] = 1
        return power(a, e, lambda u, v: self.vmul(fid, u, v), one)

    def vfrob(self, fid: FieldId, a: np.ndarray, e: int) -> np.ndarray:
        """x -> x^{p^e} applied to every digit row."""
        return (np.asarray(a, dtype=np.int64) @ self._level(fid.degree).frob(e)) % self.p

    def vfixed_by(self, fid: FieldId, a: np.ndarray, sub_degree: int) -> np.ndarray:
        """Boolean mask: which rows lie in F_{p^sub_degree}."""
        return np.all(self.vfrob(fid, a, sub_degree) == a, axis=-1)

    def codes_to_digits(self, fid: FieldId, codes: np.ndarray) -> np.ndarray:
        weights = self.p ** np.arange(fid.degree, dtype=np.int64)
        return (np.asarray(codes, dtype=np.int64)[..., None] // weights) % self.p

    def digits_to_codes(self, fid: FieldId, digits: np.ndarray) -> np.ndarray:
        if fid.degree * np.log2(self.p) > 62:
            raise CapExceeded("field too large for int64 element codes")
        weights = self.p ** np.arange(fid.degree, dtype=np.int64)
        return np.asarray(digits, dtype=np.int64) @ weights

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
        emb = self._embedding(dst.degree, src.degree)
        a = np.asarray(a, dtype=np.int64)
        if np.any((a @ emb.chk) % self.p):
            raise IncompatibleFields(
                f"element not in the image of F_{self.p}^{dst.degree}"
            )
        return (a @ emb.sec) % self.p

    def _embedding(self, a: int, b: int) -> _Embedding:
        """Embedding F_{p^a} -> F_{p^b}, compatible with everything built.

        The stored lattice is kept transitively closed: adding the edge
        (a, b) also registers the compositions through it, so two requests
        reachable by different paths always agree.  A new edge takes the
        code-least root of the degree-a modulus among those commuting with
        every stored embedding it connects to.
        """
        key = (a, b)
        if key in self._emb:
            return self._emb[key]
        if b % a:
            raise IncompatibleFields(f"degree {a} does not divide {b}")
        self.make_field(a)
        self.make_field(b)
        if a == b:
            eye = np.eye(a, dtype=np.int64)
            emb = _Embedding(eye, eye, np.zeros((a, 0), dtype=np.int64))
            self._emb[key] = emb
            return emb
        fid_b = FieldId(self.p, b)
        candidates = [
            self._powers_matrix(fid_b, r, a)
            for r in self._root_candidates(a, b)
        ]
        pre = sorted(x for (x, t) in self._emb if t == a and x != a)
        post = sorted(y for (s, y) in self._emb if s == b and y != b)
        constraints = [
            (x, y)
            for x in [a] + pre
            for y in [b] + post
            if (x, y) != (a, b) and (x, y) in self._emb
        ]
        for mat in candidates:
            if all(self._path_commutes(x, a, mat, b, y) for x, y in constraints):
                self._register_edge(a, b, mat, pre, post)
                return self._emb[key]
        raise InternalInconsistencyError(
            f"no root of the degree-{a} modulus in F_{self.p}^{b} is compatible "
            "with the existing embedding lattice"
        )

    def _path_commutes(self, x: int, a: int, mat_ab: np.ndarray, b: int, y: int) -> bool:
        """Does x -> a -> b -> y through mat_ab equal the stored x -> y?"""
        if x == 1:
            return True  # prime-field embeddings all agree
        gen_in_a = (
            self._emb[(x, a)].mat[1]
            if x != a
            else np.eye(a, dtype=np.int64)[1]
        )
        img = (gen_in_a @ mat_ab) % self.p
        if y != b:
            img = (img @ self._emb[(b, y)].mat) % self.p
        return np.array_equal(img, self._emb[(x, y)].mat[1])

    def _register_edge(self, a: int, b: int, mat: np.ndarray, pre, post):
        """Store (a, b) and every new composition through it."""
        self._emb[(a, b)] = self._finish_embedding(a, mat)
        for x in [a] + pre:
            for y in [b] + post:
                if x == a and y == b:
                    continue
                if (x, y) in self._emb:
                    continue
                m = mat
                if x != a:
                    m = (self._emb[(x, a)].mat @ m) % self.p
                if y != b:
                    m = (m @ self._emb[(b, y)].mat) % self.p
                self._emb[(x, y)] = self._finish_embedding(x, m)

    def _root_candidates(self, a: int, b: int) -> list[np.ndarray]:
        """All roots of the degree-a modulus in F_{p^b} (one Frobenius
        orbit), in canonical code order."""
        fid_b = FieldId(self.p, b)
        r0 = self._subfield_root(a, b)
        conj = []
        r = r0
        for _ in range(a):
            conj.append(r)
            r = self.vfrob(fid_b, r, 1)
        # lexicographic order on the reversed digits is code order
        return sorted(conj, key=lambda v: tuple(v[::-1]))

    def _powers_matrix(self, fid: FieldId, r: np.ndarray, a: int) -> np.ndarray:
        mat = np.zeros((a, fid.degree), dtype=np.int64)
        mat[0, 0] = 1
        row = mat[0]
        for i in range(1, a):
            row = self.vmul(fid, row, r)
            mat[i] = row
        return mat

    def _finish_embedding(self, a: int, mat: np.ndarray) -> _Embedding:
        r, t, pivots = rref_mod(mat.T, self.p)
        if len(pivots) != a:
            raise InternalInconsistencyError("embedding matrix is not injective")
        sec = t[:a].T % self.p
        chk = t[a:].T % self.p
        return _Embedding(mat, sec, chk)

    # ---- roots of a defining polynomial in a bigger field ----

    def _subfield_root(self, a: int, b: int) -> np.ndarray:
        fid_b = FieldId(self.p, b)
        fa = self._levels[a].modulus
        if self.p**b <= _BRUTE_ROOT_BOUND:
            codes = np.arange(self.p**b, dtype=np.int64)
            xs = self.codes_to_digits(fid_b, codes)
            acc = np.zeros_like(xs)
            for c in fa[::-1]:
                acc = self.vmul(fid_b, acc, xs)
                acc[..., 0] = (acc[..., 0] + int(c)) % self.p
            hits = np.nonzero(~np.any(acc, axis=-1))[0]
            if hits.size == 0:
                raise InternalInconsistencyError("modulus has no root in the overfield")
            return xs[int(hits[0])]
        h = np.zeros((a + 1, b), dtype=np.int64)
        h[:, 0] = fa
        return self._split_root(fid_b, h)

    def _split_root(self, fid: FieldId, h: np.ndarray) -> np.ndarray:
        """Deterministic root of a monic split squarefree polynomial over fid.

        Splits by the F_p-trace of w*T for basis elements w until a linear
        factor remains.
        """
        p, b = self.p, fid.degree
        h = self._pp_trim(h)
        while h.shape[0] - 1 > 1:
            deg = h.shape[0] - 1
            progressed = False
            for widx in range(b):
                u = np.zeros((2, b), dtype=np.int64)
                u[1, widx] = 1  # w * T
                u = self._pp_mod(fid, u, h)
                s = np.zeros((deg, b), dtype=np.int64)
                s[: u.shape[0]] += u
                for _ in range(b - 1):
                    u = self._pp_powp(fid, u, h)
                    s[: u.shape[0]] = (s[: u.shape[0]] + u) % p
                for c in range(p):
                    sc = s.copy()
                    sc[0, 0] = (sc[0, 0] - c) % p
                    g = self._pp_gcd(fid, h, sc)
                    dg = g.shape[0] - 1
                    if 0 < dg < deg:
                        h = g if dg <= deg - dg else self._pp_divexact(fid, h, g)
                        progressed = True
                        break
                if progressed:
                    break
            if not progressed:
                raise InternalInconsistencyError("trace splitting failed to progress")
        return (-h[0]) % p

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

    def _pp_divexact(self, fid: FieldId, u: np.ndarray, h: np.ndarray) -> np.ndarray:
        """u // h for monic u, h with h | u."""
        u = u.copy() % self.p
        d = h.shape[0] - 1
        qdeg = u.shape[0] - 1 - d
        q = np.zeros((qdeg + 1, fid.degree), dtype=np.int64)
        for j in range(u.shape[0] - 1, d - 1, -1):
            cj = u[j].copy()
            q[j - d] = cj
            if np.any(cj):
                u[j - d : j + 1] = (u[j - d : j + 1] - self.vmul(fid, cj[None, :], h)) % self.p
        if np.any(u[:d]):
            raise InternalInconsistencyError("division was not exact")
        return q

    def _pp_monic(self, fid: FieldId, u: np.ndarray) -> np.ndarray:
        u = self._pp_trim(u % self.p)
        lead = u[-1]
        one = np.zeros(fid.degree, dtype=np.int64)
        one[0] = 1
        if np.array_equal(lead, one):
            return u
        inv = self.vpow(fid, lead, fid.order - 2)
        return self.vmul(fid, u, inv[None, :])

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
        # least subfield over the divisor chain; the last divisor is fid
        base = np.full(len(c), fid.degree, dtype=np.int64)
        todo = np.arange(len(c))
        for s in divisors(fid.degree // e)[:-1]:
            hit = self.vfixed_by(fid, c[todo], e * s)
            base[todo[hit]] = e * s
            todo = todo[~hit]
        groups = []
        for degree in np.unique(base).tolist():
            rows = np.nonzero(base == degree)[0]
            sub = self.make_field(degree)
            cb = self.vsection(fid, sub, c[rows])
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
        if e not in lvl.as_cache:
            a = (lvl.frob(e) - np.eye(degree, dtype=np.int64)) % self.p
            # column-vector system with digit k-1 most significant
            brev = a.T[:, ::-1]
            _, t, pivots = rref_mod(brev, self.p)
            kern = kernel_rref(brev, self.p)
            lvl.as_cache[e] = (t, pivots, kern)
        t, pivots, kern = lvl.as_cache[e]
        tb = (c @ t.T) % self.p
        rank = len(pivots)
        ok = ~np.any(tb[:, rank:], axis=1)
        y = np.zeros((len(c), degree), dtype=np.int64)
        y[:, pivots] = tb[:, :rank]
        y = coset_min(y, kern, self.p)
        return y[:, ::-1], ok
