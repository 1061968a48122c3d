"""Dense linear algebra over a prime field F_p on numpy int64 arrays.

All entries are kept reduced to [0, p).  Callers work with row vectors;
systems are solved in the usual column-vector convention.

power is the one square-and-multiply loop: matrices mod p, field digit
rows, lookup-table codes and polynomials each pass it their product.
digit_power is the one loop over base-p digits of an exponent, for
field digit rows and polynomials, whose p-th powers are cheap maps.
LinearSolve is the one solver of x @ M = y: it factors M once and then
answers every batch of right-hand sides with the code-least solution.
"""

from __future__ import annotations

import numpy as np


def power(base, e: int, mul, one):
    """base**e under the associative product mul (e >= 0; one for e == 0):
    one never enters a product, so e == 1 costs none, and base is not
    squared again after the top bit of e."""
    out = None
    while e:
        if e & 1:
            out = base if out is None else mul(out, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return one if out is None else out


def digit_power(base, e: int, p: int, mul, frob, one):
    """base**e as the product of frob(base, j)**e_j over the base-p digits
    e_j of e, where frob(base, j) is base**(p**j), a cheap map in
    characteristic p (one for e == 0): only digits above 1 take
    square-and-multiply."""
    out, j = None, 0
    while e:
        e, digit = divmod(e, p)
        if digit:  # at least 1, so power never returns its unit
            fac = power(frob(base, j) if j else base, digit, mul, None)
            out = fac if out is None else mul(out, fac)
        j += 1
    return one if out is None else out


def matpow_mod(mat: np.ndarray, e: int, p: int) -> np.ndarray:
    """mat**e mod p (e >= 0)."""
    return power(mat % p, e, lambda a, b: (a @ b) % p, np.eye(mat.shape[0], dtype=np.int64))


def rref_mod(mat: np.ndarray, p: int):
    """Reduced row echelon form over F_p.

    Returns (r, t, pivots) where t @ mat % p == r and pivots lists the
    pivot column of each nonzero row of r.
    """
    m = np.array(mat, dtype=np.int64) % p
    rows, cols = m.shape
    t = np.eye(rows, dtype=np.int64)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
            t[[r, i]] = t[[i, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r] = (m[r] * inv) % p
        t[r] = (t[r] * inv) % p
        other = np.nonzero(m[:, c])[0]
        other = other[other != r]
        if other.size:
            f = m[other, c][:, None]
            m[other] = (m[other] - f * m[r]) % p
            t[other] = (t[other] - f * t[r]) % p
        pivots.append(c)
        r += 1
    return m, t, pivots


def frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only."""
    a.flags.writeable = False
    return a


def _rref_kernel(r: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """RREF basis of the kernel of a matrix whose RREF is r with these pivots."""
    ncols = r.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return np.zeros((0, ncols), dtype=np.int64)
    vecs = np.zeros((len(free), ncols), dtype=np.int64)
    for i, f in enumerate(free):
        vecs[i, f] = 1
        for j, c in enumerate(pivots):
            vecs[i, c] = (-r[j, f]) % p
    return rref_mod(vecs, p)[0]


def kernel_rref(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of ker(a) over F_p, returned in reduced row echelon form.

    Shape (dim_kernel, ncols); possibly empty.
    """
    r, _, pivots = rref_mod(a, p)
    return _rref_kernel(r, pivots, p)


class LinearSolve:
    """x @ mat = y over F_p for row vectors x, factored once.

    The system is reduced to RREF once, with the unknowns reversed so that
    the last coordinate of x is the most significant, as in field element
    codes.  rank and kernel (the RREF basis of {x : x @ mat = 0}, in those
    reversed coordinates) are read-only.
    """

    def __init__(self, mat: np.ndarray, p: int):
        self.p = p
        r, t, pivots = rref_mod(np.asarray(mat, dtype=np.int64).T[:, ::-1], p)
        self.rank = len(pivots)
        self._t = frozen(t)
        self._pivots = frozen(np.array(pivots, dtype=np.int64))
        self.kernel = frozen(_rref_kernel(r, pivots, p))
        # the pivot column of each kernel row is zero in every other row
        self._kernel_pivots = frozen(np.argmax(self.kernel != 0, axis=1))

    def solve(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The least x with x @ mat = y for every row of y (shape (..., m)),
        and the mask of rows that have a solution; the x of the other rows
        means nothing.  Zeroing the kernel pivots of the particular solution
        is the greedy minimum of its coset, all in one product."""
        tb = (np.asarray(y, dtype=np.int64) @ self._t.T) % self.p
        ok = ~np.any(tb[..., self.rank :], axis=-1)
        x = np.zeros(tb.shape[:-1] + (self.kernel.shape[1],), dtype=np.int64)
        x[..., self._pivots] = tb[..., : self.rank]
        x = (x - x[..., self._kernel_pivots] @ self.kernel) % self.p
        return x[..., ::-1], ok
