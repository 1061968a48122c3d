"""Dense linear algebra over a prime field F_p on numpy int64 arrays.

All entries are kept reduced to [0, p).  Callers work with row vectors;
systems are solved in the usual column-vector convention.

power is the one square-and-multiply loop: matrices mod p, field digit
rows, lookup-table codes and polynomials each pass it their product.
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


def kernel_rref(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of ker(a) over F_p, returned in reduced row echelon form.

    Shape (dim_kernel, ncols); possibly empty.
    """
    r, _, pivots = rref_mod(a, p)
    ncols = a.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return np.zeros((0, ncols), dtype=np.int64)
    vecs = np.zeros((len(free), ncols), dtype=np.int64)
    for i, f in enumerate(free):
        vecs[i, f] = 1
        for j, c in enumerate(pivots):
            vecs[i, c] = (-r[j, f]) % p
    rr, _, _ = rref_mod(vecs, p)
    return rr


def coset_min(x0: np.ndarray, kernel: np.ndarray, p: int) -> np.ndarray:
    """Lexicographically least element of x0 + span(kernel), row by row.

    x0 has shape (..., n); column 0 is the most significant position.
    `kernel` must be in RREF; zeroing every pivot coordinate of the coset
    representative realises the greedy lexicographic minimum.
    """
    x = np.array(x0, dtype=np.int64) % p
    for row in kernel:
        nz = np.nonzero(row)[0]
        if nz.size == 0:
            continue
        piv = int(nz[0])
        x = (x - x[..., piv, None] * row) % p
    return x
