"""Dense linear algebra over a prime field F_p on numpy int64 arrays.

All entries are kept reduced to [0, p).  Callers work with row vectors;
systems are solved in the usual column-vector convention.
"""

from __future__ import annotations

import numpy as np


def matpow_mod(mat: np.ndarray, e: int, p: int) -> np.ndarray:
    """mat**e mod p by binary powering (e >= 0)."""
    n = mat.shape[0]
    out = np.eye(n, dtype=np.int64)
    base = mat % p
    while e:
        if e & 1:
            out = (out @ base) % p
        base = (base @ base) % p
        e >>= 1
    return out


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


def solve_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution of a @ x = b over F_p (free variables zero), or None."""
    r, t, pivots = rref_mod(a, p)
    tb = (t @ (np.asarray(b, dtype=np.int64) % p)) % p
    rank = len(pivots)
    if np.any(tb[rank:]):
        return None
    x = np.zeros(a.shape[1], dtype=np.int64)
    for j, c in enumerate(pivots):
        x[c] = tb[j]
    return x


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
