import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from asaitwist.fields import FieldTower
from asaitwist.grouplaw import Polynomial
from asaitwist.modp import LinearSolve, matpow_mod, power, rref_mod
from asaitwist.points import _CodeTables


def solve_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """Oracle: one solution of a @ x = b over F_p (free variables zero), or None."""
    r, t, pivots = rref_mod(a, p)
    tb = (t @ (np.asarray(b, dtype=np.int64) % p)) % p
    rank = len(pivots)
    if np.any(tb[rank:]):
        return None
    x = np.zeros(a.shape[1], dtype=np.int64)
    for j, c in enumerate(pivots):
        x[c] = tb[j]
    return x


@st.composite
def matrix_and_p(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    data = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return np.array(data, dtype=np.int64), p


@settings(max_examples=150, deadline=None)
@given(matrix_and_p())
def test_rref_transform_identity(mp):
    mat, p = mp
    r, t, pivots = rref_mod(mat, p)
    assert np.array_equal((t @ mat) % p, r)
    # pivot columns carry unit vectors
    for j, c in enumerate(pivots):
        col = r[:, c]
        assert col[j] == 1 and np.count_nonzero(col) == 1


@settings(max_examples=150, deadline=None)
@given(matrix_and_p(), st.data())
def test_solve_and_kernel(mp, data):
    mat, p = mp
    x = np.array(
        data.draw(
            st.lists(st.integers(0, p - 1), min_size=mat.shape[1], max_size=mat.shape[1])
        ),
        dtype=np.int64,
    )
    b = (mat @ x) % p
    sol = solve_mod(mat, b, p)
    assert sol is not None
    assert np.array_equal((mat @ sol) % p, b)
    kern = LinearSolve(mat.T, p).kernel[:, ::-1]  # ker(mat) in mat's column order
    for row in kern:
        assert not np.any((mat @ row) % p)
    assert kern.shape[0] == mat.shape[1] - len(rref_mod(mat, p)[2])


def test_solve_inconsistent():
    a = np.array([[1, 0], [1, 0]], dtype=np.int64)
    b = np.array([1, 2], dtype=np.int64)
    assert solve_mod(a, b, 3) is None


def test_coset_min_is_minimum_exhaustive():
    p = 3
    a = np.array([[1, 1, 1]], dtype=np.int64)  # one equation over F_3^3
    b = np.array([2], dtype=np.int64)
    best, ok = LinearSolve(a.T, p).solve(b)
    # enumerate the whole solution set; the last coordinate is most significant
    sols = [v for v in itertools.product(range(p), repeat=3) if (a @ v) % p == b]
    assert ok and tuple(best) == min(sols, key=lambda v: v[::-1])


@st.composite
def system_and_rhs(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    entries = st.integers(0, p - 1)
    mat = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n))
    rhs = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=1, max_size=4))
    return np.array(mat, dtype=np.int64), np.array(rhs, dtype=np.int64), p


@settings(max_examples=200, deadline=None)
@given(system_and_rhs())
def test_linear_solve_matches_enumeration(case):
    """Against every x in F_p^n: ok holds exactly for the rows y with some
    x @ mat = y, and x is then the least such x, its last coordinate the
    most significant; the rank and the kernel agree with the count."""
    mat, rhs, p = case
    n = mat.shape[0]
    xs = np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64)[:, ::-1]
    images = (xs @ mat) % p  # xs in order of the reversed coordinates
    solver = LinearSolve(mat, p)
    sol, ok = solver.solve(rhs)
    for y, x, found in zip(rhs, sol, ok):
        hits = np.flatnonzero(np.all(images == y, axis=1))
        assert found == bool(hits.size)
        if found:
            assert np.array_equal(x, xs[hits[0]])
    kernel_size = int(np.sum(~np.any(images, axis=1)))
    assert kernel_size == p ** (n - solver.rank) == p ** len(solver.kernel)
    assert not np.any((solver.kernel[:, ::-1] @ mat) % p)


def test_matpow():
    m = np.array([[1, 1], [0, 1]], dtype=np.int64)
    assert np.array_equal(matpow_mod(m, 3, 5), (m @ m @ m) % 5)
    assert np.array_equal(matpow_mod(m, 0, 5), np.eye(2, dtype=np.int64))


def test_power_matches_repeated_multiplication_on_every_algebra():
    """power against e - 1 products, e = 0..9, on matrices mod p, field
    digit rows, lookup-table codes and polynomials; e == 0 gives one
    itself, and the loop makes bit_length - 1 squarings and popcount - 1
    other products."""
    p = 3
    tower = FieldTower(p)
    fid = tower.make_field(2)
    tab = _CodeTables(tower, fid)
    one_poly = Polynomial.make(p, 4, [(1, (0, 0, 0, 0))])
    poly = Polynomial.make(p, 4, [(1, (1, 0, 0, 0)), (2, (0, 0, 2, 0)), (1, (0, 0, 0, 0))])
    algebras = [
        (np.array([[1, 2], [1, 1]]), lambda a, b: (a @ b) % p, np.eye(2, dtype=np.int64)),
        (
            np.array([[1, 2], [0, 1], [2, 2]]),
            lambda a, b: tower.vmul(fid, a, b),
            np.array([[1, 0]] * 3),
        ),
        (np.arange(9), lambda a, b: tab.mul[a, b], np.ones(9, dtype=np.int64)),
        (poly, Polynomial.mul, one_poly),
    ]
    for base, mul, one in algebras:
        products = []

        def counted(a, b):
            products.append(1)
            return mul(a, b)

        assert power(base, 0, counted, one) is one
        expected = base
        for e in range(1, 10):
            products.clear()
            got = power(base, e, counted, one)
            assert len(products) == e.bit_length() - 1 + bin(e).count("1") - 1
            if isinstance(base, Polynomial):
                assert got == expected
            else:
                assert np.array_equal(got, expected)
            expected = mul(expected, base)
