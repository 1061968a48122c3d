import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asaitwist.errors import CapExceeded, IncompatibleFields, ParameterError
from asaitwist.fields import _BRUTE_ROOT_BOUND, FieldId, FieldTower


def op_tables(tower, fid):
    """Code-indexed add/mul tables, built from the bulk kernels."""
    q = fid.order
    digs = tower.codes_to_digits(fid, np.arange(q, dtype=np.int64))
    add = tower.digits_to_codes(fid, tower.vadd(digs[:, None, :], digs[None, :, :]))
    mul = tower.digits_to_codes(fid, tower.vmul(fid, digs[:, None, :], digs[None, :, :]))
    return add, mul


# every field with at most 81 elements, all characteristics up to 7
SMALL_FIELDS = [
    (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
    (3, 1), (3, 2), (3, 3), (3, 4),
    (5, 1), (5, 2),
    (7, 1), (7, 2),
]


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, k):
    tower = FieldTower(p)
    fid = tower.make_field(k)
    q = p**k
    add, mul = op_tables(tower, fid)
    i = np.arange(q)

    assert np.array_equal(add, add.T)
    assert np.array_equal(mul, mul.T)
    # associativity, all q^3 triples through the tables
    assert np.array_equal(add[add[:, :, None], i[None, None, :]],
                          add[i[:, None, None], add[None, :, :]])
    assert np.array_equal(mul[mul[:, :, None], i[None, None, :]],
                          mul[i[:, None, None], mul[None, :, :]])
    # distributivity
    assert np.array_equal(mul[i[:, None, None], add[None, :, :]],
                          add[mul[:, :, None], mul[:, None, :]])
    # identities and inverses
    assert np.array_equal(add[0], i)
    assert np.array_equal(mul[1], i)
    assert np.array_equal(mul[0], np.zeros(q, dtype=add.dtype))
    for a in range(q):
        assert 0 in add[a]
        if a:
            assert 1 in mul[a]


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
def test_frobenius_is_field_automorphism(p, k):
    tower = FieldTower(p)
    fid = tower.make_field(k)
    q = p**k
    digs = tower.codes_to_digits(fid, np.arange(q, dtype=np.int64))
    fr = tower.digits_to_codes(fid, tower.vfrob(fid, digs, 1))
    add, mul = op_tables(tower, fid)
    assert sorted(fr.tolist()) == list(range(q))  # bijective
    assert np.array_equal(fr[add], add[fr[:, None], fr[None, :]])
    assert np.array_equal(fr[mul], mul[fr[:, None], fr[None, :]])


def test_deterministic_moduli():
    t2 = FieldTower(2)
    assert t2.modulus(t2.make_field(2)) == (1, 1, 1)        # t^2+t+1
    assert t2.modulus(t2.make_field(3)) == (1, 1, 0, 1)     # t^3+t+1
    t3 = FieldTower(3)
    assert t3.modulus(t3.make_field(2)) == (1, 0, 1)        # t^2+1
    assert t3.modulus(t3.make_field(3)) == (1, 2, 0, 1)     # t^3+2t+1
    # idempotent
    assert t3.make_field(2) == t3.make_field(2) == FieldId(3, 2)


def _poly_mod(u, f, p):
    """u mod f over F_p by long division; coefficient lists, c[i] ~ t^i, f monic."""
    u = list(u)
    d = len(f) - 1
    for j in range(len(u) - 1, d - 1, -1):
        c = u[j]
        for i in range(d + 1):
            u[j - d + i] = (u[j - d + i] - c * f[i]) % p
    return (u + [0] * d)[:d]


def _monic(p, degree):
    """Every monic polynomial of the given degree over F_p, in code order."""
    for code in range(p**degree):
        yield [code // p**i % p for i in range(degree)] + [1]


# every field with at most 2401 elements, characteristics up to 7
MODULUS_GRID = [(p, k) for p in (2, 3, 5, 7) for k in range(1, 12) if p**k <= 2401]


@pytest.mark.parametrize("p,k", MODULUS_GRID)
def test_moduli_and_frobenius_match_long_division_oracle(p, k):
    """The modulus is the first monic polynomial in code order with no monic
    factor of degree 1..k//2, and row i of the Frobenius matrix is
    t^{i*p} mod f, both by plain long division."""
    least = next(
        f for f in _monic(p, k)
        if all(any(_poly_mod(f, g, p)) for d in range(1, k // 2 + 1) for g in _monic(p, d))
    )
    tower = FieldTower(p)
    fid = tower.make_field(k)
    assert tower.modulus(fid) == tuple(least)
    frob = tower.vfrob(fid, np.eye(k, dtype=np.int64), 1)
    for i in range(k):
        assert frob[i].tolist() == _poly_mod([0] * (i * p) + [1], least, p)


@pytest.mark.parametrize(
    "p,a,b,brute,divides",
    [
        (2, 3, 6, True, False),
        (3, 2, 6, True, False),
        (2, 7, 14, False, False),
        (3, 3, 9, False, False),
        (5, 2, 6, False, False),
        (2, 5, 15, False, True),  # keeps a cofactor by exact division
    ],
)
def test_root_candidates_are_all_roots_in_code_order(p, a, b, brute, divides, monkeypatch):
    """Both root-finding paths (brute force up to _BRUTE_ROOT_BOUND elements,
    trace splitting above) give every root of the degree-a modulus in
    F_{p^b}, sorted by code."""
    tower = FieldTower(p)
    fa, fb = tower.make_field(a), tower.make_field(b)
    xs = tower.codes_to_digits(fb, np.arange(fb.order, dtype=np.int64))
    acc = np.zeros_like(xs)
    for c in reversed(tower.modulus(fa)):
        acc = tower.vmul(fb, acc, xs)
        acc[:, 0] = (acc[:, 0] + c) % p
    roots = np.nonzero(~acc.any(axis=1))[0].tolist()
    assert len(roots) == a
    divisions = []
    divexact = tower._pp_divexact
    monkeypatch.setattr(tower, "_pp_divexact", lambda *args: divisions.append(1) or divexact(*args))
    cands = tower._root_candidates(a, b)
    assert [int(tower.digits_to_codes(fb, r)) for r in cands] == roots
    assert (fb.order <= _BRUTE_ROOT_BOUND) == brute
    assert bool(divisions) == divides


def test_make_field_examples():
    t3 = FieldTower(3)
    assert t3.make_field(1).order == 3
    assert t3.make_field(2).order == 9
    assert len(list(t3.elements(t3.make_field(2)))) == 9


def test_make_field_cap():
    tower = FieldTower(2, degree_cap=4)
    tower.make_field(4)
    with pytest.raises(CapExceeded):
        tower.make_field(5)
    with pytest.raises(ParameterError):
        tower.make_field(0)


def test_nonprime_characteristic_rejected():
    with pytest.raises(ParameterError):
        FieldTower(4)


@pytest.mark.parametrize("p", [2, 3])
def test_embeddings_into_degree_six(p):
    """Embeddings from degrees 2 and 3 into degree 6 exist, are ring
    homomorphisms on every element, and commute with the prime-field
    inclusion."""
    tower = FieldTower(p)
    f1 = tower.make_field(1)
    f6 = tower.make_field(6)
    for a in (2, 3):
        fa = tower.make_field(a)
        add_a, mul_a = op_tables(tower, fa)
        elems = list(tower.elements(fa))
        images = [tower.embed(x, f6) for x in elems]
        assert len({im.code for im in images}) == len(elems)  # injective
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                s = tower.embed(tower.add(x, y), f6)
                assert s == tower.add(images[i], images[j])
                m = tower.embed(tower.mul(x, y), f6)
                assert m == tower.mul(images[i], images[j])
        # prime-field triangle 1 -> a -> 6 equals 1 -> 6
        for c in tower.elements(f1):
            via = tower.embed(tower.embed(c, fa), f6)
            assert via == tower.embed(c, f6)


def test_embedding_triangle_with_true_middle():
    tower = FieldTower(2)
    f2 = tower.make_field(2)
    f6 = tower.make_field(6)
    f12 = tower.make_field(12)
    for x in tower.elements(f2):
        assert tower.embed(tower.embed(x, f6), f12) == tower.embed(x, f12)

    # adversarial construction order: the direct embedding first
    t2 = FieldTower(3)
    a, b, c = t2.make_field(2), t2.make_field(4), t2.make_field(12)
    for x in t2.elements(a):
        direct = t2.embed(x, c)  # builds (2,12) first
        assert t2.embed(t2.embed(x, b), c) == direct


def test_embed_examples():
    t3 = FieldTower(3)
    f1, f2 = t3.make_field(1), t3.make_field(2)
    assert t3.embed(t3.zero(f1), f2) == t3.zero(f2)
    t2 = FieldTower(2)
    f64 = t2.make_field(6)
    assert t2.embed(t2.one(t2.make_field(1)), f64) == t2.one(f64)
    # a generator of F_4^* has order 3 inside F_64^*
    f4 = t2.make_field(2)
    gen = next(x for x in t2.elements(f4) if not x.is_zero() and x != t2.one(f4))
    img = t2.embed(gen, f64)
    order = 1
    cur = img
    while cur != t2.one(f64):
        cur = t2.mul(cur, img)
        order += 1
    assert order == 3


def test_embed_incompatible_degrees():
    t2 = FieldTower(2)
    x = t2.one(t2.make_field(2))
    with pytest.raises(IncompatibleFields):
        t2.embed(x, t2.make_field(3))


def test_frobenius_examples():
    t3 = FieldTower(3)
    f1 = t3.make_field(1)
    for x in t3.elements(f1):
        assert t3.frobenius(x, 3) == x  # Fermat
    # generator of F_9^* has order 8; g^3 != g
    f9 = t3.make_field(2)
    gen = None
    for x in t3.elements(f9):
        if x.is_zero():
            continue
        order = 1
        cur = x
        while cur != t3.one(f9):
            cur = t3.mul(cur, x)
            order += 1
        if order == 8:
            gen = x
            break
    assert gen is not None
    assert t3.frobenius(gen, 3) != gen
    # F^m fixes F_{q^m} pointwise
    for qm, deg in ((9, 2), (27, 3)):
        fid = t3.make_field(deg)
        for x in t3.elements(fid):
            y = x
            for _ in range(deg):
                y = t3.frobenius(y, 3)
            assert y == x


def test_frobenius_bad_q():
    t3 = FieldTower(3)
    with pytest.raises(ParameterError):
        t3.frobenius(t3.one(t3.make_field(1)), 2)


def trace_to(tower, x, sub):
    """Oracle: the relative trace, sum of x^{(p^sub.degree)^i}, down to sub."""
    if x.field.degree % sub.degree:
        raise IncompatibleFields(f"{sub.degree} does not divide {x.field.degree}")
    acc, cur = tower.zero(x.field), x
    for _ in range(x.field.degree // sub.degree):
        acc = tower.add(acc, cur)
        cur = tower.frobenius(cur, tower.p**sub.degree)
    return tower.section(acc, sub)


def test_trace_examples():
    t3 = FieldTower(3)
    f1, f2 = t3.make_field(1), t3.make_field(2)
    # subfield element: trace is multiplication by the relative degree
    for x in t3.elements(f1):
        lifted = t3.embed(x, f2)
        expected = t3.element(f1, [(2 * x.coeffs[0]) % 3])
        assert trace_to(t3, lifted, f1) == expected
    # roots of t^2 - t - 1 in F_9 both have trace 1 (sum of the two roots)
    roots = [
        x
        for x in t3.elements(f2)
        if t3.sub(t3.sub(t3.mul(x, x), x), t3.one(f2)).is_zero()
    ]
    assert len(roots) == 2
    for r in roots:
        assert trace_to(t3, r, f1) == t3.one(f1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 26), st.integers(0, 26))
def test_trace_additive(c1, c2):
    tower = FieldTower(3)
    f1, f3 = tower.make_field(1), tower.make_field(3)
    x = tower.element_from_code(f3, c1)
    y = tower.element_from_code(f3, c2)
    lhs = trace_to(tower, tower.add(x, y), f1)
    rhs = tower.add(trace_to(tower, x, f1), trace_to(tower, y, f1))
    assert lhs == rhs


def as_check(tower, t, c, q, m):
    big = t.field if t.field.degree >= c.field.degree else c.field
    tt = tower.embed(t, big)
    cc = tower.embed(c, big)
    lhs = tower.sub(tower.frobenius(tt, q**m), tt)
    return lhs == cc


def test_artin_schreier_zero():
    t3 = FieldTower(3)
    c = t3.zero(t3.make_field(1))
    t = t3.artin_schreier_solve(c, 1)
    assert t.is_zero() and t.field.degree == 1


def test_artin_schreier_f2_needs_f4():
    t2 = FieldTower(2)
    c = t2.one(t2.make_field(1))
    t = t2.artin_schreier_solve(c, 1)
    assert t.field.degree == 2
    assert as_check(t2, t, c, 2, 1)
    # brute-force oracle over all four elements of F_4
    f4 = t2.make_field(2)
    c4 = t2.embed(c, f4)
    sols = [
        x for x in t2.elements(f4) if t2.sub(t2.frobenius(x, 2), x) == c4
    ]
    assert t in sols
    assert t == min(sols, key=lambda e: e.code)  # deterministic least
    # no solution down in F_2
    f1 = t2.make_field(1)
    assert not any(
        t2.sub(t2.frobenius(x, 2), x) == c for x in t2.elements(f1)
    )


def test_artin_schreier_f3_needs_f27():
    t3 = FieldTower(3)
    c = t3.one(t3.make_field(1))
    t = t3.artin_schreier_solve(c, 1)
    assert t.field.degree == 3
    assert as_check(t3, t, c, 3, 1)
    f27 = t3.make_field(3)
    c27 = t3.embed(c, f27)
    sols = [x for x in t3.elements(f27) if t3.sub(t3.frobenius(x, 3), x) == c27]
    assert len(sols) == 3
    assert t == min(sols, key=lambda e: e.code)


def test_artin_schreier_solution_set_is_coset():
    """In any field containing one solution the full solution set is
    exactly {t + u : u in F_{q^m}}."""
    t2 = FieldTower(2)
    c = t2.one(t2.make_field(1))
    t = t2.artin_schreier_solve(c, 1)
    f4 = t.field
    c4 = t2.embed(c, f4)
    sols = {
        x.code for x in t2.elements(f4) if t2.sub(t2.frobenius(x, 2), x) == c4
    }
    coset = {
        t2.add(t, t2.embed(u, f4)).code for u in t2.elements(t2.make_field(1))
    }
    assert sols == coset


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8), st.sampled_from([1, 2]))
def test_artin_schreier_always_reverifies(code, e):
    tower = FieldTower(3)
    base = tower.make_field(e)
    c = tower.element_from_code(base, code % base.order)
    t = tower.artin_schreier_solve(c, e)
    assert as_check(tower, t, c, 3, e)


def test_artin_schreier_cap():
    t3 = FieldTower(3, degree_cap=2)
    c = t3.one(t3.make_field(1))
    with pytest.raises(CapExceeded):
        t3.artin_schreier_solve(c, 1)


@pytest.mark.parametrize("degree,e", [(3, 2), (2, 3), (1, 0)])
def test_artin_schreier_rejects_exponent_not_dividing_the_level(degree, e):
    """c must lie in an extension of F_{p^e}."""
    t3 = FieldTower(3)
    fid = t3.make_field(degree)
    with pytest.raises(ParameterError):
        t3.vartin_schreier_solve(fid, np.zeros((1, degree), dtype=np.int64), e)


def test_artin_schreier_shrinks_representation():
    """The answer does not depend on the level at which c is handed in."""
    t3 = FieldTower(3)
    c = t3.one(t3.make_field(1))
    low = t3.artin_schreier_solve(c, 1)
    lifted = t3.embed(c, t3.make_field(3))
    high = t3.artin_schreier_solve(lifted, 1)
    assert low == high


def test_element_canonical_order_is_code_order():
    t3 = FieldTower(3)
    f9 = t3.make_field(2)
    elems = list(t3.elements(f9))
    codes = [e.code for e in elems]
    assert codes == sorted(codes) == list(range(9))


def test_embedding_chain_matches_direct_jump():
    """Chained embeddings and the direct embedding must agree: the lattice
    is kept transitively closed, so the path 3 -> 9 -> 27 pins down the
    direct 3 -> 27 (and 9 -> 27 forces 3 -> 27 at registration time)."""
    tower = FieldTower(3)
    f3, f9, f27 = (tower.make_field(d) for d in (3, 9, 27))
    for code in range(27):
        x = tower.element_from_code(f3, code)
        assert tower.embed(tower.embed(x, f9), f27) == tower.embed(x, f27)
    y = tower.element_from_code(f9, 4242)
    assert tower.section(tower.embed(y, f27), f9) == y


def test_embedding_lattice_order_independent():
    """Triangle compatibility must hold no matter the construction order."""
    import itertools
    import random

    edges = [(1, 2), (2, 4), (1, 3), (3, 6), (2, 6), (6, 12),
             (4, 12), (2, 12), (3, 12), (1, 12), (1, 4), (1, 6)]
    degs = [1, 2, 3, 4, 6, 12]
    for seed in range(3):
        shuffled = edges[:]
        random.Random(seed).shuffle(shuffled)
        tower = FieldTower(2)
        for a, b in shuffled:
            tower._embedding(a, b)
        for a, b, c in itertools.product(degs, repeat=3):
            if a < b < c and b % a == 0 and c % b == 0:
                fa, fb, fc = (tower.make_field(d) for d in (a, b, c))
                for el in tower.elements(fa):
                    assert tower.embed(tower.embed(el, fb), fc) == tower.embed(el, fc)


def test_artin_schreier_nonzero_trace_forces_second_step():
    """c = t+1 in F_9 has nonzero trace to F_3, so t^3 - t = c has no
    solution in F_9 and the solver must climb to F_{3^6}."""
    tower = FieldTower(3)
    f9 = tower.make_field(2)
    c = tower.element(f9, (1, 1))
    f1 = tower.make_field(1)
    assert not trace_to(tower, c, f1).is_zero()
    assert not any(
        tower.sub(tower.frobenius(x, 3), x) == c for x in tower.elements(f9)
    )
    t = tower.artin_schreier_solve(c, 1)
    assert t.field.degree == 6
    big = t.field
    assert tower.sub(tower.frobenius(t, 3), t) == tower.embed(c, big)
