import itertools
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asaitwist import fields as fields_module
from asaitwist.errors import (
    CapExceeded,
    IncompatibleFields,
    ParameterError,
)
from asaitwist.fields import _BRUTE_ROOT_BOUND, FieldId, FieldTower
from asaitwist.modp import power


@pytest.fixture
def empty_levels(monkeypatch):
    """Start from an empty process-wide level table, so that a test sees
    every level derived, not taken from an earlier test; calling the
    returned function empties the table again."""

    def empty():
        monkeypatch.setattr(fields_module, "_LEVELS", {})

    empty()
    return empty


def _count_splits(monkeypatch) -> list:
    """A list that grows by one at every _split_root call of any tower."""
    calls = []
    split = FieldTower._split_root
    monkeypatch.setattr(
        FieldTower, "_split_root", lambda self, *args: calls.append(1) or split(self, *args)
    )
    return calls


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


def test_degree_64_modulus_is_code_least():
    """Past p^(k-1) = 2^63 the code order still holds: t^64 + t^4 + t^3 +
    t + 1 (code 27) is the modulus, and every monic degree-64 candidate
    with a smaller code fails the irreducibility test."""
    tower = FieldTower(2)
    expected = (1, 1, 0, 1, 1) + (0,) * 59 + (1,)
    assert tower.modulus(tower.make_field(64)) == expected
    for code in range(27):
        f = np.array([code >> i & 1 for i in range(64)] + [1], dtype=np.int64)
        assert tower._irreducible_frobenius(f) is None


def test_least_irreducible_evaluates_each_upper_part_once(monkeypatch, empty_levels):
    """At p = 20021 = 2 (mod 3) every t^3 + c has a root, so the root
    filter must not evaluate each constant on F_p: one evaluation of
    t^3 and one of t^3 + t find t^3 + t + 7, the first constant outside
    -(x^3 + x)(F_p)."""
    p = 20021
    calls = []
    values = fields_module._values_on_prime_field
    monkeypatch.setattr(
        fields_module, "_values_on_prime_field", lambda *args: calls.append(1) or values(*args)
    )
    tower = FieldTower(p)
    assert tower.modulus(tower.make_field(3)) == (7, 1, 0, 1)
    assert len(calls) == 2
    assert {-(x**3) % p for x in range(p)} == set(range(p))
    assert set(range(1, 7)) <= {-(x**3 + x) % p for x in range(p)}
    assert 7 not in {-(x**3 + x) % p for x in range(p)}


def _root_codes(p, a, b, monkeypatch):
    """Codes of _root_candidates(a, b) in a new tower, after checking
    that each is a root of the degree-a modulus; also whether trace
    splitting ran."""
    tower = FieldTower(p)
    fa, fb = tower.make_field(a), tower.make_field(b)
    splits = []
    split = tower._split_root
    monkeypatch.setattr(tower, "_split_root", lambda *args: splits.append(1) or split(*args))
    cands, _ = tower._root_candidates(a, b)
    acc = np.zeros_like(cands)
    for c in reversed(tower.modulus(fa)):
        acc = tower.vmul(fb, acc, cands)
        acc[:, 0] = (acc[:, 0] + c) % p
    assert not acc.any()
    return tower.digits_to_codes(fb, cands).tolist(), bool(splits)


@pytest.mark.parametrize(
    "p,a,b,brute",
    [
        (2, 3, 6, True),
        (3, 2, 6, True),
        (2, 7, 14, True),
        (3, 3, 9, True),
        (5, 2, 6, True),
        (2, 5, 15, True),
        (2, 13, 26, False),
        (4099, 1, 2, False),  # F_p itself is above the bound
    ],
)
def test_root_candidates_are_all_roots_in_code_order(p, a, b, brute, monkeypatch, empty_levels):
    """Both root-finding paths (brute force over the subfield F_{p^a} up to
    _BRUTE_ROOT_BOUND elements, trace splitting above) give every root of
    the degree-a modulus in F_{p^b}, sorted by code: a distinct roots of a
    degree-a polynomial are all of them.  Each case runs at the default
    bound and again with the bound at 0, which forces trace splitting;
    each run starts from an empty level table, which would otherwise
    hand the second run the roots of the first."""
    codes, split = _root_codes(p, a, b, monkeypatch)
    assert split != brute
    empty_levels()
    monkeypatch.setattr(fields_module, "_BRUTE_ROOT_BOUND", 0)
    trace_codes, split = _root_codes(p, a, b, monkeypatch)
    assert split
    assert trace_codes == codes
    assert len(codes) == a and codes == sorted(set(codes))


@pytest.mark.parametrize("a,b", [(8, 16), (12, 24)])
def test_subfield_root_search_evaluates_one_block(a, b, empty_levels):
    """The roots of the degree-a modulus lie in the p^a-element subfield;
    on these pairs the first block of its candidates holds one, so the
    Horner loop sends at most 256 rows to vmul at level b, a + 1 times."""
    tower = FieldTower(2)
    tower.make_field(a)
    tower.make_field(b)
    rows = []
    vmul = tower.vmul

    def counting_vmul(fid, x, y):
        if fid.degree == b:
            rows.append(len(x))
        return vmul(fid, x, y)

    tower.vmul = counting_vmul
    tower._subfield_root(a, b)
    assert len(rows) == a + 1 and len(set(rows)) == 1 and rows[0] <= 256


@pytest.mark.parametrize("p", [13, 31])
def test_trace_splitting_works_in_the_subfield(p, monkeypatch, empty_levels):
    """The roots of the degree-2 modulus in F_{p^{2p}} lie in F_{p^2}: its
    traces have 2 terms, one p-power each, and it has 2 basis rows, so
    trace splitting makes fewer than b - 1 _pp_powp calls, which one
    trace over all of F_{p^b} would take alone."""
    b = 2 * p
    monkeypatch.setattr(fields_module, "_BRUTE_ROOT_BOUND", 0)
    tower = FieldTower(p)
    calls = []
    powp = tower._pp_powp
    monkeypatch.setattr(tower, "_pp_powp", lambda *args: calls.append(1) or powp(*args))
    roots, _ = tower._root_candidates(2, b)
    assert 0 < len(calls) < b - 1
    fid = FieldId(p, b)
    modulus = tower.modulus(FieldId(p, 2))
    values = tower.vmul(fid, roots, roots) + modulus[1] * roots
    values[:, 0] += modulus[0]
    assert not np.any(values % p)


# monic polynomials of every degree k over F_p with p^k <= 256
IRREDUCIBILITY_GRID = [(p, k) for p in (2, 3, 5, 7, 11, 13) for k in range(1, 9) if p**k <= 256]


@pytest.mark.parametrize("p,k", IRREDUCIBILITY_GRID)
def test_is_irreducible_matches_long_division_oracle(p, k):
    """_irreducible_frobenius returns a matrix exactly for the monic f of
    degree k with no monic factor of degree 1..k//2.  Where the grid has
    them (p = 2, k = 6 and 8, e.g. (t^3+t+1)(t^3+t^2+1)), some reducible
    f have t^{p^k} = t mod f, so the rank condition is needed to refuse
    them."""
    tower = FieldTower(p)
    passes_frobenius = 0
    for f in _monic(p, k):
        irreducible = all(
            any(_poly_mod(f, g, p)) for d in range(1, k // 2 + 1) for g in _monic(p, d)
        )
        assert (tower._irreducible_frobenius(np.array(f, dtype=np.int64)) is not None) == irreducible, f
        t_power = _poly_mod([0] * p**k + [1], f, p)  # t^{p^k} mod f
        passes_frobenius += not irreducible and t_power == _poly_mod([0, 1], f, p)
    if (p, k) in ((2, 6), (2, 8)):
        assert passes_frobenius


def _divisor_pairs(top):
    """Every (a, b) with a | b <= top, in ascending order."""
    return [(a, b) for b in range(1, top + 1) for a in fields_module.divisors(b)]


def _divisor_lattice(p, top):
    """Every embedding a -> b with b <= top, requested in ascending order."""
    tower = FieldTower(p)
    return {(a, b): tower._embedding(a, b) for a, b in _divisor_pairs(top)}


def _assert_same_lattice(lattice, expected):
    assert lattice.keys() == expected.keys()
    for key, emb in lattice.items():
        assert np.array_equal(emb.mat, expected[key].mat), key


@pytest.mark.parametrize("p,top", [(2, 24), (3, 12), (5, 8), (7, 6)])
def test_embedding_lattice_is_the_same_for_both_root_searches(
    p, top, monkeypatch, empty_levels
):
    """Each lattice is built on an empty level table, so the run with the
    bound at 0 finds its roots by trace splitting, not in the table."""
    lattice = _divisor_lattice(p, top)
    empty_levels()
    splits = _count_splits(monkeypatch)
    monkeypatch.setattr(fields_module, "_BRUTE_ROOT_BOUND", 0)
    traced = _divisor_lattice(p, top)
    assert splits
    _assert_same_lattice(lattice, traced)


# a request order at p = 2 in which choosing each edge's root by the
# edges already present left no 3 -> 6 compatible with the rest
_CONFLICTING_ORDER = [(6, 18), (3, 18), (6, 12), (3, 12), (3, 6)]


def test_lattice_of_a_fresh_tower_ignores_other_towers(empty_levels):
    """The conflicting order, requested of one tower on an empty table,
    gives the ascending lattice that a fresh tower then reads."""
    expected = _divisor_lattice(2, 18)
    empty_levels()
    tower = FieldTower(2)
    for a, b in _CONFLICTING_ORDER:
        tower._embedding(a, b)
    _assert_same_lattice(_divisor_lattice(2, 18), expected)


def test_second_tower_takes_its_levels_from_the_table(monkeypatch, empty_levels):
    """A second tower of the same p derives no modulus and searches no
    root: it registers the first tower's levels and reads their
    embeddings, the same read-only arrays."""
    edges = [(1, 4), (2, 4), (3, 6), (2, 6), (4, 12), (6, 12)]
    first = FieldTower(2)
    for a, b in edges:
        first.make_field(a)
        first.make_field(b)
        first._embedding(a, b)

    def refuse(*args):
        raise AssertionError("a level was derived again")

    monkeypatch.setattr(FieldTower, "_least_irreducible", refuse)
    monkeypatch.setattr(FieldTower, "_subfield_root", refuse)
    second = FieldTower(2)
    for a, b in edges:
        second.make_field(a)
        second.make_field(b)
        assert second._embedding(a, b) is first._embedding(a, b)
    assert second.stats["fields_built"] == first.stats["fields_built"] == 6
    for k in (1, 2, 3, 4, 6, 12):
        fid = FieldId(2, k)
        assert second.modulus(fid) == first.modulus(fid)
        old, new = first._level(k), second._level(k)
        assert new is old and new.red is old.red
        assert all(new.frob(e) is old.frob(e) for e in range(k))
    with pytest.raises(ValueError, match="read-only"):
        second._level(4).frob(1)[0, 0] = 1
    section = second._embedding(4, 12).section
    arrays = [v for v in vars(section).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 4 and not any(v.flags.writeable for v in arrays)
    with pytest.raises(ValueError, match="read-only"):
        section._t[0, 0] = 1


def test_fields_built_does_not_depend_on_the_table(empty_levels):
    """Only make_field registers a level: deriving 12 -> 24 on an empty
    table reads levels 2, 3, 4 and 6 without registering them, so a
    tower that finds the embedding in the table counts the same."""
    counts = []
    for _ in range(2):
        tower = FieldTower(2)
        tower._embedding(tower.make_field(12).degree, tower.make_field(24).degree)
        counts.append(tower.stats["fields_built"])
    assert fields_module._LEVELS.keys() >= {(2, k) for k in (2, 3, 4, 6)}
    assert counts == [3, 3]


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


@pytest.mark.parametrize("p,k", [(3000017, 2), (3000017, 3), (1321109, 2), (1008199, 3)])
def test_vmul_matches_python_integers_at_a_large_prime(p, k):
    """At p = 3000017 an unreduced high half times the reduction rows
    wraps int64, so vmul reduces it first; the largest primes where it
    skips that step, k^2 (p-1)^3 < 2^63, stay exact without it."""
    tower = FieldTower(p)
    fid = tower.make_field(k)
    a, b = np.random.default_rng(k).integers(0, p, size=(2, 200, k))
    a[0] = b[0] = p - 1
    for u, v, got in zip(a.tolist(), b.tolist(), tower.vmul(fid, a, b).tolist()):
        prod = [sum(u[i] * v[j - i] for i in range(k) if 0 <= j - i < k) for j in range(2 * k - 1)]
        assert got == _poly_mod(prod, tower.modulus(fid), p)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 5), (3, 1), (3, 4), (5, 1), (5, 3), (4099, 1), (4099, 2)])
def test_vpow_by_base_p_digits_matches_square_and_multiply(p, k):
    """vpow's product of Frobenius powers equals square-and-multiply over
    vmul, zero rows and the exponent 0 included."""
    tower = FieldTower(p)
    fid = tower.make_field(k)
    rng = np.random.default_rng(p + k)
    a = rng.integers(0, p, size=(12, k))
    a[0] = 0
    one = np.zeros_like(a)
    one[:, 0] = 1
    for e in (0, 1, p, p + 1, p**2, 2 * p + 3, int(rng.integers(2, p ** (k + 2)))):
        expected = power(a, e, partial(tower.vmul, fid), one)
        assert np.array_equal(tower.vpow(fid, a, e), expected), e


def test_make_field_refuses_degrees_whose_products_wrap_int64():
    """Degree 2 over the least prime above 1.76e9 would sum 3(p-1)^2 >=
    2^63 in vmul; degree 1, (p-1)^2, still fits."""
    p = next(n for n in range(1_760_000_001, 1_760_001_001, 2) if fields_module.is_prime(n))
    assert 3 * (p - 1) ** 2 >= 1 << 63 > (p - 1) ** 2
    tower = FieldTower(p)
    with pytest.raises(CapExceeded):
        tower.make_field(2)


def test_element_codes_refuse_fields_past_62_bits():
    tower = FieldTower(2)
    fid = FieldId(2, 64)
    with pytest.raises(CapExceeded):
        tower.codes_to_digits(fid, 5)
    with pytest.raises(CapExceeded):
        tower.digits_to_codes(fid, np.zeros(64, dtype=np.int64))


def test_nonprime_characteristic_rejected():
    with pytest.raises(ParameterError):
        FieldTower(4)


def test_characteristics_past_int64_products_are_refused_before_factoring():
    """The bound is the largest p with (p - 1)^2 < 2^63, and a prime past
    it is refused at once rather than trial-divided."""
    bound = fields_module.MAX_CHARACTERISTIC
    assert (bound - 1) ** 2 < 1 << 63 <= bound**2
    for p in (2**61 - 1, bound + 1):
        with pytest.raises(CapExceeded):
            FieldTower(p)
        with pytest.raises(CapExceeded):
            fields_module.characteristic(p)
    with pytest.raises(CapExceeded):
        fields_module.characteristic((2**61 - 1) ** 3)


@pytest.mark.parametrize(
    "q,p",
    [(2, 2), (3**40, 3), (2**62, 2), (4099**3, 4099), ((2**31 - 1) ** 2, 2**31 - 1),
     (1_760_000_027, 1_760_000_027)],
)
def test_characteristic_is_an_integer_root(q, p):
    assert fields_module.characteristic(q) == p


@pytest.mark.parametrize("q,least", [(6, 2), (36, 2), (3**4 * 5**4, 3), (2**31 - 1 + 2, 3)])
def test_characteristic_refuses_other_integers(q, least):
    with pytest.raises(ParameterError, match=f"{q} is not a power of {least}$"):
        fields_module.characteristic(q)


@given(st.integers(2, 10**30), st.integers(1, 70))
def test_integer_root_is_the_floor_of_the_real_root(r, n):
    assert fields_module._iroot(r**n, n) == r
    assert fields_module._iroot(r**n - 1, n) == r - 1
    assert fields_module._iroot(1, n) == 1


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
    """Chained embeddings and the direct embedding must agree: 9 -> 27 is
    the root whose composite with 3 -> 9 is 3 -> 27, both derived first."""
    tower = FieldTower(3)
    f3, f9, f27 = (tower.make_field(d) for d in (3, 9, 27))
    for code in range(27):
        x = tower.element_from_code(f3, code)
        assert tower.embed(tower.embed(x, f9), f27) == tower.embed(x, f27)
    y = tower.element_from_code(f9, 4242)
    assert tower.section(tower.embed(y, f27), f9) == y


@pytest.mark.parametrize("p,b", [(2, 4), (2, 13), (2, 64), (3, 9), (4099, 2)])
def test_prime_field_embedding_is_e0(p, b, monkeypatch, empty_levels):
    """F_p sits in F_{p^b} as the constants, whichever root search finds
    the root 0 of the degree-1 modulus t: each case runs at the default
    bound (brute force over F_p, trace splitting for p = 4099) and again,
    on an empty level table, with the bound at 0, which forces trace
    splitting."""
    splits = _count_splits(monkeypatch)
    for bound in (_BRUTE_ROOT_BOUND, 0):
        empty_levels()
        splits.clear()
        monkeypatch.setattr(fields_module, "_BRUTE_ROOT_BOUND", bound)
        emb = FieldTower(p)._embedding(1, b)
        assert emb.mat.tolist() == [[1] + [0] * (b - 1)]
        assert bool(splits) == (bound == 0 or p == 4099)


_REQUEST_ORDERS = [
    pytest.param(p, random.Random(seed).sample(_divisor_pairs(top), k=len(_divisor_pairs(top))),
                 id=f"p{p}-top{top}-seed{seed}")
    for p, top in [(2, 24), (3, 12), (5, 8)]
    for seed in range(3)
] + [pytest.param(2, _CONFLICTING_ORDER, id="conflicting-order")]


@pytest.mark.parametrize("p,order", _REQUEST_ORDERS)
def test_embedding_lattice_order_independent(p, order, empty_levels):
    """Requests in any order, each on an empty level table, give the
    ascending lattice, and every triangle x | y | z commutes."""
    top = max(b for _, b in order)
    expected = _divisor_lattice(p, top)
    empty_levels()
    tower = FieldTower(p)
    for a, b in order:
        tower._embedding(a, b)
    lattice = {key: tower._embedding(*key) for key in _divisor_pairs(top)}
    _assert_same_lattice(lattice, expected)
    for (x, y), (y2, z) in itertools.product(lattice, repeat=2):
        if y == y2:
            composite = lattice[x, y].mat @ lattice[y, z].mat % p
            assert np.array_equal(composite, lattice[x, z].mat), (x, y, z)


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
