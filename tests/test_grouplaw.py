from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asaitwist import grouplaw
from asaitwist.errors import (
    GroupLawSemanticError,
    GroupLawSyntaxError,
    ParameterError,
)
from asaitwist.fields import FieldTower
from asaitwist.grouplaw import (
    GroupLaw,
    Polynomial,
    all_tuples,
    builtin,
    canonical_text,
    derive_inverse,
    eval_inv,
    eval_mul,
    make_law,
    parse_group_dsl,
    parse_group_name,
    ul_coordinates,
    validate_law,
)

N2_TEXT = """group n2 dim 2 char 3
mul[1] = x1 + y1
mul[2] = x2 + y2 + x1 * y1^3
"""


def test_polynomial_canonical_form():
    p = Polynomial.make(3, 4, [(1, (0, 1, 0, 0)), (2, (0, 1, 0, 0)), (1, (1, 0, 3, 0))])
    # coefficients merge mod 3: the x2 terms cancel
    assert p.terms == ((1, (1, 0, 3, 0)),)
    q = Polynomial.make(3, 4, [(4, (0, 0, 0, 1)), (1, (0, 1, 0, 0))])
    # ascending total degree, x before y within a grade
    assert [e for _, e in q.terms] == [(0, 1, 0, 0), (0, 0, 0, 1)]


def test_polynomial_arithmetic_matches_evaluation():
    tower = FieldTower(3)
    fid = tower.make_field(2)
    a = Polynomial.make(3, 4, [(1, (1, 0, 0, 0)), (2, (0, 0, 1, 0))])
    b = Polynomial.make(3, 4, [(1, (0, 1, 0, 0)), (1, (1, 0, 2, 0))])
    rng = np.random.default_rng(7)
    x = tower.codes_to_digits(fid, rng.integers(0, 9, size=(20, 2)))
    y = tower.codes_to_digits(fid, rng.integers(0, 9, size=(20, 2)))
    lhs = a.mul(b).evaluate(tower, fid, x, y)
    rhs = tower.vmul(fid, a.evaluate(tower, fid, x, y), b.evaluate(tower, fid, x, y))
    assert np.array_equal(lhs, rhs)
    lhs = a.add(b).evaluate(tower, fid, x, y)
    rhs = tower.vadd(a.evaluate(tower, fid, x, y), b.evaluate(tower, fid, x, y))
    assert np.array_equal(lhs, rhs)


def _unitriangular(law_coords, n, coords, p):
    """Place coordinate values into an n x n unitriangular integer matrix."""
    m = np.eye(n, dtype=np.int64)
    for (i, j), val in zip(law_coords, coords):
        m[i - 1, j - 1] = val
    return m % p


@pytest.mark.parametrize("n,p", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_ul_matches_matrix_multiplication(n, p):
    """Independent oracle: the ul(n) law agrees with genuine unipotent
    matrix multiplication over the prime field."""
    law = builtin("ul", p, n)
    coords = ul_coordinates(n)
    tower = FieldTower(p)
    fid = tower.make_field(1)
    d = law.dim
    order = p**d
    rng = np.random.default_rng(5)
    if order <= 16:
        pairs = [(a, b) for a in range(order) for b in range(order)]
    else:
        pairs = list(zip(rng.integers(0, order, 200), rng.integers(0, order, 200)))
    for ca, cb in pairs:
        xa = all_tuples(tower, fid, d, np.array([ca]))[0]
        xb = all_tuples(tower, fid, d, np.array([cb]))[0]
        za = eval_mul(law, tower, fid, xa, xb)
        ma = _unitriangular(coords, n, xa[:, 0], p)
        mb = _unitriangular(coords, n, xb[:, 0], p)
        mprod = (ma @ mb) % p
        for idx, (i, j) in enumerate(coords):
            assert za[idx, 0] == mprod[i - 1, j - 1]


def ul_mul_oracle(p, n):
    """ul(n) coordinates assembled as exponent vectors: the term x_ij, the
    term y_ij and one term x_ik * y_kj for each i < k < j."""
    coords = ul_coordinates(n)
    pos = {c: k for k, c in enumerate(coords)}
    dim = len(coords)
    nv = 2 * dim
    mul = []
    for (i, j) in coords:
        raw = []
        xi = [0] * nv
        xi[pos[(i, j)]] = 1
        raw.append((1, tuple(xi)))
        yi = [0] * nv
        yi[dim + pos[(i, j)]] = 1
        raw.append((1, tuple(yi)))
        for k in range(i + 1, j):
            e = [0] * nv
            e[pos[(i, k)]] = 1
            e[dim + pos[(k, j)]] = 1
            raw.append((1, tuple(e)))
        mul.append(Polynomial.make(p, nv, raw))
    return tuple(mul)


def ul_inv_oracle(p, n):
    """ul(n) inverse coordinates from (I + N)^{-1} = I + sum_{k=1}^{n-1} (-N)^k,
    with N the strictly upper matrix of the x variables."""
    coords = ul_coordinates(n)
    nv = 2 * len(coords)
    zero = Polynomial.zero(p, nv)
    neg = [[zero] * n for _ in range(n)]
    for k, (i, j) in enumerate(coords):
        neg[i - 1][j - 1] = Polynomial.variable(p, nv, k).neg()

    def matmul(a, b):
        return [
            [reduce(Polynomial.add, (a[i][k].mul(b[k][j]) for k in range(n)), zero)
             for j in range(n)]
            for i in range(n)
        ]

    power, total = neg, neg
    for _ in range(n - 2):
        power = matmul(power, neg)
        total = [[a.add(b) for a, b in zip(r, s)] for r, s in zip(total, power)]
    return tuple(total[i - 1][j - 1] for (i, j) in coords)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ul_mul_and_inv_match_oracles(n, p):
    law = builtin("ul", p, n)
    assert law.mul == ul_mul_oracle(p, n)
    assert law.inv == ul_inv_oracle(p, n)


def test_ul3_inverse_matches_matrix_inverse_exhaustive():
    law = builtin("ul", 2, 3)
    tower = FieldTower(2)
    fid = tower.make_field(1)
    elems = all_tuples(tower, fid, 3)
    invs = eval_inv(law, tower, fid, elems)
    prod = eval_mul(law, tower, fid, elems, invs)
    assert not np.any(prod)


def test_ga_inverse_is_negation():
    law = builtin("ga_power", 5, 3)
    for i, poly in enumerate(law.inv):
        expected = Polynomial.variable(5, 6, i).neg()
        assert poly == expected


def test_n2_inverse_closed_form():
    # inv(a, b) = (-a, -b + a^{p+1})
    for p in (3, 5):
        law = builtin("n2", p)
        x1 = Polynomial.variable(p, 4, 0)
        x2 = Polynomial.variable(p, 4, 1)
        assert law.inv[0] == x1.neg()
        assert law.inv[1] == x2.neg().add(x1.pow(p + 1))


def test_derive_inverse_rejects_nontriangular():
    p = 3
    m1 = Polynomial.make(p, 4, [(1, (1, 0, 0, 0)), (1, (0, 0, 1, 0)), (1, (0, 1, 0, 1))])
    m2 = Polynomial.make(p, 4, [(1, (0, 1, 0, 0)), (1, (0, 0, 0, 1))])
    with pytest.raises(GroupLawSemanticError):
        derive_inverse((m1, m2), 2, p)


def test_n2_noncommutative_over_f9():
    """A commutator away from the identity exists once a lives in F_9 \\ F_3."""
    law = builtin("n2", 3)
    tower = FieldTower(3)
    fid = tower.make_field(2)
    elems = all_tuples(tower, fid, 2)  # all 81 points over F_9
    ab = eval_mul(law, tower, fid, elems[:, None], elems[None, :])
    ba = eval_mul(law, tower, fid, elems[None, :], elems[:, None])
    diff = np.any(ab != ba, axis=(-2, -1))
    assert np.any(diff)
    # but never on F_3-points: the cocycle a * a'^3 is symmetric there
    f3_mask = np.all(elems[:, :, 1] == 0, axis=-1)
    assert not np.any(diff[np.ix_(f3_mask, f3_mask)])


def test_builtin_unknown_family():
    with pytest.raises(ParameterError):
        builtin("so", 3, 3)
    with pytest.raises(ParameterError):
        builtin("ul", 3, 1)


def test_parse_group_name():
    assert parse_group_name("ul(3)", 2).name == "ul3"
    assert parse_group_name("ga_power(2)", 3).dim == 2
    assert parse_group_name("n2", 3).family == "n2"


def test_dsl_round_trip_of_builtin():
    n2 = builtin("n2", 3)
    assert parse_group_dsl(N2_TEXT) == n2
    assert parse_group_dsl(canonical_text(n2)) == n2
    for law in (builtin("ul", 2, 3), builtin("ul", 3, 4), builtin("ga_power", 5, 2)):
        assert parse_group_dsl(canonical_text(law)) == law


def test_dsl_coefficient_juxtaposition():
    text = """group twisted dim 2 char 5
mul[1] = x1 + y1
mul[2] = x2 + y2 + 3 x1 * y1
"""
    law = parse_group_dsl(text)
    assert law.mul[1].terms[-1][0] == 3
    assert parse_group_dsl(canonical_text(law)) == law


def test_dsl_syntax_errors_carry_position():
    with pytest.raises(GroupLawSyntaxError) as exc:
        parse_group_dsl("group g dim 1 char 2\nmul[1] = x1 + @\n")
    assert exc.value.line == 2 and exc.value.col == 15
    with pytest.raises(GroupLawSyntaxError):
        parse_group_dsl("group g dim 1\nmul[1] = x1 + y1\n")
    with pytest.raises(GroupLawSyntaxError):
        parse_group_dsl("group g dim 1 char 2\nmul[1] = x1 *\n")


def test_dsl_semantic_errors():
    with pytest.raises(GroupLawSemanticError):
        parse_group_dsl("group g dim 1 char 4\nmul[1] = x1 + y1\n")
    with pytest.raises(GroupLawSemanticError) as exc:
        parse_group_dsl(
            "group g dim 2 char 3\nmul[1] = x1 + y1 + x2*y2\nmul[2] = x2 + y2\n"
        )
    assert exc.value.coordinate == 1
    with pytest.raises(GroupLawSemanticError):
        parse_group_dsl("group g dim 2 char 3\nmul[1] = x1 + y1 + x1\nmul[2] = x2 + y2\n")
    with pytest.raises(GroupLawSemanticError):
        parse_group_dsl("group g dim 2 char 3\nmul[1] = x1 + y1\nmul[1] = x1 + y1\n")
    with pytest.raises(GroupLawSemanticError):
        parse_group_dsl("group g dim 2 char 3\nmul[1] = x1 + y1\n")
    with pytest.raises(GroupLawSemanticError):
        parse_group_dsl("group g dim 1 char 3\nmul[1] = x1 + y1 + x2*y2\n")
    with pytest.raises(GroupLawSemanticError, match=r"mul\(0, y\) != y") as exc:
        parse_group_dsl("group g dim 2 char 3\nmul[1] = x1 + y1\nmul[2] = x2 + y2 + y1^2\n")
    assert exc.value.coordinate == 2


@st.composite
def random_triangular_law(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    dim = draw(st.integers(1, 3))
    nv = 2 * dim
    muls = []
    for i in range(dim):
        raw = [(1, tuple(1 if k == i else 0 for k in range(nv))),
               (1, tuple(1 if k == dim + i else 0 for k in range(nv)))]
        nterms = draw(st.integers(0, 3)) if i else 0
        for _ in range(nterms):
            coeff = draw(st.integers(1, p - 1))
            exps = [0] * nv
            # a mixed x/y monomial in strictly earlier coordinates
            jx = draw(st.integers(0, i - 1))
            jy = draw(st.integers(0, i - 1))
            exps[jx] += draw(st.integers(1, 2))
            exps[dim + jy] += draw(st.integers(1, 2))
            raw.append((coeff, tuple(exps)))
        muls.append(Polynomial.make(p, nv, raw))
    return make_law("rand", p, dim, tuple(muls))


@settings(max_examples=40, deadline=None)
@given(random_triangular_law())
def test_dsl_round_trip_random_laws(law):
    assert parse_group_dsl(canonical_text(law)) == law


def test_validate_builtin_ul3():
    tower = FieldTower(2)
    rep = validate_law(builtin("ul", 2, 3), tower, 2)
    assert rep.passed
    assert any("exhaustive" in d for _, _, d in rep.checks)


def test_validate_n2_exhaustive_at_f3():
    tower = FieldTower(3)
    rep = validate_law(builtin("n2", 3), tower, 3)
    assert rep.passed
    assoc = [d for nm, ok, d in rep.checks if nm == "associativity"][0]
    assert "9^3" in assoc


def test_validate_detects_identity_violation():
    # mul[2] = x2 + y2 + x1*y1 + x1 violates mul(x, 0) = x
    p = 3
    m1 = Polynomial.make(p, 4, [(1, (1, 0, 0, 0)), (1, (0, 0, 1, 0))])
    m2 = Polynomial.make(
        p,
        4,
        [(1, (0, 1, 0, 0)), (1, (0, 0, 0, 1)), (1, (1, 0, 1, 0)), (1, (1, 0, 0, 0))],
    )
    inv = derive_inverse((m1, Polynomial.make(p, 4, [(1, (0, 1, 0, 0)), (1, (0, 0, 0, 1))])), 2, p)
    broken = GroupLaw("broken", p, 2, (m1, m2), inv)
    rep = validate_law(broken, FieldTower(p), 3)
    assert not rep.passed
    assert any(nm == "identity" and not ok for nm, ok, _ in rep.checks)


def test_validate_samples_every_coordinate_above_int64_codes(monkeypatch):
    """ul(4) over F_16 at level 3 has (2^12)^6 = 2^72 points: the sampled
    triples are uniform digit arrays, so the leading coordinate takes far
    more than the 4 values that codes clamped below 2^62 could give it."""
    seen = []

    def recording(law, tower, fid, x, y):
        if fid.degree == 12:
            seen.append(tower.digits_to_codes(fid, x[..., 0, :]))
        return eval_mul(law, tower, fid, x, y)

    monkeypatch.setattr(grouplaw, "eval_mul", recording)
    rep = validate_law(builtin("ul", 2, 4), FieldTower(2), 16)
    assert rep.passed
    assert len(np.unique(seen[0])) > 500


def test_validate_samples_inverse_above_a_million_points():
    """ul(3) over F_2^16 has 2^48 points; a wrong inverse is still caught."""
    law = builtin("ul", 2, 3)
    x = [Polynomial.variable(2, 6, i) for i in range(3)]
    rep = validate_law(law, FieldTower(2), 65536, sample_budget=200)
    assert rep.passed
    assert ("inverse", True, "200 sampled points") in rep.checks
    broken = replace(law, inv=tuple(x))  # drops the x1 * x2 term of inv_3
    rep = validate_law(broken, FieldTower(2), 65536, sample_budget=200)
    assert rep.failures() == ["inverse: 200 sampled points"]


def test_validate_checks_large_budgets_in_chunks(monkeypatch):
    """A budget one row above the chunk is drawn and checked in two chunks,
    so no evaluation sees more rows than the chunk; 2^21 points put every
    check on samples."""
    rows = []

    def recording(law, tower, fid, x, y):
        rows.append(len(x))
        return eval_mul(law, tower, fid, x, y)

    monkeypatch.setattr(grouplaw, "eval_mul", recording)
    chunk = grouplaw._SAMPLE_CHUNK
    rep = validate_law(builtin("ul", 2, 3), FieldTower(2), 1 << 7, sample_budget=chunk + 1)
    assert rep.passed and len(rep.checks) == 6
    assert max(rows) == chunk and 1 in rows


def test_validate_bad_q():
    with pytest.raises(ParameterError):
        validate_law(builtin("n2", 3), FieldTower(3), 4)


def test_canonical_text_shape():
    text = canonical_text(builtin("ul", 2, 3))
    assert text.splitlines()[0] == "group ul3 dim 3 char 2"
    assert text.splitlines()[3] == "mul[3] = x3 + y3 + x1 * y2"
