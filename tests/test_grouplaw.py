from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from asaitwist.modp import power
from random_laws import BUILTINS, random_dsl_law

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


def test_polynomial_evaluation_matches_python_integers_at_a_large_prime():
    """Eight terms (p-1)*x_i*y_j sum past 2^63 at p = 1760000027, where
    degree 1 is still a field; the sum must be reduced before it wraps."""
    p, d = 1760000027, 4
    pairs = [(i, j) for i in range(d) for j in range(2)]
    raw = [(p - 1, tuple(int(v in (i, d + j)) for v in range(2 * d))) for i, j in pairs]
    poly = Polynomial.make(p, 2 * d, raw)
    tower = FieldTower(p)
    fid = tower.make_field(1)
    rng = np.random.default_rng(11)
    x = rng.integers(0, p, size=(200, d, 1))
    y = rng.integers(0, p, size=(200, d, 1))
    expected = [
        sum((p - 1) * int(xr[i, 0]) * int(yr[j, 0]) for i, j in pairs) % p
        for xr, yr in zip(x, y)
    ]
    assert poly.evaluate(tower, fid, x, y)[:, 0].tolist() == expected


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


def test_equal_dsl_text_gives_one_shared_law():
    """Laws are cached by their text and arguments, so a process derives
    a law's inverse and conj once; errors are raised on every call."""
    law = parse_group_dsl(N2_TEXT)
    assert parse_group_dsl("".join(list(N2_TEXT))) is law
    assert parse_group_dsl(N2_TEXT.replace("n2", "other")) is not law
    assert builtin("ul", 2, 3) is builtin("ul", 2, 3) is parse_group_name("ul(3)", 2)
    assert law.conj is parse_group_dsl(N2_TEXT).conj
    for bad, error in [
        ("group g dim 1 char 2\nmul[1] = x1 + @\n", GroupLawSyntaxError),
        ("group g dim 1 char 4\nmul[1] = x1 + y1\n", GroupLawSemanticError),
    ]:
        for _ in range(2):
            with pytest.raises(error):
                parse_group_dsl(bad)


def test_polynomial_operations_match_checked_construction():
    """add, neg, mul and subs skip the exponent checks of make, which
    only outside input needs; their results equal make's on the same
    raw terms."""
    rng = np.random.default_rng(5)
    for p in (2, 3, 7):
        a, b = (
            Polynomial.make(p, 4, [(int(c), tuple(e)) for c, e in zip(
                rng.integers(-p, 2 * p, 6), rng.integers(0, 3, (6, 4)))])
            for _ in range(2)
        )
        assert a.add(b) == Polynomial.make(p, 4, list(a.terms) + list(b.terms))
        assert a.neg() == Polynomial.make(p, 4, [(-c, e) for c, e in a.terms])
        product = [(c1 * c2, np.add(e1, e2)) for c1, e1 in a.terms for c2, e2 in b.terms]
        assert a.mul(b) == Polynomial.make(p, 4, product)
        assert a.subs({1: b}) == a.subs({1: b, 3: Polynomial.variable(p, 4, 3)})
    with pytest.raises(ParameterError):
        Polynomial.make(3, 2, [(1, (1, -1))])
    with pytest.raises(ParameterError):
        Polynomial.make(3, 2, [(1, (1,))])


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


CHECKS = ["identity", "associativity", "inverse"]


def test_validate_builtin_ul3():
    rep = validate_law(builtin("ul", 2, 3), FieldTower(2), 2)
    assert rep.passed
    assert [name for name, _, _ in rep.checks] == CHECKS


def test_validate_n2_exhaustive_at_f3():
    rep = validate_law(builtin("n2", 3), FieldTower(3), 3)
    assert rep.checks == [(name, True, "") for name in CHECKS]


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


def test_validate_samples_inverse_above_a_million_points():
    """ul(3) over F_2^16 has 2^48 points; a wrong inverse is caught
    exactly, on the coordinate it breaks."""
    law = builtin("ul", 2, 3)
    x = [Polynomial.variable(2, 6, i) for i in range(3)]
    assert validate_law(law, FieldTower(2), 65536).passed
    broken = replace(law, inv=tuple(x))  # drops the x1 * x2 term of inv_3
    rep = validate_law(broken, FieldTower(2), 65536)
    assert rep.failures() == ["inverse: coordinate 3: mul(x, inv(x)) != 0"]


# associative on G over F_3^k for k | 6, as the cocycle (x1^729 - x1) * y1^2
# is additive in x1 there; not over F_81, nor as polynomials
EXTENSION_ONLY = """group ext dim 2 char 3
mul[1] = x1 + y1
mul[2] = x2 + y2 + x1^729 * y1^2 - x1 * y1^2
"""


def axioms_hold_on_all_points(law: GroupLaw, tower: FieldTower, fid) -> bool:
    """Exhaustive numeric oracle: associativity on every triple of G(F),
    one first factor at a time, and both inverse identities on every point."""
    elems = all_tuples(tower, fid, law.dim)
    invs = eval_inv(law, tower, fid, elems)
    if eval_mul(law, tower, fid, elems, invs).any() or eval_mul(law, tower, fid, invs, elems).any():
        return False
    y, z = elems[:, None], elems[None, :]
    yz = eval_mul(law, tower, fid, y, z)
    for x in elems:
        lhs = eval_mul(law, tower, fid, eval_mul(law, tower, fid, x, y), z)
        if not np.array_equal(lhs, eval_mul(law, tower, fid, x, yz)):
            return False
    return True


def test_validate_rejects_a_law_associative_only_on_small_fields():
    law = parse_group_dsl(EXTENSION_ONLY)
    tower = FieldTower(3)
    for k in (1, 2):
        assert axioms_hold_on_all_points(law, tower, tower.make_field(k))
    rep = validate_law(law, tower, 3)
    assert not rep.passed
    assert ("associativity", False, "coordinate 2: mul(mul(x, y), z) != mul(x, mul(y, z))") in rep.checks
    # the triples ((x1, 0), (1, 0), (1, 0)) over F_81: the two sides differ
    # by 2 (x1^729 - x1), which vanishes only for x1 in F_81 ∩ F_729 = F_9
    fid = tower.make_field(4)
    x = all_tuples(tower, fid, 2, np.arange(0, 81 * 81, 81))  # (x1, 0), x1 in F_81
    one = all_tuples(tower, fid, 2, np.array([81]))  # (1, 0)
    lhs = eval_mul(law, tower, fid, eval_mul(law, tower, fid, x, one), one)
    rhs = eval_mul(law, tower, fid, x, eval_mul(law, tower, fid, one, one))
    assert (lhs != rhs).any(axis=(1, 2)).sum() == 81 - 9  # x1 outside F_9


@settings(max_examples=40, deadline=None)
@given(random_triangular_law())
def test_validated_laws_pass_the_exhaustive_oracle(law):
    tower = FieldTower(law.p)
    if validate_law(law, tower, law.p).passed:
        assert axioms_hold_on_all_points(law, tower, tower.make_field(1))


@settings(max_examples=30, deadline=None)
@given(random_dsl_law(groups=BUILTINS + ["ga_power(4)"]))
def test_random_dsl_laws_validate(drawn):
    law, p, _ = drawn
    assert validate_law(law, FieldTower(p), p).passed


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.lists(st.tuples(st.integers(1, 4), st.tuples(*[st.integers(0, 2)] * 3)), max_size=3),
    st.integers(0, 30),
)
def test_pow_by_digits_matches_square_and_multiply(p, raw, extra):
    f = Polynomial.make(p, 3, raw)
    one = Polynomial.make(p, 3, [(1, (0, 0, 0))])
    for e in {0, 1, p, p + 1, p * p, 2 * p + 3, extra}:
        assert f.pow(e) == power(f, e, Polynomial.mul, one), e


def test_validate_bad_q():
    with pytest.raises(ParameterError):
        validate_law(builtin("n2", 3), FieldTower(3), 4)


def test_canonical_text_shape():
    text = canonical_text(builtin("ul", 2, 3))
    assert text.splitlines()[0] == "group ul3 dim 3 char 2"
    assert text.splitlines()[3] == "mul[3] = x3 + y3 + x1 * y2"
