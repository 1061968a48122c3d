import dataclasses
import re
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings

from asaitwist import asai as asai_module
from asaitwist.asai import (
    asai_apply,
    centralizer_witness,
    constant_function,
    delta_function,
    image_of_member,
    inner_product,
    is_asai_trivial,
    moved_classes,
    norm_map,
    twisted_classes,
)
from asaitwist.easiness import easiness_crosscheck
from asaitwist.errors import InternalInconsistencyError, ParameterError
from asaitwist.fields import FieldId, FieldTower, characteristic
from asaitwist import points as points_module
from asaitwist.grouplaw import Polynomial, builtin, eval_mul, parse_group_name
from asaitwist.lang import LangWitness, lang_solve_bruteforce, lang_solve_triangular, verify_witness
from asaitwist.points import centralizer_counts, conjugacy_classes, enumerate_group

from random_laws import BUILTINS, random_dsl_law


@pytest.fixture(scope="module")
def n2_result():
    tower = FieldTower(3)
    law = builtin("n2", 3)
    view = enumerate_group(law, tower, 3, 1)
    table = conjugacy_classes(view)
    return law, tower, view, table, norm_map(table)


@pytest.fixture(scope="module")
def ul3_result():
    tower = FieldTower(2)
    law = builtin("ul", 2, 3)
    view = enumerate_group(law, tower, 2, 1)
    table = conjugacy_classes(view)
    return law, tower, view, table, norm_map(table)


def _coords(pt):
    return tuple(c.coeffs[0] for c in pt.coords)


def test_n2_norm_map_closed_form(n2_result):
    """N((a,b)) = (a, b - a^2) on all nine classes."""
    law, tower, view, table, res = n2_result
    for ci in range(len(table)):
        a, b = _coords(table.rep_point(ci))
        assert _coords(res.images[ci]) == (a, (b - a * a) % 3)
    assert _coords(res.images[table.class_of[view.index_of(view.point(3))]]) == (1, 2)
    assert not is_asai_trivial(res)
    assert len(moved_classes(res)) == 6
    # the moved classes are exactly those with a != 0
    for ci in range(len(table)):
        a, _ = _coords(table.rep_point(ci))
        assert (res.perm[ci] != ci) == (a != 0)


def test_commutative_law_norm_is_identity():
    tower = FieldTower(3)
    law = builtin("ga_power", 3, 2)
    view = enumerate_group(law, tower, 3, 1)
    table = conjugacy_classes(view)
    res = norm_map(table)
    assert is_asai_trivial(res)
    for ci in range(len(table)):
        assert res.images[ci] == table.rep_point(ci)


def test_ul3_trivial_all_m(ul3_result):
    law, tower, view, table, res = ul3_result
    assert is_asai_trivial(res)
    for m in (2, 3):
        v = enumerate_group(law, tower, 2, m)
        t = conjugacy_classes(v)
        assert is_asai_trivial(norm_map(t))


def test_norm_map_well_defined_on_members(n2_result, ul3_result):
    """Recomputing the norm from any class member and from a brute-force
    witness lands in the same image class."""
    for law, tower, view, table, res in (n2_result, ul3_result):
        ops = view.ops
        q, m = view.q, view.m
        for ci in range(len(table)):
            for ordinal in table.members[ci]:
                h = view.point(int(ordinal))
                w = lang_solve_triangular(law, tower, h)
                img = ops.mul(ops.inv(ops.frobenius(w.x, q, m)), w.x)
                img = ops.section(img, view.field)
                assert table.class_of[view.index_of(img)] == res.perm[ci]
            wb = lang_solve_bruteforce(law, tower, table.rep_point(ci), n_cap=9)
            img = ops.mul(ops.inv(ops.frobenius(wb.x, q, m)), wb.x)
            img = ops.section(img, view.field)
            assert table.class_of[view.index_of(img)] == res.perm[ci]


def test_image_of_member_consistent(n2_result, ul3_result):
    """image_of_member, the law's conj on digits, equals the scalar
    oracle w^{-1} N(g) w and lands in the norm image class."""
    for law, tower, view, table, res in (n2_result, ul3_result):
        ops = view.ops
        for ordinal in range(view.order):
            img = image_of_member(res, ordinal)
            ci = int(table.class_of[ordinal])
            w = view.find_conjugator(int(table.reps[ci]), ordinal)
            assert img == ops.conj(view.point(w), view.point(int(res.image_ordinals[ci])))
            # direct recomputation through the solver
            lw = lang_solve_triangular(law, tower, view.point(ordinal))
            direct = ops.mul(ops.inv(ops.frobenius(lw.x, view.q, view.m)), lw.x)
            direct = ops.section(direct, view.field)
            assert table.class_of[view.index_of(img)] == res.perm[ci]
            assert table.class_of[view.index_of(direct)] == res.perm[ci]


def _assert_same_without_inverse(law, q, max_m):
    """easiness_crosscheck, its norm_map levels and image_of_member on
    every element agree between law and a copy whose inverse coordinates
    are all 0 and whose conj is law's: after conj is derived, no stage
    evaluates law.inv."""
    blind = dataclasses.replace(law, inv=tuple(Polynomial.zero(law.p, f.nvars) for f in law.inv))
    blind.__dict__["conj"] = law.conj
    real, other = (easiness_crosscheck(lw, FieldTower(law.p), q, max_m) for lw in (law, blind))
    assert real.internally_consistent and other.internally_consistent
    assert (other.label_status, other.verdict) == (real.label_status, real.verdict)
    assert len(other.levels) == len(real.levels) == max_m
    for a, b in zip(real.levels, other.levels):
        assert b.perm == a.perm and b.witness_errors == a.witness_errors == {}
        for key in ("fixed", "image_ordinals", "where"):
            assert np.array_equal(getattr(b, key), getattr(a, key))
        assert [f for f, _ in b.levels] == [f for f, _ in a.levels]
        assert all(np.array_equal(zb, za) for (_, zb), (_, za) in zip(b.levels, a.levels))
        for ordinal in range(a.view.order):
            assert image_of_member(b, ordinal) == image_of_member(a, ordinal)


@pytest.mark.parametrize(
    "group,p,max_m",
    [("n2", 3, 2), ("n2", 2, 3), ("ul(3)", 2, 3), ("ul(3)", 3, 1), ("ul(4)", 2, 1),
     ("ga_power(2)", 3, 2)],
)
def test_norm_map_reads_no_inverse_on_builtins(group, p, max_m):
    _assert_same_without_inverse(parse_group_name(group, p), p, max_m)


@settings(max_examples=15, deadline=None)
@given(random_dsl_law(groups=BUILTINS + ["ga_power(4)"]))
def test_norm_map_reads_no_inverse_on_random_laws(drawn):
    law, p, m = drawn
    _assert_same_without_inverse(law, p, m)


def element_order(ops, a):
    """Oracle: the least n >= 1 with a^n = 1, by repeated multiplication."""
    n, cur = 1, a
    while not cur.is_identity():
        cur = ops.mul(cur, a)
        n += 1
    return n


def test_norm_preserves_element_order(n2_result, ul3_result):
    for _, _, view, table, res in (n2_result, ul3_result):
        ops = view.ops
        for ci in range(len(table)):
            assert element_order(ops, res.images[ci]) == element_order(
                ops, table.rep_point(ci)
            )


def test_asai_apply_examples(n2_result):
    law, tower, view, table, res = n2_result
    const = constant_function(table, 7)
    assert asai_apply(res, const) == const
    # N((1,0)) = (1,2), so pulling back delta_{(1,2)} gives delta_{(1,0)}
    ci_10 = int(table.class_of[view.index_of(view.point(3))])
    ci_12 = int(table.class_of[view.index_of(view.point(5))])
    pulled = asai_apply(res, delta_function(table, ci_12))
    assert pulled == delta_function(table, ci_10)


def test_asai_apply_permutation_order(n2_result):
    law, tower, view, table, res = n2_result
    # order of the permutation
    order = 1
    perm = list(res.perm)
    cur = perm
    while cur != list(range(len(perm))):
        cur = [perm[i] for i in cur]
        order += 1
    rng = np.random.default_rng(3)
    f = delta_function(table, 4)
    vals = tuple(Fraction(int(v)) for v in rng.integers(-5, 5, len(table)))
    from asaitwist.asai import ClassFunction

    f = ClassFunction(table, vals)
    g = f
    for _ in range(order):
        g = asai_apply(res, g)
    assert g == f


def test_inner_product_examples(ul3_result):
    law, tower, view, table, res = ul3_result
    singleton = table.sizes.index(1)
    d = delta_function(table, singleton)
    assert inner_product(d, d) == 1
    one = constant_function(table, 1)
    assert inner_product(one, one) == 8
    two = table.sizes.index(2)
    d2 = delta_function(table, two)
    assert inner_product(d2, d2) == 2


def test_inner_product_table_mismatch(n2_result, ul3_result):
    *_, table_a, _ = n2_result[:4], n2_result[4]
    law, tower, view, table, res = n2_result
    _, _, view2, table2, _ = ul3_result
    with pytest.raises(ParameterError):
        inner_product(
            delta_function(table, 0), delta_function(table2, 0)
        )


def test_twisted_classes_identity_endo_is_conjugacy(ul3_result):
    law, tower, view, table, res = ul3_result
    elems = list(range(view.order))
    pts = [view.point(i) for i in elems]
    ops = view.ops

    def mult(i, j):
        return view.index_of(ops.mul(pts[i], pts[j]))

    classes = twisted_classes(elems, mult, lambda x: x)
    got = sorted(tuple(c) for c in classes)
    expected = sorted(tuple(int(v) for v in m) for m in table.members)
    assert got == expected


def test_twisted_classes_additive_f9_frobenius():
    """The additive group of F_9 with x -> x^3: orbits are the cosets of
    the image of h - h^3, which is the trace-zero line, so 3 classes."""
    tower = FieldTower(3)
    f9 = tower.make_field(2)
    elems = list(tower.elements(f9))

    classes = twisted_classes(
        elems, lambda a, b: tower.add(a, b), lambda x: tower.frobenius(x, 3)
    )
    assert len(classes) == 3
    assert sorted(len(c) for c in classes) == [3, 3, 3]
    # image of h -> h - h^3 is exactly the kernel of the trace x + x^3
    image = {tower.sub(h, tower.frobenius(h, 3)).code for h in elems}
    tr0 = {x.code for x in elems if tower.add(x, tower.frobenius(x, 3)).is_zero()}
    assert image == tr0


@pytest.mark.parametrize("degree,frob_power", [(2, 1), (3, 1), (3, 2)])
def test_twisted_classes_abelian_coker_equals_ker(degree, frob_power):
    tower = FieldTower(3)
    fid = tower.make_field(degree)
    elems = list(tower.elements(fid))

    def endo(x):
        return tower.frobenius(x, 3**frob_power)

    classes = twisted_classes(elems, lambda a, b: tower.add(a, b), endo)
    fixed = [x for x in elems if endo(x) == x]
    assert len(classes) == len(fixed)  # |coker(1 - phi)| = |ker(1 - phi)|


def test_twisted_classes_closure_failure():
    tower = FieldTower(3)
    f9 = tower.make_field(2)
    f81 = tower.make_field(4)
    elems = list(tower.elements(f9))
    with pytest.raises(ParameterError):
        twisted_classes(
            elems,
            lambda a, b: tower.add(a, b),
            lambda x: tower.embed(x, f81),  # leaves the element set
        )


def test_centralizer_witness_biconditional(n2_result, ul3_result):
    """A witness is a Lang solution of g in Z(g): z g = g z and
    z F^m(z)^{-1} = g, which lang.verify_witness also accepts."""
    for law, tower, view, table, res in (n2_result, ul3_result):
        ops = view.ops
        for ci in range(len(table)):
            w = centralizer_witness(res, ci)
            assert (w is not None) == (res.perm[ci] == ci)
            if w is not None:
                rep = table.rep_point(ci)
                g = ops.embed(rep, w.field)
                assert ops.mul(w, g) == ops.mul(g, w)
                assert ops.conj(w, g) == g
                assert ops.mul(w, ops.inv(ops.frobenius(w, view.q, view.m))) == g
                degree = w.field.degree // rep.field.degree
                assert verify_witness(law, tower, LangWitness(rep, w, degree))


def test_centralizer_witness_identity_class(ul3_result):
    *_, res = ul3_result
    w = centralizer_witness(res, 0)
    assert w is not None and w.is_identity()


def test_centralizer_witness_central_n2_class(n2_result):
    """g = (0,1) is central; its witness is (0,d) with d - d^3 = 1."""
    law, tower, view, table, res = n2_result
    ci = int(table.class_of[view.index_of(view.point(1))])  # (0, 1)
    w = centralizer_witness(res, ci)
    assert w is not None
    d0 = w.coords[0]
    assert d0.is_zero()
    d = w.coords[1]
    one = tower.embed(tower.one(tower.make_field(1)), d.field)
    assert tower.sub(d, tower.frobenius(d, 3)) == one
    assert w.field.degree == 3  # d lives in F_27


def test_centralizer_witness_moved_class_is_none(n2_result):
    law, tower, view, table, res = n2_result
    ci = int(table.class_of[view.index_of(view.point(3))])  # (1, 0) moves
    assert centralizer_witness(res, ci) is None


@pytest.mark.parametrize(
    "group,p,q,m", [("ul(4)", 2, 2, 2), ("ul(3)", 3, 3, 2), ("ul(3)", 2, 2, 4)]
)
def test_witness_search_work_is_linear_in_the_group(monkeypatch, group, p, q, m):
    """The conjugator searches of norm_map hand at most 16|G| candidate
    prefixes to the per-coordinate filter in all, where one whole-group
    scan per search costs |G| each (66 searches on ul(4) q=2 m=2)."""
    candidates = []
    agrees = points_module._coordinate_agrees

    def counting(poly, tab, g, h, t):
        candidates.append(len(h))
        return agrees(poly, tab, g, h, t)

    view = enumerate_group(parse_group_name(group, p), FieldTower(p), q, m)
    table = conjugacy_classes(view)
    monkeypatch.setattr(points_module, "_coordinate_agrees", counting)
    result = norm_map(table)
    assert not result.witness_errors
    assert 0 < sum(candidates) <= 16 * view.order


@pytest.fixture
def ul3_f4_result():
    """ul(3) over F_4: every class is fixed, 6 of the 19 by a norm image
    other than the representative, and every witness but the identity's
    lives above F_4."""
    tower = FieldTower(2)
    view = enumerate_group(builtin("ul", 2, 3), tower, 2, 2)
    table = conjugacy_classes(view)
    return view, table, norm_map(table)


def test_a_wrong_conjugator_is_named_in_witness_errors(monkeypatch, ul3_f4_result):
    """find_conjugators answers y = 1 for every pair: z = x still has
    z F^m(z)^{-1} = g but no longer commutes with g, so each searched
    class, and no other, has a witness error, which centralizer_witness
    raises."""
    view, table, clean = ul3_f4_result
    assert not clean.witness_errors
    searched = [c for c in range(len(table)) if clean.image_ordinals[c] != table.reps[c]]
    assert len(searched) == 6 and clean.fixed.all()
    monkeypatch.setattr(
        points_module.FiniteGroupView,
        "find_conjugators",
        lambda self, g, t: np.zeros(len(g), dtype=np.int64),
    )
    result = norm_map(table)
    assert sorted(result.witness_errors) == searched
    for c in searched:
        with pytest.raises(InternalInconsistencyError):
            centralizer_witness(result, c)


def _corrupting_witness_checks(monkeypatch, corrupt):
    """Make norm_map check corrupt(z) in place of its witnesses z;
    returns the list the (commutes, coboundary) masks are appended to."""
    masks = []
    checks = asai_module._witness_checks

    def corrupted(conj, solves, g, z):
        masks.append(checks(conj, solves, g, corrupt(z)))
        return masks[-1]

    monkeypatch.setattr(asai_module, "_witness_checks", corrupted)
    return masks


def test_a_witness_times_a_nonrational_central_point_fails_the_coboundary_check(
    monkeypatch, ul3_f4_result
):
    """z * (0, 0, t), t the generator of z's level: it still commutes with
    g, but z F^m(z)^{-1} moves by t F^m(t)^{-1}, which is 1 only where t
    is rational, so every witness above F_4 fails its coboundary check."""
    view, table, clean = ul3_f4_result

    def central_shift(z):
        z = z.copy()
        z[:, -1, 1] = (z[:, -1, 1] + 1) % 2
        return z

    masks = _corrupting_witness_checks(monkeypatch, central_shift)
    result = norm_map(table)
    above = [c for c in range(len(table)) if clean.levels[clean.where[c, 0]][0].degree > 2]
    assert len(above) == 18
    assert sorted(result.witness_errors) == above
    commutes, coboundary = (np.concatenate(parts) for parts in zip(*masks))
    assert commutes.all() and (~coboundary).sum() == len(above)


def _one_in_coordinate_1(dim: int, k: int) -> np.ndarray:
    """Digits of (1, 0, ..., 0) at level F_{p^k}: the field's one, a
    rational element, in coordinate 1."""
    a = np.zeros((dim, k), dtype=np.int64)
    a[0, 0] = 1
    return a


def test_a_witness_times_a_rational_point_fails_the_commute_check(monkeypatch, ul3_f4_result):
    """z * a, a = (1, 0, 0): (z a) F^m(z a)^{-1} = z F^m(z)^{-1} since a
    is rational, and z a commutes with g iff a does, so exactly the
    classes whose representative does not commute with a have a witness
    error."""
    view, table, clean = ul3_f4_result

    def right_factor(z):
        fid = FieldId(2, z.shape[-1])
        return eval_mul(view.law, view.tower, fid, z, _one_in_coordinate_1(3, fid.degree))

    masks = _corrupting_witness_checks(monkeypatch, right_factor)
    result = norm_map(table)
    a, reps = _one_in_coordinate_1(3, 2), view.digits(table.reps)
    ag = eval_mul(view.law, view.tower, view.field, a, reps)
    ga = eval_mul(view.law, view.tower, view.field, reps, a)
    apart = np.nonzero(np.any(ag != ga, axis=(-2, -1)))[0].tolist()
    assert apart
    assert sorted(result.witness_errors) == apart
    commutes, coboundary = (np.concatenate(parts) for parts in zip(*masks))
    assert coboundary.all() and (~commutes).sum() == len(apart)


def test_a_lang_solution_times_a_rational_point_fails_the_image_check(monkeypatch):
    """x replaced by a * x, a = (1, 0, 0) rational: F^m(x)^{-1} x is
    unchanged but x^{-1} g x is not, for g not commuting with a."""
    view = enumerate_group(builtin("ul", 2, 3), FieldTower(2), 2, 1)
    solve = asai_module.lang_solve_batch

    def left_factor(law, tower, g):
        return [
            (fid, rows, eval_mul(law, tower, fid, _one_in_coordinate_1(3, fid.degree), x))
            for fid, rows, x in solve(law, tower, g)
        ]

    monkeypatch.setattr(asai_module, "lang_solve_batch", left_factor)
    with pytest.raises(InternalInconsistencyError, match=re.escape("x^{-1} g x != F^m(x)^{-1} x")):
        norm_map(conjugacy_classes(view))


def test_indices_outside_their_range_raise(ul3_result):
    """-1 and n raise ParameterError at every entry point that takes an
    ordinal (n = |G| = 8) or a class index (n = 5 classes): nothing
    wraps a negative index, and numpy's IndexError does not escape.
    find_conjugators refuses a batch with one such ordinal among valid ones."""
    _, _, view, table, res = ul3_result
    calls = [
        (partial(image_of_member, res), view.order),
        (view.point, view.order),
        (lambda i: view.find_conjugator(i, 0), view.order),
        (lambda i: view.find_conjugator(0, i), view.order),
        (lambda i: view.find_conjugators(np.array([0, i, 0]), np.zeros(3, dtype=int)), view.order),
        (view.conjugation_by, view.order),
        (partial(centralizer_witness, res), len(table)),
        (table.rep_point, len(table)),
        (partial(delta_function, table), len(table)),
    ]
    for call, n in calls:
        call(n - 1)
        for i in (-1, n):
            with pytest.raises(ParameterError):
                call(i)


def _moved_and_single_component(law, q, m):
    """(classes the norm map moves, classes whose centralizer growth over
    F_{q^{mN}}, N = 1..3, reads stable with one component), after checking
    that no class is both: a moved class has g outside Z(g)°, and g's own
    component is then a second Frobenius-fixed one at every N."""
    tower = FieldTower(characteristic(q))
    table = conjugacy_classes(enumerate_group(law, tower, q, m))
    fixed = norm_map(table).fixed
    reps = [table.rep_point(c) for c in range(len(table))]
    single = [g.stable and g.components == 1
              for g in centralizer_counts(law, tower, reps, q, m, range(1, 4))]
    assert not any(s and not f for s, f in zip(single, fixed))
    return int(np.sum(~fixed)), sum(single)


@pytest.mark.parametrize(
    "group,q,m,moved,single",
    [
        ("n2", 3, 1, 6, 3),
        ("n2", 5, 1, 20, 5),
        ("n2", 4, 1, 6, 4),
        ("n2", 3, 2, 24, 9),
        ("ul(4)", 2, 1, 0, 16),
    ],
)
def test_moved_classes_never_read_one_stable_component(group, q, m, moved, single):
    """The paper's equivalence as an oracle that shares only the law and
    conj with the Lang and norm-map layers: centralizer point counts."""
    law = parse_group_name(group, characteristic(q))
    assert _moved_and_single_component(law, q, m) == (moved, single)


@settings(max_examples=30, deadline=None)
@given(random_dsl_law(groups=BUILTINS + ["ga_power(4)"]))
def test_moved_classes_of_random_laws_never_read_one_stable_component(drawn):
    law, p, m = drawn
    assume(p ** (3 * m * law.dim) <= 10**5)  # the top level F_{p^{3m}}
    _moved_and_single_component(law, p, m)
