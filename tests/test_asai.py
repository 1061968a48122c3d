from fractions import Fraction
from functools import partial

import numpy as np
import pytest

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
from asaitwist.errors import ParameterError
from asaitwist.fields import FieldTower
from asaitwist import points as points_module
from asaitwist.grouplaw import builtin, parse_group_name
from asaitwist.lang import lang_solve_bruteforce, lang_solve_triangular
from asaitwist.points import conjugacy_classes, enumerate_group


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


def test_image_of_member_consistent(ul3_result):
    law, tower, view, table, res = ul3_result
    ops = view.ops
    for ordinal in range(view.order):
        img = image_of_member(res, ordinal)
        ci = int(table.class_of[ordinal])
        # direct recomputation through the solver
        w = lang_solve_triangular(law, tower, view.point(ordinal))
        direct = ops.mul(ops.inv(ops.frobenius(w.x, view.q, view.m)), w.x)
        direct = ops.section(direct, view.field)
        assert table.class_of[view.index_of(img)] == res.perm[ci]
        assert table.class_of[view.index_of(direct)] == res.perm[ci]


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
    for _, _, view, table, res in (n2_result, ul3_result):
        ops = view.ops
        for ci in range(len(table)):
            w = centralizer_witness(res, ci)
            assert (w is not None) == (res.perm[ci] == ci)
            if w is not None:
                g = ops.embed(table.rep_point(ci), w.field)
                assert ops.mul(w, g) == ops.mul(g, w)
                assert ops.mul(ops.inv(w), ops.frobenius(w, view.q, view.m)) == g


def test_centralizer_witness_identity_class(ul3_result):
    *_, res = ul3_result
    w = centralizer_witness(res, 0)
    assert w is not None and w.is_identity()


def test_centralizer_witness_central_n2_class(n2_result):
    """g = (0,1) is central; its witness is (0,d) with d^3 - d = 1."""
    law, tower, view, table, res = n2_result
    ci = int(table.class_of[view.index_of(view.point(1))])  # (0, 1)
    w = centralizer_witness(res, ci)
    assert w is not None
    d0 = w.coords[0]
    assert d0.is_zero()
    d = w.coords[1]
    one = tower.embed(tower.one(tower.make_field(1)), d.field)
    assert tower.sub(tower.frobenius(d, 3), d) == one
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


def test_indices_outside_their_range_raise(ul3_result):
    """-1 and n raise ParameterError at every entry point that takes an
    ordinal (n = |G| = 8) or a class index (n = 5 classes): nothing
    wraps a negative index, and numpy's IndexError does not escape."""
    _, _, view, table, res = ul3_result
    calls = [
        (partial(image_of_member, res), view.order),
        (view.point, view.order),
        (partial(centralizer_witness, res), len(table)),
        (table.rep_point, len(table)),
        (partial(delta_function, table), len(table)),
    ]
    for call, n in calls:
        call(n - 1)
        for i in (-1, n):
            with pytest.raises(ParameterError):
                call(i)
