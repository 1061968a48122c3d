import pytest

from asaitwist.errors import CapExceeded
from asaitwist.fields import FieldTower
from asaitwist.grouplaw import builtin
from asaitwist.lang import (
    LangWitness,
    default_degree_cap,
    lang_solve_bruteforce,
    lang_solve_triangular,
    verify_witness,
)
from asaitwist.points import Point, enumerate_group


def test_identity_witness_is_identity():
    tower = FieldTower(3)
    law = builtin("n2", 3)
    view = enumerate_group(law, tower, 3, 1)
    w = lang_solve_triangular(law, tower, view.point(0))
    assert w.x.is_identity() and w.n_multiplier == 1


def test_ga1_q3_needs_f27():
    """t - t^3 = 1 has no root in F_3; the witness appears at N = 3."""
    tower = FieldTower(3)
    law = builtin("ga_power", 3, 1)
    view = enumerate_group(law, tower, 3, 1)
    one = view.point(1)
    w = lang_solve_triangular(law, tower, one)
    assert w.n_multiplier == 3
    assert verify_witness(law, tower, w)
    # brute-force oracle over all of F_27 and the smaller levels
    f27 = tower.make_field(3)
    target = tower.embed(tower.one(tower.make_field(1)), f27)
    sols = [
        x
        for x in tower.elements(f27)
        if tower.sub(x, tower.frobenius(x, 3)) == target
    ]
    assert w.x.coords[0] in sols
    for deg in (1, 2):
        fid = tower.make_field(deg)
        assert not any(
            tower.sub(x, tower.frobenius(x, 3)) == tower.embed(tower.one(tower.make_field(1)), fid)
            for x in tower.elements(fid)
        )


def test_ga1_q2_bruteforce_example():
    """t + t^2 = 1 has no solution over F_2; solutions appear in F_4."""
    tower = FieldTower(2)
    law = builtin("ga_power", 2, 1)
    view = enumerate_group(law, tower, 2, 1)
    one = view.point(1)
    w = lang_solve_bruteforce(law, tower, one, n_cap=4)
    assert w is not None and w.n_multiplier == 2
    assert verify_witness(law, tower, w)


def test_n2_coordinate_recipe():
    tower = FieldTower(3)
    law = builtin("n2", 3)
    view = enumerate_group(law, tower, 3, 1)
    g = view.point(3)  # combined code 3 -> (1, 0)
    w = lang_solve_triangular(law, tower, g)
    assert w.n_multiplier == 3  # both coordinates resolve inside F_27
    assert verify_witness(law, tower, w)
    # first coordinate satisfies s - s^3 = 1
    s = w.x.coords[0]
    one = tower.embed(tower.one(tower.make_field(1)), s.field)
    assert tower.sub(s, tower.frobenius(s, 3)) == one


def test_verify_witness_fiber_invariance_and_perturbation():
    tower = FieldTower(3)
    law = builtin("n2", 3)
    view = enumerate_group(law, tower, 3, 1)
    ops = view.ops
    g = view.point(4)  # combined code 4 -> (1, 1)
    w = lang_solve_triangular(law, tower, g)
    assert verify_witness(law, tower, w)
    lvl = w.x.field
    # right-multiplying by a rational element stays on the fiber
    for i in range(view.order):
        h = ops.embed(view.point(i), lvl)
        w2 = LangWitness(g, ops.mul(w.x, h), w.n_multiplier)
        assert verify_witness(law, tower, w2)
    # perturbing off the fiber fails; a rational shift of one coordinate
    # stays on it, so bump by a non-rational element (the F_27 generator)
    gen = tower.element(lvl, (0, 1, 0))
    bumped = list(w.x.coords)
    bumped[0] = tower.add(bumped[0], gen)
    w3 = LangWitness(g, Point(tuple(bumped)), w.n_multiplier)
    assert not verify_witness(law, tower, w3)


def test_verify_witness_rejects_wrong_level_and_raises_on_malformed():
    tower = FieldTower(3)
    law = builtin("n2", 3)
    view = enumerate_group(law, tower, 3, 1)
    g = view.point(4)
    w = lang_solve_triangular(law, tower, g)
    # x at F_9, which does not contain the F_27 solution: a wrong level
    f9 = tower.make_field(2)
    x9 = Point(tuple(tower.zero(f9) for _ in range(2)))
    assert not verify_witness(law, tower, LangWitness(g, x9, 2))
    # a witness with one coordinate for a two-dimensional law is a bug
    # in the caller, not a failed verification
    short = LangWitness(g, Point(w.x.coords[:1]), w.n_multiplier)
    with pytest.raises(IndexError):
        verify_witness(law, tower, short)


def test_fiber_is_left_coset_exhaustive():
    """Solutions within one level form x0 * G^{F^m} of size (q^m)^d."""
    tower = FieldTower(3)
    law = builtin("n2", 3)
    view = enumerate_group(law, tower, 3, 1)
    ops = view.ops
    g = view.point(3)  # combined code 3 -> (1, 0): witnesses live at N = 3
    big = enumerate_group(law, tower, 3, 3)
    ge = ops.embed(g, big.field)
    fiber = []
    for i in range(big.order):
        x = big.point(i)
        if ops.mul(x, ops.inv(ops.frobenius(x, 3, 1))) == ge:
            fiber.append(view.index_of if False else big.index_of(x))
    assert len(fiber) == 9
    x0 = big.point(fiber[0])
    coset = {
        big.index_of(ops.mul(x0, ops.embed(view.point(i), big.field)))
        for i in range(view.order)
    }
    assert coset == set(fiber)


@pytest.mark.parametrize(
    "family,p,param,q",
    [("n2", 3, None, 3), ("ul", 2, 3, 2)],
)
def test_triangular_and_bruteforce_agree_up_to_rational_shift(family, p, param, q):
    tower = FieldTower(p)
    law = builtin(family, p, param)
    view = enumerate_group(law, tower, q, 1)
    ops = view.ops
    for i in range(view.order):
        g = view.point(i)
        wt = lang_solve_triangular(law, tower, g)
        wb = lang_solve_bruteforce(law, tower, g, n_cap=9)
        assert wb is not None
        lvl = tower.make_field(max(wt.x.field.degree, wb.x.field.degree))
        xt, xb = ops.embed(wt.x, lvl), ops.embed(wb.x, lvl)
        u = ops.mul(ops.inv(xb), xt)
        assert ops.frobenius(u, q, 1) == u  # u in G^{F^m}


def test_commutative_norm_output_equals_input():
    tower = FieldTower(2)
    law = builtin("ga_power", 2, 2)
    view = enumerate_group(law, tower, 2, 1)
    ops = view.ops
    for i in range(view.order):
        g = view.point(i)
        w = lang_solve_triangular(law, tower, g)
        lvl = w.x.field
        img = ops.mul(ops.inv(ops.frobenius(w.x, 2, 1)), w.x)
        assert img == ops.embed(g, lvl)


def test_default_degree_cap_formula():
    assert default_degree_cap(builtin("ul", 3, 3), 3, 3) == 27 * 3  # p^d * m * n
    assert default_degree_cap(builtin("n2", 3), 9, 1) == 9 * 2


def test_triangular_solver_respects_cap():
    tower = FieldTower(3, degree_cap=2)
    law = builtin("ga_power", 3, 1)
    view = enumerate_group(law, tower, 3, 1)
    with pytest.raises(CapExceeded):
        lang_solve_triangular(law, tower, view.point(1))


def test_bruteforce_notfound_at_cap():
    tower = FieldTower(3)
    law = builtin("ga_power", 3, 1)
    view = enumerate_group(law, tower, 3, 1)
    # witness needs N = 3; a cap of 2 is inconclusive, reported as None
    assert lang_solve_bruteforce(law, tower, view.point(1), n_cap=2) is None
