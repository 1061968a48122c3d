"""Differential tests of the batched Lang solve and norm map.

The laws are random triangular DSL laws (`random_laws`) of dimension 2
to 4 over F_2, F_3 and F_5.  The batch is checked against the one-row
solve, the scalar witness check and the brute-force solver, and its
product-form steps against a solve whose steps read the full
x * F^m(x)^{-1} (inverse_form_solve).
"""

import dataclasses

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from asaitwist import lang as lang_module
from asaitwist.asai import centralizer_witness, norm_map
from asaitwist.cli import main
from asaitwist.errors import CapExceeded, InternalInconsistencyError, ParameterError
from asaitwist.fields import FieldId, FieldTower
from asaitwist.grouplaw import (
    Polynomial,
    all_tuples,
    canonical_text,
    eval_inv,
    eval_mul,
    parse_group_dsl,
    parse_group_name,
)
from asaitwist.lang import (
    LangWitness,
    lang_solve_batch,
    lang_solve_bruteforce,
    lang_solve_triangular,
    verify_witness,
)
from asaitwist.points import conjugacy_classes, digits_point, enumerate_group
from random_laws import BUILTINS, random_dsl_law, transported_law
from test_points import MID_CENTRAL

# brute-force witness search stops at groups larger than this
BRUTE_MAX_ORDER = 1 << 15


@settings(max_examples=25, deadline=None)
@given(random_dsl_law())
def test_batch_agrees_with_one_row_solve_and_oracles(case):
    _check_batch_against_oracles(*case)


@settings(max_examples=10, deadline=None)
@given(
    st.one_of(
        random_dsl_law(groups=["n2", "ul(3)"], primes=(5,)),
        random_dsl_law(groups=["ga_power(4)"]),
    )
)
def test_batch_agrees_at_p5_and_in_dimension_4(case):
    _check_batch_against_oracles(*case)


def _check_batch_against_oracles(law, q, m):
    tower = FieldTower(law.p)
    view = enumerate_group(law, tower, q, m)
    ops = view.ops
    g = all_tuples(tower, view.field, law.dim)
    groups = lang_solve_batch(law, tower, g)
    rows = np.concatenate([rows for _, rows, _ in groups])
    assert sorted(rows.tolist()) == list(range(view.order))
    for fid, rows, xs in groups:
        for row, x in zip(rows, xs):
            point = digits_point(view.field, g[row])
            one = lang_solve_triangular(law, tower, point)
            assert one.x.field == fid
            assert np.array_equal(x, np.array([c.coeffs for c in one.x.coords]))
            assert verify_witness(law, tower, one)

    table = conjugacy_classes(view)
    result = norm_map(table)
    brute_checked = 0
    for ci in range(len(table)):
        rep = table.rep_point(ci)
        wb = lang_solve_bruteforce(law, tower, rep, max_order=BRUTE_MAX_ORDER)
        if wb is not None:
            brute_checked += 1
            img = ops.mul(ops.inv(ops.frobenius(wb.x, q, m)), wb.x)
            img = ops.section(img, view.field)
            assert table.class_of[view.index_of(img)] == result.perm[ci]
        w = centralizer_witness(result, ci)
        assert (w is not None) == (result.perm[ci] == ci)
        if w is not None:
            ge = ops.embed(rep, w.field)
            assert ops.mul(w, ge) == ops.mul(ge, w)
            assert ops.mul(w, ops.inv(ops.frobenius(w, q, m))) == ge
            assert ops.conj(w, ge) == ge
            assert verify_witness(law, tower, LangWitness(rep, w, w.field.degree // rep.field.degree))
    assert brute_checked >= 1  # at least the identity class


@pytest.mark.parametrize("group,p", [("n2", 3), ("ul(3)", 2), ("ga_power(2)", 2)])
def test_batch_raises_cap_exceeded(group, p):
    law = parse_group_name(group, p)
    tower = FieldTower(p, degree_cap=1)
    view = enumerate_group(law, tower, p, 1)
    g = all_tuples(tower, view.field, law.dim)
    # t^p - t = 1 has no root in F_p, so some row needs degree p
    with pytest.raises(CapExceeded):
        lang_solve_batch(law, tower, g)


@pytest.mark.parametrize("shape", [(4, 3, 1), (4, 2), (2, 4, 2, 1)])
def test_batch_rejects_g_of_the_wrong_dimension_or_rank(shape):
    """g is a (rows, dim, k) digit array; the level is read from k."""
    law = parse_group_name("n2", 3)
    with pytest.raises(ParameterError):
        lang_solve_batch(law, FieldTower(3), np.zeros(shape, dtype=np.int64))


def test_cli_cap_exceeded_from_batch_exits_4(tmp_path):
    shifts = [Polynomial.zero(3, 4), Polynomial.make(3, 4, [(1, (2, 0, 0, 0))])]
    law = transported_law(parse_group_name("n2", 3), shifts)
    dsl = tmp_path / "law.txt"
    dsl.write_text(canonical_text(law))
    res = CliRunner().invoke(
        main, ["asai", "--dsl", str(dsl), "--q", "3", "--m", "1", "--max-ext", "2"]
    )
    assert res.exit_code == 4
    assert "cap exceeded" in res.output


def inverse_form_solve(law, tower, g):
    """Oracle: lang_solve_batch's walk with each step read from the inverse
    form, coordinate i of xt * F^e(xt)^{-1} = g on the full law (xt zero
    in coordinates >= i), and no final check.  Returns its (field, rows,
    x) groups."""
    base = tower.make_field(g.shape[-1])
    e = base.degree
    levels = {e: (np.arange(len(g)), np.zeros_like(g))}
    for i in range(law.dim):
        solved = {}
        for degree, (rows, xt) in levels.items():
            cur = FieldId(law.p, degree)
            inv = eval_inv(law, tower, cur, tower.vfrob(cur, xt, e))
            lang_map = eval_mul(law, tower, cur, xt, inv)
            c = (lang_map[:, i] - tower.vembed(base, cur, g[rows, i])) % law.p
            for fid, sel, t in tower.vartin_schreier_solve(cur, c, e):
                level = max(fid, cur, key=lambda f: f.degree)
                x = tower.vembed(cur, level, xt[sel])
                x[:, i] = tower.vembed(fid, level, t)
                solved.setdefault(level.degree, []).append((rows[sel], x))
        levels = {
            degree: tuple(np.concatenate(arrays) for arrays in zip(*parts))
            for degree, parts in sorted(solved.items())
        }
    return [(FieldId(law.p, degree), rows, x) for degree, (rows, x) in levels.items()]


def assert_same_groups(got, want):
    assert [fid for fid, _, _ in got] == [fid for fid, _, _ in want]
    for (_, rows, x), (_, rows_want, x_want) in zip(got, want):
        assert np.array_equal(rows, rows_want)
        assert np.array_equal(x, x_want)


def assert_steps_match_the_full_lang_map(law, e, seed):
    """On random points g of G(F_{p^e}) and the identity, the product-form
    solve returns the inverse-form oracle's groups.  Equal witnesses mean
    equal step values, c = t^{p^e} - t for each coordinate t of x, so
    every step -mul_i(g, F^e(xt)) equals coordinate i of the full
    xt * F^e(xt)^{-1} minus g_i."""
    tower = FieldTower(law.p)
    rng = np.random.default_rng(seed)
    g = rng.integers(0, law.p, size=(31, law.dim, e))
    g[0] = 0
    assert_same_groups(lang_solve_batch(law, tower, g), inverse_form_solve(law, tower, g))


@settings(max_examples=25, deadline=None)
@given(random_dsl_law(groups=BUILTINS + ["ga_power(4)"], primes=(2, 3, 5)), st.integers(0, 2**16))
def test_step_values_match_the_full_lang_map_on_random_laws(case, seed):
    law, _, m = case
    assert_steps_match_the_full_lang_map(law, m, seed)


@pytest.mark.parametrize(
    "group,p,e",
    [("n2", 2, 2), ("n2", 3, 1), ("n2", 5, 2), ("ga_power(3)", 3, 1), ("ul(3)", 2, 3),
     ("ul(4)", 2, 2), ("ul(4)", 3, 1), ("ul(5)", 2, 1)],
)
def test_step_values_match_the_full_lang_map_on_builtins(group, p, e):
    assert_steps_match_the_full_lang_map(parse_group_name(group, p), e, seed=p * e)


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 1)])
def test_step_values_match_the_full_lang_map_on_mid_central(p, e):
    assert_steps_match_the_full_lang_map(parse_group_dsl(MID_CENTRAL.format(p=p)), e, seed=e)


@pytest.mark.parametrize(
    "law,q,m",
    [(parse_group_name("n2", 3), 3, 2), (parse_group_name("ul(4)", 2), 2, 1),
     (parse_group_dsl(MID_CENTRAL.format(p=2)), 2, 2)],
    ids=["n2-3-2", "ul(4)-2-1", "mid_central-2-2"],
)
def test_the_lang_solve_reads_no_inverse(law, q, m):
    """With every inverse coordinate replaced by 0, the solve still returns
    the oracle's witnesses on every point: it reads law.mul only."""
    blind = dataclasses.replace(law, inv=tuple(Polynomial.zero(law.p, f.nvars) for f in law.inv))
    tower = FieldTower(law.p)
    g = enumerate_group(law, tower, q, m).digits(np.arange(q ** (m * law.dim)))
    assert_same_groups(lang_solve_batch(blind, tower, g), inverse_form_solve(law, tower, g))


@pytest.mark.parametrize("group,p,m", [("n2", 3, 2), ("ul(3)", 2, 2), ("ul(4)", 2, 1)])
def test_a_wrong_step_value_fails_the_lang_check(monkeypatch, group, p, m):
    """One row's right-hand side at the last step is off by one, so the
    Artin-Schreier root and the witness x solve the wrong equation: the
    check on the full law rejects the batch."""
    law = parse_group_name(group, p)
    tower = FieldTower(p)
    view = enumerate_group(law, tower, p, m)
    step_rhs = lang_module._step_rhs

    def off_by_one(law, tower, fid, i, g, xt, e):
        c = step_rhs(law, tower, fid, i, g, xt, e)
        if i == law.dim - 1:
            c[-1, 0] = (c[-1, 0] + 1) % tower.p
        return c

    monkeypatch.setattr(lang_module, "_step_rhs", off_by_one)
    with pytest.raises(InternalInconsistencyError, match="failed to verify"):
        lang_solve_batch(law, tower, view.digits(np.arange(view.order)))
    with pytest.raises(InternalInconsistencyError, match="failed to verify"):
        norm_map(conjugacy_classes(view))
