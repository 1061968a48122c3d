"""Differential tests of the batched Lang solve and norm map.

The laws are random triangular DSL laws (`random_laws`) of dimension 2
to 4 over F_2, F_3 and F_5.  The batch is checked against the one-row
solve, the scalar witness check and the brute-force solver, and each
step's restricted evaluation against the full x * F^m(x)^{-1}.
"""

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from asaitwist import lang as lang_module
from asaitwist.asai import centralizer_witness, norm_map
from asaitwist.cli import main
from asaitwist.errors import CapExceeded, InternalInconsistencyError, ParameterError
from asaitwist.fields import FieldTower
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
            assert ops.mul(ops.inv(w), ops.frobenius(w, q, m)) == ge
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


def assert_steps_match_the_full_lang_map(law, e, seed):
    """At every step i, on random partial solutions (coordinates >= i
    zero) at the base level F_{p^e} and at F_{p^{pe}}, the restricted
    step value equals coordinate i of the full x * F^e(x)^{-1}."""
    tower = FieldTower(law.p)
    rng = np.random.default_rng(seed)
    steps = lang_module._lang_steps(law)
    assert len(steps) == law.dim
    for k in (e, law.p * e):
        fid = tower.make_field(k)
        x = rng.integers(0, law.p, size=(30, law.dim, k))
        for i, step in enumerate(steps):
            xt = x.copy()
            xt[:, i:] = 0
            full = eval_mul(law, tower, fid, xt, eval_inv(law, tower, fid, tower.vfrob(fid, xt, e)))
            got = lang_module._step_value(tower, fid, step, xt, e)
            assert np.array_equal(got, full[:, i]), (i, k)


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


@pytest.mark.parametrize("group,p,m", [("n2", 3, 2), ("ul(3)", 2, 2), ("ul(4)", 2, 1)])
def test_a_wrong_step_value_fails_the_lang_check(monkeypatch, group, p, m):
    """One row's value at the last step is off by one, so the Artin-Schreier
    root and the witness x solve the wrong equation: the check on the
    full law rejects the batch."""
    law = parse_group_name(group, p)
    tower = FieldTower(p)
    view = enumerate_group(law, tower, p, m)
    last = lang_module._lang_steps(law)[-1]
    step_value = lang_module._step_value

    def off_by_one(tower, fid, step, xt, e):
        z = step_value(tower, fid, step, xt, e)
        if step == last:
            z[-1, 0] = (z[-1, 0] + 1) % tower.p
        return z

    monkeypatch.setattr(lang_module, "_step_value", off_by_one)
    with pytest.raises(InternalInconsistencyError, match="failed to verify"):
        lang_solve_batch(law, tower, view.digits(np.arange(view.order)))
    with pytest.raises(InternalInconsistencyError, match="failed to verify"):
        norm_map(conjugacy_classes(view))
