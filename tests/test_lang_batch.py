"""Differential tests of the batched Lang solve and norm map.

The laws are random triangular DSL laws (`random_laws`) of dimension 2
to 4 over F_2, F_3 and F_5.  The batch is checked against the one-row
solve, the scalar witness check and the brute-force solver.
"""

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from asaitwist.asai import centralizer_witness, norm_map
from asaitwist.cli import main
from asaitwist.errors import CapExceeded
from asaitwist.fields import FieldTower
from asaitwist.grouplaw import Polynomial, all_tuples, canonical_text, parse_group_name
from asaitwist.lang import (
    lang_solve_batch,
    lang_solve_bruteforce,
    lang_solve_triangular,
    verify_witness,
)
from asaitwist.points import conjugacy_classes, digits_point, enumerate_group
from random_laws import random_dsl_law, transported_law

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
    groups = lang_solve_batch(law, tower, g, q, m)
    rows = np.concatenate([rows for _, rows, _ in groups])
    assert sorted(rows.tolist()) == list(range(view.order))
    for fid, rows, xs in groups:
        for row, x in zip(rows, xs):
            point = digits_point(view.field, g[row])
            one = lang_solve_triangular(law, tower, point, q, m)
            assert one.x.field == fid
            assert np.array_equal(x, np.array([c.coeffs for c in one.x.coords]))
            assert verify_witness(law, tower, one)

    table = conjugacy_classes(view)
    result = norm_map(view, table)
    brute_checked = 0
    for ci in range(len(table)):
        rep = table.rep_point(ci)
        wb = lang_solve_bruteforce(law, tower, rep, q, m, max_order=BRUTE_MAX_ORDER)
        if wb is not None:
            brute_checked += 1
            img = ops.mul(ops.inv(ops.frobenius(wb.x, q, m)), wb.x)
            img = ops.section(img, view.field)
            assert table.class_of[view.index_of(img)] == result.perm[ci]
        w = centralizer_witness(result, ci)
        assert (w is not None) == (result.perm[ci] == ci)
        if w is not None:
            ge = ops.embed(rep, w.z.field)
            assert ops.mul(w.z, ge) == ops.mul(ge, w.z)
            assert ops.mul(ops.inv(w.z), ops.frobenius(w.z, q, m)) == ge
    assert brute_checked >= 1  # at least the identity class


@pytest.mark.parametrize("group,p", [("n2", 3), ("ul(3)", 2), ("ga_power(2)", 2)])
def test_batch_raises_cap_exceeded(group, p):
    law = parse_group_name(group, p)
    tower = FieldTower(p, degree_cap=1)
    view = enumerate_group(law, tower, p, 1)
    g = all_tuples(tower, view.field, law.dim)
    # t^p - t = 1 has no root in F_p, so some row needs degree p
    with pytest.raises(CapExceeded):
        lang_solve_batch(law, tower, g, p, 1)


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

