import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asaitwist import asai
from asaitwist.asai import centralizer_witness
from asaitwist.easiness import (
    EASY,
    NOT_EASY,
    UNKNOWN,
    easiness_crosscheck,
    easiness_scan,
    family_oracle,
)
from asaitwist.fields import FieldTower
from asaitwist.grouplaw import builtin, parse_group_dsl, parse_group_name

from random_laws import random_dsl_law


def test_family_oracle_labels():
    assert family_oracle(builtin("ul", 2, 4)).label == EASY
    assert family_oracle(builtin("ga_power", 3, 2)).label == EASY
    assert family_oracle(builtin("n2", 5)).label == NOT_EASY
    assert family_oracle(builtin("n2", 3)).condition == "p > 2"
    assert family_oracle(builtin("n2", 2)).label == UNKNOWN
    custom = parse_group_dsl("group g dim 1 char 3\nmul[1] = x1 + y1\n")
    assert family_oracle(custom).label == UNKNOWN


def test_scan_n2_not_easy_at_m1():
    tower = FieldTower(3)
    verdict = easiness_scan(builtin("n2", 3), tower, 3, max_m=3)
    assert verdict.kind == NOT_EASY
    assert verdict.witness_m == 1
    assert tuple(c.coeffs[0] for c in verdict.witness.coords) == (1, 0)
    assert verdict.evidence == [(1, False)]  # scan stops at the certificate


def test_scan_ul3_easy_up_to_3():
    tower = FieldTower(2)
    verdict = easiness_scan(builtin("ul", 2, 3), tower, 2, max_m=3)
    assert verdict.kind == "easy_up_to" and verdict.up_to_m == 3
    assert verdict.evidence == [(1, True), (2, True), (3, True)]


def test_scan_ga2_easy_up_to_5():
    tower = FieldTower(2)
    verdict = easiness_scan(builtin("ga_power", 2, 2), tower, 2, max_m=5)
    assert verdict.kind == "easy_up_to" and verdict.up_to_m == 5


def test_scan_inconclusive_on_cap():
    tower = FieldTower(2)
    verdict = easiness_scan(builtin("ul", 2, 3), tower, 2, max_m=3, max_order=4)
    assert verdict.kind == "inconclusive" and verdict.up_to_m == 0


def test_crosscheck_n2():
    tower = FieldTower(3)
    rep = easiness_crosscheck(builtin("n2", 3), tower, 3, max_m=1)
    assert rep.internally_consistent
    result = rep.levels[0]
    table = result.table
    for ci in range(len(table)):
        a = table.rep_point(ci).coords[0].coeffs[0]
        assert result.fixed[ci] == (a == 0)
        assert result.has_witness[ci] == (a == 0)
        assert (centralizer_witness(result, ci) is not None) == (a == 0)
    assert rep.family_label.label == NOT_EASY
    assert rep.label_status == "confirmed"
    assert rep.verdict.kind == NOT_EASY


def test_crosscheck_cap_hit_keeps_not_easy_certificate():
    tower = FieldTower(3)
    rep = easiness_crosscheck(builtin("n2", 3), tower, 3, max_m=3, max_order=81)
    assert len(rep.levels) == 2
    assert rep.label_status == "confirmed"
    assert rep.verdict.kind == NOT_EASY and rep.verdict.witness_m == 1
    assert rep.verdict.evidence == [(1, False), (2, False)]


def test_crosscheck_ul3():
    tower = FieldTower(2)
    rep = easiness_crosscheck(builtin("ul", 2, 3), tower, 2, max_m=2)
    assert rep.internally_consistent
    for result in rep.levels:
        assert result.fixed.all() and result.has_witness.all()
        assert all(centralizer_witness(result, ci) is not None for ci in range(len(result.table)))
    assert rep.family_label.label == EASY
    assert rep.label_status == "confirmed"
    assert rep.verdict.kind == "easy_up_to" and rep.verdict.up_to_m == 2


def test_crosscheck_ga1_trivially_consistent():
    tower = FieldTower(2)
    rep = easiness_crosscheck(builtin("ga_power", 2, 1), tower, 2, max_m=3)
    assert rep.internally_consistent
    assert rep.label_status == "confirmed"
    assert rep.verdict.up_to_m == 3


def test_crosscheck_unresolved_when_window_too_small():
    """A not-easy label with no nontrivial operator inside the window is
    reported unresolved, never contradicted."""
    tower = FieldTower(3)
    rep = easiness_crosscheck(builtin("n2", 3), tower, 3, max_m=1, max_order=5)
    # the cap kills every level, so nothing nontrivial was seen
    assert rep.levels == []
    assert rep.label_status == "unresolved"
    assert rep.verdict.kind == "inconclusive"


def test_n2_p2_exploratory_run():
    """p = 2 runs of the dimension-2 family carry no label claim but must
    still be internally consistent."""
    tower = FieldTower(2)
    rep = easiness_crosscheck(builtin("n2", 2), tower, 2, max_m=2)
    assert rep.internally_consistent
    assert rep.family_label.label == UNKNOWN
    assert rep.label_status == "n/a"


@pytest.mark.parametrize(
    "group,q,max_m,kind", [("ga_power(2)", 2, 3, "easy_up_to"), ("n2", 3, 2, NOT_EASY)]
)
def test_easiness_builds_no_witness_points(group, q, max_m, kind, monkeypatch):
    """The crosscheck and the scan read witnesses from norm_map's masks;
    neither turns a witness into a Point."""

    def no_point(*args):
        raise AssertionError("a witness Point was built")

    monkeypatch.setattr(asai, "digits_point", no_point)
    law = parse_group_name(group, q)
    rep = easiness_crosscheck(law, FieldTower(law.p), q, max_m=max_m)
    assert rep.internally_consistent and len(rep.levels) == max_m
    assert rep.verdict.kind == kind
    assert easiness_scan(law, FieldTower(law.p), q, max_m=max_m).kind == kind


def _assert_scan_agrees_with_crosscheck(law, q, max_m, max_order):
    """The scan's verdict is the crosscheck's, its evidence cut after the
    first nontrivial level."""
    scan = easiness_scan(law, FieldTower(law.p), q, max_m=max_m, max_order=max_order)
    full = easiness_crosscheck(
        law, FieldTower(law.p), q, max_m=max_m, max_order=max_order
    ).verdict
    for attr in ("kind", "witness", "witness_m", "up_to_m"):
        assert getattr(scan, attr) == getattr(full, attr), attr
    trivial = [t for _, t in full.evidence]
    cut = trivial.index(False) + 1 if False in trivial else len(trivial)
    assert scan.evidence == full.evidence[:cut]


@pytest.mark.parametrize(
    "group,q,max_m,max_order",
    [
        ("n2", 3, 3, 10**6),  # certificate at m = 1, then more levels
        ("n2", 3, 3, 81),  # certificate, then a cap hit
        ("n2", 3, 2, 5),  # cap hit before any level
        ("n2", 2, 3, 10**6),
        ("n2", 5, 2, 10**6),
        ("ul(3)", 2, 3, 10**6),  # easy_up_to
        ("ul(3)", 2, 3, 64),  # all-trivial levels, then a cap hit
        ("ga_power(2)", 2, 4, 10**6),
        ("ga_power(3)", 3, 2, 10**6),
    ],
)
def test_scan_agrees_with_crosscheck_on_builtins(group, q, max_m, max_order):
    _assert_scan_agrees_with_crosscheck(parse_group_name(group, q), q, max_m, max_order)


@settings(max_examples=20, deadline=None)
@given(
    random_dsl_law(primes=(2, 3)),
    st.integers(1, 3),
    st.sampled_from([5, 30, 125]),  # small caps end some windows early
)
def test_scan_agrees_with_crosscheck_on_random_laws(drawn, max_m, max_order):
    law, p, _ = drawn
    _assert_scan_agrees_with_crosscheck(law, p, max_m, max_order)
