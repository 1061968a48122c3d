"""Acceptance suite: one test per criterion, printed pass/fail per line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every check here is exact (integer/permutation
equality); the only tolerances are the two wall-clock budgets, asserted
as stated.
"""

import time

import numpy as np
from click.testing import CliRunner

from asaitwist.asai import centralizer_witness, is_asai_trivial, norm_map
from asaitwist.cache import class_table_path, load_class_table, save_class_table
from asaitwist.cli import main as cli_main
from asaitwist.easiness import easiness_scan
from asaitwist.fields import FieldTower
from asaitwist.grouplaw import builtin
from asaitwist.lang import lang_solve_bruteforce, lang_solve_triangular
from asaitwist.points import (
    centralizer,
    centralizer_counts,
    conjugacy_classes,
    enumerate_group,
)

_RUNS = {}


def _coords(pt):
    return tuple(c.coeffs[0] for c in pt.coords)


def get_run(family, p, param, q, m):
    key = (family, p, param, q, m)
    if key not in _RUNS:
        tower = FieldTower(p)
        law = builtin(family, p, param)
        view = enumerate_group(law, tower, q, m)
        table = conjugacy_classes(view)
        _RUNS[key] = (law, tower, view, table, norm_map(table))
    return _RUNS[key]


EASY_RUNS = [
    ("ul", 2, 3, 2, 1), ("ul", 2, 3, 2, 2), ("ul", 2, 3, 2, 3),
    ("ul", 3, 3, 3, 1), ("ul", 3, 3, 3, 2), ("ul", 3, 3, 3, 3),
    ("ga_power", 2, 2, 2, 1), ("ga_power", 2, 2, 2, 2), ("ga_power", 2, 2, 2, 3),
    ("ga_power", 3, 2, 3, 1), ("ga_power", 3, 2, 3, 2), ("ga_power", 3, 2, 3, 3),
]


def test_criterion_1_nonexample_detection():
    """n2 at p=q=3, m=1: the norm map is (a,b) -> (a, b - a^2) on all nine
    classes, six moved and three fixed, verdict NotEasy with witness
    ((1,0), m=1), cross-checked against brute-force Lang search; < 5 s."""
    t0 = time.monotonic()
    law, tower, view, table, res = get_run("n2", 3, None, 3, 1)
    assert len(table) == 9
    moved = 0
    for ci in range(9):
        a, b = _coords(table.rep_point(ci))
        assert _coords(res.images[ci]) == (a, (b - a * a) % 3)
        expected_img_ord = view.index_of(
            view.point(a * 3 + (b - a * a) % 3)
        )
        assert res.perm[ci] == int(table.class_of[expected_img_ord])
        if res.perm[ci] != ci:
            moved += 1
        # independent oracle: brute-force Lang search within extension cap 3^2
        wb = lang_solve_bruteforce(law, tower, table.rep_point(ci), n_cap=9)
        assert wb is not None
        ops = view.ops
        img = ops.mul(ops.inv(ops.frobenius(wb.x, 3, 1)), wb.x)
        img = ops.section(img, view.field)
        assert int(table.class_of[view.index_of(img)]) == res.perm[ci]
    assert moved == 6 and sum(res.perm[c] == c for c in range(9)) == 3
    verdict = easiness_scan(law, tower, 3, max_m=3)
    assert verdict.kind == "not_easy"
    assert verdict.witness_m == 1
    assert _coords(verdict.witness) == (1, 0)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1: PASS - non-example detected, closed form exact ({elapsed:.2f}s)")


def test_criterion_2_easy_family_triviality():
    """ul(3) over F_2, F_3 and ga_power(2) over F_2, F_3 for m = 1, 2, 3:
    the norm map is the identity permutation every time; < 60 s total."""
    t0 = time.monotonic()
    for key in EASY_RUNS:
        law, tower, view, table, res = get_run(*key)
        assert is_asai_trivial(res), f"nontrivial operator for {key}"
        assert res.perm == tuple(range(len(table)))
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 2: PASS - 12/12 easy-family runs give the identity permutation ({elapsed:.2f}s)")


def test_criterion_3_witness_biconditional_exhaustive():
    """On every run of criteria 1-2, for every class: fixed by the norm
    map <=> a verified centralizer witness exists (z in Z(g) and
    z F^m(z)^{-1} = g re-checked exactly).  Zero disagreements."""
    disagreements = 0
    classes_checked = 0
    for key in [("n2", 3, None, 3, 1)] + EASY_RUNS:
        law, tower, view, table, res = get_run(*key)
        ops = view.ops
        for ci in range(len(table)):
            w = centralizer_witness(res, ci)
            fixed = res.perm[ci] == ci
            if (w is not None) != fixed:
                disagreements += 1
                continue
            if w is not None:
                ge = ops.embed(table.rep_point(ci), w.field)
                if not (
                    ops.mul(w, ge) == ops.mul(ge, w)
                    and ops.mul(w, ops.inv(ops.frobenius(w, view.q, view.m))) == ge
                ):
                    disagreements += 1
            classes_checked += 1
    assert disagreements == 0
    print(f"\nACCEPTANCE 3: PASS - witness biconditional exact on {classes_checked} classes, 0 disagreements")


def test_criterion_4_lang_solver_oracle_equivalence():
    """Every element of n2(F_3) and ul(3)(F_2): triangular and brute-force
    witnesses differ by right multiplication by a rational element and
    give the same norm image class."""
    checked = 0
    for family, p, param, q in (("n2", 3, None, 3), ("ul", 2, 3, 2)):
        law, tower, view, table, res = get_run(family, p, param, q, 1)
        ops = view.ops
        for i in range(view.order):
            g = view.point(i)
            wt = lang_solve_triangular(law, tower, g)
            wb = lang_solve_bruteforce(law, tower, g, n_cap=9)
            assert wb is not None
            lvl = tower.make_field(max(wt.x.field.degree, wb.x.field.degree))
            xt, xb = ops.embed(wt.x, lvl), ops.embed(wb.x, lvl)
            shift = ops.mul(ops.inv(xb), xt)
            assert ops.frobenius(shift, q, 1) == shift, "shift is not rational"
            imgs = []
            for x in (xt, xb):
                img = ops.mul(ops.inv(ops.frobenius(x, q, 1)), x)
                imgs.append(int(table.class_of[view.index_of(ops.section(img, view.field))]))
            assert imgs[0] == imgs[1] == res.perm[int(table.class_of[i])]
            checked += 1
    assert checked == 9 + 8
    print(f"\nACCEPTANCE 4: PASS - solver/oracle witnesses agree up to G^F on {checked} elements")


def test_criterion_5_class_structure_oracles():
    """ul(3)(F_2): 5 classes [1,1,2,2,2]; ul(3)(F_3): 11 classes, 3
    singletons and 8 of size 3; n2(F_3): abelian, 9 singletons;
    orbit-stabilizer holds for every element."""
    _, _, v1, t1, _ = get_run("ul", 2, 3, 2, 1)
    assert sorted(t1.sizes) == [1, 1, 2, 2, 2]
    _, _, v2, t2, _ = get_run("ul", 3, 3, 3, 1)
    assert len(t2) == 11 and sorted(t2.sizes) == [1, 1, 1] + [3] * 8
    law, tower, v3, t3, _ = get_run("n2", 3, None, 3, 1)
    ops = v3.ops
    pts = [v3.point(i) for i in range(len(v3))]
    for a in pts:
        for b in pts:
            assert ops.mul(a, b) == ops.mul(b, a)
    assert t3.sizes == [1] * 9
    pairs = 0
    for view, table in ((v1, t1), (v2, t2), (v3, t3)):
        for i in range(view.order):
            ci = int(table.class_of[i])
            assert centralizer(view, view.point(i)).size * table.sizes[ci] == view.order
            pairs += 1
    print(f"\nACCEPTANCE 5: PASS - class structure exact, orbit-stabilizer on {pairs} elements")


def test_criterion_6_centralizer_growth():
    """n2, q=3, g=(1,0): counts 3^{N+1} for N=1..3, dimension 1,
    component estimate 3; identity elements: counts (q^{mN})^d."""
    tower = FieldTower(3)
    law = builtin("n2", 3)
    view = enumerate_group(law, tower, 3, 1)
    g = view.point(3)  # (1, 0)
    assert _coords(g) == (1, 0)
    [growth] = centralizer_counts(law, tower, [g], 3, 1, range(1, 4))
    assert growth.counts == [(1, 9), (2, 27), (3, 81)]
    assert growth.dimension == 1 and growth.components == 3 and growth.stable

    for family, p, param, q, d in (("ul", 2, 3, 2, 3), ("ga_power", 3, 2, 3, 2)):
        t = FieldTower(p)
        lw = builtin(family, p, param)
        vw = enumerate_group(lw, t, q, 1)
        [e_growth] = centralizer_counts(lw, t, [vw.point(0)], q, 1, range(1, 4))
        assert e_growth.counts == [(N, (q**N) ** d) for N in range(1, 4)]
        assert e_growth.dimension == d and e_growth.components == 1 and e_growth.stable
    print("\nACCEPTANCE 6: PASS - centralizer growth exact (9/27/81; identity full-dimensional)")


def test_criterion_7_substrate_properties():
    """Field axioms exhaustive for |F| <= 81; embedding triangles through
    the (2,3,6)-degree chains over F_2 and F_3; every Artin-Schreier
    output re-verifies; Frobenius^m fixes F_{q^m} pointwise."""
    # axioms on every field with at most 81 elements (all p <= 7)
    fields = [(2, k) for k in range(1, 7)] + [(3, k) for k in range(1, 5)]
    fields += [(5, 1), (5, 2), (7, 1), (7, 2)]
    for p, k in fields:
        tower = FieldTower(p)
        fid = tower.make_field(k)
        q = p**k
        digs = tower.codes_to_digits(fid, np.arange(q, dtype=np.int64))
        add = tower.digits_to_codes(fid, tower.vadd(digs[:, None, :], digs[None, :, :]))
        mul = tower.digits_to_codes(fid, tower.vmul(fid, digs[:, None, :], digs[None, :, :]))
        i = np.arange(q)
        assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
        assert np.array_equal(add[add[:, :, None], i[None, None, :]],
                              add[i[:, None, None], add[None, :, :]])
        assert np.array_equal(mul[mul[:, :, None], i[None, None, :]],
                              mul[i[:, None, None], mul[None, :, :]])
        assert np.array_equal(mul[i[:, None, None], add[None, :, :]],
                              add[mul[:, :, None], mul[:, None, :]])
        assert np.array_equal(add[0], i) and np.array_equal(mul[1], i)
        for a in range(q):
            assert 0 in add[a] and (a == 0 or 1 in mul[a])

    # embedding compatibility through degrees {1, 2, 3, 6}
    for p in (2, 3):
        tower = FieldTower(p)
        f1, f6 = tower.make_field(1), tower.make_field(6)
        for a in (2, 3):
            fa = tower.make_field(a)
            for x in tower.elements(f1):
                assert tower.embed(tower.embed(x, fa), f6) == tower.embed(x, f6)
            for x in tower.elements(fa):
                for y in tower.elements(fa):
                    assert tower.embed(tower.mul(x, y), f6) == tower.mul(
                        tower.embed(x, f6), tower.embed(y, f6)
                    )
                    assert tower.embed(tower.add(x, y), f6) == tower.add(
                        tower.embed(x, f6), tower.embed(y, f6)
                    )

    # Artin-Schreier outputs t^{p^e} - t = c re-verify, for c in F_{p^e}
    solves = 0
    for p, e, cdeg in ((2, 1, 1), (2, 2, 2), (3, 1, 1), (3, 2, 2)):
        tower = FieldTower(p)
        base = tower.make_field(cdeg)
        for code in range(base.order):
            c = tower.element_from_code(base, code)
            t = tower.artin_schreier_solve(c, e)
            big = t.field
            cc = tower.embed(c, big)
            assert tower.sub(tower.frobenius(t, p**e), t) == cc
            solves += 1

    # Frobenius^m fixes F_{q^m} pointwise
    for p, qq, m in ((2, 2, 3), (3, 3, 2), (2, 4, 1)):
        tower = FieldTower(p)
        n = 1 if qq == p else 2
        fid = tower.make_field(n * m)
        for x in tower.elements(fid):
            y = x
            for _ in range(m):
                y = tower.frobenius(y, qq)
            assert y == x
    print(f"\nACCEPTANCE 7: PASS - substrate exact ({len(fields)} fields, {solves} AS solves re-verified)")


def test_criterion_8_determinism(tmp_path):
    """Identical configs give byte-identical reports; cache round trips
    reproduce the canonical ordering exactly."""
    runner = CliRunner()
    cache = tmp_path / "cache"
    blobs = []
    for name in ("r1.json", "r2.json", "r3.json"):
        out = tmp_path / name
        args = ["asai", "--group", "ul(3)", "--q", "3", "--m", "1", "--out", str(out)]
        if name != "r3.json":
            args += ["--cache", str(cache)]  # cold, then warm
        res = runner.invoke(cli_main, args, catch_exceptions=False)
        assert res.exit_code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]

    tower = FieldTower(3)
    law = builtin("ul", 3, 3)
    table = conjugacy_classes(enumerate_group(law, tower, 3, 1))
    path = class_table_path(tmp_path, law, 3, 1)
    save_class_table(path, table)
    loaded = load_class_table(path, law, FieldTower(3), 3, 1)
    assert loaded is not None
    assert list(loaded.class_of) == list(table.class_of)
    assert [int(r) for r in loaded.reps] == [int(r) for r in table.reps]
    assert [m.tolist() for m in loaded.members] == [m.tolist() for m in table.members]
    print("\nACCEPTANCE 8: PASS - byte-identical reports, canonical cache round trip")
