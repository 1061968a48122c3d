import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from asaitwist.asai import norm_map
from asaitwist.cache import class_table_path, load_class_table, save_class_table
from asaitwist.errors import CapExceeded, ParameterError
from asaitwist.fields import FieldTower
from asaitwist import grouplaw as grouplaw_module
from asaitwist import points as points_module
from asaitwist.grouplaw import (
    all_tuples,
    builtin,
    eval_inv,
    eval_mul,
    parse_group_dsl,
    parse_group_name,
    validate_law,
)
from asaitwist.points import (
    FiniteGroupView,
    Point,
    centralizer,
    centralizer_counts,
    conjugacy_classes,
    enumerate_group,
)
from random_laws import BUILTINS, random_dsl_law

# axis 3 is central although axis 4 follows it: no cocycle involves x3
MID_CENTRAL = """group mid_central dim 4 char {p}
mul[1] = x1 + y1
mul[2] = x2 + y2
mul[3] = x3 + y3 + x1 * y2
mul[4] = x4 + y4 + x1 * y1
"""

# commutative, but its cocycle x1 * y1 is not zero
COMMUTATIVE_COCYCLE = """group comm_cocycle dim 2 char 2
mul[1] = x1 + y1
mul[2] = x2 + y2 + x1 * y1
"""

# COMMUTATIVE_COCYCLE times n2 at p = 2: axis 1 is central although the
# cocycle of coordinate 2 involves it
PRODUCT = """group product dim 4 char 2
mul[1] = x1 + y1
mul[2] = x2 + y2 + x1 * y1
mul[3] = x3 + y3
mul[4] = x4 + y4 + x3 * y3^2
"""


def seed_orbit_classes(view):
    """Oracle: one whole-group conjugation pass per class, seeded at the
    least ordinal not yet classified."""
    class_of = np.full(view.order, -1, dtype=np.int64)
    reps, members = [], []
    for seed in range(view.order):
        if class_of[seed] >= 0:
            continue
        orbit = np.unique(view.conjugates_combined(seed))
        class_of[orbit] = len(reps)
        reps.append(seed)
        members.append(orbit)
    return np.array(reps, dtype=np.int64), members, class_of


def scan_conjugators(view, g):
    """Oracle: one whole-group conjugation pass gives the least h with
    h^{-1} g h = t for every t (-1 where there is none) and Z(g)."""
    conj = view.conjugates_combined(g)
    least = np.full(view.order, -1, dtype=np.int64)
    targets, first = np.unique(conj, return_index=True)
    least[targets] = first
    return least, np.nonzero(conj == g)[0]


def assert_search_matches_scan(view):
    """find_conjugators on every (g, t) pair in one batch, centralizer on
    every g, and find_conjugator on g's last conjugate and on the
    identity, all against the scan."""
    n = view.order
    g, t = np.divmod(np.arange(n * n), n)
    found = view.find_conjugators(g, t).reshape(n, n)
    for gi in range(n):
        least, cent = scan_conjugators(view, gi)
        assert found[gi].tolist() == least.tolist()
        assert centralizer(view, view.point(gi)).tolist() == cent.tolist()
        last = int(np.nonzero(least >= 0)[0][-1])
        for ti in (last, 0):
            expected = int(least[ti]) if least[ti] >= 0 else None
            assert view.find_conjugator(gi, ti) == expected


def assert_classes_match_oracle(view):
    table = conjugacy_classes(view)
    reps, members, class_of = seed_orbit_classes(view)
    assert table.reps.tolist() == reps.tolist()
    assert [m.tolist() for m in table.members] == [m.tolist() for m in members]
    assert table.class_of.tolist() == class_of.tolist()


def assert_csr_matches_oracle(table):
    """reps, class_of, sizes and members against the grouping of the
    seed-orbit oracle's class map by np.argsort/np.split (CSR form), for
    the table itself and for it written to a cold cache and loaded warm."""
    view = table.view
    _, _, class_of = seed_orbit_classes(view)
    sizes = np.bincount(class_of)
    members = np.split(np.argsort(class_of, kind="stable"), np.cumsum(sizes)[:-1])
    with tempfile.TemporaryDirectory() as cache_dir:
        path = class_table_path(cache_dir, view.law, view.q, view.m)
        save_class_table(path, table)
        loaded = load_class_table(path, view.law, view.tower, view.q, view.m)
    for t in (table, loaded):
        assert t.reps.tolist() == [int(m[0]) for m in members]
        assert t.class_of.tolist() == class_of.tolist()
        assert t.sizes == sizes.tolist()
        assert [m.tolist() for m in t.members] == [m.tolist() for m in members]
        assert len(t) == len(members)


def axis_closure_size(view) -> int:
    """Size of the subgroup the axis generators generate, by breadth-first
    right multiplication from the identity."""
    law, tower, fid = view.law, view.tower, view.field
    elems = all_tuples(tower, fid, law.dim)
    gens = view.digits(view.axis_generators())
    steps = [view.ordinals(eval_mul(law, tower, fid, elems, s[None])) for s in gens]
    reached = np.zeros(view.order, dtype=bool)
    reached[0] = True
    frontier = np.array([0])
    while frontier.size:
        nxt = np.unique(np.concatenate([step[frontier] for step in steps]))
        frontier = nxt[~reached[nxt]]
        reached[frontier] = True
    return int(reached.sum())


@pytest.fixture(scope="module")
def ul3_f2():
    tower = FieldTower(2)
    law = builtin("ul", 2, 3)
    view = enumerate_group(law, tower, 2, 1)
    return law, tower, view, conjugacy_classes(view)


@pytest.fixture(scope="module")
def n2_f3():
    tower = FieldTower(3)
    law = builtin("n2", 3)
    view = enumerate_group(law, tower, 3, 1)
    return law, tower, view, conjugacy_classes(view)


def test_enumerate_sizes():
    t3 = FieldTower(3)
    ga1 = builtin("ga_power", 3, 1)
    assert enumerate_group(ga1, t3, 3, 1).order == 3
    t2 = FieldTower(2)
    assert enumerate_group(builtin("ul", 2, 3), t2, 2, 1).order == 8
    assert enumerate_group(builtin("n2", 3), t3, 3, 1).order == 9


def test_enumerate_identity_first_and_closure(ul3_f2):
    law, tower, view, _ = ul3_f2
    assert view.point(0).is_identity()
    ops = view.ops
    pts = [view.point(i) for i in range(len(view))]
    seen = {view.index_of(p) for p in pts}
    assert seen == set(range(8))
    for a in pts:
        for b in pts:
            assert view.index_of(ops.mul(a, b)) in seen
        assert view.index_of(ops.inv(a)) in seen


def test_enumerate_cap():
    t2 = FieldTower(2)
    with pytest.raises(CapExceeded):
        enumerate_group(builtin("ul", 2, 3), t2, 2, 8, max_order=1000)


def test_ul3_f2_noncommutative_pair(ul3_f2):
    law, tower, view, _ = ul3_f2
    ops = view.ops
    pts = [view.point(i) for i in range(len(view))]
    pairs = [(a, b) for a in pts for b in pts if ops.mul(a, b) != ops.mul(b, a)]
    assert pairs


def test_n2_f3_abelian_exhaustive(n2_f3):
    law, tower, view, table = n2_f3
    ops = view.ops
    pts = [view.point(i) for i in range(len(view))]
    for a in pts:
        for b in pts:
            assert ops.mul(a, b) == ops.mul(b, a)
    assert len(table) == 9 and table.sizes == [1] * 9


def test_class_examples(ul3_f2):
    t3 = FieldTower(3)
    ga1 = builtin("ga_power", 3, 1)
    t = conjugacy_classes(enumerate_group(ga1, t3, 3, 1))
    assert len(t) == 3 and t.sizes == [1, 1, 1]

    _, _, _, table = ul3_f2
    assert sorted(table.sizes) == [1, 1, 2, 2, 2]

    ul3 = builtin("ul", 3, 3)
    t33 = conjugacy_classes(enumerate_group(ul3, t3, 3, 1))
    assert len(t33) == 11
    assert sorted(t33.sizes) == [1, 1, 1] + [3] * 8


def test_class_invariants(ul3_f2):
    _, _, view, table = ul3_f2
    assert sum(table.sizes) == view.order
    for s in table.sizes:
        assert view.order % s == 0
    assert table.class_of[0] == 0 and table.sizes[0] == 1  # identity singleton
    # representatives are least members, classes ordered by least member
    for ci, members in enumerate(table.members):
        assert table.reps[ci] == members[0] == min(members)
    assert [int(r) for r in table.reps] == sorted(int(r) for r in table.reps)


def test_conjugation_preserves_partition(ul3_f2):
    _, _, view, table = ul3_f2
    ops = view.ops
    for h in (view.point(i) for i in range(len(view))):
        for ci, members in enumerate(table.members):
            image = {view.index_of(ops.conj(h, view.point(int(i)))) for i in members}
            assert image == set(int(i) for i in members)


def test_centralizer_identity_is_whole_group(n2_f3):
    _, _, view, _ = n2_f3
    assert centralizer(view, view.point(0)).size == view.order


def test_centralizer_of_central_ul3_element(ul3_f2):
    law, tower, view, table = ul3_f2
    # the central element has only the far-corner entry set: coordinate 3
    z = view.point(view.index_of(view.point(1)))  # ordinal 1 = (0,0,1)
    assert [c.coeffs[0] for c in z.coords] == [0, 0, 1]
    assert centralizer(view, z).size == 8


def test_n2_centralizer_formula_across_levels():
    """Z((1,0)) at level F_{3^N} is {(c,d) : c in F_3, d in F_{3^N}}."""
    tower = FieldTower(3)
    law = builtin("n2", 3)
    base_view = enumerate_group(law, tower, 3, 1)
    g = base_view.point(base_view.index_of(base_view.point(3)))  # (1, 0)
    assert [c.coeffs[0] for c in g.coords] == [1, 0]
    for N in (1, 2):
        view = enumerate_group(law, tower, 3, N)
        ge = view.ops.embed(g, view.field)
        cent = set(centralizer(view, ge).tolist())
        expected = set()
        for i in range(view.order):
            h = view.point(i)
            first = h.coords[0]
            if tower.frobenius(first, 3) == first:  # c in F_3
                expected.add(i)
        assert cent == expected
        assert len(cent) == 3 ** (N + 1)


def test_orbit_stabilizer_everywhere(ul3_f2, n2_f3):
    for (_, _, view, table) in (ul3_f2, n2_f3):
        for i in range(view.order):
            ci = int(table.class_of[i])
            cent = centralizer(view, view.point(i))
            assert cent.size * table.sizes[ci] == view.order


def test_centralizer_counts_n2():
    tower = FieldTower(3)
    law = builtin("n2", 3)
    view = enumerate_group(law, tower, 3, 1)
    g = view.point(3)  # combined code 3 -> coords (1, 0)
    [growth] = centralizer_counts(law, tower, [g], 3, 1, range(1, 4))
    assert growth.counts == [(1, 9), (2, 27), (3, 81)]
    assert growth.dimension == 1 and growth.components == 3 and growth.stable


def test_centralizer_counts_identity_and_ga():
    t2 = FieldTower(2)
    ul3 = builtin("ul", 2, 3)
    view = enumerate_group(ul3, t2, 2, 1)
    [growth] = centralizer_counts(ul3, t2, [view.point(0)], 2, 1, range(1, 4))
    assert growth.counts == [(1, 8), (2, 64), (3, 512)]
    assert growth.dimension == 3 and growth.components == 1 and growth.stable

    ga2 = builtin("ga_power", 2, 2)
    gview = enumerate_group(ga2, t2, 2, 1)
    g = gview.point(3)
    [growth] = centralizer_counts(ga2, t2, [g], 2, 1, range(1, 4))
    assert growth.counts == [(1, 4), (2, 16), (3, 64)]
    assert growth.dimension == 2 and growth.components == 1 and growth.stable


def test_counts_nondecreasing_and_divisible():
    tower = FieldTower(3)
    law = builtin("n2", 3)
    view = enumerate_group(law, tower, 3, 1)
    pts = [view.point(i) for i in range(len(view))]
    for growth in centralizer_counts(law, tower, pts, 3, 1, range(1, 3)):
        counts = [c for _, c in growth.counts]
        assert counts == sorted(counts)
        assert counts[1] % counts[0] == 0


def test_centralizer_counts_enumerates_each_level_once(monkeypatch):
    """One view per level serves every point: the growth table of n2 over
    F_3 at 4 levels enumerates 4 groups, not 4 per class."""
    tower = FieldTower(3)
    law = builtin("n2", 3)
    table = conjugacy_classes(enumerate_group(law, tower, 3, 1))
    reps = [table.rep_point(ci) for ci in range(len(table))]
    singles = [centralizer_counts(law, tower, [g], 3, 1, range(1, 5))[0] for g in reps]

    levels = []

    def counting(law, tower, q, m, **kw):
        levels.append(m)
        return enumerate_group(law, tower, q, m, **kw)

    monkeypatch.setattr(points_module, "enumerate_group", counting)
    growths = centralizer_counts(law, tower, reps, 3, 1, range(1, 5))
    assert levels == [1, 2, 3, 4]
    assert len(reps) == 9 and growths == singles


def test_point_index_round_trip(n2_f3):
    _, _, view, _ = n2_f3
    for i in range(view.order):
        assert view.index_of(view.point(i)) == i


def test_centralizer_wrong_level(n2_f3):
    law, tower, view, _ = n2_f3
    other = enumerate_group(law, tower, 3, 2)
    with pytest.raises(ParameterError):
        centralizer(view, other.point(1))


def test_index_of_rejects_a_point_of_the_wrong_dimension(n2_f3):
    """A point with one coordinate too many or too few is not an element
    of the view: it must not be truncated to g, nor fail inside numpy."""
    _, _, view, _ = n2_f3
    g = view.point(5)
    for pt in (Point(g.coords + g.coords[:1]), Point(g.coords[:1])):
        with pytest.raises(ParameterError):
            view.index_of(pt)
        with pytest.raises(ParameterError):
            centralizer(view, pt)


def assert_ordinal_rule(view):
    """digits() and ordinals() invert each other on every ordinal, digits()
    of the whole range is all_tuples and is mixed-radix in the codes with
    coordinate 1 most significant, and the axis generators are the
    points t^j*e_i, coordinate i major."""
    tower, fid, dim = view.tower, view.field, view.law.dim
    every = np.arange(view.order)
    digits = view.digits(every)
    assert digits.shape == (view.order, dim, fid.degree)
    assert view.ordinals(digits).tolist() == every.tolist()
    assert np.array_equal(digits, all_tuples(tower, fid, dim))
    place = view.level_order ** np.arange(dim - 1, -1, -1)
    assert (tower.digits_to_codes(fid, digits) @ place).tolist() == every.tolist()
    axes = np.eye(dim * fid.degree, dtype=np.int64).reshape(-1, dim, fid.degree)
    assert np.array_equal(view.digits(view.axis_generators()), axes)


@settings(max_examples=25, deadline=None)
@given(random_dsl_law(groups=BUILTINS + ["ga_power(4)"], primes=(2, 3, 5)))
def test_ordinal_rule_on_random_laws(case):
    law, q, _ = case
    assert_ordinal_rule(enumerate_group(law, FieldTower(law.p), q, 2))


@pytest.mark.parametrize(
    "group,q,m", [("ul(3)", 2, 2), ("ul(4)", 2, 2), ("n2", 4, 1), ("ga_power(2)", 3, 2)]
)
def test_ordinal_rule_on_builtins(group, q, m):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    assert_ordinal_rule(enumerate_group(parse_group_name(group, p), FieldTower(p), q, m))


def test_conjugation_kernels_match_scalar_oracle():
    """The lookup-table kernel and the prefix filter on ul(3), n2, the
    commutative ga_power(1) and ga_power(2), and a commutative law with a
    nonzero cocycle, against scalar LawOps brute force over every point:
    conjugates, least conjugators (one by one and batched against the
    scan), centralizers, class members, and centralizer counts one level
    up."""
    laws = [builtin("ul", 2, 3), builtin("n2", 3), builtin("ga_power", 2, 2)]
    laws += [builtin("ga_power", 2, 1), parse_group_dsl(COMMUTATIVE_COCYCLE)]
    for law in laws:
        p = law.p
        tower = FieldTower(p)
        view = enumerate_group(law, tower, p, 2)
        table = conjugacy_classes(view)
        ops = view.ops
        pts = [view.point(i) for i in range(len(view))]
        n = view.order
        mul = [[view.index_of(ops.mul(a, b)) for b in pts] for a in pts]
        inv = [view.index_of(ops.inv(a)) for a in pts]
        g_all, t_all = np.divmod(np.arange(n * n), n)
        found = view.find_conjugators(g_all, t_all).reshape(n, n)
        for g in range(n):
            conj = [mul[inv[h]][mul[g][h]] for h in range(n)]
            assert view.conjugates_combined(g).tolist() == conj
            assert found[g].tolist() == scan_conjugators(view, g)[0].tolist()
            assert set(conj) == set(table.members[table.class_of[g]].tolist())
            for t in range(n):
                least = conj.index(t) if t in conj else None
                assert view.find_conjugator(g, t) == least
            cent = [h for h in range(n) if mul[g][h] == mul[h][g]]
            assert centralizer(view, pts[g]).tolist() == cent

        base_view = enumerate_group(law, tower, p, 1)
        base = [base_view.point(i) for i in range(len(base_view))]
        growths = centralizer_counts(law, tower, base, p, 1, range(2, 3))
        for g, growth in zip(base, growths, strict=True):
            ge = view.index_of(ops.embed(g, view.field))
            brute = sum(mul[ge][h] == mul[h][ge] for h in range(n))
            assert growth.counts == [(2, brute)]


@pytest.mark.parametrize(
    "group,q,m",
    [
        ("ul(3)", 2, 3),
        ("ul(3)", 3, 2),
        ("ul(4)", 2, 2),
        ("n2", 3, 2),
        ("n2", 4, 2),
        ("n2", 5, 2),
        ("n2", 9, 1),
        ("ga_power(2)", 2, 3),
    ],
)
def test_orbit_classes_match_seed_orbit_oracle(group, q, m):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    view = enumerate_group(parse_group_name(group, p), FieldTower(p), q, m)
    assert_classes_match_oracle(view)


@settings(max_examples=25, deadline=None)
@given(random_dsl_law(groups=BUILTINS + ["ga_power(4)"], primes=(2, 3, 5)))
def test_axis_generators_generate_and_orbits_are_classes(case):
    law, q, m = case
    view = enumerate_group(law, FieldTower(law.p), q, m)
    assert len(view.axis_generators()) == law.dim * view.field.degree
    assert axis_closure_size(view) == view.order
    assert_classes_match_oracle(view)


@settings(max_examples=25, deadline=None)
@given(random_dsl_law(groups=BUILTINS + ["ga_power(4)"], primes=(2, 3, 5)))
def test_prefix_filter_matches_scan_on_random_laws(case):
    law, q, m = case
    assert_search_matches_scan(enumerate_group(law, FieldTower(law.p), q, m))


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (5, 1)])
def test_mid_central_law_matches_oracles(p, m):
    """A central axis followed by a noncentral one: the class pass skips
    axes 3 and 4, and the prefix filter still checks coordinate 4."""
    law = parse_group_dsl(MID_CENTRAL.format(p=p))
    view = enumerate_group(law, FieldTower(p), p, m)
    assert points_module._central_axes(law).tolist() == [False, False, True, True]
    assert_classes_match_oracle(view)
    assert_search_matches_scan(view)


def assert_conj_matches_digit_path(law, q, m):
    """law.conj on digit arrays equals eval_mul(eval_inv(h), eval_mul(g, h))
    for every pair (g, h) at one level, and conjugation_by each axis
    generator gives the ordinals of that composition."""
    tower = FieldTower(law.p)
    view = enumerate_group(law, tower, q, m)
    fid = view.field
    elems = view.digits(np.arange(view.order))
    g, h = elems[:, None], elems[None, :]
    path = eval_mul(law, tower, fid, eval_inv(law, tower, fid, h), eval_mul(law, tower, fid, g, h))
    conj = np.stack([poly.evaluate(tower, fid, g, h) for poly in law.conj], axis=-2)
    assert np.array_equal(conj, path)
    for s in view.axis_generators():
        assert view.conjugation_by(s).tolist() == view.ordinals(path[:, s]).tolist()


@settings(max_examples=25, deadline=None)
@given(random_dsl_law(groups=BUILTINS + ["ga_power(4)"], primes=(2, 3, 5)))
def test_conj_matches_digit_path_on_random_laws(case):
    assert_conj_matches_digit_path(*case)


def test_conj_matches_digit_path_on_builtin_and_dsl_laws():
    cases = [(parse_group_name(g, p), q, m) for g, p, q, m in (
        ("n2", 3, 3, 2), ("n2", 5, 5, 1), ("ul(3)", 2, 2, 2), ("ul(4)", 2, 2, 1),
        ("ga_power(2)", 3, 3, 1),
    )]
    cases += [(parse_group_dsl(text), 2, 2) for text in (COMMUTATIVE_COCYCLE, PRODUCT)]
    cases += [(parse_group_dsl(MID_CENTRAL.format(p=3)), 3, 1)]
    for law, q, m in cases:
        assert_conj_matches_digit_path(law, q, m)


@pytest.mark.parametrize(
    "group,q,m",
    [("ga_power(2)", 3, 1), ("ga_power(3)", 2, 2), ("n2", 3, 2), ("ul(3)", 2, 2), ("ul(4)", 2, 1)],
)
def test_csr_table_matches_per_class_oracle(group, q, m):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    view = enumerate_group(parse_group_name(group, p), FieldTower(p), q, m)
    assert_csr_matches_oracle(conjugacy_classes(view))


@settings(max_examples=10, deadline=None)
@given(random_dsl_law(groups=BUILTINS, primes=(2, 3)))
def test_csr_table_matches_per_class_oracle_on_random_laws(case):
    law, q, m = case
    assert_csr_matches_oracle(conjugacy_classes(enumerate_group(law, FieldTower(law.p), q, m)))


def test_commutative_table_holds_no_per_class_arrays(tmp_path):
    """A table, computed or loaded, is its class map and representatives:
    nothing per class, and one int32 label per element."""
    view = enumerate_group(parse_group_name("ga_power(2)", 2), FieldTower(2), 2, 3)
    table = conjugacy_classes(view)
    path = save_class_table(class_table_path(tmp_path, view.law, 2, 3), table)
    loaded = load_class_table(path, view.law, view.tower, 2, 3)
    n = view.order
    for t in (table, loaded):
        assert set(vars(t)) == {"view", "reps", "class_of"}
        assert t.class_of.dtype == np.int32
        assert t.reps.tolist() == t.class_of.tolist() == list(range(n))


def test_commutative_views_build_no_code_tables():
    """A view fills its lookup tables on first read, and nothing in a
    commutative law's norm map reads them; nor, in dimension 1, does the
    prefix filter."""
    assert validate_law(parse_group_dsl(COMMUTATIVE_COCYCLE), FieldTower(2), 2).passed
    laws = [parse_group_name(g, 2) for g in ("ga_power(1)", "ga_power(2)")]
    for law in laws + [parse_group_dsl(COMMUTATIVE_COCYCLE)]:
        view = enumerate_group(law, FieldTower(2), 2, 2)
        assert not norm_map(conjugacy_classes(view)).witness_errors
        assert "tables" not in vars(view)
    view = enumerate_group(laws[0], FieldTower(2), 2, 3)
    assert view.find_conjugator(5, 5) == 0
    assert view.find_conjugator(5, 6) is None
    assert centralizer(view, view.point(5)).tolist() == list(range(8))
    assert "tables" not in vars(view)
    view = enumerate_group(parse_group_name("ul(3)", 2), FieldTower(2), 2, 1)
    assert "tables" not in vars(view)
    conjugacy_classes(view)
    assert "tables" in vars(view)


def test_class_pass_makes_one_conjugation_pass_per_generator(monkeypatch):
    """(d - #central axes)*deg generator passes per noncommutative level,
    whatever the class count, and no per-class pass."""
    calls = {"by": 0, "combined": 0}
    by, combined = FiniteGroupView.conjugation_by, FiniteGroupView.conjugates_combined

    def counted_by(self, s):
        calls["by"] += 1
        return by(self, s)

    def counted_combined(self, g):
        calls["combined"] += 1
        return combined(self, g)

    monkeypatch.setattr(FiniteGroupView, "conjugation_by", counted_by)
    monkeypatch.setattr(FiniteGroupView, "conjugates_combined", counted_combined)
    tower = FieldTower(2)
    for law, m, n_classes, central in (
        (parse_group_name("ul(3)", 2), 1, 5, 1),
        (parse_group_name("ul(3)", 2), 3, 71, 1),
        (parse_group_name("ul(4)", 2), 2, 136, 1),
        (parse_group_dsl(MID_CENTRAL.format(p=2)), 2, 76, 2),
        (parse_group_dsl(PRODUCT), 2, 160, 3),
    ):
        view = enumerate_group(law, tower, 2, m)
        calls["by"] = calls["combined"] = 0
        assert len(conjugacy_classes(view)) == n_classes
        assert calls["by"] == (law.dim - central) * m
        assert calls["combined"] == 0
        assert_classes_match_oracle(view)
    assert validate_law(parse_group_dsl(PRODUCT), tower, 2).passed


def assert_central_axes_are_central(law, q, m):
    """Conjugation by each generator of an axis _central_axes marks is the
    identity, and every axis that no cocycle involves is marked."""
    view = enumerate_group(law, FieldTower(law.p), q, m)
    central = points_module._central_axes(law)
    gens = view.axis_generators().reshape(law.dim, view.field.degree)
    for s in gens[central].ravel():
        assert view.conjugation_by(s).tolist() == list(range(view.order))
    cocycles = grouplaw_module._check_triangular(law.p, law.dim, law.mul)
    involved = set().union(*(h.coordinate_indices() for h in cocycles))
    assert all(central[i] for i in range(law.dim) if i not in involved)


@settings(max_examples=25, deadline=None)
@given(random_dsl_law(groups=BUILTINS + ["ga_power(4)"], primes=(2, 3, 5)))
def test_central_axes_are_central_on_random_laws(case):
    assert_central_axes_are_central(*case)


def test_central_axes_are_central_on_builtin_and_dsl_laws():
    cases = [(parse_group_name(g, p), q, m) for g, p, q, m in (
        ("n2", 3, 3, 2), ("n2", 2, 4, 1), ("ul(3)", 2, 2, 2), ("ul(4)", 2, 2, 1),
        ("ga_power(1)", 2, 2, 2), ("ga_power(3)", 3, 3, 1),
    )]
    cases += [(parse_group_dsl(text), 2, 2) for text in (COMMUTATIVE_COCYCLE, PRODUCT)]
    cases += [(parse_group_dsl(MID_CENTRAL.format(p=3)), 3, 1)]
    for law, q, m in cases:
        assert_central_axes_are_central(law, q, m)
    assert points_module._central_axes(parse_group_dsl(PRODUCT)).tolist() == [
        True, True, False, True
    ]
    assert points_module._central_axes(parse_group_dsl(COMMUTATIVE_COCYCLE)).all()


def test_int32_guard_refuses_a_group_before_allocating():
    """Ordinals, codes and class-pass permutations are int32: a group of
    more than 2^31 - 1 elements is refused under a larger cap, before its
    field, codes or lookup tables exist."""
    law, tower = builtin("n2", 2), FieldTower(2)
    built = tower.stats["fields_built"]
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="int32"):
            enumerate_group(law, tower, 2, 16, max_order=2**33)  # order 2^32
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert tower.stats["fields_built"] == built


def changed_coordinates(view, s):
    """Oracle: the coordinates j with (s^{-1} g s)_j != g_j for some g, by
    the law's multiplication and inverse on digit arrays."""
    law, tower, fid = view.law, view.tower, view.field
    g = view.digits(np.arange(view.order))
    h = view.digits(np.array([s]))
    conj = eval_mul(law, tower, fid, eval_inv(law, tower, fid, h), eval_mul(law, tower, fid, g, h))
    return np.flatnonzero((conj != g).any(axis=(0, 2)))


def test_class_pass_evaluates_only_the_coordinates_a_generator_changes(monkeypatch):
    """conjugation_by an axis generator evaluates one coordinate per
    coordinate it changes, and an axis is central exactly when its
    generators change none."""
    calls = []
    evaluate = points_module._eval_poly_codes

    def counted(poly, tab, x, y):
        calls.append(poly)
        return evaluate(poly, tab, x, y)

    monkeypatch.setattr(points_module, "_eval_poly_codes", counted)
    cases = [(parse_group_name(g, p), q, m) for g, p, q, m in (
        ("n2", 3, 3, 2), ("n2", 2, 4, 1), ("ul(3)", 2, 2, 2), ("ul(4)", 2, 2, 1),
        ("ul(4)", 2, 2, 2), ("ga_power(1)", 2, 2, 2), ("ga_power(3)", 3, 3, 1),
    )]
    cases += [(parse_group_dsl(text), 2, 2) for text in (COMMUTATIVE_COCYCLE, PRODUCT)]
    cases += [(parse_group_dsl(MID_CENTRAL.format(p=p)), p, m) for p, m in ((3, 1), (2, 2))]
    for law, q, m in cases:
        view = enumerate_group(law, FieldTower(law.p), q, m)
        central = points_module._central_axes(law)
        gens = view.axis_generators().reshape(law.dim, view.field.degree)
        expected = 0
        for i, axis in enumerate(gens):
            for s in axis:
                changed = changed_coordinates(view, s)
                calls.clear()
                view.conjugation_by(s)
                assert len(calls) == changed.size
                assert central[i] == (changed.size == 0)
                expected += changed.size
        calls.clear()
        conjugacy_classes(view)
        assert len(calls) == expected
