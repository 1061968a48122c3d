"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest perfbench/test_perfbench.py -q

The traced-pass tests run every workload several times, so the file
takes about a minute on a 2-core machine.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import checks
import run
import tracer
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))


@pytest.mark.parametrize(
    "group,q,m", [("n2", 3, 2), ("n2", 5, 1), ("ul(3)", 2, 2), ("ul(3)", 3, 2), ("ga_power(2)", 3, 2)]
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_variant_is_isomorphic_to_its_builtin(group, q, m, seed):
    from asaitwist.fields import FieldTower
    from asaitwist.grouplaw import parse_group_dsl, parse_group_name, validate_law
    from asaitwist.points import _commutative_as_polynomials, conjugacy_classes, enumerate_group
    from lawgen import variant_text

    p = run.smallest_prime_factor(q)
    law = parse_group_dsl(variant_text(group, p, seed, "variant"))
    base = parse_group_name(group, p)
    assert law.mul != base.mul
    assert validate_law(law, FieldTower(p), q).passed
    sizes = conjugacy_classes(enumerate_group(law, FieldTower(p), q, m)).sizes
    base_sizes = conjugacy_classes(enumerate_group(base, FieldTower(p), q, m)).sizes
    assert sorted(sizes) == sorted(base_sizes)
    assert _commutative_as_polynomials(law) == _commutative_as_polynomials(base)


def test_variant_depends_on_seed_only():
    from lawgen import variant_text

    assert variant_text("ul(3)", 3, 7, "v") == variant_text("ul(3)", 3, 7, "v")
    assert len({variant_text("ul(3)", 3, s, "v") for s in range(6)}) > 1


def test_checks_reject_a_wrong_report(tmp_path):
    mods, _ = run._import_fresh()
    state = run.State(mods, None, tmp_path)
    job = next(j for j in WORKLOADS["nonabelian_classes"].jobs if j.key == "asai n2 q=5 m=2 cache=cold").reference
    expected = json.loads((run.HERE / "expected.json").read_text())
    o = run.run_job(state, job, tmp_path / "r.json", None)
    report = run.read_report(o)
    assert o.code == 0 and checks.check(job, 5, expected, report) == []
    perm = report["norm_perm"]
    moved = next(c for c in range(len(perm)) if perm[c] != c)
    report["fixed"][moved] = True
    assert checks.check(job, 5, expected, report)
    report["fixed"][moved] = False
    report["classes"][0]["size"] += 1
    assert checks.check(job, 5, expected, report)


def test_benchmark_json_names_every_metric():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    layer = {name: unit for name, (_, unit) in tracer.LAYER_METRICS.items()}
    layer.update(run.DERIVED_LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layer


def _traced_pass(state, workload, expected):
    tr = tracer.Tracer()
    tracer.instrument(tr, state.mods, state.script)
    try:
        result = run.run_pass(state, workload, expected, tracer=tr)
    finally:
        tr.restore()
    assert not result.failures
    return result, tr


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_and_match_the_structure(name, tmp_path):
    workload = WORKLOADS[name]
    expected = json.loads((run.HERE / "expected.json").read_text())
    state = run.set_up(workload, 11, tmp_path)
    _, tr1 = _traced_pass(state, workload, expected)
    _, tr2 = _traced_pass(state, workload, expected)
    counts = [
        {k: v for k, v in tr.metrics().items() if tracer.LAYER_METRICS[k][1] != "s"}
        for tr in (tr1, tr2)
    ]
    assert counts[0] == counts[1]
    c = counts[0]
    for tr in (tr1, tr2):
        gaps = tr.self_time_gaps()
        assert len(gaps) == len(workload.jobs)
        assert max(abs(g) for g in gaps.values()) < 1e-6
    cached = [j.cache for j in workload.jobs]
    assert c["cache.hits"] == cached.count("warm")
    assert c["cache.misses"] == cached.count("cold")
    if name == "abelian_lang":
        assert c["points.conjugation_passes"] == 0
        asai_classes = sum(
            n
            for j in workload.jobs if j.command == "asai"
            for _, _, n in expected[j.reference.key]["profile"]
        )
        assert c["points.sizes_calls"] >= 3 * asai_classes
    else:
        assert c["points.conjugation_passes"] > 0


def test_warm_jobs_make_no_conjugation_pass(tmp_path):
    workload = WORKLOADS["nonabelian_classes"]
    expected = json.loads((run.HERE / "expected.json").read_text())
    state = run.set_up(workload, 11, tmp_path)
    _, tr = _traced_pass(state, workload, expected)
    warm = {i for i, j in enumerate(workload.jobs) if j.cache == "warm"}
    spans = [s for s in tr.spans if s["job"] in warm]
    assert spans and not [s for s in spans if s["name"] == "points.conjugation_pass"]
    assert len([s for s in spans if s["name"] == "cache.load"]) == len(warm)


def test_spans_are_written_as_jsonl(tmp_path):
    tr = tracer.Tracer()
    tr.run_job(0, lambda: tr.span("inner", lambda: None)())
    tr.write_jsonl(tmp_path / "t.jsonl")
    rows = [json.loads(line) for line in Path(tmp_path / "t.jsonl").read_text().splitlines()]
    assert [r["name"] for r in rows] == ["inner", tracer.ROOT_SPAN]
    assert rows[0]["parent"] == rows[1]["id"] and rows[1]["parent"] is None
    assert all({"start", "end", "job", "self"} <= r.keys() for r in rows)
