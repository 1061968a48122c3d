import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from asaitwist import cache as cache_module
from asaitwist import fields
from asaitwist.cache import (
    class_table_path,
    load_class_table,
    save_class_table,
)
from asaitwist.cli import main
from asaitwist.fields import FieldTower
from asaitwist.grouplaw import builtin, canonical_text, parse_group_dsl
from asaitwist.points import FiniteGroupView, conjugacy_classes, enumerate_group

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GROWTH_SCRIPT = SCRIPTS / "centralizer_growth.py"
SURVEY_SCRIPT = SCRIPTS / "run_survey.py"

N2_TEXT = """group n2 dim 2 char 3
mul[1] = x1 + y1
mul[2] = x2 + y2 + x1 * y1^3
"""


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_validate_ok(runner):
    res = invoke(runner, ["validate", "--group", "ul(3)", "--q", "2"])
    assert res.exit_code == 0


def test_validate_syntax_error_exit_2(runner, tmp_path):
    bad = tmp_path / "bad.law"
    bad.write_text("group g dim 1 char 2\nmul[1] = x1 + @\n")
    res = invoke(runner, ["validate", "--dsl", str(bad), "--q", "2"])
    assert res.exit_code == 2


def test_validate_nontriangular_exit_3_names_coordinate(runner, tmp_path):
    bad = tmp_path / "nt.law"
    bad.write_text("group g dim 2 char 3\nmul[1] = x1 + y1 + x2*y2\nmul[2] = x2 + y2\n")
    res = invoke(runner, ["validate", "--dsl", str(bad), "--q", "3"])
    assert res.exit_code == 3
    assert "coordinate 1" in res.output


def test_validate_nonprime_char_exit_3(runner, tmp_path):
    bad = tmp_path / "c4.law"
    bad.write_text("group g dim 1 char 4\nmul[1] = x1 + y1\n")
    res = invoke(runner, ["validate", "--dsl", str(bad), "--q", "4"])
    assert res.exit_code == 3


def test_asai_report_n2(runner, tmp_path):
    out = tmp_path / "r.json"
    res = invoke(
        runner,
        ["asai", "--group", "n2", "--q", "3", "--m", "1", "--out", str(out)],
    )
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["order"] == 9 and len(doc["classes"]) == 9
    assert doc["verdict"]["trivial"] is False
    assert len(doc["verdict"]["moved_classes"]) == 6
    perm = doc["norm_perm"]
    assert sorted(perm) == list(range(9))
    assert sum(doc["fixed"]) == 3
    found = [w["found"] for w in doc["centralizer_witnesses"]]
    assert found == doc["fixed"]
    assert sum(c["size"] for c in doc["classes"]) == 9


def test_asai_identity_permutation_ul3(runner, tmp_path):
    out = tmp_path / "ul.json"
    res = invoke(
        runner, ["asai", "--group", "ul(3)", "--q", "2", "--m", "1", "--out", str(out)]
    )
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["norm_perm"] == list(range(5))
    assert doc["verdict"]["trivial"] is True


def test_asai_ga_power_m2(runner, tmp_path):
    out = tmp_path / "ga.json"
    res = invoke(
        runner,
        ["asai", "--group", "ga_power(2)", "--q", "2", "--m", "2", "--out", str(out)],
    )
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["norm_perm"] == list(range(16))


def test_asai_cap_exceeded_exit_4(runner, tmp_path):
    res = invoke(
        runner,
        ["asai", "--group", "n2", "--q", "3", "--m", "1", "--max-order", "4"],
    )
    assert res.exit_code == 4


def test_max_ext_does_not_cap_the_axiom_check_of_a_dsl_law(runner, tmp_path):
    """Validating a DSL law builds no field, so --max-ext 2 caps the
    job's fields only and the DSL run matches the built-in one."""
    law_file = tmp_path / "ga2.law"
    law_file.write_text(canonical_text(builtin("ga_power", 2, 2)))
    docs = []
    for law in (["--dsl", str(law_file)], ["--group", "ga_power(2)"]):
        out = tmp_path / "report.json"
        args = ["asai", *law, "--q", "2", "--m", "1", "--max-ext", "2", "--out", str(out)]
        res = invoke(runner, args)
        assert res.exit_code == 0, res.output
        docs.append(json.loads(out.read_text()))
    for key in ("classes", "norm_perm", "centralizer_witnesses"):
        assert docs[0][key] == docs[1][key]
    assert max(w["degree"] for w in docs[0]["centralizer_witnesses"]) == 2


def test_reports_byte_identical_and_cache(runner, tmp_path):
    cache = tmp_path / "cache"
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        res = invoke(
            runner,
            [
                "asai", "--group", "n2", "--q", "3", "--m", "1",
                "--out", str(out), "--cache", str(cache),
            ],
        )
        assert res.exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]  # cold vs warm cache
    # and a cache-free run agrees too
    out3 = tmp_path / "c.json"
    invoke(runner, ["asai", "--group", "n2", "--q", "3", "--m", "1", "--out", str(out3)])
    assert out3.read_bytes() == outs[0]


def test_cache_round_trip_identical_tables(tmp_path):
    tower = FieldTower(2)
    law = builtin("ul", 2, 3)
    view = enumerate_group(law, tower, 2, 1)
    table = conjugacy_classes(view)
    path = class_table_path(tmp_path, law, 2, 1)
    save_class_table(path, table)
    loaded = load_class_table(path, law, FieldTower(2), 2, 1)
    assert loaded is not None
    assert [int(r) for r in loaded.reps] == [int(r) for r in table.reps]
    assert loaded.sizes == table.sizes
    assert list(loaded.class_of) == list(table.class_of)
    assert [m.tolist() for m in loaded.members] == [m.tolist() for m in table.members]


def test_cache_rejects_corruption(tmp_path):
    tower = FieldTower(2)
    law = builtin("ul", 2, 3)
    table = conjugacy_classes(enumerate_group(law, tower, 2, 1))
    path = class_table_path(tmp_path, law, 2, 1)
    save_class_table(path, table)
    _flip_body_byte(path)
    warnings = []
    loaded = load_class_table(path, law, FieldTower(2), 2, 1, warn=warnings.append)
    assert loaded is None
    assert warnings == [f"cache {path.name}: checksum mismatch, ignoring"]


def test_cache_rejects_stale_schema(tmp_path):
    tower = FieldTower(2)
    law = builtin("ul", 2, 3)
    table = conjugacy_classes(enumerate_group(law, tower, 2, 1))
    path = class_table_path(tmp_path, law, 2, 1)
    for stale in ({"schema": 999}, {"kind": "report"}):
        save_class_table(path, table)
        _rewrite_cached(path, header=stale)
        warnings = []
        assert load_class_table(path, law, FieldTower(2), 2, 1, warn=warnings.append) is None
        assert warnings == [f"cache {path.name}: stale schema, ignoring"]


def test_cache_file_is_a_header_line_and_int32_labels(tmp_path):
    law = builtin("ul", 2, 3)
    table = conjugacy_classes(enumerate_group(law, FieldTower(2), 2, 2))
    path = save_class_table(class_table_path(tmp_path, law, 2, 2), table)
    assert path.suffix == ".bin"
    header, body = _read_cached(path)
    assert header == {
        "checksum": cache_module._sha(body), "kind": "class_table", "law": canonical_text(law),
        "m": 2, "order": 64, "q": 2, "schema": cache_module.SCHEMA_VERSION,
    }
    head = json.dumps(header, separators=(",", ":")).encode()  # keys already sorted
    assert path.read_bytes() == head + b"\n" + body
    assert body == np.asarray(table.class_of, dtype="<i4").tobytes()


def test_cache_save_replaces_truncated_file_atomically(tmp_path):
    tower = FieldTower(2)
    law = builtin("ul", 2, 3)
    table = conjugacy_classes(enumerate_group(law, tower, 2, 1))
    path = class_table_path(tmp_path, law, 2, 1)
    save_class_table(path, table)
    whole = path.read_bytes()
    path.write_bytes(whole[: len(whole) // 2])  # an interrupted earlier write
    assert load_class_table(path, law, FieldTower(2), 2, 1) is None
    assert save_class_table(path, table) == path
    assert path.read_bytes() == whole
    assert [f.name for f in tmp_path.iterdir()] == [path.name]
    loaded = load_class_table(path, law, FieldTower(2), 2, 1)
    assert loaded is not None and loaded.sizes == table.sizes


def test_cache_save_failure_keeps_old_file(tmp_path, monkeypatch):
    tower = FieldTower(2)
    law = builtin("ul", 2, 3)
    table = conjugacy_classes(enumerate_group(law, tower, 2, 1))
    path = class_table_path(tmp_path, law, 2, 1)
    path.write_text("old contents")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cache_module.os, "replace", fail)
    with pytest.raises(OSError):
        save_class_table(path, table)
    assert path.read_text() == "old contents"
    assert [f.name for f in tmp_path.iterdir()] == [path.name]


def test_classes_command(runner, tmp_path):
    out = tmp_path / "cls.json"
    res = invoke(
        runner, ["classes", "--group", "ul(3)", "--q", "3", "--m", "1", "--out", str(out)]
    )
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["order"] == 27 and len(doc["classes"]) == 11
    assert sum(c["size"] for c in doc["classes"]) == 27


def test_easy_check_report(runner, tmp_path):
    out = tmp_path / "ec.json"
    res = invoke(
        runner,
        ["easy-check", "--group", "n2", "--q", "3", "--max-m", "2", "--out", str(out)],
    )
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"]["kind"] == "not_easy"
    assert doc["verdict"]["witness"] == [[1], [0]]
    assert doc["verdict"]["witness_m"] == 1
    assert doc["internally_consistent"] is True
    assert doc["label_status"] == "confirmed"
    assert all(lvl["agree"] for lvl in doc["levels"])


def test_easy_check_dsl_equivalent(runner, tmp_path):
    law_file = tmp_path / "n2.law"
    law_file.write_text(N2_TEXT)
    out = tmp_path / "ec.json"
    res = invoke(
        runner,
        ["easy-check", "--dsl", str(law_file), "--q", "3", "--max-m", "1", "--out", str(out)],
    )
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"]["kind"] == "not_easy"
    assert doc["label_status"] == "n/a"  # user law: no ground-truth label


def test_run_batch(runner, tmp_path):
    cfg = {
        "jobs": [
            {"command": "validate", "group": "ul(3)", "q": 2},
            {
                "command": "asai",
                "group": "n2",
                "q": 3,
                "m": 1,
                "out": str(tmp_path / "out1.json"),
            },
            {
                "command": "easy-check",
                "group": "ga_power(2)",
                "q": 2,
                "max_m": 2,
                "out": str(tmp_path / "out2.json"),
            },
            {
                "command": "classes",
                "group": "ul(3)",
                "q": 2,
                "m": 2,
                "cache": str(tmp_path / "cache"),
                "out": str(tmp_path / "out3.json"),
            },
        ]
    }
    cfg_path = tmp_path / "batch.json"
    cfg_path.write_text(json.dumps(cfg))
    res = invoke(runner, ["run", "--config", str(cfg_path)])
    assert res.exit_code == 0
    assert (tmp_path / "out1.json").exists() and (tmp_path / "out2.json").exists()
    assert json.loads((tmp_path / "out3.json").read_text())["order"] == 64
    assert len(list((tmp_path / "cache").iterdir())) == 1


def test_run_batch_propagates_failure(runner, tmp_path):
    cfg_path = tmp_path / "batch.json"
    cfg_path.write_text(json.dumps({"jobs": [{"command": "asai", "group": "n2", "q": 3, "max_order": 4}]}))
    res = invoke(runner, ["run", "--config", str(cfg_path)])
    assert res.exit_code == 4


def test_degree_cap_is_per_tower_within_a_batch(runner, tmp_path):
    """Jobs of a batch share the process-wide field levels, not the cap:
    the first job builds F_3^6, the second may not go past degree 5 and
    exits 4 there, and the third repeats the first byte for byte."""
    job = {"command": "asai", "group": "n2", "q": 3, "m": 2}
    cfg = {"jobs": [
        {**job, "out": str(tmp_path / "first.json")},
        {**job, "max_ext": 5, "out": str(tmp_path / "capped.json")},
        {**job, "out": str(tmp_path / "again.json")},
    ]}
    cfg_path = tmp_path / "batch.json"
    cfg_path.write_text(json.dumps(cfg))
    res = invoke(runner, ["run", "--config", str(cfg_path)])
    assert res.exit_code == 4
    assert "error: cap exceeded: degree 6 exceeds the tower cap 5" in res.stderr
    assert not (tmp_path / "capped.json").exists()
    first = (tmp_path / "first.json").read_bytes()
    assert max(w.get("degree", 0) for w in json.loads(first)["centralizer_witnesses"]) == 6
    assert (tmp_path / "again.json").read_bytes() == first


def test_batch_writes_the_same_reports_as_single_jobs(runner, tmp_path, monkeypatch):
    """The jobs of a batch share the process-wide field levels, their
    embeddings included, and laws; each job run alone on an empty table
    and empty law caches, as in a fresh process, writes the same bytes
    (the first job is repeated), and so does the batch in reverse order
    on an empty table."""
    jobs = [
        {"command": "asai", "group": "n2", "q": 3},
        {"command": "asai", "group": "ul(3)", "q": 2, "m": 2},
        {"command": "easy-check", "group": "n2", "q": 3, "max_m": 2},
        {"command": "asai", "group": "n2", "q": 3},
    ]
    cfg_path = tmp_path / "batch.json"
    cfg_path.write_text(json.dumps(
        {"jobs": [{**job, "out": str(tmp_path / f"batch-{i}.json")} for i, job in enumerate(jobs)]}))
    assert invoke(runner, ["run", "--config", str(cfg_path)]).exit_code == 0
    monkeypatch.setattr(fields, "_LEVELS", {})
    cfg_path.write_text(json.dumps(
        {"jobs": [{**job, "out": str(tmp_path / f"reverse-{i}.json")}
                  for i, job in reversed(list(enumerate(jobs)))]}))
    assert invoke(runner, ["run", "--config", str(cfg_path)]).exit_code == 0
    for i in range(len(jobs)):
        assert (tmp_path / f"reverse-{i}.json").read_bytes() == (tmp_path / f"batch-{i}.json").read_bytes()
    for i, job in enumerate(jobs):
        monkeypatch.setattr(fields, "_LEVELS", {})
        builtin.cache_clear()
        parse_group_dsl.cache_clear()
        cfg_path.write_text(json.dumps({"jobs": [{**job, "out": str(tmp_path / f"single-{i}.json")}]}))
        assert invoke(runner, ["run", "--config", str(cfg_path)]).exit_code == 0
        assert (tmp_path / f"single-{i}.json").read_bytes() == (tmp_path / f"batch-{i}.json").read_bytes()


def test_group_and_dsl_are_exclusive(runner, tmp_path):
    law_file = tmp_path / "n2.law"
    law_file.write_text(N2_TEXT)
    res = invoke(
        runner,
        ["asai", "--group", "n2", "--dsl", str(law_file), "--q", "3"],
    )
    assert res.exit_code == 3
    res = invoke(runner, ["asai", "--q", "3"])
    assert res.exit_code == 3


def test_q_must_match_law(runner):
    res = invoke(runner, ["asai", "--group", "n2", "--q", "6"])
    assert res.exit_code == 3
    res = invoke(runner, ["validate", "--group", "ul(3)", "--q", "5"])
    # ul(3) built at p=5 is fine; q=5 matches, so this validates cleanly
    assert res.exit_code == 0


def test_dsl_nonassociative_law_rejected_before_use(runner, tmp_path):
    """The parser only checks identity and triangularity; a law whose
    cocycle is not biadditive fails validation on first compute use."""
    bad = tmp_path / "na.law"
    bad.write_text(
        "group na dim 2 char 3\nmul[1] = x1 + y1\nmul[2] = x2 + y2 + x1^2 * y1\n"
    )
    res = invoke(runner, ["asai", "--dsl", str(bad), "--q", "3", "--m", "1"])
    assert res.exit_code == 3
    assert "associativity" in res.output
    res = invoke(runner, ["validate", "--dsl", str(bad), "--q", "3"])
    assert res.exit_code == 3


def test_validate_samples_every_check_at_q_65536(runner):
    """|G(F_q)| = 2^48: the checks are polynomial identities, so the
    size of the group does not enter."""
    res = invoke(runner, ["validate", "--group", "ul(3)", "--q", "65536"])
    assert res.exit_code == 0
    assert res.stdout.splitlines() == ["ok   identity", "ok   associativity", "ok   inverse"]


@pytest.mark.parametrize("p,code", [(3000017, 0), (1760000027, 0)])
def test_heisenberg_law_at_a_large_characteristic(runner, tmp_path, p, code):
    """validate builds no field, so a law validates even at the least
    prime above 1.76e9, whose degree-2 level would overflow int64
    products (that guard is tested in test_fields)."""
    law = tmp_path / "big.law"
    law.write_text(f"group big dim 2 char {p}\nmul[1] = x1 + y1\nmul[2] = x2 + y2 + x1 * y1\n")
    res = invoke(runner, ["validate", "--dsl", str(law), "--q", str(p)])
    assert res.exit_code == code


@pytest.mark.parametrize(
    "args,code",
    [
        (["asai", "--group", "n2", "--q", str(2**61 - 1), "--m", "1"], 4),
        (["asai", "--group", "n2", "--q", str((2**31 - 1) ** 2), "--m", "1"], 4),
        (["validate", "--dsl", "big.law", "--q", "4"], 3),
    ],
    ids=["q=2^61-1", "q=(2^31-1)^2", "char=2^61-1,q=4"],
)
def test_large_primes_end_at_once_with_one_error(tmp_path, args, code):
    """q's prime is an integer root of q, and a characteristic past the
    int64 bound of degree-1 products is refused before its primality is
    decided: the tower refuses 2^61 - 1 and the degree-2 level over
    2^31 - 1 (exit 4), and the law's 2^61 - 1 does not match q = 4
    (exit 3).  Trial division up to sqrt(q) took minutes on each."""
    (tmp_path / "big.law").write_text(
        f"group big dim 2 char {2**61 - 1}\nmul[1] = x1 + y1\nmul[2] = x2 + y2 + x1 * y1\n"
    )
    src = str(SCRIPTS.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    res = subprocess.run(
        [sys.executable, "-m", "asaitwist.cli", *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=20,
    )
    assert res.returncode == code, res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 2 and lines[0].startswith("error: ")
    assert lines[1].startswith("elapsed ") and float(lines[1].split()[1].rstrip("s")) < 1


def test_validate_twist_by_a_large_frobenius_power(runner, tmp_path):
    """n2 at p = 3000017: associativity composes (y1 + z1)^p, which is
    y1^p + z1^p only if the power is taken by base-p digits."""
    p = 3000017
    law = tmp_path / "n2.law"
    law.write_text(f"group n2 dim 2 char {p}\nmul[1] = x1 + y1\nmul[2] = x2 + y2 + x1 * y1^{p}\n")
    res = invoke(runner, ["validate", "--dsl", str(law), "--q", str(p)])
    assert res.exit_code == 0, res.output


def test_law_associative_only_on_small_fields_exits_3(runner, tmp_path):
    """The cocycle (x1^729 - x1) * y1^2 is additive in x1 over F_27 but
    not over F_81: the law is rejected before G(F_81) is computed with,
    not caught as a failed Lang witness (exit 5)."""
    law = tmp_path / "ext.law"
    law.write_text(
        "group ext dim 2 char 3\nmul[1] = x1 + y1\nmul[2] = x2 + y2 + x1^729 * y1^2 - x1 * y1^2\n"
    )
    res = invoke(runner, ["validate", "--dsl", str(law), "--q", "3"])
    assert res.exit_code == 3
    assert "FAIL associativity (coordinate 2: mul(mul(x, y), z) != mul(x, mul(y, z)))" in res.stdout
    res = invoke(runner, ["asai", "--dsl", str(law), "--q", "3", "--m", "4"])
    assert res.exit_code == 3
    assert "law fails validation: associativity" in res.stderr


def test_dsl_law_at_q_65536_validates_then_hits_the_cap(runner, tmp_path):
    law = tmp_path / "ul3.law"
    law.write_text(canonical_text(builtin("ul", 2, 3)))
    res = invoke(runner, ["asai", "--dsl", str(law), "--q", "65536", "--m", "1"])
    assert res.exit_code == 4
    errors = [line for line in res.stderr.splitlines() if not line.startswith("elapsed ")]
    assert len(errors) == 1 and errors[0].startswith("error: cap exceeded: ")


def test_nonassociative_law_rejected_by_sampled_triples(runner, tmp_path):
    """The cocycle x1^2 * y1 over F_11 is not biadditive, so the
    associativity identity fails as polynomials."""
    bad = tmp_path / "na.law"
    bad.write_text(
        "group na dim 2 char 11\nmul[1] = x1 + y1\nmul[2] = x2 + y2 + x1^2 * y1\n"
    )
    res = invoke(runner, ["validate", "--dsl", str(bad), "--q", "11"])
    assert res.exit_code == 3
    lines = res.stdout.splitlines()
    assert "FAIL associativity (coordinate 2: mul(mul(x, y), z) != mul(x, mul(y, z)))" in lines
    # inv is derived as the right inverse; without associativity it is not a left one
    assert "FAIL inverse (coordinate 2: mul(inv(x), x) != 0)" in lines


def _as_job(command, args):
    """The `run` job equivalent to the argv `command *args`."""
    job = {"command": command}
    for flag, value in zip(args[::2], args[1::2]):
        job[flag[2:].replace("-", "_")] = int(value) if value.lstrip("-").isdigit() else value
    return job


def _run_jobs(runner, tmp_path, jobs):
    cfg_path = tmp_path / "batch.json"
    cfg_path.write_text(json.dumps({"jobs": jobs}))
    return runner.invoke(main, ["run", "--config", str(cfg_path)], catch_exceptions=False)


@pytest.mark.parametrize(
    "command,args,code",
    [
        ("asai", ["--group", "n2", "--q", "3", "--max-order", "0"], 3),
        ("asai", ["--group", "n2", "--q", "3", "--max-ext", "0"], 3),
        ("asai", ["--group", "n2", "--q", "3", "--max-ext", "-5"], 3),
        ("asai", ["--group", "n2", "--q", "3", "--m", "0"], 3),
        ("easy-check", ["--group", "ul(3)", "--q", "2", "--max-m", "0"], 3),
        ("asai", ["--dsl", "missing.law", "--q", "3"], 3),
        ("asai", ["--group", "n2", "--q", "3", "--max-order", "4"], 4),
    ],
)
def test_direct_command_and_one_job_run_exit_alike(runner, tmp_path, command, args, code):
    args = [str(tmp_path / a) if a.endswith(".law") else a for a in args]
    assert invoke(runner, [command, *args]).exit_code == code
    assert _run_jobs(runner, tmp_path, [_as_job(command, args)]).exit_code == code


def test_run_batch_continues_past_failed_job(runner, tmp_path):
    out = tmp_path / "good.json"
    jobs = [
        {"command": "asai", "dsl": str(tmp_path / "missing.law"), "q": 3},
        {"command": "classes", "group": "n2", "q": 3, "out": str(out)},
    ]
    res = _run_jobs(runner, tmp_path, jobs)
    assert res.exit_code == 3
    assert json.loads(out.read_text())["order"] == 9
    assert "No such file" in res.output
    assert f"job 1: {json.dumps(jobs[1], sort_keys=True)}" in res.output


def test_run_rejects_option_the_command_does_not_take(runner, tmp_path):
    out = tmp_path / "ec.json"
    job = {"command": "easy-check", "group": "n2", "q": 3, "m": 2, "out": str(out)}
    res = _run_jobs(runner, tmp_path, [job])
    assert res.exit_code == 3
    assert "bad config: easy-check has no option m" in res.output
    assert not out.exists()
    res = _run_jobs(runner, tmp_path, [{"command": "asai", "group": "n2"}])
    assert res.exit_code == 3 and "needs option q" in res.output
    res = _run_jobs(runner, tmp_path, [{"command": "asai", "group": "n2", "q": "3"}])
    assert res.exit_code == 3 and "q must be an integer" in res.output
    res = _run_jobs(runner, tmp_path, [{"command": "asai", "group": "n2", "q": 3, "out": 5}])
    assert res.exit_code == 3 and "out must be a string" in res.output


@pytest.mark.parametrize(
    "text,reason",
    [
        ("", "Expecting value"),
        ("[1]", "top level must be an object"),
        ('{"jobs": {"command": "asai"}}', '"jobs" is a list'),
        ('{"job": [{"command": "asai", "group": "n2", "q": 3}]}', '"jobs" is a list'),
    ],
)
def test_run_rejects_malformed_config_file(runner, tmp_path, text, reason):
    cfg_path = tmp_path / "batch.json"
    cfg_path.write_text(text)
    res = runner.invoke(main, ["run", "--config", str(cfg_path)], catch_exceptions=False)
    assert res.exit_code == 3
    assert res.output.startswith("error: bad config: ") and reason in res.output
    assert res.output.count("\n") == 1


def _load_script(monkeypatch, path):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src
    spec = importlib.util.spec_from_file_location(path.stem, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_growth_script_cap_exceeded_exit_4(monkeypatch, capsys):
    script = _load_script(monkeypatch, GROWTH_SCRIPT)
    argv = ["centralizer_growth.py", "--group", "n2", "--q", "3", "--levels", "5",
            "--max-order", "10000"]
    monkeypatch.setattr("sys.argv", argv)
    assert script.main() == 4
    err = capsys.readouterr().err
    assert err.startswith("error: cap exceeded:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "args,reason",
    [
        (["--q", "6"], "6 is not a power of 2"),
        (["--q", "1"], "prime power"),
        (["--levels", "0"], "--levels must be at least 1"),
        (["--group", "sl(2)"], "unknown family"),
        (["--max-order", "0"], "max_order and max_ext must be positive"),
        (["--max-order", "-3"], "max_order and max_ext must be positive"),
    ],
)
def test_growth_script_bad_options_exit_3(monkeypatch, capsys, args, reason):
    script = _load_script(monkeypatch, GROWTH_SCRIPT)
    monkeypatch.setattr("sys.argv", ["centralizer_growth.py", *args])
    assert script.main() == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and reason in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "args,reason",
    [
        (["--max-m", "0"], "m and max_m must be at least 1"),
        (["--max-order", "0"], "max_order and max_ext must be positive"),
    ],
)
def test_survey_script_bad_options_exit_3(monkeypatch, capsys, args, reason):
    script = _load_script(monkeypatch, SURVEY_SCRIPT)
    monkeypatch.setattr("sys.argv", ["run_survey.py", *args])
    assert script.main() == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and reason in err and err.count("\n") == 1


def test_survey_script_one_level(monkeypatch, capsys):
    script = _load_script(monkeypatch, SURVEY_SCRIPT)
    monkeypatch.setattr("sys.argv", ["run_survey.py", "--max-m", "1"])
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7 and all(line.startswith("[ok] ") for line in lines)


def _read_cached(path):
    """The header object and the body bytes of a cache file."""
    head, _, body = path.read_bytes().partition(b"\n")
    return json.loads(head), body


def _rewrite_cached(path, header=(), body=None):
    """Replace header fields or the body of a cache file, keeping the
    checksum valid."""
    doc, old = _read_cached(path)
    body = old if body is None else body
    doc = dict(doc, **dict(header), checksum=cache_module._sha(body))
    path.write_bytes(json.dumps(doc, sort_keys=True).encode() + b"\n" + body)


def _rewrite_class_map(path, class_of):
    """Replace a cached class map, keeping the checksum valid."""
    _rewrite_cached(path, body=np.asarray(class_of, dtype="<i4").tobytes())


def _relabel(path, relabel):
    """Rewrite the cached class map as relabel(good map), checksum kept valid."""
    good = np.frombuffer(_read_cached(path)[1], dtype="<i4")
    _rewrite_class_map(path, relabel(good.astype(np.int64)))


def _flip_body_byte(path):
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 1
    path.write_bytes(bytes(raw))


def test_cache_rejects_malformed_class_labels(tmp_path):
    law = builtin("n2", 3)
    table = conjugacy_classes(enumerate_group(law, FieldTower(3), 3, 1))
    path = class_table_path(tmp_path, law, 3, 1)
    save_class_table(path, table)
    good = [int(c) for c in table.class_of]
    negative = [-1 if c == good[-1] else c for c in good]
    swapped = [1 - c if c < 2 else c for c in good]  # classes 0 and 1 out of order
    gap = [c + 1 if c else c for c in good]
    for class_of, message in ((negative, "malformed"), (swapped, "malformed"), (gap, "empty class")):
        _rewrite_class_map(path, class_of)
        warnings = []
        assert load_class_table(path, law, FieldTower(3), 3, 1, warn=warnings.append) is None
        assert any(message in w for w in warnings)
    _rewrite_class_map(path, good)
    loaded = load_class_table(path, law, FieldTower(3), 3, 1)
    assert np.array_equal(loaded.reps, table.reps)
    assert [m.tolist() for m in loaded.members] == [m.tolist() for m in table.members]


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda path: path.write_bytes(b"class_table\n"), "unreadable"),
        (lambda path: path.write_text("[1, 2]"), "stale schema"),
        (lambda path: _rewrite_cached(path, header={"kind": "report"}), "stale schema"),
        (lambda path: _rewrite_cached(path, header={"schema": 2}), "stale schema"),
        (lambda path: _rewrite_cached(path, header={"q": 9}), "key mismatch"),
        (_flip_body_byte, "checksum mismatch"),
        (lambda path: _rewrite_cached(path, header={"order": 10}), "order mismatch"),
        # no_class_of .. payload_list: bodies that are not 4*|G| bytes
        (lambda path: _rewrite_cached(path, body=b""), "malformed class map"),
        (lambda path: _rewrite_cached(path, body=b"a" * 9), "malformed class map"),
        (lambda path: _rewrite_cached(path, body=_read_cached(path)[1][:-1]), "malformed class map"),
        (lambda path: _rewrite_cached(path, body=np.zeros(9).tobytes()), "malformed class map"),
        (lambda path: _rewrite_cached(path, body=json.dumps(list(range(9))).encode()),
         "malformed class map"),
        (lambda path: _relabel(path, lambda c: np.where(c == c[-1], -1, c)), "malformed class map"),
        (lambda path: _relabel(path, lambda c: np.where(c < 2, 1 - c, c)), "malformed class map"),
        (lambda path: _relabel(path, lambda c: np.where(c > 0, c + 1, c)), "empty class"),
    ],
    ids=[
        "header_not_json", "top_list", "stale_kind", "stale_schema", "key_mismatch",
        "flipped_body_byte", "order_mismatch", "no_class_of", "letter_labels", "ragged",
        "float_labels", "payload_list", "negative_label", "classes_out_of_order", "empty_class",
    ],
)
def test_cache_ignores_malformed_documents(runner, tmp_path, corrupt, message):
    cache, args = tmp_path / "cache", ["classes", "--group", "n2", "--q", "3"]
    fresh = tmp_path / "fresh.json"
    assert invoke(runner, [*args, "--out", str(fresh)]).exit_code == 0
    assert invoke(runner, [*args, "--cache", str(cache)]).exit_code == 0
    [path] = cache.iterdir()
    corrupt(path)
    warnings = []
    law = builtin("n2", 3)
    assert load_class_table(path, law, FieldTower(3), 3, 1, warn=warnings.append) is None
    assert warnings == [f"cache {path.name}: {message}, ignoring"]
    out = tmp_path / "warm.json"
    res = invoke(runner, [*args, "--cache", str(cache), "--out", str(out)])
    assert res.exit_code == 0
    assert res.stderr.count("ignoring") == 1 and f"{message}, ignoring" in res.stderr
    assert out.read_bytes() == fresh.read_bytes()


def test_failed_witness_search_exits_5(runner, tmp_path, monkeypatch):
    """A fixed class whose conjugator search finds nothing is a bug: asai
    writes no report, easy-check reports the disagreement, both exit 5."""
    monkeypatch.setattr(
        FiniteGroupView, "find_conjugators", lambda self, g, t: np.full(len(g), -1)
    )
    out = tmp_path / "asai.json"
    res = invoke(runner, ["asai", "--group", "ul(3)", "--q", "2", "--m", "2", "--out", str(out)])
    assert res.exit_code == 5
    errors = [line for line in res.stderr.splitlines() if not line.startswith("elapsed ")]
    assert errors == [
        "internal inconsistency: "
        "class is fixed but no rational y conjugates the norm image back"
    ]
    assert not out.exists()

    # the first row of each search gets y = 1, which fails the witness
    # checks, and the rest fail the search: asai names the error of the
    # lowest failing class, not the first one recorded
    monkeypatch.setattr(
        FiniteGroupView, "find_conjugators",
        lambda self, g, t: np.where(np.arange(len(g)) == 0, 0, -1),
    )
    res = invoke(runner, ["asai", "--group", "ul(3)", "--q", "2", "--m", "2", "--out", str(out)])
    assert res.exit_code == 5
    errors = [line for line in res.stderr.splitlines() if not line.startswith("elapsed ")]
    assert errors == ["internal inconsistency: centralizer witness failed its checks"]
    assert not out.exists()
    monkeypatch.setattr(
        FiniteGroupView, "find_conjugators", lambda self, g, t: np.full(len(g), -1)
    )

    out = tmp_path / "easy.json"
    res = invoke(runner, ["easy-check", "--group", "ul(3)", "--q", "2", "--max-m", "2",
                          "--out", str(out)])
    assert res.exit_code == 5
    errors = [line for line in res.stderr.splitlines() if line.startswith("internal ")]
    assert errors == [
        "internal inconsistency: fixed-class/witness biconditional violated; see report"
    ]
    report = json.loads(out.read_text())
    assert report["internally_consistent"] is False
    [level] = [lv for lv in report["levels"] if lv["m"] == 2]
    assert level["agree"].count(False) == 6
    for lv in report["levels"]:
        for found, fixed, agree in zip(lv["witness_found"], lv["fixed"], lv["agree"]):
            assert found == (fixed and agree)
