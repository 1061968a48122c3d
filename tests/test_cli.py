import json

import pytest
from click.testing import CliRunner

from asaitwist import cache as cache_module
from asaitwist.cache import (
    class_table_path,
    load_class_table,
    save_class_table,
)
from asaitwist.cli import main
from asaitwist.fields import FieldTower
from asaitwist.grouplaw import builtin
from asaitwist.points import conjugacy_classes, enumerate_group

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
    raw = bytearray(path.read_bytes())
    idx = raw.find(b'"class_of": [')
    flip = idx + len(b'"class_of": [')
    raw[flip] = ord("9") if raw[flip] != ord("9") else ord("8")
    path.write_bytes(bytes(raw))
    warnings = []
    loaded = load_class_table(path, law, FieldTower(2), 2, 1, warn=warnings.append)
    assert loaded is None
    assert any("checksum" in w or "unreadable" in w for w in warnings)


def test_cache_rejects_stale_schema(tmp_path):
    tower = FieldTower(2)
    law = builtin("ul", 2, 3)
    table = conjugacy_classes(enumerate_group(law, tower, 2, 1))
    path = class_table_path(tmp_path, law, 2, 1)
    save_class_table(path, table)
    doc = json.loads(path.read_text())
    doc["schema"] = 999
    path.write_text(json.dumps(doc))
    warnings = []
    assert load_class_table(path, law, FieldTower(2), 2, 1, warn=warnings.append) is None
    assert any("stale" in w for w in warnings)


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
        ]
    }
    cfg_path = tmp_path / "batch.json"
    cfg_path.write_text(json.dumps(cfg))
    res = invoke(runner, ["run", "--config", str(cfg_path)])
    assert res.exit_code == 0
    assert (tmp_path / "out1.json").exists() and (tmp_path / "out2.json").exists()


def test_run_batch_propagates_failure(runner, tmp_path):
    cfg_path = tmp_path / "batch.json"
    cfg_path.write_text(json.dumps({"jobs": [{"command": "asai", "group": "n2", "q": 3, "max_order": 4}]}))
    res = invoke(runner, ["run", "--config", str(cfg_path)])
    assert res.exit_code == 4


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
