"""Report bytes pinned by sha256.

The hashes cover whole reports, witness points and the "timings" work
counters included, so any change to a report shows here.  A change that
means to alter reports bumps SCHEMA_VERSION and re-pins these hashes.
"""

import hashlib

import pytest
from click.testing import CliRunner

from asaitwist.cli import main

GOLDEN = [
    (
        ["asai", "--group", "n2", "--q", "3", "--m", "2"],
        "a8bbeaee51fe0b429e1ee74ae056f0b3ec3727d19c9b93da232a41da48dfffc8",
    ),
    (
        ["asai", "--group", "ul(3)", "--q", "2", "--m", "2"],
        "4e1352039ccdf4270c9a5a804ed72aa398779bee2304330aa2e96cafa437fa27",
    ),
    (
        ["asai", "--group", "ga_power(2)", "--q", "2", "--m", "3"],
        "d6b0d09e250992dd1fd6a9e4d6273fec34c6d535183a10c1e13c1bc5ed81e1ae",
    ),
    (
        ["easy-check", "--group", "n2", "--q", "3", "--max-m", "2"],
        "0636f6f6103fad18932ed9e7c224f9146e5ff714def6a859163e22009d2472c6",
    ),
]


@pytest.mark.parametrize("args,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_report_bytes_are_pinned(args, digest, tmp_path):
    out = tmp_path / "report.json"
    res = CliRunner().invoke(main, args + ["--out", str(out)], catch_exceptions=False)
    assert res.exit_code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
