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
        "6cb64b9dde825d285254f5aa381c85e862e3a331727a7e4b9028c687e0c950fb",
    ),
    (
        ["asai", "--group", "ul(3)", "--q", "2", "--m", "2"],
        "3179ff341ec0e2ca3fe379c1548e2dbdacb40202208efa38b12067a02799a52c",
    ),
    (
        ["asai", "--group", "ga_power(2)", "--q", "2", "--m", "3"],
        "d86061ee992646fee31dfa4bad46c136c6b2f9508a4545a23a4c5922bd8fbbf0",
    ),
    (
        ["easy-check", "--group", "n2", "--q", "3", "--max-m", "2"],
        "85de8f26c6d90d39275c457e8e7833e4f38b80581df248499a15ccfe505d732e",
    ),
    (
        ["asai", "--group", "ul(4)", "--q", "2", "--m", "1"],
        "0d2308520b7563d159303861b9a3db569dd960c131c1cbe6e4dc67abd8335c1a",
    ),
    (
        ["classes", "--group", "ul(3)", "--q", "3", "--m", "1"],
        "d16a7ba660d7a51619f65f8a03acfe478b2a876e562940ec280fbcf3e8144198",
    ),
    (  # easy_up_to
        ["easy-check", "--group", "ul(3)", "--q", "2", "--max-m", "2"],
        "28b7dfe083e799094d60471ad990a03a8dd7c0fedf6b34f1e5ed2b15b16af731",
    ),
    (  # a cap hit after a non-easiness certificate
        ["easy-check", "--group", "n2", "--q", "3", "--max-m", "3", "--max-order", "81"],
        "3126334e994312621383d7c892359294d8d386a7e92df58922e0d40f51e9d3d9",
    ),
    (  # the p-power exponent y1^5 at an extension level
        ["asai", "--group", "n2", "--q", "5", "--m", "2"],
        "6594c360efc40a25acda74c29693787a76fede4f99c0f073029429ee8e7ee1e9",
    ),
    (  # y1^2 over F_2, levels up to m = 5
        ["easy-check", "--group", "n2", "--q", "2", "--max-m", "5"],
        "3bce01cfb3083314c9947bb772027ea235b09af27482ad8c08179e5d136b552d",
    ),
    (  # inconclusive: a cap hit before any level
        ["easy-check", "--group", "n2", "--q", "3", "--max-m", "2", "--max-order", "5"],
        "4a1e23a90bee5a6f3de3819a44e2ffc290b74ec4fa2419cb6158b46de992baf7",
    ),
    (  # commutative: every element its own class
        ["easy-check", "--group", "ga_power(2)", "--q", "2", "--max-m", "4"],
        "cacea30f711ebeb5b7952d392c9ebb8dc95bc979b674a7543e4abba5938ba036",
    ),
    (  # witnesses in F_{2^6} and F_{2^12}: pins the embedding lattice
        ["asai", "--group", "ul(3)", "--q", "2", "--m", "3"],
        "641faf598754ff52e2336b40fc037c4fffa800eda38156c18fca0879b71ee89d",
    ),
]


@pytest.mark.parametrize("args,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_report_bytes_are_pinned(args, digest, tmp_path):
    out = tmp_path / "report.json"
    res = CliRunner().invoke(main, args + ["--out", str(out)], catch_exceptions=False)
    assert res.exit_code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
