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
    (
        ["asai", "--group", "ul(4)", "--q", "2", "--m", "1"],
        "ab1deeb553a3202cceda7d935b4c531efd4f8b941af185e9674b5d805b9938f9",
    ),
    (
        ["classes", "--group", "ul(3)", "--q", "3", "--m", "1"],
        "319b521e982cdeb1c6aa9531405c27327691c349ea680a91ab5b93d9c4aa786c",
    ),
    (  # easy_up_to
        ["easy-check", "--group", "ul(3)", "--q", "2", "--max-m", "2"],
        "a1a037e3ae3e60bdb5f608c7922ed57ddb8c21cc546f2d13403dd0a51fc7f0be",
    ),
    (  # a cap hit after a non-easiness certificate
        ["easy-check", "--group", "n2", "--q", "3", "--max-m", "3", "--max-order", "81"],
        "4941557117f72849d913e918a9a1997b640d11b80ebe8b53b694210fcecf33be",
    ),
    (  # the p-power exponent y1^5 at an extension level
        ["asai", "--group", "n2", "--q", "5", "--m", "2"],
        "97588bb404c6f10bafb212534935c2167e1dc6e55af38e831f872556f512f4b9",
    ),
    (  # y1^2 over F_2, levels up to m = 5
        ["easy-check", "--group", "n2", "--q", "2", "--max-m", "5"],
        "8aa80438dc4c910abd56b3e59b1951f5f66949e95a55062163e983ffcd4e7c64",
    ),
    (  # inconclusive: a cap hit before any level
        ["easy-check", "--group", "n2", "--q", "3", "--max-m", "2", "--max-order", "5"],
        "2f7630869f655b1b0b4761d8feaa62f2819960e681b33087af4127373d5be503",
    ),
    (  # commutative: every element its own class
        ["easy-check", "--group", "ga_power(2)", "--q", "2", "--max-m", "4"],
        "61ff190f06819c19fe20f0f9b1ddeca7be5d8604522a17086a8f4e4f2a0e3ed0",
    ),
]


@pytest.mark.parametrize("args,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_report_bytes_are_pinned(args, digest, tmp_path):
    out = tmp_path / "report.json"
    res = CliRunner().invoke(main, args + ["--out", str(out)], catch_exceptions=False)
    assert res.exit_code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
