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
        "e39f2568e7ddb4565bc243ebd453a7577facd3ed73eefc497f578fb1ae36ed9a",
    ),
    (
        ["asai", "--group", "ul(3)", "--q", "2", "--m", "2"],
        "bc6d80ef49f1a9974e6aa941c98dd877f2154eef9124ad1e54110c05626de3c5",
    ),
    (
        ["asai", "--group", "ga_power(2)", "--q", "2", "--m", "3"],
        "66019895ee9b03df9e68580c9898915ae1ec6ea683715bf9f4e2199a954a3880",
    ),
    (
        ["easy-check", "--group", "n2", "--q", "3", "--max-m", "2"],
        "5415c793511db95583a2528496cff10e28392b21aff0c1f136aeb80756903742",
    ),
    (
        ["asai", "--group", "ul(4)", "--q", "2", "--m", "1"],
        "5722c8296f32e2a905148c1afa290b7d42ddda1bd24f6ffb29d7f4af78104316",
    ),
    (
        ["classes", "--group", "ul(3)", "--q", "3", "--m", "1"],
        "6e186561664e4919272427acae39e89722fce00e91cab19c745250cc5b02fd3b",
    ),
    (  # easy_up_to
        ["easy-check", "--group", "ul(3)", "--q", "2", "--max-m", "2"],
        "f906300158c9a78257ab64fd86c7762ac3dd32b924f0fdcd66b5bad257a7fbc0",
    ),
    (  # a cap hit after a non-easiness certificate
        ["easy-check", "--group", "n2", "--q", "3", "--max-m", "3", "--max-order", "81"],
        "fc3c4b91980c55d5810b010d7feaa01c4c8c24c21dc7d26d222e195a7602a529",
    ),
    (  # the p-power exponent y1^5 at an extension level
        ["asai", "--group", "n2", "--q", "5", "--m", "2"],
        "f1898ed3dc532d75d87b093cca935d4b60316ab932d7099bd18fe7698af4ab52",
    ),
    (  # y1^2 over F_2, levels up to m = 5
        ["easy-check", "--group", "n2", "--q", "2", "--max-m", "5"],
        "ab66525bb922b51d2ef1bd9b344664116925275dfc0ba558410f718f5f5c622f",
    ),
    (  # inconclusive: a cap hit before any level
        ["easy-check", "--group", "n2", "--q", "3", "--max-m", "2", "--max-order", "5"],
        "31426dfdcb65c3d2abb13789da995516239556300d3a020ff9516669f8ecadf4",
    ),
    (  # commutative: every element its own class
        ["easy-check", "--group", "ga_power(2)", "--q", "2", "--max-m", "4"],
        "36e5ed18180c3114eb93954f43be11f176d1e4308ff98672fcd7bbf2cc2da52e",
    ),
    (  # witnesses in F_{2^6} and F_{2^12}: pins the embedding lattice
        ["asai", "--group", "ul(3)", "--q", "2", "--m", "3"],
        "2c2c74d0048a3d5248ef6b2d54098bd95255c3f85c086d3b346702e1492a836d",
    ),
]


@pytest.mark.parametrize("args,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_report_bytes_are_pinned(args, digest, tmp_path):
    out = tmp_path / "report.json"
    res = CliRunner().invoke(main, args + ["--out", str(out)], catch_exceptions=False)
    assert res.exit_code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
