"""README's `Library use` block runs as written and states what it computes."""

import re
from pathlib import Path

from asaitwist import is_asai_trivial, moved_classes

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_use_block():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "# False: six of nine classes move" in code
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    result, table = namespace["result"], namespace["table"]
    assert is_asai_trivial(result) is False
    assert len(table) == 9 and len(moved_classes(result)) == 6
    # the comment's closed form: (a, b) -> (a, b - a^2) over F_3
    for ci in range(len(table)):
        a, b = (c.coeffs[0] for c in table.rep_point(ci).coords)
        image = tuple(c.coeffs[0] for c in result.images[ci].coords)
        assert image == (a, (b - a * a) % 3)
