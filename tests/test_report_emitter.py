"""The report emitter writes exactly the bytes of json.dumps(indent=2).

`cli._render` renders dicts and lists itself, flat int and bool lists by
a fast path, and `_Rows` blocks (the classes and witnesses read from
arrays) from one %-template per row shape.  Every document here is
rendered twice: by the emitter, with `_Rows` blocks in it, and by
json.dumps, with the plain lists those blocks stand for.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from asaitwist.cli import _SLOT, _render, _Rows

# strings json.dumps escapes: non-ASCII, quotes, backslashes, control
# characters, and a % that the row templates must not take for a slot
TRICKY = ["é", "ü∂", "😀", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "%d", "%%", "a\"b\\c"]
texts = st.one_of(st.sampled_from(TRICKY), st.text(max_size=6))
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(allow_nan=False), texts
)
flat_lists = st.one_of(
    st.lists(st.integers(-5, 10**12), max_size=5),
    st.lists(st.booleans(), max_size=5),
    st.lists(st.one_of(st.integers(0, 3), st.booleans()), max_size=5),
)


def filled(shape, values):
    """The item a row shape stands for: its slots take values in key order."""
    if shape == _SLOT:
        return next(values)
    if isinstance(shape, dict):
        return {k: filled(shape[k], values) for k in sorted(shape)}
    if isinstance(shape, list):
        return [filled(v, values) for v in shape]
    return shape


@st.composite
def row_shapes(draw):
    """A shape like a class, a witness, or a moved class's witness."""
    d, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return draw(
        st.sampled_from(
            [
                {"rep": [[_SLOT] * k] * d, "size": _SLOT},
                {"degree": k, "found": True, "z": [[_SLOT] * k] * d},
                {"found": False},
                [_SLOT, "x%y", None],
            ]
        )
    )


def _slots(shape) -> int:
    if shape == _SLOT:
        return 1
    if isinstance(shape, dict):
        shape = list(shape.values())
    return sum(_slots(v) for v in shape) if isinstance(shape, list) else 0


@st.composite
def row_blocks(draw):
    """(a _Rows block, the plain list it stands for)."""
    shapes = draw(st.lists(row_shapes(), min_size=1, max_size=3))
    kind = np.array(draw(st.lists(st.integers(0, len(shapes) - 1), max_size=6)), dtype=np.int64)
    blocks, items = [], [None] * len(kind)
    for s, shape in enumerate(shapes):
        where = np.nonzero(kind == s)[0]
        rows = np.array(
            draw(st.lists(st.lists(st.integers(0, 10**6), min_size=_slots(shape),
                                   max_size=_slots(shape)),
                          min_size=where.size, max_size=where.size)),
            dtype=np.int64,
        ).reshape(where.size, _slots(shape))
        for i, row in zip(where, rows.tolist()):
            items[i] = filled(shape, iter(row))
        blocks.append((shape, rows))
    return _Rows(kind, blocks), items


def _pairs(strategy):
    return strategy.map(lambda v: (v, v))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4).map(lambda kids: tuple(map(list, zip(*kids))) or ([], [])),
        st.dictionaries(texts, children, max_size=4).map(
            lambda kids: ({k: a for k, (a, _) in kids.items()}, {k: b for k, (_, b) in kids.items()})
        ),
    )


documents = st.recursive(
    st.one_of(_pairs(scalars), _pairs(flat_lists), row_blocks()), _containers, max_leaves=24
)


@st.composite
def reports(draw):
    """Report-shaped: a top-level dict, with easy-check's levels[] of
    dicts one level deeper holding their own blocks."""
    top, plain = draw(st.dictionaries(texts, documents, max_size=5).map(
        lambda kids: ({k: a for k, (a, _) in kids.items()}, {k: b for k, (_, b) in kids.items()})
    ))
    levels = draw(st.lists(st.tuples(row_blocks(), flat_lists, flat_lists), max_size=3))
    top["levels"] = [{"classes": r, "fixed": f, "norm_perm": n} for (r, _), f, n in levels]
    plain["levels"] = [{"classes": i, "fixed": f, "norm_perm": n} for (_, i), f, n in levels]
    return top, plain


@settings(max_examples=150, deadline=None)
@given(documents)
def test_emitter_matches_json_dumps_on_documents(pair):
    doc, plain = pair
    assert _render(doc) == json.dumps(plain, sort_keys=True, indent=2)


@settings(max_examples=60, deadline=None)
@given(reports())
def test_emitter_matches_json_dumps_on_reports(pair):
    doc, plain = pair
    assert _render(doc) == json.dumps(plain, sort_keys=True, indent=2)


def test_int_rows_next_to_bool_rows():
    doc = {"a": [1, 0], "b": [True, False], "c": [1, True], "d": [], "e": {}, "f": None}
    assert _render(doc) == json.dumps(doc, sort_keys=True, indent=2)
    assert '"b": [\n    true,\n    false\n  ]' in _render(doc)


def test_values_json_dumps_renders_are_re_indented():
    """Tuples and dicts with non-string keys go to json.dumps whole."""
    doc = {"a": [{"t": (1, [2, None])}, {2: ["x"], 1: {"y": True}}]}
    assert _render(doc) == json.dumps(doc, sort_keys=True, indent=2)
