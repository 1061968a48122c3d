"""Versioned, checksummed on-disk caching of class tables.

A cache file is one JSON header line (kind, schema, law, q, m, order and
the sha256 of the body, keys sorted) followed by class_of as
little-endian int32 bytes, 4*order of them.  The cache key hashes
(canonical law text, q, m, schema version), so a schema bump silently
recomputes, and the .bin suffix keeps files of the older JSON format
from being found at all.  Files failing their checksum, written by
another schema or holding a malformed class map are ignored with a
warning, never migrated.  Loads reproduce the canonical ordering byte
for byte: the element enumeration is deterministic, and class_of is
the table; its representatives are the first ordinal of each label,
which the load's own check finds.  Files are written to a
temporary name in the cache directory and renamed into place, so an
interrupted write never leaves a truncated table.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from .fields import FieldTower
from .grouplaw import GroupLaw, canonical_text
from .points import DEFAULT_MAX_ORDER, ClassTable, enumerate_group

SCHEMA_VERSION = 3
_LABEL = np.dtype("<i4")  # one class label per element in the body


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def class_table_key(law_text: str, q: int, m: int) -> str:
    return _sha(json.dumps([law_text, q, m, SCHEMA_VERSION]).encode("utf-8"))


def class_table_path(cache_dir: str | Path, law: GroupLaw, q: int, m: int) -> Path:
    key = class_table_key(canonical_text(law), q, m)
    return Path(cache_dir) / f"classes-{key}.bin"


def save_class_table(path: str | Path, table: ClassTable) -> Path:
    view = table.view
    body = table.class_of.astype(_LABEL, copy=False).tobytes()
    header = {
        "kind": "class_table",
        "schema": SCHEMA_VERSION,
        "law": canonical_text(view.law),
        "q": view.q,
        "m": view.m,
        "order": view.order,
        "checksum": _sha(body),
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # write beside the target, then rename over it: readers see the old
    # file or the new one, never a partial write
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(head + b"\n" + body)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_class_table(
    path: str | Path,
    law: GroupLaw,
    tower: FieldTower,
    q: int,
    m: int,
    max_order: int = DEFAULT_MAX_ORDER,
    warn=None,
) -> ClassTable | None:
    """Rebuild a cached table, or None when absent/stale/corrupt."""
    path = Path(path)
    if not path.exists():
        return None

    def _warn(msg: str):
        if warn:
            warn(msg)

    try:
        head, _, body = path.read_bytes().partition(b"\n")
        doc = json.loads(head)
    except (OSError, ValueError):  # ValueError: not UTF-8 or not JSON
        _warn(f"cache {path.name}: unreadable, ignoring")
        return None
    if not isinstance(doc, dict):
        doc = {}  # not a class table: reported as a stale schema below
    if doc.get("kind") != "class_table" or doc.get("schema") != SCHEMA_VERSION:
        _warn(f"cache {path.name}: stale schema, ignoring")
        return None
    if (doc.get("law"), doc.get("q"), doc.get("m")) != (canonical_text(law), q, m):
        _warn(f"cache {path.name}: key mismatch, ignoring")
        return None
    if _sha(body) != doc.get("checksum"):
        _warn(f"cache {path.name}: checksum mismatch, ignoring")
        return None
    view = enumerate_group(law, tower, q, m, max_order=max_order)
    if doc.get("order") != view.order:
        _warn(f"cache {path.name}: order mismatch, ignoring")
        return None
    if len(body) != _LABEL.itemsize * view.order:
        _warn(f"cache {path.name}: malformed class map, ignoring")
        return None
    class_of = np.frombuffer(body, dtype=_LABEL)
    # classes are numbered in order of their least member, each the
    # representative of its class
    labels, reps = np.unique(class_of, return_index=True)
    if labels[0] < 0 or np.any(np.diff(reps) <= 0):
        _warn(f"cache {path.name}: malformed class map, ignoring")
        return None
    if labels[-1] != labels.size - 1:
        _warn(f"cache {path.name}: empty class, ignoring")
        return None
    return ClassTable(view, reps, class_of)
