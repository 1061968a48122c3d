"""Versioned, checksummed on-disk caching of class tables.

The cache key hashes (canonical law text, q, m, schema version), so a
schema bump silently recomputes.  Files failing their checksum or written
by another schema are ignored with a warning, never migrated.  Loads
reproduce the canonical ordering byte for byte: the element enumeration
is deterministic, so persisting class_of is enough to rebuild the table.
Files are written to a temporary name in the cache directory and renamed
into place, so an interrupted write never leaves a truncated table.
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


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def class_table_key(law_text: str, q: int, m: int) -> str:
    return _sha(json.dumps([law_text, q, m, SCHEMA_VERSION]))


def class_table_path(cache_dir: str | Path, law: GroupLaw, q: int, m: int) -> Path:
    key = class_table_key(canonical_text(law), q, m)
    return Path(cache_dir) / f"classes-{key}.json"


def save_class_table(path: str | Path, table: ClassTable) -> Path:
    view = table.view
    payload = {
        "order": view.order,
        "class_of": [int(v) for v in table.class_of],
    }
    payload_text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    doc = {
        "kind": "class_table",
        "schema": SCHEMA_VERSION,
        "law": canonical_text(view.law),
        "q": view.q,
        "m": view.m,
        "checksum": _sha(payload_text),
        "payload": payload,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # write beside the target, then rename over it: readers see the old
    # file or the new one, never a partial write
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
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
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
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
    payload = doc.get("payload", {})
    payload_text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if _sha(payload_text) != doc.get("checksum"):
        _warn(f"cache {path.name}: checksum mismatch, ignoring")
        return None
    if not isinstance(payload, dict):
        _warn(f"cache {path.name}: malformed payload, ignoring")
        return None
    view = enumerate_group(law, tower, q, m, max_order=max_order)
    if payload.get("order") != view.order:
        _warn(f"cache {path.name}: order mismatch, ignoring")
        return None
    try:
        class_of = np.array(payload.get("class_of"))
    except ValueError:
        class_of = np.array(None)  # ragged lists
    # a missing map or any non-integer label gives another dtype kind
    if class_of.dtype.kind != "i" or class_of.shape != (view.order,):
        _warn(f"cache {path.name}: malformed class map, ignoring")
        return None
    class_of = class_of.astype(np.int64, copy=False)
    # classes are numbered in order of their least member
    labels, reps = np.unique(class_of, return_index=True)
    if labels[0] < 0 or np.any(np.diff(reps) <= 0):
        _warn(f"cache {path.name}: malformed class map, ignoring")
        return None
    if labels[-1] != labels.size - 1:
        _warn(f"cache {path.name}: empty class, ignoring")
        return None
    return ClassTable.from_class_of(view, class_of)
