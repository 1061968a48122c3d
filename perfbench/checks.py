"""Output checks for the benchmark's jobs, run outside the timed region.

Every job must exit 0 and leave a report whose classes, norm map and
witnesses are mutually consistent.  Built-in jobs must also reproduce the
digest recorded in expected.json; the digest covers classes (with
representatives and sizes), norm_perm and fixed, and leaves out witness
points, timings, version and schema, which may change without changing
the answer.  Seeded DSL variants are isomorphic to their built-in, so
their class sizes, fixedness profile and verdict must equal the
built-in's recorded ones.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _level_parts(level: dict) -> dict:
    return {k: level[k] for k in ("classes", "norm_perm", "fixed")}


def _profile(level: dict) -> list:
    """Sorted [class size, fixed, how many classes] triples."""
    tally = Counter((c["size"], f) for c, f in zip(level["classes"], level["fixed"]))
    return sorted([size, fixed, n] for (size, fixed), n in tally.items())


def facts(command: str, report=None, stdout: str = "") -> dict:
    """What a job's output must reproduce: digest, profile and verdict."""
    if command == "growth":
        return {"digest": digest(stdout), "profile": None, "verdict": None}
    if command == "asai":
        return {
            "digest": digest(_level_parts(report)),
            "profile": _profile(report),
            "verdict": report["verdict"]["trivial"],
        }
    return {
        "digest": digest([_level_parts(lv) for lv in report["levels"]]),
        "profile": [_profile(lv) for lv in report["levels"]],
        "verdict": report["verdict"]["kind"],
    }


def classes_processed(command: str, report=None, stdout: str = "") -> int:
    """Classes a job handled: summed over levels for easy-check."""
    if command == "growth":
        # first line: "<law> over F_q: N points, K classes"
        return int(stdout.splitlines()[0].rsplit(",", 1)[1].split()[0])
    if command == "asai":
        return len(report["classes"])
    return sum(len(lv["classes"]) for lv in report["levels"])


def _level_problems(level: dict, witness_found: list) -> list[str]:
    problems = []
    n = len(level["classes"])
    perm, fixed = level["norm_perm"], level["fixed"]
    if sorted(perm) != list(range(n)):
        problems.append("norm_perm is not a permutation of the classes")
    if sum(c["size"] for c in level["classes"]) != level["order"]:
        problems.append("class sizes do not sum to the group order")
    if fixed != [perm[c] == c for c in range(n)]:
        problems.append("fixed disagrees with norm_perm")
    if fixed != witness_found:
        problems.append("fixed[c] does not hold exactly when a witness was found")
    return problems


def _expected_verdict(job, p: int):
    """(asai trivial, easy-check kind) the family must show, or None."""
    family = job.group.split("(")[0]
    if family in ("ul", "ga_power"):
        return True, "easy_up_to"
    if family == "n2" and p > 2:
        return False, "not_easy"
    return None


def check(job, p: int, expected: dict, report=None, stdout: str = "") -> list[str]:
    """Problems with one job's output; empty when it is correct."""
    problems: list[str] = []
    if job.command == "asai":
        found = [w["found"] for w in report["centralizer_witnesses"]]
        problems += _level_problems(report, found)
    elif job.command == "easy-check":
        for lv in report["levels"]:
            problems += [f"m={lv['m']}: {x}" for x in _level_problems(lv, lv["witness_found"])]
        if not report["internally_consistent"]:
            problems.append("report is not internally consistent")
    got = facts(job.command, report, stdout)
    want = expected.get(job.reference.key)
    if want is None:
        return problems + [f"no recorded expectation for {job.reference.key}"]
    if job.variant:
        if got["profile"] != want["profile"]:
            problems.append("class sizes or fixedness differ from the built-in's")
        if got["verdict"] != want["verdict"]:
            problems.append("verdict differs from the built-in's")
    elif got["digest"] != want["digest"]:
        problems.append("output digest differs from the recorded one")
    rule = _expected_verdict(job, p)
    if job.command == "asai" and rule and report["verdict"]["trivial"] != rule[0]:
        problems.append("verdict.trivial contradicts the family")
    if job.command == "easy-check":
        if rule and report["verdict"]["kind"] != rule[1]:
            problems.append("verdict kind contradicts the family")
        status = "n/a" if job.variant or rule is None else "confirmed"
        if report["label_status"] != status:
            problems.append(f"label_status {report['label_status']!r}, expected {status!r}")
    return problems
