"""Easiness verdicts: ground-truth family labels and the scan engine.

A group is easy when every geometric point lies in the neutral connected
component of its centralizer.  The equivalence driving this module: the
twisting operator is trivial on class functions of G(F_{q^m}) for all
m > 0 exactly when the group is easy.  One nontrivial permutation at any
m therefore certifies non-easiness; all-trivial up to a bound M is only
evidence ("easy up to M"), never proof, because the quantifier runs over
every m.

Both entry points take levels from one loop, which ends at the first cap
hit (max_order, or the tower's degree_cap), and classify them with one
rule, `_verdict`.  A level is its NormMapResult: its `fixed` mask says
which classes the norm map fixes, and its `has_witness` mask which have
a witness that passed norm_map's checks.  The scan is that loop stopped
at its first certificate; the crosscheck takes every level.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from .asai import NormMapResult, is_asai_trivial, moved_classes, norm_map

# the crosscheck reads witnesses from norm_map's masks; centralizer_witness
# stays bound here because perfbench/tracer.py wraps it at this import site
from .asai import centralizer_witness  # noqa: F401
from .errors import CapExceeded
from .grouplaw import GroupLaw
from .fields import FieldTower
from .points import DEFAULT_MAX_ORDER, Point, conjugacy_classes, enumerate_group

NOT_EASY = "not_easy"
EASY = "easy"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class FamilyLabel:
    """Ground-truth label for a built-in family, with its justification."""

    family: str
    label: str  # easy | not_easy | unknown
    condition: str
    rationale: str


def family_oracle(law: GroupLaw) -> FamilyLabel:
    """Label built-in families; user laws get Unknown.

    The n2 family is labelled not-easy only in characteristic > 2; its
    p = 2 runs are exploratory and carry no claim.
    """
    if law.family == "ul":
        return FamilyLabel(
            family=f"ul({law.params[0]})",
            label=EASY,
            condition="any p",
            rationale="unitriangular groups are easy: every element lies in the "
            "connected component of its centralizer",
        )
    if law.family == "ga_power":
        return FamilyLabel(
            family=f"ga_power({law.params[0]})",
            label=EASY,
            condition="any p",
            rationale="commutative: Z(g) = G is connected for every g",
        )
    if law.family == "n2":
        if law.p > 2:
            return FamilyLabel(
                family="n2",
                label=NOT_EASY,
                condition="p > 2",
                rationale="noncommutative connected unipotent of dimension 2: for "
                "noncentral g the connected component of Z(g) is the center, "
                "which misses g",
            )
        return FamilyLabel(
            family="n2",
            label=UNKNOWN,
            condition="p = 2",
            rationale="the dimension-2 non-easiness claim requires p > 2; "
            "p = 2 runs are exploratory",
        )
    return FamilyLabel(
        family=law.name,
        label=UNKNOWN,
        condition="",
        rationale="user-supplied law: no ground-truth label attaches",
    )


@dataclass
class EasinessVerdict:
    """Outcome of a scan over m = 1..max_m.

    kind == "not_easy" carries a verified witness (moved class, level m);
    "easy_up_to" means every operator up to the bound was the identity
    permutation -- evidence, not proof; "inconclusive" records a cap hit.
    evidence lists (m, operator trivial?) for every completed level.
    """

    kind: str  # not_easy | easy_up_to | inconclusive
    witness: Point | None = None
    witness_m: int | None = None
    up_to_m: int | None = None
    evidence: list[tuple[int, bool]] = field(default_factory=list)


@dataclass
class ConsistencyReport:
    """Crosscheck matrix over m <= max_m plus the family-label comparison.

    Each level is the norm map's result at m = result.view.m.  Classwise,
    fixedness under the norm map (result.fixed) and existence of a
    verified centralizer witness (result.has_witness) are both decidable
    and must coincide; any disagreement is an internal inconsistency (a
    bug), never data.  The label_status compares against the family
    oracle: a NotEasy label needs some nontrivial operator within max_m
    ("confirmed") or stays "unresolved"; an Easy label must see
    all-trivial operators.
    """

    levels: list[NormMapResult]
    internally_consistent: bool
    family_label: FamilyLabel
    label_status: str  # confirmed | unresolved | n/a | CONTRADICTION
    verdict: EasinessVerdict


def easiness_scan(
    law: GroupLaw, tower: FieldTower, q: int, max_m: int = 3, max_order: int = DEFAULT_MAX_ORDER
) -> EasinessVerdict:
    """Run the norm map for m = 1..max_m and classify the law.

    Stops at the first nontrivial operator: that is already a certificate
    of non-easiness, with the first moved class as witness.
    """
    levels: list[NormMapResult] = []
    for result in _level_checks(law, tower, q, max_m, max_order):
        levels.append(result)
        if not is_asai_trivial(result):
            break
    return _verdict(levels, max_m)


def _level_checks(law, tower, q, max_m, max_order) -> Iterator[NormMapResult]:
    """Norm maps at levels m = 1, 2, ..., max_m in turn; stop at the first cap hit."""
    for m in range(1, max_m + 1):
        try:
            view = enumerate_group(law, tower, q, m, max_order=max_order)
            result = norm_map(conjugacy_classes(view))
        except CapExceeded:
            return
        yield result


def _verdict(levels: list[NormMapResult], max_m: int) -> EasinessVerdict:
    """Classify the completed levels of the window m = 1..max_m.

    A nontrivial operator certifies non-easiness even if a cap cut the
    window short; fewer than max_m all-trivial levels is inconclusive.
    """
    evidence = [(result.view.m, is_asai_trivial(result)) for result in levels]
    for result in levels:
        moved = moved_classes(result)
        if moved:
            return EasinessVerdict(
                kind=NOT_EASY,
                witness=result.table.rep_point(moved[0]),
                witness_m=result.view.m,
                evidence=evidence,
            )
    if len(levels) < max_m:
        return EasinessVerdict(kind="inconclusive", up_to_m=len(levels), evidence=evidence)
    return EasinessVerdict(kind="easy_up_to", up_to_m=max_m, evidence=evidence)


def easiness_crosscheck(
    law: GroupLaw, tower: FieldTower, q: int, max_m: int = 3, max_order: int = DEFAULT_MAX_ORDER
) -> ConsistencyReport:
    """Full matrix over m <= max_m: fixedness, witnesses, agreement, label."""
    levels = list(_level_checks(law, tower, q, max_m, max_order))
    verdict = _verdict(levels, max_m)

    internally_consistent = all((r.has_witness == r.fixed).all() for r in levels)
    label = family_oracle(law)
    any_nontrivial = verdict.kind == NOT_EASY
    if label.label == EASY:
        label_status = "CONTRADICTION" if any_nontrivial else "confirmed"
    elif label.label == NOT_EASY:
        label_status = "confirmed" if any_nontrivial else "unresolved"
    else:
        label_status = "n/a"
    return ConsistencyReport(
        levels=levels,
        internally_consistent=internally_consistent,
        family_label=label,
        label_status=label_status,
        verdict=verdict,
    )
