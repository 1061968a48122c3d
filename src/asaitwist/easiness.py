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
rule, `_verdict`.  The scan is that loop stopped at its first
certificate; the crosscheck takes every level.  A class's witness is the
one norm_map checked; one that failed its checks counts as none.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from .asai import CentralizerWitness, NormMapResult, centralizer_witness, norm_map
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
class LevelCheck:
    """Classwise data for one m: fixedness vs. witness existence."""

    m: int
    result: NormMapResult
    fixed: list[bool]
    witnesses: list[CentralizerWitness | None]
    agree: list[bool]

    @property
    def consistent(self) -> bool:
        return all(self.agree)


@dataclass
class ConsistencyReport:
    """Crosscheck matrix over m <= max_m plus the family-label comparison.

    Classwise, fixedness under the norm map and existence of a verified
    centralizer witness are both decidable and must coincide; any
    disagreement is an internal inconsistency (a bug), never data.  The
    label_status compares against the family oracle: a NotEasy label needs
    some nontrivial operator within max_m ("confirmed") or stays
    "unresolved"; an Easy label must see all-trivial operators.
    """

    law_name: str
    q: int
    max_m: int
    levels: list[LevelCheck]
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
    levels: list[LevelCheck] = []
    for lc in _level_checks(law, tower, q, max_m, max_order):
        levels.append(lc)
        if not all(lc.fixed):
            break
    return _verdict(levels, max_m)


def check_level(
    law: GroupLaw, tower: FieldTower, q: int, m: int, max_order: int = DEFAULT_MAX_ORDER
) -> LevelCheck:
    """Norm map at level m; a witness that failed its checks counts as none."""
    view = enumerate_group(law, tower, q, m, max_order=max_order)
    table = conjugacy_classes(view)
    result = norm_map(view, table)
    fixed = [result.perm[c] == c for c in range(len(table))]
    witnesses = [
        None if ci in result.witness_errors else centralizer_witness(result, ci)
        for ci in range(len(table))
    ]
    agree = [(w is not None) == f for w, f in zip(witnesses, fixed)]
    return LevelCheck(m, result, fixed, witnesses, agree)


def _level_checks(law, tower, q, max_m, max_order) -> Iterator[LevelCheck]:
    """Check levels m = 1, 2, ..., max_m in turn; stop at the first cap hit."""
    for m in range(1, max_m + 1):
        try:
            lc = check_level(law, tower, q, m, max_order=max_order)
        except CapExceeded:
            return
        yield lc


def _verdict(levels: list[LevelCheck], max_m: int) -> EasinessVerdict:
    """Classify the completed levels of the window m = 1..max_m.

    A nontrivial operator certifies non-easiness even if a cap cut the
    window short; fewer than max_m all-trivial levels is inconclusive.
    """
    evidence = [(lc.m, all(lc.fixed)) for lc in levels]
    for lc in levels:
        if not all(lc.fixed):
            return EasinessVerdict(
                kind=NOT_EASY,
                witness=lc.result.table.rep_point(lc.fixed.index(False)),
                witness_m=lc.m,
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

    internally_consistent = all(lc.consistent for lc in levels)
    label = family_oracle(law)
    any_nontrivial = verdict.kind == NOT_EASY
    if label.label == EASY:
        label_status = "CONTRADICTION" if any_nontrivial else "confirmed"
    elif label.label == NOT_EASY:
        label_status = "confirmed" if any_nontrivial else "unresolved"
    else:
        label_status = "n/a"
    return ConsistencyReport(
        law_name=law.name,
        q=q,
        max_m=max_m,
        levels=levels,
        internally_consistent=internally_consistent,
        family_label=label,
        label_status=label_status,
        verdict=verdict,
    )
