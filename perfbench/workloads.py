"""The benchmark's workloads: fixed lists of CLI jobs.

Each job is one user invocation of `asaitwist asai` or `asaitwist
easy-check` (or the growth table of scripts/centralizer_growth.py), so
each builds its own FieldTower exactly as a user's command does.  Sizes
are chosen so that one pass over a workload's jobs takes a few seconds
on a 2-core machine; a run repeats passes and reports medians.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    """One invocation.

    command is "asai", "easy-check" or "growth".  level is m for asai,
    max-m for easy-check and the number of levels for growth.  A variant
    job runs on a seeded DSL variant of the built-in `group` (see
    lawgen.py) instead of the built-in itself.  cache is None (no
    --cache), "cold" (an empty cache directory every pass) or "warm" (a
    directory filled during set-up).
    """

    command: str
    group: str
    q: int
    level: int
    variant: bool = False
    cache: str | None = None

    @property
    def key(self) -> str:
        law = f"variant-of-{self.group}" if self.variant else self.group
        flag = {"asai": "m", "easy-check": "max-m", "growth": "levels"}[self.command]
        cache = f" cache={self.cache}" if self.cache else ""
        return f"{self.command} {law} q={self.q} {flag}={self.level}{cache}"

    @property
    def reference(self) -> "Job":
        """The built-in, uncached job whose output this one must match."""
        return Job(self.command, self.group, self.q, self.level)


@dataclass(frozen=True)
class Workload:
    """A job list plus why it exists.

    largest names the job whose time is reported as largest_job_s.
    loads and bypasses name the layers the workload is meant to exercise
    or skip.
    """

    name: str
    why: str
    jobs: tuple[Job, ...]
    largest: str
    loads: str
    bypasses: str


_NONABELIAN_ASAI = (
    Job("asai", "ul(4)", 2, 2),
    Job("asai", "ul(3)", 2, 4),
    Job("asai", "n2", 5, 2),
    Job("asai", "n2", 3, 3),
    Job("asai", "ul(3)", 3, 2, variant=True),
)


def _cached(jobs, cache):
    return tuple(
        Job(j.command, j.group, j.q, j.level, j.variant, cache) for j in jobs
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="nonabelian_classes",
            why="noncommutative laws: one conjugation pass per class and the "
            "witness scan dominate; class tables are written to a cold cache and "
            "read from a warm one; easiness scans and the growth table",
            jobs=_cached(_NONABELIAN_ASAI, "cold")
            + _cached(_NONABELIAN_ASAI, "warm")
            + (
                Job("easy-check", "n2", 3, 4),
                Job("easy-check", "n2", 2, 5),
                Job("easy-check", "ul(3)", 2, 4),
                Job("easy-check", "n2", 4, 2),
                Job("easy-check", "n2", 9, 1),
                Job("easy-check", "ul(3)", 4, 1),
                Job("easy-check", "n2", 3, 3, variant=True),
                Job("growth", "n2", 3, 4),
            ),
            largest="asai ul(4) q=2 m=2 cache=cold",
            loads="points.classes and its conjugation passes, "
            "points.find_conjugator, asai.witness, cache.save (cold jobs), "
            "cache.load (warm jobs), easiness.crosscheck, grouplaw.validate of DSL "
            "input, fields.make_field over many levels, points.centralizer_counts",
            bypasses="the class pass on warm jobs; the Lang solve is a minor share",
        ),
        Workload(
            name="abelian_lang",
            why="commutative laws: classes are free and every element is its own "
            "class, so per-class Lang solves and report building (quadratic in "
            "the class count) dominate",
            jobs=(
                Job("asai", "ga_power(2)", 2, 5),
                Job("asai", "ga_power(3)", 2, 3),
                Job("asai", "ga_power(2)", 4, 2),
                Job("asai", "ga_power(2)", 3, 2, variant=True),
                Job("easy-check", "ga_power(2)", 2, 4),
                Job("easy-check", "ga_power(2)", 4, 2),
            ),
            largest="asai ga_power(2) q=2 m=5",
            loads="lang.solve, fields.as_solve, asai.norm_map, asai.witness "
            "(its scan stops at once), cli report building (ClassTable.sizes "
            "read three times per class)",
            bypasses="points conjugation passes (commutative shortcut), the cache",
        ),
    )
}
