"""Truth tables over re-fuzzed cells, and their reduction to cut sets.

A truth table's axes are the swept dimensions, the injection context (app
state) among them when a sweep varies it; its scope names the contexts its
runs were injected in. Each row aggregates the repeated runs of one cell
into a failure rate over the runs that were valid (reached the context).
Cells where no run was valid are set aside as unreachable, and rows whose
runs disagree are split by the observed mode at injection when that
observation separates the outcomes perfectly; rows that stay mixed are
flagged as residual and never satisfy a cut set.

A cut set is a minimal conjunction of column literals that covers at
least one row and only rows failing at 100 percent. Minimality is local:
dropping any single literal breaks sufficiency (which, for this covering
semantics, is equivalent to no proper subset being sufficient). A minimal
conjunction whose failing coverage is contained in that of another kept
conjunction is then discarded: it adds no failing evidence of its own
(with a split mode column, the delay band is a proxy for the mode race,
and this rule is what drops it).

Cut sets across tables assemble into a fault tree (one OR of AND gates)
that serializes to DOT and JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import InvalidOnly
from .executor import ExecutionProfile
from .fuzzspec import DelayBand, FuzzSpecification, MissionPlan
from .oracle import FAILURE, INVALID, Verdict
from .sutmodel import NO_ACTION, AutopilotMode, SutConfig
from .testgen import (
    AXES,
    CONTEXT,
    TestCase,
    axis_levels,
    axis_value,
    derive_seed,
    focused_generate,
    level_name,
    new_case,
)

#: observed-mode markers for rows that were not split
MODE_VARIES = "*"
MODE_ABSENT = "-"

MODE_COLUMN = "mode_at_injection"

#: executes tests and returns (test, profile, verdict) triples in order
Runner = Callable[[list[TestCase]], list[tuple[TestCase, ExecutionProfile, Verdict]]]

@dataclass(frozen=True)
class TableRow:
    values: tuple[tuple[str, str], ...]   # (axis, value) in table axis order
    observed_mode: str                    # a mode, "*" (varies), or "-" (no injection)
    runs: int
    valid: int
    failures: int
    split: bool
    residual: bool
    test_ids: tuple[str, ...]

    @property
    def failure_rate(self) -> float:
        return 100.0 * self.failures / self.valid if self.valid else 0.0

    @property
    def always_fails(self) -> bool:
        return self.valid > 0 and self.failures == self.valid

    def value_of(self, axis: str) -> str:
        if axis == MODE_COLUMN:
            return self.observed_mode
        for a, v in self.values:
            if a == axis:
                return v
        raise KeyError(axis)

    def to_dict(self) -> dict:
        return {
            "values": dict(self.values),
            "observed_mode": self.observed_mode,
            "runs": self.runs,
            "valid": self.valid,
            "failures": self.failures,
            "failure_rate": round(self.failure_rate, 4),
            "split": self.split,
            "residual": self.residual,
            "test_ids": list(self.test_ids),
        }


@dataclass(frozen=True)
class TruthTable:
    scope: str
    axes: tuple[str, ...]
    rows: tuple[TableRow, ...]
    unreachable: tuple[tuple[tuple[str, str], ...], ...] = ()

    def has_mode_column(self) -> bool:
        return any(r.observed_mode not in (MODE_VARIES, MODE_ABSENT) for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "scope": self.scope,
            "axes": list(self.axes),
            "rows": [r.to_dict() for r in self.rows],
            "unreachable": [dict(cell) for cell in self.unreachable],
        }


def table_from_results(
    axes: Sequence[str],
    items: Sequence[tuple[TestCase, ExecutionProfile, Verdict]],
) -> TruthTable:
    """Aggregate executed focused runs into a truth table over axes, scoped
    to the items' states in order, joined by "+".

    Raises ValueError when the items come from several contexts and the
    context is not an axis, and InvalidOnly when not a single cell produced
    a valid run (the context was never reachable, so there is nothing to say).
    """
    states = dict.fromkeys(test.app_state.value for test, _p, _v in items)
    scope = "+".join(states)
    if len(states) > 1 and CONTEXT not in axes:
        raise ValueError(f"runs from the contexts {scope} need the {CONTEXT} axis")

    def cell_key(test: TestCase) -> tuple[tuple[str, str], ...]:
        return tuple((axis, axis_value(test, axis)) for axis in axes)

    cells: dict[tuple, list[tuple[TestCase, ExecutionProfile, Verdict]]] = {}
    for test, profile, verdict in items:
        cells.setdefault(cell_key(test), []).append((test, profile, verdict))

    rows: list[TableRow] = []
    unreachable: list[tuple[tuple[str, str], ...]] = []
    for key in sorted(cells):
        bucket = cells[key]
        valid = [(t, p, v) for t, p, v in bucket if v.verdict != INVALID]
        if not valid:
            unreachable.append(key)
            continue
        rows.extend(_rows_for_cell(key, bucket, valid))

    if not rows:
        raise InvalidOnly(
            f"every cell scoped to {scope} was invalid; the state was never reached"
        )
    return TruthTable(
        scope=scope, axes=tuple(axes), rows=tuple(rows), unreachable=tuple(unreachable)
    )


def build_truth_table(
    representative: TestCase,
    axes: Sequence[str],
    runs_per_cell: int,
    runner: Runner,
    spec: FuzzSpecification,
    master_seed: int = 0,
) -> TruthTable:
    """Focused re-fuzz around a representative, aggregated into a table.

    The runner executes and classifies the generated tests (and may store
    them); build_truth_table only shapes its output. The tests, and so the
    table, are a function of the representative's sweep key alone (see
    testgen.sweep_tag). The axes go to focused_generate as given, so an
    unknown or repeated axis raises UnknownAxis; the table lists them in
    AXES order.
    """
    tests = focused_generate(representative, axes, runs_per_cell, spec, master_seed)
    ordered = [a for a in AXES if a in axes]
    return table_from_results(ordered, runner(tests))


def _rows_for_cell(
    key: tuple[tuple[str, str], ...],
    bucket: list,
    valid: list,
) -> list[TableRow]:
    def row(runs: int, items: list, observed_mode: str, split=False, residual=False):
        return TableRow(
            values=key,
            observed_mode=observed_mode,
            runs=runs,
            valid=len(items),
            failures=sum(1 for _t, _p, v in items if v.verdict == FAILURE),
            split=split,
            residual=residual,
            test_ids=tuple(t.test_id for t, _p, _v in items),
        )

    failures = sum(1 for _t, _p, v in valid if v.verdict == FAILURE)
    modes = [_observed_mode(t, p) for t, p, _v in valid]
    uniform_mode = modes[0] if len(set(modes)) == 1 else MODE_VARIES

    if 0 < failures < len(valid):
        groups: dict[str, list] = {}
        for (t, p, v), m in zip(valid, modes):
            groups.setdefault(m, []).append((t, p, v))
        pure = len(groups) > 1 and all(
            len({item[2].verdict == FAILURE for item in grp}) == 1 for grp in groups.values()
        )
        if pure:
            return [row(len(grp), grp, mode, split=True) for mode, grp in sorted(groups.items())]
        return [row(len(bucket), valid, uniform_mode, residual=True)]

    return [row(len(bucket), valid, uniform_mode)]


def _observed_mode(test: TestCase, profile: ExecutionProfile) -> str:
    if test.action == NO_ACTION or profile.mode_at_injection is None:
        return MODE_ABSENT
    return profile.mode_at_injection


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

Conjunction = tuple[tuple[str, str], ...]


def _row_matches(row: TableRow, literal: tuple[str, str]) -> bool:
    axis, value = literal
    if axis == MODE_COLUMN:
        return row.observed_mode == value  # "*" and "-" rows never match a mode literal
    return row.value_of(axis) == value


def minimize(table: TruthTable) -> list[Conjunction]:
    """Minimal sufficient conjunctions over the table's columns.

    Sufficient: covers at least one row and every covered row fails at
    100 percent. Minimal: no single literal can be dropped. A conjunction
    whose coverage is contained in another's is then discarded (largest
    coverage kept first), so each surviving cut set owns at least one
    failing row no other one explains. Deterministic: output ordered by
    (size, lexicographic).
    """
    rows = table.rows
    n = len(rows)
    all_mask = (1 << n) - 1
    failing_mask = 0
    for i, row in enumerate(rows):
        if row.always_fails:
            failing_mask |= 1 << i

    def sufficient(mask: int) -> bool:
        return mask != 0 and (mask & ~failing_mask) == 0

    if sufficient(all_mask):
        return [()]
    if failing_mask == 0:
        return []

    # literal pool: per column, the values failing rows actually take
    columns: list[str] = list(table.axes)
    if table.has_mode_column():
        columns.append(MODE_COLUMN)
    pool: list[tuple[str, str]] = []
    for axis in columns:
        seen: list[str] = []
        for i, row in enumerate(rows):
            if not (failing_mask >> i) & 1:
                continue
            v = row.value_of(axis)
            if axis == MODE_COLUMN and v in (MODE_VARIES, MODE_ABSENT):
                continue
            if v not in seen:
                seen.append(v)
        pool.extend((axis, v) for v in sorted(seen))

    masks = {
        lit: sum(1 << i for i, row in enumerate(rows) if _row_matches(row, lit))
        for lit in pool
    }

    def conj_mask(conj: Conjunction) -> int:
        m = all_mask
        for lit in conj:
            m &= masks[lit]
        return m

    minimal: list[Conjunction] = []
    # breadth-first by size; only conjunctions that still cover both a
    # failing and a non-failing row are worth extending
    frontier: list[tuple[Conjunction, int]] = [((), all_mask)]
    pool_index = {lit: i for i, lit in enumerate(pool)}
    while frontier:
        next_frontier: list[tuple[Conjunction, int]] = []
        for conj, mask in frontier:
            used_axes = {axis for axis, _v in conj}
            start = pool_index[conj[-1]] + 1 if conj else 0
            for lit in pool[start:]:
                if lit[0] in used_axes:
                    continue
                m = mask & masks[lit]
                if m == 0 or (m & failing_mask) == 0:
                    continue
                cand = conj + (lit,)
                if sufficient(m):
                    if all(
                        not sufficient(conj_mask(tuple(l for l in cand if l != drop)))
                        for drop in cand
                    ):
                        minimal.append(cand)
                else:
                    next_frontier.append((cand, m))
        frontier = next_frontier

    # coverage-dominance: keep a conjunction only if no kept one already
    # explains every failing row it covers
    by_coverage = sorted(
        minimal, key=lambda c: (-conj_mask(c).bit_count(), len(c), c)
    )
    kept: list[Conjunction] = []
    kept_masks: list[int] = []
    for conj in by_coverage:
        m = conj_mask(conj)
        if any(m & ~km == 0 for km in kept_masks):
            continue
        kept.append(conj)
        kept_masks.append(m)

    kept.sort(key=lambda c: (len(c), c))
    return kept


# ---------------------------------------------------------------------------
# cut sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutSet:
    literals: tuple[tuple[str, str], ...]
    sources: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "literals": [{"column": a, "value": v} for a, v in self.literals],
            "sources": list(self.sources),
        }


def cut_sets_for_table(table: TruthTable, source: str = "") -> list[CutSet]:
    """The table's cut sets; when the context is not one of its columns, the
    table's one app state leads every set."""
    lead = () if CONTEXT in table.axes else ((CONTEXT, table.scope),)
    sources = (source,) if source else ()
    return [CutSet(literals=lead + conj, sources=sources) for conj in minimize(table)]


def merge_cut_sets(groups: Sequence[Sequence[CutSet]]) -> list[CutSet]:
    """Dedup identical literal sets across tables, merging provenance, and
    keep only the minimal ones: a set holding every literal of another, and
    more, is absorbed by it (A or (A and B) is A). A kept set keeps its own
    sources."""
    merged: dict[tuple, list[str]] = {}
    for group in groups:
        for cs in group:
            sources = merged.setdefault(cs.literals, [])
            sources.extend(s for s in cs.sources if s not in sources)
    sets = [frozenset(lits) for lits in merged]
    return [CutSet(literals=lits, sources=tuple(sources))
            for (lits, sources), own in zip(merged.items(), sets)
            if not any(other < own for other in sets)]


# ---------------------------------------------------------------------------
# soundness re-execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SoundnessResult:
    cut_set: CutSet
    verdicts: tuple[str, ...]
    sound: bool
    note: str = ""
    #: names the check and its trials, s-<tag>-<i>
    tag: str = ""
    #: the flown trials, in order (not serialized: tests.json stores their recipe)
    tests: tuple[TestCase, ...] = ()

    def to_dict(self) -> dict:
        return {
            "cut_set": self.cut_set.to_dict(),
            "verdicts": list(self.verdicts),
            "sound": self.sound,
            "note": self.note,
            "tag": self.tag,
        }


def _delay_for(
    mode: Optional[str], bands: Sequence[DelayBand], config: SutConfig
) -> Optional[tuple[DelayBand, float]]:
    """Pick (band, delay) among bands realizing mode, the value of an
    observed-mode literal or None: the midpoint of the bands' span in the
    mode's window of delays or, in a gap between bands, of the first band's
    part of that window; None if no band meets it."""
    lo_w, hi_w = config.latency_window_ms
    # STABILIZED is seen before the switch window opens, OFFBOARD once it closed
    window_lo, window_hi = {
        AutopilotMode.STABILIZED.value: (-math.inf, lo_w),
        AutopilotMode.OFFBOARD.value: (hi_w, math.inf),
    }.get(mode, (-math.inf, math.inf))
    lo = max(min(b.min_ms for b in bands), window_lo)
    hi = min(max(b.max_ms for b in bands), window_hi)
    if lo >= hi:
        return None
    delay = (lo + hi) / 2.0
    for b in bands:
        if b.min_ms <= delay < b.max_ms:
            return b, delay
    # in a gap: the window, a half-line that meets the span, meets a band
    parts = ((b, max(b.min_ms, window_lo), min(b.max_ms, window_hi)) for b in bands)
    band, lo, hi = next(part for part in parts if part[1] < part[2])
    return band, (lo + hi) / 2.0


#: trials per soundness check
SOUNDNESS_TRIALS = 3


def soundness_trials(
    literals: tuple[tuple[str, str], ...],
    spec: FuzzSpecification,
    mission_id: str,
    config: SutConfig,
    master_seed: int = 0,
    trials: int = SOUNDNESS_TRIALS,
) -> tuple[str, Optional[list[TestCase]]]:
    """The tag and the trials of the soundness check of a cut set with
    these literals; the trials are None when the literals cannot be
    realized: one names a level the spec does not give, or the mode/band
    literals fit no delay under config.

    The tag is eight hex digits hashed from the master seed and the
    literals, in the style of testgen.sweep_tag, and trial i is
    s-<tag>-<i>, seeded from the master seed, the literals and i. Each axis
    takes the first spec level that a literal names, or else its first
    level; the injection delay is chosen to realize the band and
    observed-mode literals.
    """
    tag = f"{derive_seed(master_seed, 'soundness', literals):016x}"[:8]
    lits = dict(literals)
    named = {axis: [level for level in axis_levels(spec, axis)
                    if axis not in lits or level_name(axis, level) == lits[axis]]
             for axis in AXES}
    placed = all(named.values()) and _delay_for(lits.get(MODE_COLUMN), named["delay_band"], config)
    if not placed:
        return tag, None
    band, delay = placed
    levels = tuple(band if axis == "delay_band" else named[axis][0] for axis in AXES)
    return tag, [
        new_case(
            f"s-{tag}-{trial}", trial, spec.spec_id, mission_id, levels, delay,
            derive_seed(master_seed, "soundness", str(literals), trial), trial,
        )
        for trial in range(trials)
    ]


def soundness_check(
    cut_set: CutSet,
    spec: FuzzSpecification,
    mission: MissionPlan,
    config: SutConfig,
    runner: Runner,
    master_seed: int = 0,
    trials: int = SOUNDNESS_TRIALS,
) -> SoundnessResult:
    """Fly fresh runs satisfying the cut set; sound means all fail.

    The trials are soundness_trials' for the cut set's literals. The
    runner flies and judges them (and may store them), as in
    build_truth_table; mission and config must be the runner's. A cut set
    whose mode literal cannot be realized under the config is reported as
    such, and flies nothing.
    """
    tag, tests = soundness_trials(
        cut_set.literals, spec, mission.id, config, master_seed, trials
    )
    if tests is None:
        return SoundnessResult(cut_set, (), False, "mode/band literals are unrealizable", tag)
    verdicts = tuple(v.verdict for _t, _p, v in runner(tests))
    return SoundnessResult(
        cut_set, verdicts, all(v == FAILURE for v in verdicts), tag=tag, tests=tuple(tests)
    )


# ---------------------------------------------------------------------------
# fault tree
# ---------------------------------------------------------------------------

#: literal column -> display category and fill color
_CATEGORY = {
    CONTEXT: ("state", "yellow"),
    MODE_COLUMN: ("state", "yellow"),
    "action": ("action", "pink"),
}
_DEFAULT_CATEGORY = ("environment", "palegreen")


def literal_category(column: str) -> tuple[str, str]:
    return _CATEGORY.get(column, _DEFAULT_CATEGORY)


@dataclass(frozen=True)
class FaultTree:
    hazard: str
    cut_sets: tuple[CutSet, ...]

    def to_dict(self) -> dict:
        return {
            "hazard": self.hazard,
            "gate": "OR",
            "cut_sets": [
                {
                    "gate": "AND",
                    "literals": [
                        {
                            "column": a,
                            "value": v,
                            "category": literal_category(a)[0],
                        }
                        for a, v in cs.literals
                    ],
                    "sources": list(cs.sources),
                }
                for cs in self.cut_sets
            ],
        }

    def to_dot(self) -> str:
        lines = [
            "digraph fault_tree {",
            "  rankdir=TB;",
            '  node [fontname="Helvetica"];',
            f'  root [shape=box, style=bold, label="{_dot_escape(self.hazard)}"];',
        ]
        if len(self.cut_sets) != 1:
            lines.append('  or0 [shape=invtriangle, label="OR"];')
            lines.append("  root -> or0;")
            parent = "or0"
        else:
            parent = "root"
        for i, cs in enumerate(self.cut_sets):
            gate = f"and{i}"
            lines.append(f'  {gate} [shape=invhouse, label="AND"];')
            lines.append(f"  {parent} -> {gate};")
            for j, (column, value) in enumerate(cs.literals):
                _category, color = literal_category(column)
                node = f"leaf{i}_{j}"
                label = _dot_escape(f"{column} = {value}")
                lines.append(
                    f'  {node} [shape=ellipse, style=filled, fillcolor={color}, label="{label}"];'
                )
                lines.append(f"  {gate} -> {node};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def build_fault_tree(hazard: str, cut_sets: Sequence[CutSet]) -> FaultTree:
    return FaultTree(hazard=hazard, cut_sets=tuple(cut_sets))
