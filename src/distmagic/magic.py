"""Distance magic verification.

A labeling is a bijection from vertices onto {1..n}.  It is distance magic
when every open-neighborhood label sum (the vertex weight) equals one constant
k, and balanced when additionally the graph has even order and every
neighborhood that contains the vertex labeled i also contains the vertex
labeled n+1-i (its twin).  A `Labeling` is a bijection by type, checked
where it is made, so the verify functions check only its length.

Edge case fixed here once and for all: a graph with no edges and even order is
accepted as balanced distance magic with k = 0, and the report carries a
`degenerate` flag so callers can tell this apart from a genuinely positive
magic constant.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .errors import InputError
from .graphs import Graph, regularity

MAX_DIAGNOSTICS = 32


@dataclass(frozen=True)
class Labeling:
    """values[v] is the label of vertex v; labels form a bijection onto {1..n}.

    `Labeling(values)` checks that every value is an int (a bool or a float
    is not) and that the values form the bijection.  Builders whose output
    is one by construction (`label_balanced`, `label_cycle_product`,
    `parse_grid` after its own check, the lemma swaps and the scramble) skip
    it through `_of_values`.
    """

    values: tuple[int, ...]

    def __post_init__(self):
        values = self.values
        if not set(map(type, values)) <= {int}:
            v = next(v for v, x in enumerate(values) if type(x) is not int)
            raise InputError(f"label of vertex {v} must be an int, got {values[v]!r}")
        _check_bijection(values)

    @classmethod
    def _of_values(cls, values: tuple[int, ...]) -> "Labeling":
        """A labeling whose builder guarantees a bijection; no check."""
        labeling = object.__new__(cls)
        object.__setattr__(labeling, "values", values)
        return labeling

    @property
    def n(self) -> int:
        return len(self.values)


def _check_bijection(values, what: str = "labeling is not a bijection"):
    """Reject values that are not a bijection onto {1..len(values)}.

    n distinct values inside 1..n are a bijection, so a valid labeling costs
    one set and two scans; the duplicate, missing and out-of-range labels are
    listed after `what` only when that test fails.
    """
    n = len(values)
    if n and (len(set(values)) != n or min(values) < 1 or max(values) > n):
        seen = set()
        duplicates = set()
        for x in values:
            if x in seen:
                duplicates.add(x)
            seen.add(x)
        missing = sorted(set(range(1, n + 1)) - seen)
        out_of_range = sorted({x for x in values if not (1 <= x <= n)})
        parts = []
        if duplicates:
            parts.append(f"duplicate labels {sorted(duplicates)}")
        if missing:
            parts.append(f"missing labels {missing}")
        if out_of_range:
            parts.append(f"labels outside 1..{n}: {out_of_range}")
        raise InputError(f"{what}: " + "; ".join(parts))


def label_positions(labeling: Labeling) -> tuple[int, ...]:
    """positions[i-1] = the vertex carrying label i."""
    pos = [0] * len(labeling.values)
    for v, x in enumerate(labeling.values):
        pos[x - 1] = v
    return tuple(pos)


def weights(g: Graph, labeling: Labeling) -> tuple[int, ...]:
    vals = labeling.values
    return tuple([sum([vals[u] for u in row]) for row in g.adjacency])


@dataclass(frozen=True)
class Diagnostic:
    """One verification failure: what a vertex should have seen vs what it saw."""

    vertex: int
    expected: int
    actual: int
    kind: str  # "weight" or "twin"


@dataclass(frozen=True)
class VerifyReport:
    weights: tuple[int, ...]
    magic_constant: int | None
    is_distance_magic: bool
    is_balanced: bool
    degenerate: bool
    twin_map: tuple[int, ...] | None
    failures: tuple[Diagnostic, ...]
    failure_count: int


def verify_distance_magic(g: Graph, labeling: Labeling) -> VerifyReport:
    """Check the uniform-weight condition and report per-vertex weights."""
    if labeling.n != g.n:
        raise InputError(f"labeling has {labeling.n} entries for a graph on {g.n} vertices")
    w = weights(g, labeling)
    uniform = len(set(w)) <= 1
    k = (w[0] if g.n else 0) if uniform else None
    failures, count = _weight_failures(w) if not uniform else ((), 0)
    return VerifyReport(
        weights=w,
        magic_constant=k,
        is_distance_magic=uniform,
        is_balanced=False,
        degenerate=uniform and g.edge_count == 0,
        twin_map=None,
        failures=failures,
        failure_count=count,
    )


def verify_balanced(g: Graph, labeling: Labeling) -> VerifyReport:
    """Check the twin (balanced) condition on top of distance magic.

    Balanced requires: even order, uniform weights, and for every vertex w and
    every u in N(w), the twin t(u) -- the vertex labeled n+1-l(u) -- also in
    N(w).  Since u is in N(w) exactly when w is in N(u), that says N(u) is a
    subset of N(t(u)) for every u, and as t is an involution, N(u) = N(t(u)):
    one row comparison per vertex.  Each failing pair (w, u) is a vertex w of
    N(u) missing from N(t(u)); they are counted per row, and the first ones in
    (w, u) order are reported after the weight failures.  When balanced,
    twin_map[v] = t(v).

    The rows and the bijection are not checked again here: every Graph holds
    valid rows and every Labeling a bijection.  Time is O(n + |E| log D), D
    the largest degree, and extra memory O(n): failing pairs are counted,
    never collected.  The diagnostics come from a scan over w ascending and
    u in N(w) ascending that stops once MAX_DIAGNOSTICS are filled, with
    membership in N(t(u)) tested by bisection.
    """
    base = verify_distance_magic(g, labeling)
    n = g.n
    failures = list(base.failures)
    count = base.failure_count
    twin_map = None
    if n % 2 == 0:
        vals = labeling.values
        pos = label_positions(labeling)
        twins = [pos[n - x] for x in vals]
        adj = g.adjacency
        differs = bytearray(n)  # differs[u]: N(u) != N(t(u))
        twin_failures = 0
        for u, t in enumerate(twins):
            if adj[u] != adj[t]:
                differs[u] = 1
                twin_failures += len(set(adj[u]).difference(adj[t]))
        count += twin_failures
        if twin_failures and len(failures) < MAX_DIAGNOSTICS:
            _append_twin_diagnostics(adj, vals, twins, differs, failures)
        if not twin_failures and base.is_distance_magic:
            twin_map = tuple(twins)

    return VerifyReport(
        weights=base.weights,
        magic_constant=base.magic_constant,
        is_distance_magic=base.is_distance_magic,
        is_balanced=twin_map is not None,
        degenerate=base.degenerate,
        twin_map=twin_map,
        failures=tuple(failures),
        failure_count=count,
    )


def _append_twin_diagnostics(adj, vals, twins, differs, failures):
    """Append failing pairs (w, u) in (w, u) order until MAX_DIAGNOSTICS."""
    n = len(vals)
    for w, row in enumerate(adj):
        for u in row:
            if differs[u]:
                back = adj[twins[u]]
                i = bisect_left(back, w)
                if i == len(back) or back[i] != w:
                    failures.append(Diagnostic(w, expected=n + 1 - vals[u], actual=vals[u],
                                               kind="twin"))
                    if len(failures) == MAX_DIAGNOSTICS:
                        return


def _weight_failures(w):
    # reference value: the most common weight, smallest on ties
    counts = {}
    for x in w:
        counts[x] = counts.get(x, 0) + 1
    expected = min(sorted(counts), key=lambda x: (-counts[x], x))
    bad = [(v, x) for v, x in enumerate(w) if x != expected]
    diags = tuple(
        Diagnostic(v, expected=expected, actual=x, kind="weight")
        for v, x in bad[:MAX_DIAGNOSTICS]
    )
    return diags, len(bad)


# ---------------------------------------------------------------------------
# Equalized incomplete tournament export
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EitRow:
    team: int  # vertex id
    strength: int  # label
    opponents: tuple[int, ...]  # opponent strengths, ascending
    total: int


@dataclass(frozen=True)
class EitSchedule:
    teams: int
    rounds: int
    magic_constant: int
    rows: tuple[EitRow, ...]


def eit_schedule(g: Graph, labeling: Labeling) -> EitSchedule:
    """Export an r-regular distance magic labeling as an EIT(n, r) table.

    Team i has strength = its label, plays the teams labeling its neighbors,
    and every opponent-strength total equals the magic constant.
    """
    r = regularity(g)
    if r is None:
        raise InputError("EIT export needs a regular graph; degrees are not all equal")
    report = verify_distance_magic(g, labeling)
    if not report.is_distance_magic:
        raise InputError(
            f"EIT export needs a distance magic labeling; {report.failure_count} weight mismatches"
        )
    rows = []
    for v in range(g.n):
        opponents = tuple(sorted(labeling.values[u] for u in g.neighbors(v)))
        rows.append(EitRow(v, labeling.values[v], opponents, sum(opponents)))
    rows.sort(key=lambda row: row.strength)
    return EitSchedule(g.n, r, report.magic_constant, tuple(rows))


def format_eit(schedule: EitSchedule) -> str:
    out = [f"teams={schedule.teams} rounds={schedule.rounds} k={schedule.magic_constant}"]
    for row in schedule.rows:
        opp = ",".join(str(x) for x in row.opponents)
        out.append(f"team={row.team} strength={row.strength} opponents={opp} total={row.total}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Labeling text format: n lines "v l(v)"
# ---------------------------------------------------------------------------

def parse_labeling(text: str, n: int) -> Labeling:
    lines = text.splitlines()
    if len(lines) != n:
        raise InputError(f"expected {n} labeling lines, got {len(lines)}")
    values = [0] * n
    seen_vertices = set()
    for i, line in enumerate(lines, start=1):
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {i}: labeling line must be 'v label', got {line!r}")
        try:
            v, lab = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"line {i}: labeling line must be two integers, got {line!r}")
        if not (0 <= v < n):
            raise InputError(f"line {i}: vertex {v} out of range [0,{n})")
        if v in seen_vertices:
            raise InputError(f"line {i}: vertex {v} labeled twice")
        seen_vertices.add(v)
        values[v] = lab
    return Labeling(tuple(values))


def format_labeling(labeling: Labeling) -> str:
    return "".join(f"{v} {x}\n" for v, x in enumerate(labeling.values))


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def report_kv(report: VerifyReport) -> str:
    """Stable machine-readable key=value form."""
    k = "none" if report.magic_constant is None else str(report.magic_constant)
    lines = [
        f"is_distance_magic={_b(report.is_distance_magic)}",
        f"magic_constant={k}",
        f"is_balanced={_b(report.is_balanced)}",
        f"degenerate={_b(report.degenerate)}",
        f"failure_count={report.failure_count}",
    ]
    return "\n".join(lines) + "\n"


def report_text(report: VerifyReport) -> str:
    """Human-readable block."""
    out = []
    if report.is_distance_magic:
        out.append(f"distance magic: yes (k = {report.magic_constant})")
    else:
        out.append("distance magic: no")
    out.append(f"balanced: {'yes' if report.is_balanced else 'no'}")
    if report.degenerate:
        out.append("degenerate: graph has no edges, k = 0 by convention")
    if report.weights:
        out.append(f"weights: min={min(report.weights)} max={max(report.weights)}")
    if report.twin_map is not None:
        pairs = sorted({tuple(sorted((v, t))) for v, t in enumerate(report.twin_map)})
        out.append("twin pairs: " + " ".join(f"({u},{v})" for u, v in pairs))
    if report.failure_count:
        out.append(f"failures: {report.failure_count} total, first {len(report.failures)} shown")
        for d in report.failures:
            out.append(f"  vertex {d.vertex}: {d.kind} expected {d.expected}, got {d.actual}")
    return "\n".join(out) + "\n"


def _b(flag: bool) -> str:
    return "true" if flag else "false"
