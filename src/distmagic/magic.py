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

`verify_grid` gives `verify_balanced`'s report on the direct product of two
cycles from the grid alone, without building the product graph.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain, compress, islice, repeat
from operator import add, eq, ne, sub

from ._value import Value
from .errors import InputError
from .graphs import WRITE_BLOCK, Graph, _scan_blocks, regularity

MAX_DIAGNOSTICS = 32
# cells per band of rows in which `verify_grid` sums the weights
WEIGHT_BAND = 1 << 13


class Labeling(Value):
    """values[v] is the label of vertex v; labels form a bijection onto {1..n}.

    `Labeling(values)` checks that values is a tuple (as `Graph` does for
    its rows), that every value is an int (a bool or a float is not) and
    that the values form the bijection.  Builders whose output
    is one by construction (`label_balanced`, `label_direct`,
    `label_cycle_product`, `parse_grid` after its own check, the search's
    witness, the lemma swaps, the scramble and the factor labelings that
    coupling extracts) skip it through `_of_values`.
    """

    __slots__ = _fields = ("values",)

    def __init__(self, values: tuple[int, ...]):
        self._init(values)
        if type(values) is not tuple:
            raise InputError(f"labeling values must be a tuple, got {type(values).__name__}")
        if not set(map(type, values)) <= {int}:
            v = next(v for v, x in enumerate(values) if type(x) is not int)
            raise InputError(f"label of vertex {v} must be an int, got {values[v]!r}")
        _check_bijection(values)

    @classmethod
    def _of_values(cls, values: tuple[int, ...]) -> "Labeling":
        """A labeling whose builder guarantees a bijection; no check."""
        return cls._of_fields(values)

    @property
    def n(self) -> int:
        return len(self.values)


def _check_bijection(values, what: str = "labeling is not a bijection"):
    """Reject values that are not a bijection onto {1..len(values)}.

    n values inside 1..n that mark every entry of a table of n bytes are a
    bijection, so a valid labeling costs two scans and one pass over a
    table of one byte per label (a set of the labels would take about 48);
    the duplicate, missing and out-of-range labels are listed after `what`
    only when that test fails.
    """
    n = len(values)
    if n and not (min(values) >= 1 and max(values) <= n and _marks_all(values)):
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


def _marks_all(values) -> bool:
    """Whether the values, all inside 1..n, n = len(values), are distinct."""
    seen = bytearray(len(values) + 1)
    for x in values:
        seen[x] = 1
    return seen.count(0) == 1  # seen[0] alone


def label_positions(labeling: Labeling) -> tuple[int, ...]:
    """positions[i-1] = the vertex carrying label i."""
    pos = [0] * len(labeling.values)
    for v, x in enumerate(labeling.values):
        pos[x - 1] = v
    return tuple(pos)


def weights(g: Graph, labeling: Labeling) -> tuple[int, ...]:
    vals = labeling.values
    return tuple([sum([vals[u] for u in row]) for row in g.adjacency])


class Diagnostic(Value):
    """One verification failure: what a vertex should have seen vs what it
    saw; kind is "weight" or "twin"."""

    __slots__ = _fields = ("vertex", "expected", "actual", "kind")

    def __init__(self, vertex: int, expected: int, actual: int, kind: str):
        self._init(vertex, expected, actual, kind)


class VerifyReport(Value):
    __slots__ = _fields = ("weights", "magic_constant", "is_distance_magic", "is_balanced",
                           "degenerate", "twin_map", "failures", "failure_count")

    def __init__(self, weights: tuple[int, ...], magic_constant: int | None,
                 is_distance_magic: bool, is_balanced: bool, degenerate: bool,
                 twin_map: tuple[int, ...] | None, failures: tuple[Diagnostic, ...],
                 failure_count: int):
        self._init(weights, magic_constant, is_distance_magic, is_balanced, degenerate,
                   twin_map, failures, failure_count)


def verify_distance_magic(g: Graph, labeling: Labeling) -> VerifyReport:
    """Check the uniform-weight condition and report per-vertex weights."""
    _check_length(labeling, g.n)
    return _weight_report(weights(g, labeling), g.edge_count == 0)


def _check_length(labeling: Labeling, n: int):
    if labeling.n != n:
        raise InputError(f"labeling has {labeling.n} entries for a graph on {n} vertices")


def _weight_report(w, edgeless: bool) -> VerifyReport:
    """The report of the uniform-weight condition on the weights w, a
    sequence.  Uniform weights are kept as one int repeated, `(k,) * n`."""
    uniform = len(set(w)) <= 1
    k = (w[0] if w else 0) if uniform else None
    failures, count = _weight_failures(w) if not uniform else ((), 0)
    return VerifyReport(
        weights=(k,) * len(w) if uniform else tuple(w),
        magic_constant=k,
        is_distance_magic=uniform,
        is_balanced=False,
        degenerate=uniform and edgeless,
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
    if n % 2:
        return base
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
    failures = list(base.failures)
    if twin_failures and len(failures) < MAX_DIAGNOSTICS:
        _append_twin_diagnostics(range(n), adj.__getitem__, vals, twins.__getitem__, differs,
                                 failures)
    return _twin_report(base, twins, twin_failures, failures)


def _twin_report(base: VerifyReport, twins, twin_failures: int, failures) -> VerifyReport:
    """The weight report base with the twin check's result: the twin map,
    read from the iterable twins only when balanced, the count of failing
    pairs and the diagnostics of both checks."""
    balanced = not twin_failures and base.is_distance_magic
    return VerifyReport(
        weights=base.weights,
        magic_constant=base.magic_constant,
        is_distance_magic=base.is_distance_magic,
        is_balanced=balanced,
        degenerate=base.degenerate,
        twin_map=tuple(twins) if balanced else None,
        failures=tuple(failures),
        failure_count=base.failure_count + twin_failures,
    )


def _append_twin_diagnostics(ws, row, vals, twin, differs, failures):
    """Append failing pairs (w, u) in (w, u) order until MAX_DIAGNOSTICS.

    ws runs ascending over the vertices w to scan; it may leave out those
    with no u of `differs` in N(w), as they have no failing pair.  row(v) is
    N(v), ascending, and twin(v) is t(v).
    """
    n = len(vals)
    for w in ws:
        for u in row(w):
            if differs[u]:
                back = row(twin(u))
                i = bisect_left(back, w)
                if i == len(back) or back[i] != w:
                    failures.append(Diagnostic(w, expected=n + 1 - vals[u], actual=vals[u],
                                               kind="twin"))
                    if len(failures) == MAX_DIAGNOSTICS:
                        return


def verify_grid(labeling: Labeling, m: int, n: int) -> VerifyReport:
    """`verify_balanced` on the direct product C_m x C_n, without building it.

    Cell (i, j) of the grid is vertex i*n + j of `product(DIRECT, cycle(m),
    cycle(n))`, and its neighbours are the four cells (i±1, j±1), so the
    report is computed from the grid and equals the product's to the byte:

    - weights: the sums over the cells (i±1, j), then over their (·, j±1),
      a band of whole rows at a time (`_diagonal_sums`);
    - twins: N(u) and N(t) share c_m(di)·c_n(dj) cells, where (di, dj) is
      t - u in grid coordinates and c_L(d) = |{-1, 1} ∩ {d-1, d+1}| on C_L,
      so u has 4 - c_m(di)·c_n(dj) failing pairs;
    - diagnostics: the scan of `verify_balanced`, over the cells next to
      both a row and a column with failing pairs, with each cell's
      neighbours and twin worked out on demand.

    The one table of ints the size of the grid is at[x] = i*w + j, w = 2n,
    for the cell (i, j) labeled x, packed as 4-byte C ints (each code is
    below 2mn <= 2^21): the twin of label x is label mn+1-x, so
    at[mn+1-x] - at[x] = di*w + dj tells the signed (di, dj) apart, and a
    twin cell is decoded from its code only where it is needed.  Besides
    it, uniform weights take one reference per cell and the failure counts
    a byte per cell.  Time O(mn); no adjacency is built.
    """
    if m < 3 or n < 3:
        raise InputError(f"grid sides must be cycle lengths >= 3, got m={m} n={n}")
    size = m * n
    _check_length(labeling, size)
    vals = labeling.values
    base = _weight_report(_diagonal_sums(vals, m, n), False)
    if size % 2:
        return base
    w = 2 * n
    at = array("i", [0]) * (size + 1)  # at[0] is not a label
    for c, x in zip(chain.from_iterable(map(range, range(0, m * w, w), range(n, m * w, w))),
                    vals):
        at[x] = c
    # failing[di*w + dj]: the failing pairs of a cell whose twin lies (di, dj)
    # away; 4, N(u) and N(t(u)) disjoint, at every offset not listed
    failing = {di * w + dj: 4 - ci * cj
               for di, ci in _overlaps(m).items() for dj, cj in _overlaps(n).items()}
    # of_label[x]: the failing pairs of the cell labeled x; a label and its
    # twin have opposite offsets and so equal counts, read for x <= mn/2
    half = size // 2
    of_label = bytes(map(failing.get, map(sub, islice(reversed(at), half), islice(at, 1, None)),
                         repeat(4)))
    of_label = b"\0" + of_label + of_label[::-1]
    twin_failures = sum(of_label)

    def twin(v):
        i, j = divmod(at[size + 1 - vals[v]], w)
        return i * n + j

    failures = list(base.failures)
    if twin_failures and len(failures) < MAX_DIAGNOSTICS:
        differs = bytes(map(of_label.__getitem__, vals))

        def row(v):
            i, j = divmod(v, n)
            xs = sorted(((i - 1) % m * n, (i + 1) % m * n))
            ys = sorted(((j - 1) % n, (j + 1) % n))
            return [x + y for x in xs for y in ys]

        # a w with failing pairs lies next to a row and a column holding some
        rows = _next_to([any(differs[r : r + n]) for r in range(0, size, n)])
        cols = _next_to([any(differs[j::n]) for j in range(n)])
        ws = (i * n + j for i in rows for j in cols)
        _append_twin_diagnostics(ws, row, vals, twin, differs, failures)
    return _twin_report(base, map(twin, range(size)), twin_failures, failures)


def _diagonal_sums(vals, m: int, n: int) -> list[int]:
    """Sums of vals over the cells (i±1, j±1) of each cell (i, j) of the
    row-major m x n grid, both sides cyclic.

    They are summed a band of whole rows, about WEIGHT_BAND cells, at a
    time, and a band whose sums all equal the grid's first sum is stored as
    that one int repeated: on a magic grid, only one band's sums are int
    objects of their own at any time.
    """
    out = []
    rows = max(1, WEIGHT_BAND // n)
    for a in range(0, m, rows):
        out += _band_sums(vals, m, n, a, min(a + rows, m), out[0] if out else None)
    return out


def _band_sums(vals, m: int, n: int, a: int, b: int, k):
    """`_diagonal_sums` on the rows a..b-1; `repeat(k, ...)` when they all
    equal k, k being the first of them when None."""
    # rows i-1 and i+1 of the band's rows i, wrapped at the grid's ends
    vert = list(map(add,
                    vals[(a - 1) * n : (b - 1) * n] if a else vals[-n:] + vals[: (b - 1) * n],
                    vals[(a + 1) * n : (b + 1) * n] if b < m else vals[(a + 1) * n :] + vals[:n]))
    # then their columns j-1 and j+1: the cells either side, mended at the row ends
    sums = [0, *map(add, vert, islice(vert, 2, None)), 0]
    sums[::n] = map(add, vert[n - 1 :: n], vert[1::n])
    sums[n - 1 :: n] = map(add, vert[n - 2 :: n], vert[::n])
    if k is None:
        k = sums[0]
    return repeat(k, len(sums)) if sums.count(k) == len(sums) else sums


def _next_to(live: list[bool]) -> list[int]:
    """The i, ascending, with live[i - 1] or live[i + 1] on a cycle."""
    k = len(live)
    return [i for i in range(k) if live[i - 1] or live[(i + 1) % k]]


def _overlaps(length: int) -> dict[int, int]:
    """{d: c(d)} over the d in (-length, length) with c(d) = |{-1, 1} ∩
    {d-1, d+1}| on C_length nonzero, that is d ≡ 0 or ±2 (mod length): 2 at
    d = 0 and, on C4, at d = ±2; 1 otherwise."""
    ends = {-1 % length, 1 % length}
    return {d: len(ends & {(d - 1) % length, (d + 1) % length})
            for d in (0, 2, -2, length - 2, 2 - length)}


def _weight_failures(w):
    """The first MAX_DIAGNOSTICS weight diagnostics and the failure count:
    the failures are counted, and only the diagnostics built."""
    # reference value: the most common weight, smallest on ties, read off a
    # sorted copy (one reference per vertex): a longer run must overtake it
    expected, most = None, 0
    prev, run = None, 0
    for x in sorted(w):
        run = run + 1 if x == prev else 1
        prev = x
        if run > most:
            expected, most = x, run
    bad = compress(enumerate(w), map(ne, w, repeat(expected)))
    diags = tuple(
        Diagnostic(v, expected=expected, actual=x, kind="weight")
        for v, x in islice(bad, MAX_DIAGNOSTICS)
    )
    return diags, len(w) - most


# ---------------------------------------------------------------------------
# Equalized incomplete tournament export
# ---------------------------------------------------------------------------

class EitRow(Value):
    """A team (vertex id), its strength (label), its opponents' strengths,
    ascending, and their total."""

    __slots__ = _fields = ("team", "strength", "opponents", "total")

    def __init__(self, team: int, strength: int, opponents: tuple[int, ...], total: int):
        self._init(team, strength, opponents, total)


class EitSchedule(Value):
    __slots__ = _fields = ("teams", "rounds", "magic_constant", "rows")

    def __init__(self, teams: int, rounds: int, magic_constant: int, rows: tuple[EitRow, ...]):
        self._init(teams, rounds, magic_constant, rows)


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
    for v, row in enumerate(g.adjacency):
        opponents = tuple(sorted(labeling.values[u] for u in row))
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
    """The labeling of a text of n lines "v label", one per vertex v.

    The canonical text -- lines "v label" for v = 0..n-1 in order, two
    decimals without sign or leading zero, one space between and a newline
    after -- is read in bulk, a block at a time.  Any other text is read
    again line by line, which reports the first bad line.
    """
    values = _scan_labeling(text, n)
    if values is None:
        values = _read_labeling_lines(text, n)
    return Labeling(tuple(values))


def _scan_labeling(text: str, n: int) -> list[int] | None:
    """The labels of a canonical labeling text of n lines, else None."""
    values = []
    for ints in _scan_blocks(text, 0, " \n"):
        if ints is None:
            return None
        first, vertices = len(values), ints[0::2]
        if first + len(vertices) > n or not all(
                map(eq, vertices, range(first, first + len(vertices)))):
            return None
        values += ints[1::2]
    return values if len(values) == n else None


def _read_labeling_lines(text: str, n: int) -> list[int]:
    """The labels of a labeling text, read and checked line by line."""
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
    return values


def format_labeling(labeling: Labeling) -> str:
    """The labeling text: lines "v label" for v = 0..n-1; the join of
    `labeling_blocks`."""
    return "".join(labeling_blocks(labeling))


def labeling_blocks(labeling: Labeling):
    """Yield the text of `format_labeling` in blocks of up to WRITE_BLOCK
    lines.

    Each block is written by one `%` format of its interleaved (v, label)
    pairs, so the numbers are converted in C rather than by one `str()`
    call each, and the pairs held at a time are one block's."""
    values = labeling.values
    n = len(values)
    for lo in range(0, n, WRITE_BLOCK):
        hi = min(lo + WRITE_BLOCK, n)
        pairs = [0] * (2 * (hi - lo))
        pairs[0::2] = range(lo, hi)
        pairs[1::2] = values[lo:hi]
        yield ("%d %d\n" * (hi - lo)) % tuple(pairs)


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
