"""Explicit labeling constructions and closed-form classifiers.

Covers: label_balanced, the one linear-time decision of which graphs are
balanced distance magic, with the labeling it builds for them (C4, K_{2n,2n}
and K_{2n} minus a perfect matching are named calls of it); lexicographic
and direct products of a regular graph with a balanced distance magic graph,
one range of labels per g-fibre; the grid construction that labels C_m x C_n
(direct product) for m, n = 0 mod 4, m, n > 4 with magic constant 2mn + 2,
its five stages composed into one shift per cell; and the closed-form
classifiers for products of cycles.

Grid indexing: the direct product of C_m and C_n is viewed as an m x n grid
of cells v[i][j] (row i along C_m, column j along C_n), where the neighbors
of v[i][j] are the four diagonal cells v[i+-1][j+-1] with wraparound.  A
grid is no type of its own: it is the row-major Labeling of the product,
cell v[i][j] being vertex id = i * n + j, and the grid text format takes the
sides m and n next to it.

A labeling is checked once, where it enters: the constructors build theirs as
bijections by construction and do not check them again.
"""

from __future__ import annotations

from .errors import InputError
from .graphs import (
    MAX_VERTICES,
    WRITE_BLOCK,
    Graph,
    _line_ints,
    _scan_blocks,
    _scan_ints,
    check_size,
    complete_bipartite,
    complete_minus_matching,
    cycle,
    equal_neighborhood_classes,
    regularity,
)
from .magic import Labeling, _check_bijection, verify_balanced

# classifier verdicts for products of cycles
BALANCED_DISTANCE_MAGIC = "balanced_distance_magic"
DISTANCE_MAGIC_NOT_BALANCED = "distance_magic_not_balanced"
NOT_DISTANCE_MAGIC = "not_distance_magic"


def label_balanced(g: Graph) -> Labeling | None:
    """A balanced distance magic labeling of g, or None when g has none.

    g has one exactly when its order is even, it is regular, and every class
    of vertices with one open neighborhood has even size: balance twins each
    vertex with one of the same neighborhood, so every weight is (n+1)/2
    times the degree.  The 0-vertex graph gets None too, although
    verify_balanced accepts its empty labeling: it has no pairs to label.

    c[i] is paired with c[-1-i] inside each class c, and the pairs take the
    labels {1, n}, {2, n-1}, ... in snake order: classes by smallest member,
    round r taking the r-th pair of every class that has one, odd rounds in
    reverse; the lower label goes to c[i].  That order reproduces the closed
    forms for C4, K_{2a,2a}, K_{2a} minus a perfect matching and the empty
    graph.  Time O(n + |E|).
    """
    n = g.n
    if n == 0 or n % 2 or regularity(g) is None:
        return None
    classes = equal_neighborhood_classes(g)
    if any(len(c) % 2 for c in classes):
        return None
    values = [0] * n
    low = 1
    r = 0
    while classes:
        for c in classes if r % 2 == 0 else reversed(classes):
            values[c[r]] = low
            values[c[-1 - r]] = n + 1 - low
            low += 1
        r += 1
        classes = [c for c in classes if len(c) > 2 * r]
    return Labeling._of_fields(tuple(values))


def label_c4() -> Labeling:
    """Balanced labeling of C4: consecutive cycle vertices get 1, 2, 4, 3 (k = 5)."""
    return label_balanced(cycle(4))


def label_complete_bipartite(n: int) -> Labeling:
    """Balanced labeling of K_{2n,2n} as built by graphs.complete_bipartite(2n, 2n)."""
    if n < 1:
        raise InputError(f"complete bipartite construction needs n >= 1, got n={n}")
    return label_balanced(complete_bipartite(2 * n, 2 * n))


def label_complete_minus_matching(n: int) -> Labeling:
    """Balanced labeling of K_{2n} minus the matching {(2i, 2i+1)}."""
    if n < 1:
        raise InputError(f"matching construction needs n >= 1, got n={n}")
    return label_balanced(complete_minus_matching(2 * n))


def label_direct(g: Graph, h: Graph, h_labeling: Labeling) -> Labeling:
    """Balanced labeling of the direct and of the lexicographic product of g
    (regular) with a balanced (h, h_labeling); one labeling serves both.

    With p = |V(g)|, t = |V(h)|, the pair whose h-vertex carries label j gets
    (j-1)p + i for j <= t/2 and jp - i + 1 for j > t/2 (i is the 1-based
    g-vertex).  The magic constant is (r_g * r_h / 2)(pt + 1) in the direct
    product and (t*r_g + r_h)(pt + 1) / 2 in the lexicographic product.
    h_labeling is a bijection, so the fibres take each block ((j-1)p, jp] of
    labels once: the result is a bijection by construction, not checked again.
    """
    if regularity(g) is None:
        raise InputError("the first factor must be regular")
    if not verify_balanced(h, h_labeling).is_balanced:
        raise InputError("the second factor's labeling must be balanced distance magic")
    p, t = g.n, h.n
    check_size(p * t)
    values = [0] * (p * t)
    for hv, j in enumerate(h_labeling.values):
        # the fibre of hv: vertices hv, t + hv, ..., (p-1)t + hv in g order
        values[hv::t] = (range((j - 1) * p + 1, j * p + 1) if j <= t // 2
                         else range(j * p, (j - 1) * p, -1))
    return Labeling._of_fields(tuple(values))


# ---------------------------------------------------------------------------
# Grid labelings for products of two cycles
# ---------------------------------------------------------------------------

def label_cycle_product(m: int, n: int) -> Labeling:
    """Distance magic (never balanced) labeling of the direct product of C_m
    and C_n for m, n = 0 mod 4 and m, n > 4, with magic constant 2mn + 2.

    The construction has five stages.  Moving a label by d means adding d
    to a label at most mn/2 and subtracting d from one above it.
      1. seeds on the even columns of row 0;
      2. row 2 is row 0 in reversed column order, moved by n/4;
      3. every even row from 4 on is the even row four above, moved by n/2;
      4. every odd row is the even row below, moved by mn/8;
      5. every odd column is the even column to its left, moved by mn/4.
    No stage moves a label across mn/2, so the moves add up: with q = i // 2,
    the even columns of row i are the seeds (reversed when q is odd) moved
    once by d = (q // 2)n/2 + (q % 2)n/4 + (i % 2)mn/8, and its odd columns
    the same seeds moved by d + mn/4.  Each stage consumes one low and one
    high block of the label range, so every label of 1..mn is written once:
    the labeling is a bijection by construction and is not checked again.
    """
    if m % 4 or n % 4:
        raise InputError(f"both cycle lengths must be divisible by 4, got m={m} n={n}")
    if m <= 4 or n <= 4:
        raise InputError(
            "cycle lengths must exceed 4; for m=4 or n=4 use the direct-product "
            "construction with a balanced C4 instead"
        )
    total = m * n
    check_size(total)
    half = total // 2
    # stage 1: seeds[2j] is cell (0, 4j), seeds[2j + 1] is cell (0, 4j + 2)
    seeds = [0] * (n // 2)
    seeds[0::2] = [2 * j + 1 if j <= (n + 7) // 8 - 1 else n // 2 - 2 * j for j in range(n // 4)]
    seeds[1::2] = [total - 2 * j - 1 if j <= n // 8 - 1 else total - n // 2 + 2 * j + 2
                   for j in range(n // 4)]
    values = [0] * total
    for i in range(m):
        q = i // 2
        row = seeds[::-1] if q % 2 else seeds
        d = (q // 2) * (n // 2) + (q % 2) * (n // 4) + (i % 2) * (total // 8)
        e = d + total // 4
        values[i * n : (i + 1) * n : 2] = [x + d if x <= half else x - d for x in row]
        values[i * n + 1 : (i + 1) * n : 2] = [x + e if x <= half else x - e for x in row]
    return Labeling._of_fields(tuple(values))


def cycle_product_magic_constant(m: int, n: int) -> int:
    return 2 * m * n + 2


# ---------------------------------------------------------------------------
# Classifiers for products of cycles
# ---------------------------------------------------------------------------

def classify_cycle_direct(m: int, n: int) -> str:
    """Verdict for the direct product of C_m and C_n.

    Balanced iff m = 4 or n = 4; distance magic but not balanced iff both are
    0 mod 4 and exceed 4; otherwise not distance magic.
    """
    _check_cycle_length(m)
    _check_cycle_length(n)
    if m == 4 or n == 4:
        return BALANCED_DISTANCE_MAGIC
    if m % 4 == 0 and n % 4 == 0:
        return DISTANCE_MAGIC_NOT_BALANCED
    return NOT_DISTANCE_MAGIC


def classify_cycle_cartesian(m: int, n: int) -> bool:
    """Cartesian product of C_m and C_n: distance magic when m = n = 2 mod 4
    or {m, n} = {t, 2t} with t odd; otherwise reported not distance magic.

    Positive cells with a known witness (vertex (i, j) is i*n + j):
    C_6 x C_3 with k = 38, 1 4 11 10 14 17 6 7 3 18 15 8 9 5 2 13 12 16;
    C_5 x C_10 with k = 102 and C_6 x C_6 with k = 74, both pinned in the
    tests.  The other positive cells, (7, 14), (10, 10) and beyond, rest on
    the rule alone.  The search's kernel precheck certifies every negative
    cell with m, n <= 16 (those up to 10 in the tests).
    """
    _check_cycle_length(m)
    _check_cycle_length(n)
    t, u = min(m, n), max(m, n)
    return (t == u and t % 4 == 2) or (u == 2 * t and t % 2 == 1)


def classify_cycle(n: int) -> bool:
    """C_n is distance magic iff n = 4."""
    _check_cycle_length(n)
    return n == 4


def classify_lex_cycles(n: int, m: int) -> bool:
    """The lexicographic product of C_n with C_m is distance magic iff m = 4."""
    _check_cycle_length(n)
    _check_cycle_length(m)
    return m == 4


def _check_cycle_length(x: int):
    if x < 3:
        raise InputError(f"cycle length must be >= 3, got {x}")


# ---------------------------------------------------------------------------
# Grid text format: header "m n k", then rows printed top-down ending with
# row 0, so the page shows v[0][0] in the lower left corner.
# ---------------------------------------------------------------------------

def format_grid(labeling: Labeling, m: int, n: int, k: int) -> str:
    """The grid text of the row-major labeling of an m x n grid: the join
    of `grid_blocks`."""
    return "".join(grid_blocks(labeling, m, n, k))


def grid_blocks(labeling: Labeling, m: int, n: int, k: int):
    """Yield the text of `format_grid`: the header, then the rows top-down
    (row m-1 first) in blocks of whole rows, max(1, WRITE_BLOCK // n) of
    them, so about WRITE_BLOCK entries or one row wider than that.

    Each row is written by one `%` format of its slice, so the labels are
    converted in C rather than by one `str()` call each."""
    vals = labeling.values
    line = " ".join(["%d"] * n) + "\n"
    rows = max(1, WRITE_BLOCK // n)
    yield f"{m} {n} {k}\n"
    for top in range(m, 0, -rows):
        yield "".join([line % vals[i * n : (i + 1) * n]
                       for i in range(top - 1, max(top - rows, 0) - 1, -1)])


def parse_grid(text: str) -> tuple[Labeling, int, int, int]:
    """(row-major labeling, m, n, k) of a grid text.  The sizes are checked
    from the header, before any row is read, and the entries once, as a
    bijection onto 1..m*n.

    A canonical grid -- decimals without sign or leading zero, one space
    between entries and a newline after each line -- is read in bulk, a
    block of rows at a time.  Any other text is read again line by line,
    which reports the first bad line.
    """
    values, m, n, k = _scan_grid(text) or _read_grid_lines(text)
    values = tuple(values)
    _check_bijection(values, f"grid entries are not a bijection onto 1..{m * n}")
    return Labeling._of_fields(values), m, n, k


def _scan_grid(text: str) -> tuple[list[int], int, int, int] | None:
    """(row-major entries, m, n, k) of a canonical grid of valid size, else None."""
    start = text.find("\n") + 1
    header = _scan_ints(text[:start], "  \n")
    if not header:
        return None
    m, n, k = header
    if m < 3 or n < 3 or m * n > MAX_VERTICES:
        return None
    values = [0] * (m * n)
    i = m  # rows are printed top-down, row 0 last
    for ints in _scan_blocks(text, start, " " * (n - 1) + "\n"):
        if ints is None or len(ints) > i * n:
            return None
        for j in range(0, len(ints), n):
            i -= 1
            values[i * n : (i + 1) * n] = ints[j : j + n]
    return (values, m, n, k) if i == 0 else None


def _read_grid_lines(text: str) -> tuple[list[int], int, int, int]:
    """(row-major entries, m, n, k) of a grid text, read and checked line by line."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise InputError("line 1: missing grid header 'm n k'")
    m, n, k = _line_ints(1, lines[0], 3, "grid header must be 'm n k'",
                         "grid header must be three integers")
    if m < 3 or n < 3:
        raise InputError(f"line 1: grid dimensions must be cycle lengths >= 3, got m={m} n={n}")
    total = m * n
    try:
        check_size(total)
    except InputError as exc:
        raise InputError(f"line 1: {exc}")
    body = lines[1:]
    if len(body) != m:
        raise InputError(f"expected {m} grid rows after the header, got {len(body)}")
    values = [0] * total
    for idx, line in enumerate(body):
        i = m - 1 - idx  # rows are printed top-down, row 0 last
        parts = line.split()
        if len(parts) != n:
            raise InputError(f"line {idx + 2}: expected {n} entries, got {len(parts)}")
        try:
            values[i * n : (i + 1) * n] = map(int, parts)
        except ValueError:
            raise InputError(f"line {idx + 2}: grid entries must be integers, got {line!r}")
    return values, m, n, k
