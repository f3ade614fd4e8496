"""Shared test helpers, kept independent of the code paths they check."""

import itertools
from fractions import Fraction

from hypothesis import strategies as st

from distmagic.errors import InputError
from distmagic.graphs import Graph, check_size
from distmagic.magic import (
    MAX_DIAGNOSTICS,
    Diagnostic,
    Labeling,
    VerifyReport,
    label_positions,
    verify_distance_magic,
)
from distmagic.products import DIRECT, CARTESIAN
from distmagic.rearrange import (
    CLOSED_H_LAYER,
    COUPLED_PAIRS,
    CoupleOutcome,
    swap_lemma1,
    swap_lemma2,
    swap_lemma3,
)


def brute_force_distance_magic(g: Graph):
    """Unpruned check over all n! bijections; the oracle for search outcomes.

    Returns (found, labels or None, k or None) with the first witness in
    lexicographic order of the label tuple indexed by vertex id.
    """
    n = g.n
    adj = [g.neighbors(v) for v in range(n)]
    for perm in itertools.permutations(range(1, n + 1)):
        k = None
        ok = True
        for v in range(n):
            w = sum(perm[u] for u in adj[v])
            if k is None:
                k = w
            elif w != k:
                ok = False
                break
        if ok:
            return True, perm, (k if k is not None else 0)
    return False, None, None


def is_connected(g: Graph) -> bool:
    """Reachability from vertex 0 by depth-first search; the 0-vertex graph
    counts as connected."""
    if g.n == 0:
        return True
    seen, stack = {0}, [0]
    while stack:
        for w in g.neighbors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def is_bipartite(g: Graph) -> bool:
    """2-colorability by depth-first search from every uncolored vertex; the
    0-vertex graph counts as bipartite."""
    color = {}
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w not in color:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def regular_magic_constant(g: Graph) -> Fraction:
    """r(n+1)/2 for an r-regular graph, exact.  The n weights of a distance
    magic labeling sum to n*k, and also to r*(1 + ... + n)."""
    degrees = {len(row) for row in g.adjacency}
    assert len(degrees) == 1, "graph is not regular"
    return Fraction(degrees.pop() * (g.n + 1), 2)


def enumerate_magic_labelings(g: Graph):
    """Every distance magic labeling of g, as (labels, k) pairs."""
    out = []
    n = g.n
    adj = [g.neighbors(v) for v in range(n)]
    for perm in itertools.permutations(range(1, n + 1)):
        ws = {sum(perm[u] for u in adj[v]) for v in range(n)}
        if len(ws) <= 1:
            out.append((perm, ws.pop() if ws else 0))
    return out


def forced_equal_reference(g: Graph):
    """First pair (u, v), u < v, with l(u) = l(v) on the whole null space of
    [A | -1], by dense Gauss-Jordan elimination over Fraction.

    The oracle for the search's kernel precheck: each coordinate is written
    over the free columns, and v is the smallest vertex whose coordinates
    equal those of an earlier vertex u.
    """
    n = g.n
    m = [
        [Fraction(int(u in g.neighbors(v))) for u in range(n)] + [Fraction(-1)]
        for v in range(n)
    ]
    pivots = []
    for c in range(n + 1):
        r = len(pivots)
        p = next((i for i in range(r, n) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        support = [(j, x) for j, x in enumerate(m[r]) if x != 0]
        for i in range(n):
            f = m[i][c]
            if i != r and f != 0:
                row = m[i]
                for j, x in support:
                    row[j] -= f * x
        pivots.append(c)
    free = [c for c in range(n + 1) if c not in pivots]
    coords = {c: tuple(Fraction(int(c == f)) for f in free) for c in free}
    for r, c in enumerate(pivots):
        coords[c] = tuple(-m[r][f] for f in free)
    first = {}
    for v in range(n):
        u = first.setdefault(coords[v], v)
        if u != v:
            return u, v
    return None


def verify_balanced_reference(g: Graph, labeling) -> VerifyReport:
    """verify_balanced with every failing twin pair (w, u) -- w in N(u), w not
    in N(t(u)) -- built, sorted and counted; the oracle for the counted,
    early-stopping twin diagnostics."""
    base = verify_distance_magic(g, labeling)
    n = g.n
    failures = list(base.failures)
    count = base.failure_count
    twin_map = None
    if n % 2 == 0:
        vals = labeling.values
        pos = label_positions(labeling)
        twins = [pos[n - x] for x in vals]
        bad = sorted(
            (w, u)
            for u, t in enumerate(twins)
            for w in g.neighbors(u)
            if w not in g.neighbors(t)
        )
        count += len(bad)
        for w, u in bad[: MAX_DIAGNOSTICS - len(failures)]:
            failures.append(Diagnostic(w, expected=n + 1 - vals[u], actual=vals[u], kind="twin"))
        if not bad and base.is_distance_magic:
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


def parse_outcome(parse, *args):
    """What parse(*args) returns, or the message of the InputError it raises."""
    try:
        return parse(*args)
    except InputError as exc:
        return str(exc)


def int_reference(token: str) -> int:
    """int(token), except that a token holding "_" is not an integer: int()
    reads "1_0" as 10, a spelling no writer emits."""
    if "_" in token:
        raise ValueError(token)
    return int(token)


def parse_edge_list_reference(text: str) -> Graph:
    """The edge-list parser that checks each line in turn, duplicates against
    a set of every edge read, and builds through the checked Graph(n, rows);
    the oracle for parse_edge_list's graphs and error messages."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise InputError("line 1: missing header 'n m'")
    header = lines[0].split()
    if len(header) != 2:
        raise InputError(f"line 1: header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int_reference(header[0]), int_reference(header[1])
    except ValueError:
        raise InputError(f"line 1: header must be two integers, got {lines[0]!r}")
    if n < 0 or m < 0:
        raise InputError(f"line 1: n and m must be nonnegative, got n={n} m={m}")
    check_size(n, m)
    body = lines[1:]
    if len(body) != m:
        raise InputError(f"expected {m} edge lines after the header, got {len(body)}")
    seen = set()
    rows = [[] for _ in range(n)]
    for i, line in enumerate(body, start=2):
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {i}: edge line must be 'u v', got {line!r}")
        try:
            u, v = int_reference(parts[0]), int_reference(parts[1])
        except ValueError:
            raise InputError(f"line {i}: edge endpoints must be integers, got {line!r}")
        if u == v:
            raise InputError(f"line {i}: self-loop at vertex {u}")
        if not (0 <= u < v):
            raise InputError(f"line {i}: endpoints must satisfy u < v, got {u} {v}")
        if v >= n:
            raise InputError(f"line {i}: vertex {v} out of range [0,{n})")
        if (u, v) in seen:
            raise InputError(f"line {i}: duplicate edge ({u},{v})")
        seen.add((u, v))
        rows[u].append(v)
        rows[v].append(u)
    return Graph(n, tuple([tuple(sorted(row)) for row in rows]))


def parse_labeling_reference(text: str, n: int) -> Labeling:
    """The labeling reader that checks each line in turn, collects the labels
    in a dict by vertex and builds through the checked Labeling(values); the
    oracle for parse_labeling's labelings and error messages."""
    lines = text.splitlines()
    if len(lines) != n:
        raise InputError(f"expected {n} labeling lines, got {len(lines)}")
    labels = {}
    for i, line in enumerate(lines, start=1):
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {i}: labeling line must be 'v label', got {line!r}")
        try:
            v, lab = int_reference(parts[0]), int_reference(parts[1])
        except ValueError:
            raise InputError(f"line {i}: labeling line must be two integers, got {line!r}")
        if not (0 <= v < n):
            raise InputError(f"line {i}: vertex {v} out of range [0,{n})")
        if v in labels:
            raise InputError(f"line {i}: vertex {v} labeled twice")
        labels[v] = lab
    return Labeling(tuple(labels[v] for v in range(n)))


def parse_grid_reference(text: str) -> tuple[Labeling, int, int, int]:
    """The grid reader that checks each line in turn, collects the printed
    rows and reverses them at the end, with the bijection checked by
    check_bijection_reference; the oracle for parse_grid's results and error
    messages."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise InputError("line 1: missing grid header 'm n k'")
    header = lines[0].split()
    if len(header) != 3:
        raise InputError(f"line 1: grid header must be 'm n k', got {lines[0]!r}")
    try:
        m, n, k = (int_reference(x) for x in header)
    except ValueError:
        raise InputError(f"line 1: grid header must be three integers, got {lines[0]!r}")
    if m < 3 or n < 3:
        raise InputError(f"line 1: grid dimensions must be cycle lengths >= 3, got m={m} n={n}")
    try:
        check_size(m * n)
    except InputError as exc:
        raise InputError(f"line 1: {exc}")
    if len(lines) - 1 != m:
        raise InputError(f"expected {m} grid rows after the header, got {len(lines) - 1}")
    printed = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != n:
            raise InputError(f"line {i}: expected {n} entries, got {len(parts)}")
        try:
            printed.append([int_reference(x) for x in parts])
        except ValueError:
            raise InputError(f"line {i}: grid entries must be integers, got {line!r}")
    values = tuple(x for row in reversed(printed) for x in row)
    try:
        check_bijection_reference(m * n, values)
    except InputError as exc:
        raise InputError(str(exc).replace(
            "labeling is not a bijection", f"grid entries are not a bijection onto 1..{m * n}"))
    return Labeling(values), m, n, k


# Spellings of a line that int() and str.split() read as the canonical line
# does, but that the bulk scan must hand to the line-by-line reader.
RESPELLINGS = {
    "leading zero": lambda line: "0" + line,
    "plus sign": lambda line: "+" + line,
    "non-ASCII digits": lambda line: line.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    "tab": lambda line: line.replace(" ", "\t"),
    "double space": lambda line: line.replace(" ", "  "),
    "trailing space": lambda line: line + " ",
    "CRLF": lambda line: line + "\r",
}


def respelled(text: str, index: int, how: str) -> str:
    """text with line `index` respelled as RESPELLINGS[how], or without its
    final newline when how is "no final newline"."""
    if how == "no final newline":
        return text[:-1]
    lines = text.split("\n")
    lines[index] = RESPELLINGS[how](lines[index])
    return "\n".join(lines)


@st.composite
def texts_of_lines(draw, lines: list[str]) -> str:
    """The text of `lines`, each ended by a newline.  In half the texts,
    lines are drawn respelled as in RESPELLINGS; in some, the final newline
    is left out."""
    spellings = [None] * len(lines)
    if draw(st.booleans()):
        how = st.sampled_from([None, None, *sorted(RESPELLINGS)])
        spellings = draw(st.lists(how, min_size=len(lines), max_size=len(lines)))
    text = "".join((line if how is None else RESPELLINGS[how](line)) + "\n"
                   for line, how in zip(lines, spellings))
    if text and draw(st.integers(0, 7)) == 0:
        text = text[:-1]
    return text


def check_bijection_reference(n: int, vals: tuple[int, ...]):
    """The bijection check that always lists the duplicate, missing and
    out-of-range labels of vals, taken as a labeling onto 1..len(vals), and
    then compares the length with n; the oracle for the verdicts and messages
    of `Labeling(vals)` followed by a verify call on n vertices."""
    size = len(vals)
    seen = set()
    duplicates = set()
    for x in vals:
        if x in seen:
            duplicates.add(x)
        seen.add(x)
    missing = sorted(set(range(1, size + 1)) - seen)
    out_of_range = sorted({x for x in vals if not (1 <= x <= size)})
    if duplicates or missing or out_of_range:
        parts = []
        if duplicates:
            parts.append(f"duplicate labels {sorted(duplicates)}")
        if missing:
            parts.append(f"missing labels {missing}")
        if out_of_range:
            parts.append(f"labels outside 1..{size}: {out_of_range}")
        raise InputError("labeling is not a bijection: " + "; ".join(parts))
    if size != n:
        raise InputError(f"labeling has {size} entries for a graph on {n} vertices")


def format_edge_list_reference(g: Graph) -> str:
    """The edge-list writer with one f-string per edge; the oracle for
    format_edge_list's bytes."""
    out = [f"{g.n} {g.edge_count}"]
    out.extend(f"{u} {v}" for u, row in enumerate(g.adjacency) for v in row if u < v)
    return "\n".join(out) + "\n"


def first_line_difference(text: str, reference: str):
    """None when the texts are equal, else (line number, line, reference
    line) of the first line that differs.  A failing `==` on two texts of
    2^16 lines would have pytest diff them, which takes minutes."""
    if text == reference:
        return None
    pairs = itertools.zip_longest(text.splitlines(True), reference.splitlines(True))
    return next((i, a, b) for i, (a, b) in enumerate(pairs, start=1) if a != b)


def format_labeling_reference(labeling: Labeling) -> str:
    """The labeling writer with one f-string per line; the oracle for
    format_labeling's bytes."""
    return "".join(f"{v} {x}\n" for v, x in enumerate(labeling.values))


def format_grid_reference(labeling: Labeling, m: int, n: int, k: int) -> str:
    """The grid writer with one str() per entry; the oracle for
    format_grid's bytes."""
    vals = labeling.values
    lines = [f"{m} {n} {k}"]
    for i in range(m - 1, -1, -1):
        lines.append(" ".join([str(x) for x in vals[i * n : (i + 1) * n]]))
    return "\n".join(lines) + "\n"


def product_reference(kind: str, g: Graph, h: Graph) -> Graph:
    """The product whose rows compute every entry as x * |V(H)| + y, built
    through the checked Graph(n, rows); the oracle for products.product's
    gathered rows."""
    hn = h.n
    rows = []
    for a, xs in enumerate(g.adjacency):
        if kind == DIRECT:
            offsets = [x * hn for x in xs]
            rows.extend([tuple([o + y for o in offsets for y in ys]) for ys in h.adjacency])
            continue
        low = [x * hn for x in xs if x < a]
        high = [x * hn for x in xs if x > a]
        own = a * hn
        if kind == CARTESIAN:
            rows.extend([tuple([o + b for o in low] + [own + y for y in ys] + [o + b for o in high])
                         for b, ys in enumerate(h.adjacency)])
        else:
            below = tuple([o + y for o in low for y in range(hn)])
            above = tuple([o + y for o in high for y in range(hn)])
            rows.extend([below + tuple([own + y for y in ys]) + above for ys in h.adjacency])
    return Graph(g.n * hn, tuple(rows))


def brute_force_balanced(g: Graph) -> bool:
    """Whether some bijection is balanced distance magic, by the definition
    over all n! of them: even order, one weight, and every neighborhood that
    holds the label i also holds n+1-i; the oracle for label_balanced."""
    n = g.n
    if n % 2:
        return False
    adj = [g.neighbors(v) for v in range(n)]
    for perm in itertools.permutations(range(1, n + 1)):
        if len({sum(perm[u] for u in row) for row in adj}) > 1:
            continue
        if all({n + 1 - perm[u] for u in row} == {perm[u] for u in row} for row in adj):
            return True
    return False


def label_complete_bipartite_reference(a: int) -> tuple[int, ...]:
    """The closed-form balanced labeling of K_{2a,2a}: label i goes to the
    first part when i mod 4 is 0 or 1, to the second otherwise, each part
    filled in ascending vertex order."""
    parts = ([], [])
    for i in range(1, 4 * a + 1):
        parts[i % 4 not in (0, 1)].append(i)
    return tuple(parts[0] + parts[1])


def label_complete_minus_matching_reference(a: int) -> tuple[int, ...]:
    """The closed-form balanced labeling of K_{2a} minus {(2i, 2i+1)}: the
    endpoints of the i-th removed edge (1-based) get i and 2a+1-i."""
    return tuple(x for i in range(1, a + 1) for x in (i, 2 * a + 1 - i))


def couple_layers_reference(bl, on_swap=None):
    """The coupling loop that decodes all of layer g's twins again after
    every swap and exchanges through the public swap_lemma1..3; the oracle
    for couple_layers' result, outcome and on_swap trail.  It picks the swaps
    by the same rule (lemma 1, then 3, then 2, each on the smallest h), so
    both make the same exchanges in the same order."""
    prod = bl.product
    if prod.kind != DIRECT:
        raise InputError("coupling applies to direct products only")
    if prod.base.edge_count == 0:
        raise InputError("product has no edges; twin structure is undefined")

    def layer_twins(bl, g):
        lo = prod.encode(g, 0)
        return [prod.decode(t) for t in bl.twins[lo : lo + prod.hsize]]

    def next_swap(state, g, gp):
        for h, (tg, th) in enumerate(state):
            if tg != g and th != h:
                return swap_lemma1, (prod.encode(g, h), prod.encode(tg, th)), "lemma1"
        anchor = next(h for h, twin in enumerate(state) if twin == (gp, h))
        for h, (tg, th) in enumerate(state):
            if th == h and tg not in (g, gp):
                return swap_lemma3, (g, gp, tg, anchor, h), "lemma3"
        for h, (tg, th) in enumerate(state):
            if tg == g and th != h:
                return swap_lemma2, (g, gp, anchor, min(h, th), max(h, th)), "lemma2"
        return None

    swaps = 0
    remaining = set(range(prod.gsize))
    pairs = []
    while remaining:
        g = min(remaining)
        gp = next((tg for tg, _ in layer_twins(bl, g) if tg != g), None)
        if gp is None:
            break
        aligned = [(gp, h) for h in range(prod.hsize)]
        while (state := layer_twins(bl, g)) != aligned:
            fn, args, lemma = next_swap(state, g, gp)
            new = fn(bl, *args)
            if on_swap is not None:
                on_swap(bl, new, lemma)
            bl, swaps = new, swaps + 1
        remaining -= {g, gp}
        pairs.append((g, gp))

    if remaining:
        return bl, CoupleOutcome(CLOSED_H_LAYER, closed_g=min(remaining), swaps=swaps)
    return bl, CoupleOutcome(COUPLED_PAIRS, pairs=tuple(pairs), swaps=swaps)
