"""Simple finite undirected graphs: representation, named generators,
regularity, equal-neighborhood classes, and the edge-list text format.

Vertices are contiguous 0-based integers.  A graph stores only its sorted
adjacency: row v is the strictly ascending tuple of v's neighbors, so
iterating rows in vertex order visits the edges in lexicographic order, which
keeps every algorithm built on top of this module deterministic.  Graph
values are immutable; anything that looks like mutation builds a new value.

Every graph the library builds holds one int object per vertex id, shared by
all rows that contain it: the builders append or slice one table of ids
instead of creating an int per row entry.  At the caps that is the larger
part of the adjacency's memory (an int object takes 28 bytes, a reference 8).

Sizes are capped at MAX_VERTICES vertices and MAX_EDGES edges.  Every
generator, parser and product checks its counts against the caps before it
allocates anything, so an oversized request is rejected input, not an
exhausted memory.

The text readers here and in `magic` and `constructors` share one bulk scan
(`_scan_ints`, `_scan_blocks`): a canonical text is read a block of lines at
a time, each block's integers decoded by one C-level call, so it holds no
list of all lines.  Lines may end in "\n" or, all of a block's alike, in
"\r\n".  Any other spelling, and any error, sends the text to the reader's
line-by-line path, the only one that names a line in its errors; that path
splits the whole text with `splitlines()`, and its header and line errors
-- a line with the wrong number of tokens, or a token that is not an
integer -- come from one parser, `_line_ints`.  It reads tokens with
`int()`, so `+1`, leading zeros and other digits are read, but a token
holding "_" (`int()` reads 1_0 as 10) is not an integer.

The text writers here and in `magic` and `constructors` are generators of
blocks of about WRITE_BLOCK lines, so a caller that writes block by block
holds one block of the text at a time; each `format_*` function is the join
of its writer's blocks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import islice
from operator import lt

from ._value import Value
from .errors import InputError

MAX_VERTICES = 1 << 20
MAX_EDGES = 1 << 21


def check_size(vertices: int, edges: int = 0):
    """Reject a graph (or a labeling) above MAX_VERTICES or MAX_EDGES."""
    if vertices > MAX_VERTICES:
        raise InputError(f"{vertices} vertices exceed the limit of {MAX_VERTICES}")
    if edges > MAX_EDGES:
        raise InputError(f"{edges} edges exceed the limit of {MAX_EDGES}")


class Graph(Value):
    """Undirected simple graph on vertices 0..n-1 (no loops, no multi-edges).

    adjacency[v] is the strictly ascending tuple of v's neighbors; u is in
    row v exactly when v is in row u.

    Rows are checked once, where they enter the library: `Graph(n, rows)`
    checks that n and every entry are ints (not bools or floats) and every
    row for type, range, order, loops and symmetry, since its rows come
    from the caller.  The library's own builders -- `from_edges`, the
    generators, `parse_edge_list` and `products.product` -- write rows that
    are valid by construction and skip that check through `_of_fields`.
    """

    __slots__ = _fields = ("n", "adjacency")

    def __init__(self, n: int, adjacency: tuple[tuple[int, ...], ...]):
        self._init(n, adjacency)
        n, adj = self.n, self.adjacency
        if type(n) is not int:
            raise InputError(f"vertex count must be an int, got {n!r}")
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        if type(adj) is not tuple or len(adj) != n:
            got = len(adj) if type(adj) is tuple else type(adj).__name__
            raise InputError(f"adjacency must be a tuple of {n} rows, got {got}")
        for v, row in enumerate(adj):
            if type(row) is not tuple:
                raise InputError(f"row {v} must be a tuple")
            prev = -1
            for u in row:
                if type(u) is not int:
                    raise InputError(f"row {v} entry {u!r} is not an int")
                if not (prev < u < n):
                    raise InputError(f"row {v} is not strictly ascending inside [0,{n})")
                if u == v:
                    raise InputError(f"self-loop at vertex {v}")
                back = adj[u]
                i = bisect_left(back, v)
                if i == len(back) or back[i] != v:
                    raise InputError(f"vertex {u} is in row {v}, but {v} is not in row {u}")
                prev = u

    @staticmethod
    def from_edges(n: int, pairs) -> "Graph":
        """Build a graph from an iterable of (u, v) pairs in either endpoint
        order; repeated pairs count once."""
        check_size(n)
        ids = list(range(n))
        rows = [[] for _ in range(n)]
        for u, v in pairs:
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) has an endpoint outside [0,{n})")
            rows[u].append(ids[v])
            rows[v].append(ids[u])
        return Graph._of_fields(n, tuple([tuple(sorted(set(row))) for row in rows]))

    @property
    def edges(self) -> frozenset:
        """Edges as canonical (min, max) pairs, derived from the rows on each call."""
        return frozenset((u, v) for u, row in enumerate(self.adjacency) for v in row if u < v)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order."""
        if not (0 <= v < self.n):
            raise InputError(f"vertex {v} out of range [0,{self.n})")
        return self.adjacency[v]


# ---------------------------------------------------------------------------
# Named generators
# ---------------------------------------------------------------------------

def cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices, consecutive ids adjacent, edge (0, n-1) closing it."""
    if n < 3:
        raise InputError(f"cycle length must be >= 3, got n={n}")
    check_size(n, n)
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise InputError(f"path order must be >= 1, got n={n}")
    check_size(n, n - 1)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def empty_graph(n: int) -> Graph:
    if n < 0:
        raise InputError(f"empty graph order must be >= 0, got n={n}")
    check_size(n)
    return Graph._of_fields(n, ((),) * n)


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with parts {0..a-1} and {a..a+b-1}."""
    if a < 1:
        raise InputError(f"complete bipartite part size a must be >= 1, got a={a}")
    if b < 1:
        raise InputError(f"complete bipartite part size b must be >= 1, got b={b}")
    check_size(a + b, a * b)
    return Graph._of_fields(a + b, (tuple(range(a, a + b)),) * a + (tuple(range(a)),) * b)


def complete_minus_matching(order: int) -> Graph:
    """Complete graph on an even number of vertices minus the perfect matching
    {(2i, 2i+1) : 0 <= i < order/2}."""
    if order < 2 or order % 2:
        raise InputError(f"order must be even and >= 2, got order={order}")
    check_size(order, order * (order - 2) // 2)
    ids = tuple(range(order))
    rows = []
    for lo in range(0, order, 2):
        row = ids[:lo] + ids[lo + 2:]  # 2i and 2i+1 have one neighborhood
        rows += (row, row)
    return Graph._of_fields(order, tuple(rows))


# ---------------------------------------------------------------------------
# Regularity
# ---------------------------------------------------------------------------

def regularity(g: Graph) -> int | None:
    """Common degree r if g is regular, else None.  The 0-vertex graph is
    0-regular by convention."""
    if g.n == 0:
        return 0
    degrees = set(map(len, g.adjacency))
    if len(degrees) == 1:
        return degrees.pop()
    return None


def equal_neighborhood_classes(g: Graph) -> list[list[int]]:
    """Vertex classes with identical open neighborhoods, each ascending and
    ordered by smallest member: a class enters the dict when its smallest
    member is read.  Dict lookup hashes the row tuple and falls back to full
    comparison on collision, so the time is O(n + |E|)."""
    classes = {}
    for v, row in enumerate(g.adjacency):
        classes.setdefault(row, []).append(v)
    return list(classes.values())


# ---------------------------------------------------------------------------
# Bulk integer scan
# ---------------------------------------------------------------------------

# characters per block of a bulk scan; a block ends just after a newline
SCAN_BLOCK = 1 << 16
# about this many lines (entries, for a grid) per block of the text
# writers, whose blocks hold whole rows
WRITE_BLOCK = 1 << 12

_NO_DIGITS = dict.fromkeys(range(ord("0"), ord("9") + 1))
_TO_COMMAS = {ord(" "): ",", ord("\n"): ",", ord("\r"): None}


def _scan_ints(text: str, line_shape: str) -> list[int] | None:
    """The integers of text if it is canonical, else None.

    Canonical means: the text ends with a newline, and deleting the ASCII
    digits leaves `line_shape` (spaces ending in one newline) repeated, so
    every line has the shape's number of tokens, and every token is a
    decimal without sign or leading zero.  The lines may all end in "\r\n"
    instead, when the first does.  The stdlib JSON decoder reads the
    tokens as one array in C; it also rejects the empty tokens and leading
    zeros the shape test lets through.  It is imported here, so importing
    the package does not load it.
    """
    rest = text.translate(_NO_DIGITS)
    if rest.startswith(line_shape[:-1] + "\r"):
        line_shape = line_shape[:-1] + "\r\n"
    if not text.endswith("\n") or rest != line_shape * (len(rest) // len(line_shape)):
        return None
    import json

    try:
        return json.loads("[" + text[:-1].translate(_TO_COMMAS) + "]")
    except ValueError:
        return None


def _scan_blocks(text: str, start: int, line_shape: str):
    """Yield the integers of text[start:], `_scan_ints` on one block of
    about SCAN_BLOCK characters at a time, None for a block that is not
    canonical, where callers stop.  Only one block is held at a time."""
    size = len(text)
    while start < size:
        end = text.find("\n", start + SCAN_BLOCK - 1) + 1 or size
        yield _scan_ints(text[start:end], line_shape)
        start = end


# ---------------------------------------------------------------------------
# Edge-list text format
#
#   line 1:       "n m"
#   lines 2..m+1: "u v" with 0 <= u < v < n
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format, rejecting malformed lines with their line number.

    A canonical text -- every line two decimals without sign or leading
    zero, one space between them and a newline after -- is read in bulk, a
    block at a time.  Any other spelling, and any error, is read again line
    by line, which reports the first bad line, so both readers give the same
    graph or the same error.  Rows take each endpoint from one table of ids,
    so the int a token is read as is dropped at once.
    """
    g = _scan_edge_list(text)
    return g if g is not None else _read_edge_list_lines(text)


def _scan_edge_list(text: str) -> Graph | None:
    """The graph of a canonical edge list whose lines are all valid, else None.

    Checks run per block in C: 0 <= u < v < n on every line, and the line
    count against m.  While the lines are strictly ascending, as
    `format_edge_list` writes them, every row is already ascending with no
    repeat, and no later line can touch a row below the block's last u:
    those rows become final tuples at once, so the lists of the whole graph
    are never held together.  After the first line out of order, the rows
    are sorted at the end and repeats found in them.
    """
    start = text.find("\n") + 1
    header = _scan_ints(text[:start], " \n")
    if not header:
        return None
    n, m = header
    if n > MAX_VERTICES or m > MAX_EDGES:
        return None
    ids = list(range(n))
    rows = [[] for _ in range(n)]
    done = read = 0  # rows[:done] are final
    last = (-1, -1)  # the last line while all are in order, else None
    for ints in _scan_blocks(text, start, " \n"):
        if ints is None:
            return None
        us, vs = ints[0::2], ints[1::2]
        read += len(us)
        if read > m or min(us) < done or max(vs) >= n or not all(map(lt, us, vs)):
            return None
        for u, v in zip(us, vs):
            rows[u].append(ids[v])
            rows[v].append(ids[u])
        if last is not None and last < (us[0], vs[0]) and all(
                map(lt, zip(us, vs), zip(islice(us, 1, None), islice(vs, 1, None)))):
            rows[done:us[-1]] = map(tuple, islice(rows, done, us[-1]))
            done, last = us[-1], (us[-1], vs[-1])
        else:
            last = None
    if read != m:
        return None
    if last is not None:
        rows[done:] = map(tuple, islice(rows, done, None))
    elif not _finish_rows(rows, done, n):
        return None
    return Graph._of_fields(n, tuple(rows))


def _finish_rows(rows: list, lo: int, hi: int) -> bool:
    """Sort rows[lo:hi] into tuples; False when one repeats an entry."""
    for v in range(lo, hi):
        row = rows[v]
        row.sort()
        rows[v] = row = tuple(row)
        if len(set(row)) != len(row):
            return False
    return True


def _line_ints(i: int, line: str, width: int, shape: str, ints: str) -> list[int]:
    """The `width` integers of line i of a line-by-line reader, or the
    error "line i: <shape>, got <line>" when it has another number of
    tokens, "line i: <ints>, got <line>" when a token is not an integer."""
    parts = line.split()
    if len(parts) != width:
        raise InputError(f"line {i}: {shape}, got {line!r}")
    try:
        if "_" in line:  # int() reads 1_0 as 10, which no writer emits
            raise ValueError(line)
        return list(map(int, parts))
    except ValueError:
        raise InputError(f"line {i}: {ints}, got {line!r}")


def _read_edge_list_lines(text: str) -> Graph:
    """The line-by-line reader: each line is checked for shape, order,
    loops and range as it is read; repeats of an earlier edge are found in
    the sorted rows, and only then are the lines read again for the line
    number.  The error reported is the one on the first bad line."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise InputError("line 1: missing header 'n m'")
    n, m = _line_ints(1, lines[0], 2, "header must be 'n m'", "header must be two integers")
    if n < 0 or m < 0:
        raise InputError(f"line 1: n and m must be nonnegative, got n={n} m={m}")
    try:
        check_size(n, m)
    except InputError as exc:
        raise InputError(f"line 1: {exc}")
    if len(lines) - 1 != m:
        raise InputError(f"expected {m} edge lines after the header, got {len(lines) - 1}")
    ids = list(range(n))
    rows = [[] for _ in range(n)]
    for i, line in enumerate(islice(lines, 1, None), start=2):
        try:
            a, b = line.split()
            u, v = int(a), int(b)
        except ValueError:
            u = v = -1
        if not (0 <= u < v < n) or "_" in line:
            _check_no_repeat(lines, i)  # a repeat on an earlier line comes first
            _reject_edge_line(i, line, n)
        rows[u].append(ids[v])
        rows[v].append(ids[u])
    if not _finish_rows(rows, 0, n):
        _check_no_repeat(lines, m + 2)  # raises: some edge repeats
    return Graph._of_fields(n, tuple(rows))


def _reject_edge_line(i: int, line: str, n: int):
    """Raise the error for edge line i, which is not a valid 'u v'."""
    u, v = _line_ints(i, line, 2, "edge line must be 'u v'", "edge endpoints must be integers")
    if u == v:
        raise InputError(f"line {i}: self-loop at vertex {u}")
    if not (0 <= u < v):
        raise InputError(f"line {i}: endpoints must satisfy u < v, got {u} {v}")
    raise InputError(f"line {i}: vertex {v} out of range [0,{n})")


def _check_no_repeat(lines: list[str], stop: int):
    """Reject the first edge repeated on lines 2..stop-1, which all parsed."""
    seen = set()
    for i in range(2, stop):
        u, v = map(int, lines[i - 1].split())
        if (u, v) in seen:
            raise InputError(f"line {i}: duplicate edge ({u},{v})")
        seen.add((u, v))


def format_edge_list(g: Graph) -> str:
    """Serialize in the same format, edges sorted lexicographically: the
    join of `edge_list_blocks`."""
    return "".join(edge_list_blocks(g))


def edge_list_blocks(g: Graph):
    """Yield the text of `format_edge_list` in blocks of whole rows, each
    ending at the row that brings it to WRITE_BLOCK lines or more.

    Row u contributes the lines "u v" for its neighbors v > u, written by
    one `%` format of the tail of the row past u: the format string repeats
    "u %d\n" once per neighbor, so the ints are converted in C, where one
    `str()` call per number would go through the interpreter.
    """
    block, lines = [f"{g.n} {g.edge_count}\n"], 1
    for u, row in enumerate(g.adjacency):
        tail = row[bisect_right(row, u):]
        if tail:
            block.append((f"{u} %d\n" * len(tail)) % tail)
            lines += len(tail)
            if lines >= WRITE_BLOCK:
                yield "".join(block)
                block, lines = [], 0
    if block:
        yield "".join(block)
