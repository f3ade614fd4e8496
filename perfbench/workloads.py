"""The benchmark's three workloads, generated from a seed.

A workload is one op list drawn from the seed; a run repeats it pass after
pass.  An op is one request a user would make (a search, a CLI job, a
coupling): `run` does the work and returns its output, `check` inspects that
output afterwards, outside the timed region, and returns an error message or
None, and `units` counts the workload's own unit of work in it.  The program only ever sees the generated
graphs, specs and files.

Sizes are capped so one op stays small next to a shared machine's memory:
every op's graph has at most MAX_VERTICES vertices and MAX_EDGES edges
(the 256 x 256 grid sits on both caps; peak RSS stays under 90 MB).
"""

from __future__ import annotations

import itertools
import random
import shutil
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Callable

from distmagic import cli, constructors, graphs, magic, products, rearrange, search

MAX_VERTICES = 65_536
MAX_EDGES = 131_072
SEARCH_BUDGET = 10_000  # nodes; one fixed budget for every search
BRUTE_FORCE_MAX_N = 8


@dataclass
class Op:
    id: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    units: Callable[[object], object]


@dataclass
class Workload:
    imports: tuple[str, ...]  # what a fresh interpreter needs before the first op
    ops: list[Op]
    # (name, unit, rate from one pass's units and op seconds)
    unit_metric: tuple[str, str, Callable[[list, float], float]]
    note: str
    cleanup: Callable[[], None] = lambda: None
    # defects found in a reference the checks consult, not in an op's output
    findings: set[str] = field(default_factory=set)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _per_second(units, seconds):
    return sum(units) / seconds


# ---------------------------------------------------------------------------
# search-certify
# ---------------------------------------------------------------------------

CLASSIFIERS = {  # kind -> (name, whether the product of C_a and C_b is distance magic)
    products.DIRECT: ("classify_cycle_direct", lambda a, b: (
        constructors.classify_cycle_direct(a, b) != constructors.NOT_DISTANCE_MAGIC)),
    products.CARTESIAN: ("classify_cycle_cartesian", constructors.classify_cycle_cartesian),
    products.LEXICOGRAPHIC: ("classify_lex_cycles", constructors.classify_lex_cycles),
}
RANDOM_SIZES = range(7, 13)
# irregular graphs per family, by order; fewer where the brute-force check runs
IRREGULAR_PER_N = {7: 8, 8: 8, 9: 20, 10: 20, 11: 20, 12: 20}
REGULAR_PER_DEGREE = 2


def brute_force_magic(g: graphs.Graph) -> bool:
    """True when some bijection onto 1..n is distance magic.

    Unpruned: every one of the n! bijections is tried, and none of the
    search's propagation or bounds is used, so it is an independent oracle.
    """
    weights = []
    for v in range(g.n):
        nbrs = g.neighbors(v)
        if len(nbrs) > 1:
            get = itemgetter(*nbrs)
            weights.append(lambda perm, get=get: sum(get(perm)))
        else:
            weights.append(itemgetter(nbrs[0]) if nbrs else (lambda perm: 0))
    first, rest = weights[0], weights[1:]
    for perm in itertools.permutations(range(1, g.n + 1)):
        k = first(perm)
        for weight in rest:
            if weight(perm) != k:
                break
        else:
            return True
    return False


def _random_regular(rng: random.Random, n: int, r: int) -> list[tuple[int, int]]:
    """Edges of an r-regular graph on n vertices: a circulant, then
    degree-preserving double-edge swaps, so generation never fails."""
    edges = sorted({tuple(sorted((i, (i + d) % n))) for i in range(n)
                    for d in range(1, r // 2 + 1)})
    if r % 2:
        edges += [(i, i + n // 2) for i in range(n // 2)]
    present = set(edges)
    for _ in range(10 * len(edges)):
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, d) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, d = d, c
        e1, e2 = tuple(sorted((a, c))), tuple(sorted((b, d)))
        if len({a, b, c, d}) == 4 and e1 not in present and e2 not in present:
            present -= {edges[i], edges[j]}
            present |= {e1, e2}
            edges[i], edges[j] = e1, e2
    return sorted(edges)


def _random_irregular(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """G(n, p) with p drawn from [0.3, 0.6], redrawn until irregular."""
    while True:
        p = rng.uniform(0.3, 0.6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        degrees = [0] * n
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        if len(set(degrees)) > 1:
            return edges


def _regular_degrees(n: int) -> list[int]:
    """Degrees r >= 2 with density r/(n-1) in [0.3, 0.6] and n*r even."""
    return [r for r in range(2, n) if 0.3 <= r / (n - 1) <= 0.6 and n * r % 2 == 0]


def _check_search(name, g, outcome, classifier, findings) -> str | None:
    """Check one outcome; classifier is (call text, verdict) or None."""
    if outcome.tag == search.FOUND:
        report = magic.verify_distance_magic(g, outcome.labeling)
        if not report.is_distance_magic or report.magic_constant != outcome.magic_constant:
            return f"{name}: witness does not verify with k={outcome.magic_constant}"
        if classifier is not None and classifier[1] is False:
            # the verified witness proves the classifier wrong, not the search
            findings.add(f"{name}: verified witness with k={outcome.magic_constant},"
                         f" but {classifier[0]} says not distance magic")
    elif outcome.tag == search.EXHAUSTED_NONE:
        if classifier is not None and classifier[1] is True:
            return f"{name}: exhausted_none where {classifier[0]} says distance magic"
        if classifier is None and g.n <= BRUTE_FORCE_MAX_N and brute_force_magic(g):
            return f"{name}: exhausted_none but the brute-force oracle finds a labeling"
    elif outcome.tag != search.BUDGET_EXCEEDED:
        return f"{name}: unknown outcome {outcome.tag!r}"
    return None


def _named_search_op(name, build, classifier, findings) -> Op:
    """One search of a fixed-family graph, checked against its classifier."""
    budget = search.SearchBudget(SEARCH_BUDGET)
    checked = {}  # the search is deterministic: check each distinct outcome once

    def check(outcome):
        key = (outcome.tag, outcome.labeling)
        if key not in checked:
            checked[key] = _check_search(name, build(), outcome, classifier, findings)
        return checked[key]

    return Op(name, lambda: search.find_distance_magic(build(), budget), check,
              lambda outcome: (int(outcome.tag == search.BUDGET_EXCEEDED), 1))


def _family_op(name, edge_lists, n, findings) -> Op:
    """One request certifying a family of random graphs on n vertices."""
    budget = search.SearchBudget(SEARCH_BUDGET)
    names = [f"{name}.{i}" for i in range(len(edge_lists))]

    def run():
        family = [(gname, graphs.Graph.from_edges(n, edges))
                  for gname, edges in zip(names, edge_lists)]
        return search.check_family(family, budget)

    checked = {}  # the searches are deterministic: check each distinct result once

    def first_error(results):
        for (gname, outcome), edges in zip(results, edge_lists):
            error = _check_search(gname, graphs.Graph.from_edges(n, edges), outcome, None, findings)
            if error:
                return error
        return None

    def check(results):
        key = tuple((outcome.tag, outcome.labeling) for _, outcome in results)
        if key not in checked:
            checked[key] = first_error(results)
        return checked[key]

    return Op(name, run, check, lambda results: (
        sum(outcome.tag == search.BUDGET_EXCEEDED for _, outcome in results), len(results)))


def search_certify(seed: int, quick: bool, workdir: Path) -> Workload:
    """Cycles C3..C16 and all three products of C3..C6 x C3..C6, one search
    each, plus one family of random irregular graphs (G(n, p), p in
    [0.3, 0.6]) and one of random regular graphs (every degree of density
    0.3-0.6) for each n in 7..12, all under one node budget."""
    rng = _rng("search-certify", seed)
    findings = set()
    ops = []
    for n in (4, 5) if quick else range(3, 17):
        ops.append(_named_search_op(
            f"C{n}", lambda n=n: graphs.cycle(n),
            (f"classify_cycle({n})", constructors.classify_cycle(n)), findings))
    sides = (3, 4) if quick else range(3, 7)
    for kind, (cname, classify) in CLASSIFIERS.items():
        for a in sides:
            for b in sides:
                ops.append(_named_search_op(
                    f"{kind}-C{a}xC{b}",
                    lambda kind=kind, a=a, b=b: products.product(
                        kind, graphs.cycle(a), graphs.cycle(b)).base,
                    (f"{cname}({a}, {b})", classify(a, b)), findings))

    for n in (7,) if quick else RANDOM_SIZES:
        count = 2 if quick else IRREGULAR_PER_N[n]
        ops.append(_family_op(f"irregular-n{n}",
                              [_random_irregular(rng, n) for _ in range(count)], n, findings))
        regular = [_random_regular(rng, n, r) for r in _regular_degrees(n)
                   for _ in range(REGULAR_PER_DEGREE)]
        ops.append(_family_op(f"regular-n{n}", regular, n, findings))
    rng.shuffle(ops)

    def unsolved_ratio(units, seconds):
        return sum(u for u, _ in units) / sum(s for _, s in units)

    return Workload(
        imports=("distmagic.search", "distmagic.products", "distmagic.constructors"),
        ops=ops,
        unit_metric=("unsolved_ratio", "ratio", unsolved_ratio),
        note=f"budget_exceeded searches / searches; budget {SEARCH_BUDGET} nodes",
        findings=findings,
    )


# ---------------------------------------------------------------------------
# build-verify
# ---------------------------------------------------------------------------

# grid sizes m*n; the seed picks the shape among the m x n with m, n
# multiples of 4 in 8..256.  Keeping the sizes fixed keeps the op costs, and
# so the metrics, independent of the seed.
GRID_AREAS = (64, 96, 192, 256, 384, 768, 1024, 1536, 3072, 4096, 6144,
              12288, 16384, 24576, 65536)
# (kind, m, second factor, a): C_m times cycle:4, kbip:2a,2a or kminusm:2a
PRODUCT_JOBS = (
    (products.DIRECT, 16, "cycle", 0), (products.DIRECT, 64, "cycle", 0),
    (products.DIRECT, 256, "cycle", 0), (products.DIRECT, 12, "kbip", 2),
    (products.DIRECT, 32, "kbip", 4), (products.DIRECT, 64, "kbip", 8),
    (products.DIRECT, 10, "kminusm", 3), (products.DIRECT, 24, "kminusm", 6),
    (products.DIRECT, 40, "kminusm", 10),
    (products.LEXICOGRAPHIC, 16, "cycle", 0), (products.LEXICOGRAPHIC, 128, "cycle", 0),
    (products.LEXICOGRAPHIC, 12, "kbip", 2), (products.LEXICOGRAPHIC, 24, "kbip", 4),
    (products.LEXICOGRAPHIC, 32, "kbip", 8), (products.LEXICOGRAPHIC, 60, "kbip", 10),
    (products.LEXICOGRAPHIC, 10, "kminusm", 3), (products.LEXICOGRAPHIC, 24, "kminusm", 6),
    (products.LEXICOGRAPHIC, 32, "kminusm", 12),
)


def _factor(name: str, a: int) -> tuple[str, int, int]:
    """(spec, vertices, edges) of the second factor."""
    if name == "cycle":
        return "cycle:4", 4, 4
    if name == "kbip":
        return f"kbip:{2 * a},{2 * a}", 4 * a, 4 * a * a
    return f"kminusm:{2 * a}", 2 * a, 2 * a * (a - 1)


def _read_kv(path: Path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


def _cli_op(op_id, commands, expect, vertices) -> Op:
    def check(codes):
        if codes != [0] * len(commands):
            return f"{op_id}: exit codes {codes}"
        return expect()

    return Op(op_id, lambda: [cli.main(argv) for argv in commands], check,
              lambda codes: vertices)


def _grid_op(i, m, n, tmp) -> Op:
    grid, kv = tmp / f"grid{i}.txt", tmp / f"grid{i}.kv"

    def expect():
        out = _read_kv(kv)
        k = 2 * m * n + 2
        if out.get("is_distance_magic") != "true" or out.get("magic_constant") != str(k):
            return f"grid {m}x{n}: verify reported {out}, expected distance magic with k={k}"
        return None

    return _cli_op(
        f"grid{i}-{m}x{n}",
        [["construct", "--kind", "cycle-product", "--m", str(m), "--n", str(n),
          "--out", str(grid)],
         ["verify", "--grid", str(grid), "--out", str(kv)]],
        expect, m * n)


def _product_op(i, kind, m, hname, a, tmp) -> Op:
    hspec, hv, he = _factor(hname, a)
    edges = 2 * m * he if kind == products.DIRECT else m * hv * hv + m * he
    if m * hv > MAX_VERTICES or edges > MAX_EDGES:
        raise ValueError(f"{kind} C{m} x {hspec} exceeds the size cap")
    edge_file, lab, kv = tmp / f"prod{i}.edges", tmp / f"prod{i}.lab", tmp / f"prod{i}.kv"

    def expect():
        out = _read_kv(kv)
        if out.get("is_balanced") != "true":
            return f"{kind} C{m} x {hspec}: verify reported {out}, expected balanced"
        return None

    return _cli_op(
        f"prod{i}-{kind}-C{m}x{hspec}",
        [["product", "--kind", kind, f"cycle:{m}", hspec, "--out", str(edge_file)],
         ["construct", "--kind", kind, "--g", f"cycle:{m}", "--h", hspec, "--out", str(lab)],
         ["verify", "--graph", str(edge_file), "--labeling", str(lab),
          "--require", "balanced", "--out", str(kv)]],
        expect, m * hv)


def build_verify(seed: int, quick: bool, workdir: Path) -> Workload:
    """In-process `distmagic` CLI jobs writing into a temporary directory:
    cycle-product grids constructed then verified, and direct or
    lexicographic products written as edge lists, labeled, and verified."""
    rng = _rng("build-verify", seed)
    tmp = workdir / f"build-verify-{seed}"
    tmp.mkdir(parents=True, exist_ok=True)
    ops = []  # (vertices, op)
    for i, area in enumerate((64,) if quick else GRID_AREAS):
        m = rng.choice([m for m in range(8, 257, 4) if area % m == 0 and 8 <= area // m <= 256
                        and area // m % 4 == 0])
        ops.append((area, _grid_op(i, m, area // m, tmp)))
    for i, (kind, m, hname, a) in enumerate(
            [(products.DIRECT, 8, "kbip", 1)] if quick else PRODUCT_JOBS):
        ops.append((m * _factor(hname, a)[1], _product_op(i, kind, m, hname, a, tmp)))
    # ascending size, so the heap the largest op grows from, and so peak
    # memory, is the same for every seed
    ops = [op for _, op in sorted(ops, key=lambda pair: pair[0])]

    return Workload(
        imports=("distmagic.cli",),
        ops=ops,
        unit_metric=("vertices_per_s", "1/s", _per_second),
        note="product vertices built and verified per second of best op time",
        cleanup=lambda: shutil.rmtree(tmp, ignore_errors=True),
    )


# ---------------------------------------------------------------------------
# couple-rearrange
# ---------------------------------------------------------------------------

def _couple_op(op_id, make_g, make_h, make_h_labeling, scramble_seed) -> Op:
    def run():
        g, h = make_g(), make_h()
        p = products.product(products.DIRECT, g, h)
        labeling = constructors.label_direct(g, h, make_h_labeling())
        bl = rearrange.make_balanced(p, labeling)
        bl = rearrange.scramble_balanced(bl, scramble_seed)
        bl, outcome = rearrange.couple_layers(bl)
        axis, factor_labeling = rearrange.extract_factor_labeling(bl, outcome)
        return axis, factor_labeling, outcome.swaps

    def check(result):
        axis, factor_labeling, _ = result
        factor = make_h() if axis == "H" else make_g()
        if not magic.verify_balanced(factor, factor_labeling).is_balanced:
            return f"{op_id}: extracted {axis}-factor labeling is not balanced"
        return None

    return Op(op_id, run, check, lambda result: result[2])


def couple_rearrange(seed: int, quick: bool, workdir: Path) -> Workload:
    """Scramble, couple and extract on balanced direct-product labelings:
    C4 x K_{2a,2a} for a up to 16, K_{4,4} x K_{16,16}, K_{8,8} x (K_8 - M)
    and C8 x C4.  Sizes are fixed; the seed draws every scramble.

    a stops at 16 so a pass takes about two seconds: each op then runs often
    enough in a run for its best run to miss the host's slow stretches.
    C4 x K_{64,64} alone took 2.7 s, half of a pass, and left five passes in
    30 s; the latency spreads across seeds were then about twice as wide."""
    rng = _rng("couple-rearrange", seed)
    sizes = [(1, 1), (2, 1)] if quick else (
        [(a, 2) for a in range(1, 13)] + [(a, 1) for a in (13, 14, 15, 16)])
    inputs = [(f"C4xK{2 * a},{2 * a}-{i}", lambda: graphs.cycle(4),
               lambda a=a: graphs.complete_bipartite(2 * a, 2 * a),
               lambda a=a: constructors.label_complete_bipartite(a))
              for a, repeats in sizes for i in range(repeats)]
    inputs.append(("C8xC4", lambda: graphs.cycle(8), lambda: graphs.cycle(4),
                   constructors.label_c4))
    if not quick:
        inputs.append(("K4,4xK16,16", lambda: graphs.complete_bipartite(4, 4),
                       lambda: graphs.complete_bipartite(16, 16),
                       lambda: constructors.label_complete_bipartite(8)))
        inputs.append(("K8,8xK8-M", lambda: graphs.complete_bipartite(8, 8),
                       lambda: graphs.complete_minus_matching(8),
                       lambda: constructors.label_complete_minus_matching(4)))

    ops = [_couple_op(*spec, rng.randrange(2**32)) for spec in inputs]
    rng.shuffle(ops)

    return Workload(
        imports=("distmagic.rearrange", "distmagic.constructors"),
        ops=ops,
        unit_metric=("swaps_per_s", "1/s", _per_second),
        note="CoupleOutcome.swaps per second of best op time",
    )


WORKLOADS = {
    "search-certify": search_certify,
    "build-verify": build_verify,
    "couple-rearrange": couple_rearrange,
}
