"""Command-line front end.

Exit status: 0 for success / positive verdicts, 1 for negative verdicts
(not magic, nothing found), 2 for rejected input.  All output is
byte-deterministic for fixed inputs and flags; the only randomness is the
scramble seed, always passed explicitly.

Graph arguments accept either a generator spec or a path to an edge-list
file.  Specs: cycle:N  path:N  empty:N  kbip:A,B  kminusm:ORDER.  They are
defined in one place, the GRAPH_SPECS table below.

`construct` and `couple` label a product from a balanced labeling of its
second factor --h: the --h-labeling file when one is passed, else the one
constructors.label_balanced finds for any balanced --h, spec or edge-list
file.  An --h without one is rejected.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain

from . import constructors, magic, rearrange, search
from .errors import InputError
from .graphs import (
    Graph,
    complete_bipartite,
    complete_minus_matching,
    cycle,
    edge_list_blocks,
    empty_graph,
    parse_edge_list,
    path,
)
from .products import CARTESIAN, DIRECT, LEXICOGRAPHIC, product


# The one place graph specs are defined: spec name -> (generator, parameter
# count).
GRAPH_SPECS = {
    "cycle": (cycle, 1),
    "path": (path, 1),
    "empty": (empty_graph, 1),
    "kbip": (complete_bipartite, 2),
    "kminusm": (complete_minus_matching, 1),
}


def parse_graph_spec(spec: str) -> Graph:
    """The graph of a generator spec, else of the edge-list file it names."""
    name, sep, raw = spec.partition(":")
    if name not in GRAPH_SPECS or not sep:
        if sep and name.isidentifier() and not os.path.exists(spec):
            known = ", ".join(GRAPH_SPECS)
            raise InputError(f"graph spec {spec!r}: unknown name {name!r}, known: {known}")
        return parse_edge_list(_read(spec))
    generator, count = GRAPH_SPECS[name]
    try:
        params = [int(x) for x in raw.split(",")] if raw else []
    except ValueError:
        raise InputError(f"graph spec {spec!r}: parameters must be integers")
    if len(params) != count:
        raise InputError(f"graph spec {spec!r}: wrong number of parameters")
    try:
        return generator(*params)
    except InputError as exc:
        raise InputError(f"graph spec {spec!r}: {exc}")


def _read(path_arg: str) -> str:
    """The ASCII text of a file, with its newlines as written.  The readers
    scan "\n"- or "\r\n"-ended lines in bulk and read any other line ends
    line by line with splitlines(), so newlines need no translation."""
    try:
        with open(path_arg, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path_arg!r}: {exc}")
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise InputError(
            f"cannot read {path_arg!r}: byte 0x{data[exc.start]:02x} at offset {exc.start} "
            "is not ASCII"
        )


def _emit(blocks, out: str | None):
    """Write the text blocks, in order, to the file `out`, else to stdout,
    one block at a time: the writers' block generators are consumed as
    they are written, so no whole text, nor an encoded copy of it, is held."""
    if out is None:
        sys.stdout.writelines(blocks)
        return
    try:
        with open(out, "w", encoding="ascii") as fh:
            fh.writelines(blocks)
    except OSError as exc:
        raise InputError(f"cannot write {out!r}: {exc}")


def _labeling_for(args, h: Graph) -> magic.Labeling:
    """Balanced labeling of the second factor: --h-labeling, else the one
    constructors.label_balanced finds, which exists whenever any does."""
    if args.h_labeling is not None:
        return magic.parse_labeling(_read(args.h_labeling), h.n)
    labeling = constructors.label_balanced(h)
    if labeling is None:
        raise InputError(f"--h {args.h!r} is not balanced distance magic")
    return labeling


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_construct(args) -> int:
    kind = args.kind
    if kind == "cycle-product":
        if args.m is None or args.n is None:
            raise InputError("cycle-product needs --m and --n")
        labeling = constructors.label_cycle_product(args.m, args.n)
        k = constructors.cycle_product_magic_constant(args.m, args.n)
        if args.format == "list":
            _emit(magic.labeling_blocks(labeling), args.out)
        else:
            _emit(constructors.grid_blocks(labeling, args.m, args.n, k), args.out)
        return 0
    if args.format == "grid":
        raise InputError("grid output applies to --kind cycle-product only")
    if kind == "c4":
        labeling = constructors.label_c4()
    elif kind == "complete-bipartite":
        if args.n is None:
            raise InputError("complete-bipartite needs --n (labels K_{2n,2n})")
        labeling = constructors.label_complete_bipartite(args.n)
    elif kind == "complete-minus-matching":
        if args.n is None:
            raise InputError("complete-minus-matching needs --n (labels K_{2n} minus M)")
        labeling = constructors.label_complete_minus_matching(args.n)
    elif kind in ("lexicographic", "direct"):
        if args.g is None or args.h is None:
            raise InputError(f"{kind} needs --g and --h")
        g = parse_graph_spec(args.g)
        h = parse_graph_spec(args.h)
        labeling = constructors.label_direct(g, h, _labeling_for(args, h))
    else:
        raise InputError(f"unknown construct kind {kind!r}")
    _emit(magic.labeling_blocks(labeling), args.out)
    return 0


def cmd_verify(args) -> int:
    if args.grid is not None:
        if args.graph is not None or args.labeling is not None:
            raise InputError("verify takes --grid, or --graph with --labeling, not both")
        labeling, m, n, k = constructors.parse_grid(_read(args.grid))
        report = magic.verify_grid(labeling, m, n)
        if report.is_distance_magic and report.magic_constant != k:
            raise InputError(f"line 1: header k={k} disagrees with the grid's magic constant "
                             f"{report.magic_constant}")
    else:
        if args.graph is None or args.labeling is None:
            raise InputError("verify needs --graph and --labeling, or --grid")
        g = parse_graph_spec(args.graph)
        report = magic.verify_balanced(g, magic.parse_labeling(_read(args.labeling), g.n))
    render = magic.report_text if args.format == "text" else magic.report_kv
    _emit([render(report)], args.out)
    ok = report.is_balanced if args.require == "balanced" else report.is_distance_magic
    return 0 if ok else 1


def cmd_product(args) -> int:
    g = parse_graph_spec(args.g)
    h = parse_graph_spec(args.h)
    p = product(args.kind, g, h)
    _emit(edge_list_blocks(p.base), args.out)
    return 0


def cmd_search(args) -> int:
    g = parse_graph_spec(args.graph)
    budget = search.SearchBudget(args.budget) if args.budget is not None else None
    outcome = search.find_distance_magic(g, budget)
    lines = [f"outcome={outcome.tag}"]
    if outcome.tag == search.FOUND:
        lines.append(f"magic_constant={outcome.magic_constant}")
        lines.append("witness=" + " ".join(str(x) for x in outcome.labeling.values))
    lines.append(f"nodes={outcome.stats.nodes}")
    lines.append(f"steps={outcome.stats.steps}")
    prunes = ",".join(f"{k}:{v}" for k, v in sorted(outcome.stats.prunes.items()))
    lines.append(f"prunes={prunes}")
    if outcome.stats.forced_equal is not None:
        u, v = outcome.stats.forced_equal
        lines.append(f"forced_equal={u},{v}")
    _emit(["\n".join(lines) + "\n"], args.out)
    return 0 if outcome.tag == search.FOUND else 1


def cmd_couple(args) -> int:
    g = parse_graph_spec(args.g)
    h = parse_graph_spec(args.h)
    p = product(args.kind, g, h)
    if args.labeling is not None:
        labeling = magic.parse_labeling(_read(args.labeling), p.base.n)
    else:
        labeling = constructors.label_direct(g, h, _labeling_for(args, h))
    bl = rearrange.make_balanced(p, labeling)
    if args.seed is not None:
        bl = rearrange.scramble_balanced(bl, args.seed)
    if args.kind == DIRECT:
        bl, outcome = rearrange.couple_layers(bl)
    else:
        outcome = rearrange.closed_h_layer_outcome(bl)
    axis, factor_labeling = rearrange.extract_factor_labeling(bl, outcome)
    lines = [f"outcome={outcome.tag}"]
    if outcome.tag == rearrange.CLOSED_H_LAYER:
        lines.append(f"closed_g={outcome.closed_g}")
    else:
        lines.append("pairs=" + ",".join(f"{a}-{b}" for a, b in outcome.pairs))
    lines.append(f"swaps={outcome.swaps}")
    lines.append(f"factor={axis}")
    _emit(chain(["\n".join(lines) + "\n"], magic.labeling_blocks(factor_labeling)), args.out)
    return 0


def cmd_classify(args) -> int:
    family, values = args.family, args.params
    if family == "cycle" and len(values) != 1:
        raise InputError("classify cycle takes one cycle length")
    if family != "cycle" and len(values) != 2:
        raise InputError(f"classify {family} takes two cycle lengths")
    if family == "direct":
        verdict = constructors.classify_cycle_direct(*values)
        print(verdict)
        return 0 if verdict != constructors.NOT_DISTANCE_MAGIC else 1
    classify = {"cycle": constructors.classify_cycle,
                "cartesian": constructors.classify_cycle_cartesian,
                "lex": constructors.classify_lex_cycles}[family]
    flag = classify(*values)
    print("distance_magic" if flag else "not_distance_magic")
    return 0 if flag else 1


def cmd_eit(args) -> int:
    g = parse_graph_spec(args.graph)
    labeling = magic.parse_labeling(_read(args.labeling), g.n)
    schedule = magic.eit_schedule(g, labeling)
    _emit([magic.format_eit(schedule)], args.out)
    return 0


def cmd_table16(args) -> int:
    labeling = constructors.label_cycle_product(16, 16)
    k = constructors.cycle_product_magic_constant(16, 16)
    _emit(constructors.grid_blocks(labeling, 16, 16, k), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distmagic",
        description="Construct, verify, rearrange, and search for distance magic labelings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="run a named labeling constructor")
    p.add_argument("--kind", required=True,
                   choices=["c4", "complete-bipartite", "complete-minus-matching",
                            "lexicographic", "direct", "cycle-product"])
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--g", help="first factor graph spec or file")
    p.add_argument("--h", help="second factor graph spec or file")
    p.add_argument("--h-labeling", dest="h_labeling", help="balanced labeling file for --h")
    p.add_argument("--format", choices=["grid", "list"])
    p.add_argument("--out")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify", help="verify a labeling file against a graph")
    p.add_argument("--graph")
    p.add_argument("--labeling")
    p.add_argument("--grid", help="grid file; implies the direct product of two cycles, "
                   "verified in grid coordinates without building it")
    p.add_argument("--require", choices=["magic", "balanced"], default="magic")
    p.add_argument("--format", choices=["kv", "text"], default="kv")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("product", help="write the edge list of a graph product")
    p.add_argument("--kind", required=True, choices=[CARTESIAN, LEXICOGRAPHIC, DIRECT])
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("search", help="exhaustive distance magic search")
    p.add_argument("--graph", required=True)
    p.add_argument(
        "--budget",
        type=int,
        help="cap on backtracking nodes, not on the kernel precheck before them, "
        "which is fast on sparse graphs but slow on dense ones (about two seconds "
        "on 200 vertices of edge density 0.5); omitted means unlimited",
    )
    p.add_argument("--out")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("couple", help="couple H-layers and extract a factor labeling")
    p.add_argument("--kind", required=True, choices=[DIRECT, LEXICOGRAPHIC])
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--h-labeling", dest="h_labeling")
    p.add_argument("--labeling", help="product labeling file; default is the built construction")
    p.add_argument("--seed", type=int, help="scramble the labeling first")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_couple)

    p = sub.add_parser("classify", help="closed-form verdicts for products of cycles")
    p.add_argument("family", choices=["direct", "cartesian", "lex", "cycle"])
    p.add_argument("params", type=int, nargs="+")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("eit", help="export an equalized incomplete tournament schedule")
    p.add_argument("--graph", required=True)
    p.add_argument("--labeling", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eit)

    p = sub.add_parser("table16", help="emit the labeled 16x16 cycle-product grid")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_table16)

    return parser


# The parser main() builds on its first call and reuses after that.  argparse
# looks up sys.stdout, sys.stderr and the terminal width when it prints, so a
# reused parser writes what a new one would.
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
