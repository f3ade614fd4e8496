"""Mutation check: each listed edit of the library must make its tests fail.

For each mutant it copies `src` to a temporary directory, applies one edit
(an exact old text, which must occur once, replaced by a new text) to one file
of the copy, and runs `python -m pytest -x` on the mutant's selector with the
copy first on PYTHONPATH.  Hypothesis runs with a fixed seed, so a kill
repeats.  It prints killed, timeout or survived and the seconds for each
mutant, and exits 1 when a mutant survives or when an old text no longer
occurs.  A mutant whose tests run past TIMEOUT_S counts as killed, but it
shows as timeout and in the summary's count, since each one costs that long.
A change that rewrites a mutated line updates its mutant in the same change.

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# a mutant that makes the selected tests hang counts as killed after this long,
# and is reported as a timeout
TIMEOUT_S = 300

KERNEL_ORACLE = ["tests/test_search.py", "-k",
                 "first_forced_vertex or denominator or fraction_reference"]
COUPLING = ["tests/test_couple_golden.py", "tests/test_rearrange.py"]
BALANCED = ["tests/test_balanced.py"]
GRID = ["tests/test_magic.py", "-k", "grid"]
EDGE_SCAN = ["tests/test_graphs.py", "-k", "respelled or error_past or line_by_line_reference"]
GRID_INPUT = ["tests/test_constructors.py", "tests/test_cli.py"]
PRODUCTS = ["tests/test_products.py"]
LINE_READERS = ["tests/test_graphs.py", "tests/test_magic.py", "tests/test_constructors.py",
                "-k", "line_by_line_reference"]
WRITERS = ["tests/test_products.py", "tests/test_magic.py", "tests/test_constructors.py",
           "-k", "bytes_match_reference"]
UNDERSCORES = ["tests/test_graphs.py", "tests/test_magic.py", "tests/test_constructors.py",
               "-k", "underscore"]

# (name, file under src, exact old text, new text, pytest selector)
MUTANTS = [
    # the constructor that _value.Value writes from a class's fields
    ("generated constructor without its defaults", "distmagic/_value.py",
     "            init.__defaults__ = cls._defaults or None\n", "", ["tests/test_values.py"]),
    # the checks of Graph(n, rows)
    ("Graph(n, rows) without its symmetry check", "distmagic/graphs.py",
     "                back = adj[u]\n"
     "                i = bisect_left(back, v)\n"
     "                if i == len(back) or back[i] != v:\n"
     "                    raise InputError("
     "f\"vertex {u} is in row {v}, but {v} is not in row {u}\")\n",
     "", ["tests/test_graphs.py"]),
    ("Graph(n, rows) without its order check", "distmagic/graphs.py",
     "if not (prev < u < n):", "if not (-1 < u < n):", ["tests/test_graphs.py"]),
    # back substitution in search._kernel_keys
    ("kernel key without sign normalization", "distmagic/search.py",
     "        if d < 0:\n            q = -q\n", "", KERNEL_ORACLE),
    ("kernel key reads lower pivots as free", "distmagic/search.py",
     "        lower = [(x, keys[f]) for f, x in row.items() if f in keys]\n"
     "        den = lcm(1, *[e for _, (e, _) in lower])\n"
     "        num = {f: x * den for f, x in row.items() if f not in keys}\n",
     "        lower = []\n"
     "        den = lcm(1, *[e for _, (e, _) in lower])\n"
     "        num = {f: x * den for f, x in row.items()}\n", KERNEL_ORACLE),
    ("kernel key without rescaling by den // e", "distmagic/search.py",
     "            x *= den // e\n", "", KERNEL_ORACLE),
    ("kernel key without gcd reduction", "distmagic/search.py",
     "        q = gcd(d, *num.values())\n", "        q = 1\n", KERNEL_ORACLE),
    # the ascending key order that the early exit of kernel_forced_equal reads
    ("kernel scan cursor moved on the k pivot", "distmagic/search.py",
     "        if c >= 0:", "        if c >= -1:", KERNEL_ORACLE),
    ("kernel key paired with the next vertex", "distmagic/search.py",
     "yield c, key", "yield c + 1, key", KERNEL_ORACLE),
    ("kernel scan keeps the latest vertex with a key", "distmagic/search.py",
     "        u = first.setdefault(key, v)\n", "        u = first[key] = v\n", KERNEL_ORACLE),
    ("kernel scan reads k as a free vertex", "distmagic/search.py",
     " and pairs[0][1] == 1 and pairs[0][0] >= 0:", " and pairs[0][1] == 1:", KERNEL_ORACLE),
    # the propagation work list, trimmed to neighbors with at most one slot left
    ("propagation skips neighbors with no slot left", "distmagic/search.py",
     "            if left < 2:\n", "            if left == 1:\n",
     ["tests/test_search.py", "-k", "pinned"]),
    # the premise that every coupling exchange checks
    ("exchange without its premise check", "distmagic/rearrange.py",
     "    if base.neighbors(a) != base.neighbors(b):\n"
     "        raise AssertionError(f\"exchange premise fails: N({a}) != N({b})\")\n",
     "", COUPLING),
    # the pairs that _next_swap reads off layer g's twins, and the bound on
    # exchanges per layer pair that turns a pair making no progress into a
    # failure instead of a hang
    ("coupling lemma-1 pair exchanges a twin pair", "distmagic/rearrange.py",
     "return t, t - t % hsize + h, \"lemma1\"", "return t, lo + h, \"lemma1\"", COUPLING),
    ("coupling lemma-3 pair taken from layer g", "distmagic/rearrange.py",
     "return plo + h, t, \"lemma3\"", "return lo + h, t, \"lemma3\"", COUPLING),
    ("coupling lemma-2 pair with min and max swapped", "distmagic/rearrange.py",
     "lo + max(h, th), plo + min(h, th)", "lo + min(h, th), plo + max(h, th)", COUPLING),
    ("coupling bound of |V(H)| exchanges per layer pair", "distmagic/rearrange.py",
     "if exchanges == 2 * hsize:", "if exchanges == hsize:", COUPLING),
    # the exchange itself, and the twin premises of the public lemma swaps;
    # the first premise of lemmas 2 and 3 is one call text, told apart by
    # the line above it
    ("exchange that writes one label twice", "distmagic/rearrange.py",
     "    vals[a], vals[b] = vals[b], vals[a]\n", "    vals[a] = vals[b]\n", COUPLING),
    ("lemma 2 without its anchor twin premise", "distmagic/rearrange.py",
     "pairwise distinct\")\n    _require_twins(bl, (g, h), (gp, h))\n",
     "pairwise distinct\")\n", COUPLING),
    ("lemma 2 without its in-layer twin premise", "distmagic/rearrange.py",
     "    _require_twins(bl, (g, h1), (g, h2))\n", "", COUPLING),
    ("lemma 3 without its anchor twin premise", "distmagic/rearrange.py",
     "g' and g''\")\n    _require_twins(bl, (g, h), (gp, h))\n", "g' and g''\")\n", COUPLING),
    ("lemma 3 without its third-layer twin premise", "distmagic/rearrange.py",
     "    _require_twins(bl, (g, hp), (gpp, hp))\n", "", COUPLING),
    # the Fisher-Yates swap of scramble_balanced
    ("scramble swap that duplicates a label", "distmagic/rearrange.py",
     "labels[i], labels[j] = labels[j], labels[i]", "labels[i] = labels[j]", COUPLING),
    # the balanced subclass and its snake order in constructors.label_balanced
    ("balanced labeling without the odd-round reversal", "distmagic/constructors.py",
     "        for c in classes if r % 2 == 0 else reversed(classes):\n",
     "        for c in classes:\n", BALANCED),
    ("balanced labeling without the regularity test", "distmagic/constructors.py",
     "    if n == 0 or n % 2 or regularity(g) is None:\n",
     "    if n == 0 or n % 2:\n", BALANCED),
    ("balanced labeling without the class-parity test", "distmagic/constructors.py",
     "    if any(len(c) % 2 for c in classes):\n        return None\n", "", BALANCED),
    ("balanced labeling with complement label n - low", "distmagic/constructors.py",
     "            values[c[-1 - r]] = n + 1 - low\n",
     "            values[c[-1 - r]] = n - low\n", BALANCED),
    # the cap on the twin diagnostics of verify_balanced, and their (w, u) order
    ("twin diagnostics capped at 31", "distmagic/magic.py",
     "== MAX_DIAGNOSTICS:", "== MAX_DIAGNOSTICS - 1:", ["tests/test_magic.py"]),
    ("twin diagnostics unsorted", "distmagic/magic.py",
     "for u in row(w):", "for u in reversed(row(w)):", ["tests/test_magic.py"]),
    # magic.verify_grid in grid coordinates
    ("grid twins fail 3 pairs, not 4, by default", "distmagic/magic.py",
     "                         repeat(4)))\n", "                         repeat(3)))\n", GRID),
    ("grid overlaps at offsets 0 and +-2 only", "distmagic/magic.py",
     "            for d in (0, 2, -2, length - 2, 2 - length)}\n",
     "            for d in (0, 2, -2)}\n", GRID),
    ("grid weights without the row-start mending", "distmagic/magic.py",
     "    sums[::n] = map(add, vert[n - 1 :: n], vert[1::n])\n", "", GRID),
    # stage 5 of the grid constructor, which moves labels by mn/4
    ("grid stage 5 moved by mn/4 + 1", "distmagic/constructors.py",
     "e = d + total // 4\n", "e = d + total // 4 + 1\n", ["tests/test_constructors.py"]),
    # the bijection check of a grid read from text
    ("grid read without its bijection check", "distmagic/constructors.py",
     "    _check_bijection(values, f\"grid entries are not a bijection onto 1..{m * n}\")\n",
     "", GRID_INPUT),
    # the rows of a Cartesian product
    ("Cartesian product with its last row one neighbor short", "distmagic/products.py",
     "zip(below, getters, above)])\n",
     "zip(below, getters, above)])\n"
     "                if a == gn - 1:\n                    rows[-1] = rows[-1][:-1]\n", PRODUCTS),
    ("Cartesian rows with N(a) x N(b)", "distmagic/products.py",
     "                below = list(zip(*low)) if low else [()] * hn\n"
     "                above = list(zip(*high)) if high else [()] * hn\n",
     "                below = [tuple(chain.from_iterable(get(b) for b in low))"
     " for get in getters]\n"
     "                above = [tuple(chain.from_iterable(get(b) for b in high))"
     " for get in getters]\n",
     PRODUCTS),
    # the rows of a lexicographic product
    ("lexicographic rows without {a} x N(b)", "distmagic/products.py",
     "[below + get(own) + above for", "[below + above for", PRODUCTS),
    # the token count of the line readers' one line parser
    ("line parser that reads the first width tokens of a longer line", "distmagic/graphs.py",
     "    if len(parts) != width:\n", "    parts = parts[:width]\n    if len(parts) != width:\n",
     LINE_READERS),
    # the line readers' rejection of a token holding "_", which int() reads
    ("line parser that reads 1_0 as 10", "distmagic/graphs.py",
     "        if \"_\" in line:  # int() reads 1_0 as 10, which no writer emits\n"
     "            raise ValueError(line)\n", "", UNDERSCORES),
    ("edge-list line loop that reads 1_0 as 10", "distmagic/graphs.py",
     "if not (0 <= u < v < n) or \"_\" in line:", "if not (0 <= u < v < n):", UNDERSCORES),
    ("grid rows that read 1_0 as 10", "distmagic/constructors.py",
     "            if \"_\" in line:  # as in graphs._line_ints\n"
     "                raise ValueError(line)\n", "", UNDERSCORES),
    # the bulk scan's shape test, and the range check of the edge-list scan
    ("bulk scan without its shape test", "distmagic/graphs.py",
     "    if not text.endswith(\"\\n\") or rest != line_shape * (len(rest) // len(line_shape)):\n",
     "    if not text.endswith(\"\\n\"):\n", EDGE_SCAN),
    ("edge-list scan without its range check", "distmagic/graphs.py",
     " or max(vs) >= n or ", " or ", EDGE_SCAN),
    # the text writers' %-formats, and their blocks
    ("edge-list lines with the row prefix u + 1", "distmagic/graphs.py",
     "(f\"{u} %d\\n\" * len(tail))", "(f\"{u + 1} %d\\n\" * len(tail))", WRITERS),
    ("edge list without its last partial block", "distmagic/graphs.py",
     "    if block:\n        yield \"\".join(block)\n", "", WRITERS),
    ("labeling lines as (label, v)", "distmagic/magic.py",
     "        pairs[0::2] = range(lo, hi)\n        pairs[1::2] = values[lo:hi]\n",
     "        pairs[1::2] = range(lo, hi)\n        pairs[0::2] = values[lo:hi]\n", WRITERS),
    ("labeling without its last partial block", "distmagic/magic.py",
     "    for lo in range(0, n, WRITE_BLOCK):\n",
     "    for lo in range(0, n - n % WRITE_BLOCK, WRITE_BLOCK):\n", WRITERS),
    ("grid rows written bottom-up", "distmagic/constructors.py",
     "for i in range(top - 1, max(top - rows, 0) - 1, -1)",
     "for i in range(max(top - rows, 0), top)", WRITERS),
    ("grid without its last partial block", "distmagic/constructors.py",
     "    for top in range(m, 0, -rows):\n", "    for top in range(m, rows - 1, -rows):\n",
     WRITERS),
]


def run(path: str, old: str, new: str, selector: list[str]) -> str:
    """killed, timeout, survived, or why the mutant could not run."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = os.path.join(src, path)
        with open(target, encoding="utf-8") as f:
            text = f.read()
        if text.count(old) != 1:
            return f"old text occurs {text.count(old)} times"
        with open(target, "w", encoding="utf-8") as f:
            f.write(text.replace(old, new))
        pythonpath = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + pythonpath if pythonpath else src,
               "PYTHONDONTWRITEBYTECODE": "1"}
        args = [os.path.join(ROOT, a) if a.startswith("tests/") else a for a in selector]
        # hypothesis keeps its examples in the working directory, the temporary
        # one; pytest would keep its cache in the repository, so it keeps none
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *args]
        try:
            status = subprocess.run(cmd, cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            return "timeout"
    # pytest exits 1 when a test failed; other codes mean the tests did not run
    return {0: "survived", 1: "killed"}.get(status, f"pytest exit {status}")


def main() -> int:
    failed = timeouts = 0
    for name, path, old, new, selector in MUTANTS:
        start = time.perf_counter()
        result = run(path, old, new, selector)
        print(f"{result:10s} {time.perf_counter() - start:6.1f} s  {path}: {name}", flush=True)
        failed += result not in ("killed", "timeout")
        timeouts += result == "timeout"
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed, {timeouts} by the timeout")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
