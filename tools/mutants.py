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
WRITERS = ["tests/test_products.py", "tests/test_magic.py", "tests/test_constructors.py",
           "-k", "bytes_match_reference"]

# (name, file under src, exact old text, new text, pytest selector)
MUTANTS = [
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
    ("kernel pivot key yielded before the free vertices below it", "distmagic/search.py",
     "            for _ in range(v, c):\n                yield None\n            yield key\n",
     "            yield key\n            for _ in range(v, c):\n                yield None\n",
     KERNEL_ORACLE),
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
    # magic.verify_grid in grid coordinates
    ("grid twins fail 3 pairs, not 4, by default", "distmagic/magic.py",
     "                         repeat(4)))\n", "                         repeat(3)))\n", GRID),
    ("grid overlaps at offsets 0 and +-2 only", "distmagic/magic.py",
     "            for d in (0, 2, -2, length - 2, 2 - length)}\n",
     "            for d in (0, 2, -2)}\n", GRID),
    ("grid weights without the row-start mending", "distmagic/magic.py",
     "    sums[::n] = map(add, vert[n - 1 :: n], vert[1::n])\n", "", GRID),
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
