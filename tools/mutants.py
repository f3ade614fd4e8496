"""Mutation check: each listed edit of the library must make its tests fail.

For each mutant it copies `src` to a temporary directory, applies one edit
(an exact old text, which must occur once, replaced by a new text) to one file
of the copy, and runs `python -m pytest -x` on the mutant's selector with the
copy first on PYTHONPATH.  Hypothesis runs with a fixed seed, so a kill
repeats.  It prints killed or survived and the seconds for each mutant, and
exits 1 when a mutant survives or when an old text no longer occurs.  A change
that rewrites a mutated line updates its mutant in the same change.

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
# a mutant that makes the selected tests hang counts as killed after this long
TIMEOUT_S = 300

KERNEL_ORACLE = ["tests/test_search.py", "-k",
                 "first_forced_vertex or denominator or fraction_reference"]
COUPLING = ["tests/test_couple_golden.py", "tests/test_rearrange.py"]

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
     "            for f in range(v, c):\n"
     "                yield 1, ((f, 1),)\n"
     "            yield key\n",
     "            yield key\n"
     "            for f in range(v, c):\n"
     "                yield 1, ((f, 1),)\n", KERNEL_ORACLE),
    ("kernel scan keeps the latest vertex with a key", "distmagic/search.py",
     "        u = first.setdefault(key, v)\n", "        u = first[key] = v\n", KERNEL_ORACLE),
    # the propagation work list, trimmed to neighbors with at most one slot left
    ("propagation skips neighbors with no slot left", "distmagic/search.py",
     "            if left < 2:\n", "            if left == 1:\n",
     ["tests/test_search.py", "-k", "pinned"]),
    # the layer-g twins that couple_layers keeps current after each swap
    ("coupling refreshes only the exchanged pair", "distmagic/rearrange.py",
     "            for v in {a, b, bl.twins[a], bl.twins[b]}:\n",
     "            for v in {a, b}:\n", COUPLING),
    ("coupling refreshes from the twins before the swap", "distmagic/rearrange.py",
     "                    state[v - lo] = decode(new.twins[v])\n",
     "                    state[v - lo] = decode(bl.twins[v])\n", COUPLING),
    ("exchange without its premise check", "distmagic/rearrange.py",
     "    if base.neighbors(a) != base.neighbors(b):\n"
     "        raise AssertionError(f\"exchange premise fails: N({a}) != N({b})\")\n",
     "", COUPLING),
]


def run(path: str, old: str, new: str, selector: list[str]) -> str:
    """killed, survived, or why the mutant could not run."""
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
            return "killed"
    # pytest exits 1 when a test failed; other codes mean the tests did not run
    return {0: "survived", 1: "killed"}.get(status, f"pytest exit {status}")


def main() -> int:
    failed = 0
    for name, path, old, new, selector in MUTANTS:
        start = time.perf_counter()
        result = run(path, old, new, selector)
        print(f"{result:10s} {time.perf_counter() - start:6.1f} s  {path}: {name}", flush=True)
        failed += result != "killed"
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
