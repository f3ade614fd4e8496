"""Peak memory of the CLI on a 2^18-vertex pipeline, one child process per command.

Runs, with its files in a temporary directory,

    distmagic construct --kind cycle-product --m 512 --n 512 --out g.grid
    distmagic verify --grid g.grid --out g.kv
    distmagic product --kind direct cycle:512 cycle:512 --out p.edges
    distmagic construct --kind cycle-product --m 512 --n 512 --format list --out l.lab
    distmagic verify --graph p.edges --labeling l.lab --out p.kv

prints each command's peak resident set size (the child's `ru_maxrss`), and
exits 1 when a command fails or the largest peak exceeds BOUND_MB.  The
children import `distmagic` from the repository's `src`, put first on their
PYTHONPATH.  Needs a POSIX system (`os.posix_spawn`, `os.wait4`).

    python tools/memory_gate.py

Peaks on Python 3.11 on Linux: `construct` 29 MB, `verify --grid` 38 MB,
`product` 75 MB, `construct --format list` 35 MB, `verify --graph` 73 MB.
"""

from __future__ import annotations

import os
import sys
import tempfile

SIDE = 512
# 1.3 x 81.8 MB, the largest child peak measured on Python 3.11 on Linux when
# the bound was set; the largest is now `product`, at about 75 MB
BOUND_MB = 106
# ru_maxrss is in bytes on macOS and in KB elsewhere
RSS_UNITS_PER_MB = 1024 * 1024 if sys.platform == "darwin" else 1024


def commands(tmp: str) -> list[list[str]]:
    grid, kv, edges, lab, pkv = (os.path.join(tmp, name)
                                 for name in ("g.grid", "g.kv", "p.edges", "l.lab", "p.kv"))
    m = str(SIDE)
    return [
        ["construct", "--kind", "cycle-product", "--m", m, "--n", m, "--out", grid],
        ["verify", "--grid", grid, "--out", kv],
        ["product", "--kind", "direct", f"cycle:{m}", f"cycle:{m}", "--out", edges],
        ["construct", "--kind", "cycle-product", "--m", m, "--n", m, "--format", "list",
         "--out", lab],
        ["verify", "--graph", edges, "--labeling", lab, "--out", pkv],
    ]


def child_env() -> dict[str, str]:
    """The environment with the repository's `src` first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


def run_child(argv: list[str]) -> tuple[int, float]:
    """Exit status and peak RSS in MB of `python -m distmagic.cli argv`."""
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "distmagic.cli", *argv],
                         child_env())
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / RSS_UNITS_PER_MB


def main() -> int:
    largest = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        for command in commands(tmp):
            code, mb = run_child(command)
            shown = " ".join(command).replace(tmp + os.sep, "")
            print(f"{mb:8.1f} MB  exit {code}  distmagic {shown}")
            if code != 0:
                print(f"FAIL: exit status {code}")
                return 1
            largest = max(largest, mb)
    ok = largest <= BOUND_MB
    print(f"{'ok' if ok else 'FAIL'}: largest peak {largest:.1f} MB, bound {BOUND_MB} MB")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
