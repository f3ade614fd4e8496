"""Peak memory of the CLI on a 2^18-vertex pipeline, one child process per command.

Runs, with its files in a temporary directory,

    distmagic construct --kind cycle-product --m 512 --n 512 --out g.grid
    distmagic verify --grid g.grid --out g.kv
    distmagic product --kind direct cycle:512 cycle:512 --out p.edges
    distmagic construct --kind cycle-product --m 512 --n 512 --format list --out l.lab
    distmagic verify --graph p.edges --labeling l.lab --out p.kv
    distmagic search --graph empty:262144 --budget 1 --out s.out

prints each command's peak resident set size (the child's `ru_maxrss`), and
exits 1 when a command exits with another status than expected (1 for the
search, which stops at its budget; 0 for the others) or the largest peak
exceeds BOUND_MB.  The children import `distmagic` from the repository's
`src`, put first on their PYTHONPATH.  Needs a POSIX system (`os.posix_spawn`, `os.wait4`).

    python tools/memory_gate.py

Peaks on Python 3.11 on Linux: `construct` 27 MB, `verify --grid` 30 MB,
`product` 49 MB, `construct --format list` 27 MB, `verify --graph` 73 MB,
`search` 84 MB.  `search --graph cycle:262144 --budget 1` is left out: it
peaks at about 136 MB, in the kernel's elimination rows.
"""

from __future__ import annotations

import os
import sys
import tempfile

SIDE = 512
# 1.3 x 81.8 MB, the largest child peak measured on Python 3.11 on Linux when
# the bound was set; the largest is now `search`, at about 84 MB, then
# `verify --graph`, at about 73 MB
BOUND_MB = 106
# ru_maxrss is in bytes on macOS and in KB elsewhere
RSS_UNITS_PER_MB = 1024 * 1024 if sys.platform == "darwin" else 1024


def commands(tmp: str) -> list[tuple[list[str], int]]:
    """Each command's arguments and expected exit status."""
    grid, kv, edges, lab, pkv, sout = (
        os.path.join(tmp, name) for name in ("g.grid", "g.kv", "p.edges", "l.lab", "p.kv",
                                             "s.out"))
    m = str(SIDE)
    return [
        (["construct", "--kind", "cycle-product", "--m", m, "--n", m, "--out", grid], 0),
        (["verify", "--grid", grid, "--out", kv], 0),
        (["product", "--kind", "direct", f"cycle:{m}", f"cycle:{m}", "--out", edges], 0),
        (["construct", "--kind", "cycle-product", "--m", m, "--n", m, "--format", "list",
          "--out", lab], 0),
        (["verify", "--graph", edges, "--labeling", lab, "--out", pkv], 0),
        (["search", "--graph", f"empty:{SIDE * SIDE}", "--budget", "1", "--out", sout], 1),
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
        for command, expected in commands(tmp):
            code, mb = run_child(command)
            shown = " ".join(command).replace(tmp + os.sep, "")
            print(f"{mb:8.1f} MB  exit {code}  distmagic {shown}")
            if code != expected:
                print(f"FAIL: exit status {code}, expected {expected}")
                return 1
            largest = max(largest, mb)
    ok = largest <= BOUND_MB
    print(f"{'ok' if ok else 'FAIL'}: largest peak {largest:.1f} MB, bound {BOUND_MB} MB")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
