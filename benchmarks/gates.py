"""The benchmark gates in one place: each gate's name and contract flags.

Gate ``NAME`` runs ``bench_NAME.py`` with its option defaults, which are
CI's settings, plus its contract flags (``--check-*``, ``--min-speedup``),
which make a run that breaks its contract exit 1.  Named gates write
``BENCH_NAME.fresh.json``; with no name every gate rewrites its committed
``BENCH_NAME.json``.  A report replaces its file only when its run exits 0.

Usage::

    # regenerate every committed baseline (one host, one tree)
    PYTHONPATH=src python benchmarks/gates.py

    # what a CI gate step runs: write BENCH_shard.fresh.json, then compare
    PYTHONPATH=src python benchmarks/gates.py shard
    python benchmarks/check_regression.py BENCH_shard.json BENCH_shard.fresh.json
"""

from __future__ import annotations

import os
import subprocess
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)

#: gate name -> contract flags of ``bench_<name>.py``
GATES = {
    "shard": "--check-speedup",
    "scenarios": "--check-speedup",
    "serve": "--check-no-5xx --check-cache-hits",
    "store": "--check-parity",
    "incremental": "--min-speedup 5",
    "control": "",  # its 0.9 cheap success floor is built in
    "obs": "--check-overhead 5",
}


def run(name: str, target: str) -> int:
    """Run gate ``name``'s bench; ``target`` gets its report only on exit 0."""
    partial = f"{target}.partial"
    bench = os.path.join(_HERE, f"bench_{name}.py")
    argv = [sys.executable, bench, *GATES[name].split(), "--out", partial]
    try:
        code = subprocess.run(argv, cwd=_ROOT).returncode
        if code == 0:
            os.replace(partial, target)
        return code
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = sorted(set(names) - set(GATES))
    if unknown:
        print(f"unknown gate(s) {unknown}; gates: {sorted(GATES)}", file=sys.stderr)
        return 2
    suffix = ".fresh.json" if names else ".json"
    failed = [
        name
        for name in names or list(GATES)
        if run(name, os.path.join(_ROOT, f"BENCH_{name}{suffix}")) != 0
    ]
    if failed:
        print(f"FAIL: bench run(s) failed, not written: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
