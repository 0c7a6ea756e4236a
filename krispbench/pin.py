"""Regenerate ``pins.json``: every workload variant's output hashes.

Usage (from the repository root)::

    python3 krispbench/pin.py

Each variant runs once, untraced, through the same ``build`` /
``prepare`` / ``run`` / ``check`` steps as a benchmark run, and must pass
its audits.  Re-pin only for a change that is meant to alter modelled
behaviour, and say so in the change; a speed change must leave every pin
untouched.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def pin_variant(workload: object) -> dict[str, dict[str, str]]:
    """One variant's per-operation hashes; raises on an audit failure."""
    from run import _repetition

    workload.build()
    workload.prepare()
    _run_s, _rss, raw, setups = _repetition(workload)
    out = workload.check(raw, setups)
    if out.errors:
        raise RuntimeError(f"{workload.name} seed {workload.seed}: "
                           f"{out.errors}")
    return out.ops


def main() -> int:
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    src = Path("src").resolve()
    sys.path.insert(0, str(src))
    state = BENCH_DIR / "_state" / "pin"
    shutil.rmtree(state, ignore_errors=True)
    os.environ["REPRO_CACHE_DIR"] = str(state / "cache")

    pins = {}
    for name in sorted(workloads.WORKLOADS):
        pins[name] = {}
        for variant in range(workloads.VARIANTS):
            workload = workloads.WORKLOADS[name](variant, src.parent, state)
            pins[name][str(variant)] = pin_variant(workload)
            print(f"pinned {name} variant {variant}", flush=True)
    (BENCH_DIR / "pins.json").write_text(
        json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
