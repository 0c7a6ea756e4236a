"""Time one set-up in a fresh interpreter.

Usage: ``python3 probe.py WORKLOAD SEED ROOT STATE`` with the program's
``src`` on ``PYTHONPATH``.  Prints one JSON line with ``setup_s`` (from
just before ``import repro.cli`` through ``build_parser()`` and the
workload's input build), and its ``import_s`` and ``parser_s`` parts.

Nothing but ``sys`` and ``time`` is imported before the clock starts, so
the import cost is what a ``krisp-repro`` call pays.
"""

import sys
import time


def main() -> None:
    start = time.perf_counter()
    import repro.cli
    imported = time.perf_counter()
    repro.cli.build_parser()
    parsed = time.perf_counter()
    from pathlib import Path

    import workloads
    name, seed, root, state = sys.argv[1:5]
    workloads.WORKLOADS[name](int(seed), Path(root), Path(state)).build()
    built = time.perf_counter()
    import json
    print(json.dumps({"setup_s": built - start,
                      "import_s": imported - start,
                      "parser_s": parsed - imported}))


if __name__ == "__main__":
    main()
