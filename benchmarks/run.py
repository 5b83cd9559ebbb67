"""Run the hypoalarm benchmark from the root of a source checkout.

    python3 benchmarks/run.py                      # every workload, table + JSON
    python3 benchmarks/run.py --workload cv330 --seed 7 --seconds 20 --trace 0

The package is imported from ``src/`` of the current directory, never from an
installed copy; without it the benchmark exits with code 2. Each workload runs
in its own single-threaded process (BLAS pinned to one thread). The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer with ``--trace 1``).
A full record, with spans when traced, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOAD_NAMES = ("records330", "cv330", "cli33")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="hypoalarm benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per run, after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is imported, and inherited by children
    src = Path.cwd() / "src"
    if not (src / "hypoalarm" / "__init__.py").is_file():
        print(f"error: no hypoalarm sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]
    import harness

    record = harness.run_workload(args.workload, seed=args.seed, seconds=args.seconds,
                                  trace=bool(args.trace))
    out = Path(".bench_out") / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print("\n".join(harness.report_lines(record)))
    print(json.dumps(harness.result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
