"""Benchmark entry point.

    python3 perfbench/run.py --workload {inherit,parse,serve,faulted}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  Prints human-readable lines, then, as
the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  Bad arguments exit 2 with a usage message; a checkout
without the ``src/repro`` package exits 1 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("inherit", "parse", "serve", "faulted")
#: Where the traced run writes its spans (ignored by git).
SPANS_DIR = os.path.join(ROOT, ".perfbench")


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not 0 <= value < 2 ** 63:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**63): {value}")
    return value


def _seconds(text: str) -> int:
    value = _seed(text)
    if not 1 <= value <= 600:
        raise argparse.ArgumentTypeError(f"must be in [1, 600]: {value}")
    return value


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="SNAP-1 reproduction benchmark (host time).",
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=_seed)
    parser.add_argument("--seconds", required=True, type=_seconds,
                        help="operation wall time one run measures")
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1),
                        help="0: end-to-end metrics; 1: per-layer metrics")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro package under {ROOT}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 1
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import runner

    if args.trace:
        result, _recorder, _records = runner.measure_traced(
            args.workload, args.seed,
            spans_out=os.path.join(SPANS_DIR, f"spans-{args.workload}.jsonl"),
        )
    else:
        result = runner.measure(args.workload, args.seed, args.seconds)
        print(f"timed operations: {result['timed_ops']}; op_tail_ms is "
              f"p{result['tail_percentile']}")
        print(f"pool: {', '.join(result['pool'])}")
        print(f"verified-pass digests: {' '.join(result['digests'])}")
        print("reference ms per round: " + " ".join(
            f"{ms:.3f}" for ms in result["reference_ms"]))
        for name, (value, unit) in result["raw"].items():
            print(f"raw {name:30s} {value:>16.6f} {unit}")
    print(f"fail_frac: {result['failed'] / result['attempted']:.6f}")
    for error in result["errors"]:
        print(f"failure: {error.strip()}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:34s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
