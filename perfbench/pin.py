"""Re-pin the default seed's per-operation digests into ``pinned.json``.

    python3 perfbench/pin.py

Run this only when a change is *meant* to alter simulated output;
a perf or simplicity change must leave ``pinned.json`` untouched.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import runner
    from perfbench.workloads import WORKLOADS

    pinned = {}
    for name in WORKLOADS:
        workload, ops, _times = runner.build(name, runner.DEFAULT_SEED)
        records = runner.verify_pass(workload, ops)
        failed = [r.error for r in records if r.error is not None]
        if failed:
            print(f"{name}: refusing to pin failing outputs: {failed[0]}",
                  file=sys.stderr)
            return 1
        pinned[name] = [r.sample.digest for r in records]
        print(f"{name}: {len(records)} operations pinned")
    with open(runner.PINNED, "w") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
