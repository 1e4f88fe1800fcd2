"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload compress --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  The last line of standard output is
the result object (``correct``, ``attempted``, ``failed``, ``metrics``);
the lines before it are a readable report with provenance.
``--workload all`` runs every workload in turn and ends with one object
keyed by workload.  ``--trace 1``
reports the per-layer metrics and writes a Chrome trace-event file under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"--workload must be 'all' or one of {sorted(WORKLOADS)}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = harness.run(name, args.seed, args.seconds, bool(args.trace))
        print(f"# == {name}")
        print(f"# provenance {json.dumps(result.pop('provenance'), sort_keys=True)}")
        info = result.pop("info")
        for key, (value, unit) in info.pop("named", {}).items():
            print(f"# {key} = {value!r} {unit}")
        for key, value in info.items():
            print(f"# {key} = {json.dumps(value, default=str)}")
        for key, metric in result["metrics"].items():
            print(f"# {key} = {metric['value']!r} {metric['unit']}")
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
