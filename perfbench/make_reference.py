"""Record the output digests the current tree produces, as the benchmark's reference.

    python3 perfbench/make_reference.py

Runs every workload once for each of seeds 0 to 99 and stores the digest of
its ``manifest.txt`` (``validation_report.txt`` for ``validate-suite``) in
``perfbench/reference.json``. Run it only at a commit whose outputs are the
accepted ones: every later benchmark run counts a differing digest as a
failed invocation. A seed whose run fails a check is reported and left out.
"""

import json
import os
import shutil
import sys

from run import REFERENCE, WORK_ROOT, WORKLOADS, Bench

SEEDS = range(100)


def main() -> int:
    reference = {}
    workdir = WORK_ROOT / f"reference-{os.getpid()}"
    failures = 0
    try:
        for workload in sorted(WORKLOADS):
            for seed in SEEDS:
                bench = Bench(workload, [seed], workdir, reference={})
                bench.invoke(seed)
                if bench.failed:
                    failures += 1
                    print(f"{workload} seed {seed}: {bench.errors[0]}", file=sys.stderr)
                    continue
                reference.setdefault(workload, {})[str(seed)] = bench.expected[seed]
                print(f"{workload} seed {seed}: {bench.expected[seed]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
