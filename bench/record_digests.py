"""Record the sha256 of every output file of every CLI workload input.

Usage, from the root of a fuzzycell checkout:

    python3 bench/record_digests.py

Writes ``bench/digests.json``.  The digests are the benchmark's
bit-identity gate: a sample whose output bytes differ from them fails.
Record them again only for a change that is meant to alter outputs.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    table = {}
    for workload in ("ring_fd", "open_queue", "nasch_fd"):
        table[workload] = {}
        for variant in run.variants(workload):
            spec = run.workload_spec(workload, variant)
            sample_dir = run.WORK / "record" / workload
            sample = run.run_sample(workload, spec, False, sample_dir)
            shutil.rmtree(sample_dir)
            if not sample["ok"] or not sample["digests"]:
                print(f"error: {workload} {spec['key']} failed", file=sys.stderr)
                return 1
            table[workload][spec["key"]] = sample["digests"]
            print(workload, spec["key"], flush=True)
    (run.BENCH / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
