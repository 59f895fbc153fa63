"""Record ``perfbench/reference.json``: the fingerprints the gate expects.

Every run of the benchmark with one of :data:`REFERENCE_SEEDS` compares each
system's simulated outputs with the fingerprints recorded here. Re-record
only for a change that is meant to alter simulated outputs, and say so in
its description. From the repository root::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys

from run import import_program, pin_to_one_cpu

#: The default seed and one held out from tuning the benchmark.
REFERENCE_SEEDS = (0, 2026)


def main() -> int:
    pin_to_one_cpu()
    import_program()
    from execute import run_cycle
    from fingerprint import REFERENCE_PATH, FingerprintGate
    from workloads import WORKLOADS

    fingerprints = {}
    for seed in REFERENCE_SEEDS:
        for name, workload in WORKLOADS.items():
            gate = FingerprintGate(name, seed, reference={})
            records = run_cycle(workload, seed, gate)
            if any(record.failed for record in records):
                print(f"not recorded: {name} seed {seed} failed")
                return 1
            fingerprints.setdefault(str(seed), {})[name] = {
                record.system: record.fingerprint for record in records}
            print(f"recorded {name} seed {seed}", flush=True)
    REFERENCE_PATH.write_text(json.dumps({
        "seeds": list(REFERENCE_SEEDS),
        "fingerprints": fingerprints,
    }, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
