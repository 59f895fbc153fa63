"""Fingerprints of a run's simulated outputs, and the checks that use them.

A fingerprint digests four parts of one run separately, so a mismatch names
the part that differs: the per-epoch simulated clocks, the metric counters,
the model quality, and the stored parameter values. A change that only
speeds up the simulator must leave all four bit-identical.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

PARTS = ("sim_time", "counters", "quality", "store")
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def fingerprint(result, store) -> Dict[str, str]:
    """The four part digests of one :class:`ExperimentResult`."""
    values = store.values
    return {
        "sim_time": _digest([[r.sim_time, r.epoch_duration]
                             for r in result.records]),
        "counters": _digest({"final": result.metrics,
                             "epochs": [r.metrics for r in result.records]}),
        "quality": _digest({"initial": result.initial_quality,
                            "epochs": [r.quality for r in result.records]}),
        "store": hashlib.sha256(values.tobytes()).hexdigest()[:20]
        + f":{values.dtype}{values.shape}",
    }


def differing_parts(actual: Dict[str, str], expected: Dict[str, str]) -> List[str]:
    return [part for part in PARTS if actual.get(part) != expected.get(part)]


def load_reference() -> dict:
    """``{seed: {workload: {system: fingerprint}}}`` (empty when absent)."""
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text())["fingerprints"]


class FingerprintGate:
    """Compares each run against earlier repeats and the recorded reference."""

    def __init__(self, workload: str, seed: int,
                 reference: Optional[dict] = None) -> None:
        self.workload = workload
        self.seed = seed
        reference = load_reference() if reference is None else reference
        self.reference = reference.get(str(seed), {}).get(workload)
        self.first: Dict[str, Dict[str, str]] = {}

    def check(self, system: str, fp: Dict[str, str], label: str) -> List[str]:
        """Problems with ``fp`` (empty when it matches everything it must)."""
        problems = []
        first = self.first.setdefault(system, fp)
        parts = differing_parts(fp, first)
        if parts:
            problems.append(f"{label}: {', '.join(parts)} differ from the "
                            "first repeat in this process")
        if self.reference is not None:
            expected = self.reference.get(system)
            if expected is None:
                problems.append(f"{label}: no reference fingerprint recorded")
            else:
                parts = differing_parts(fp, expected)
                if parts:
                    problems.append(
                        f"{label}: {', '.join(parts)} differ from the reference "
                        f"for seed {self.seed} (perfbench/reference.json)")
        return problems
