"""Golden fingerprints of test-scale word-vector runs on every static system.

The word-vector training step is a hand-fused NumPy kernel whose floats must
stay bit-identical to the plain skip-gram math. This test pins the simulated
outputs of short test-scale runs, so any float drift in the step (or in the
PS calls it makes) fails the fast suite instead of only the bench-scale
fingerprint check.

Each fingerprint holds the sha256 of the final parameter store, the
per-epoch quality and the per-epoch simulated clocks. To re-record after an
intended change of the simulated outputs, run::

    PYTHONPATH=src python tests/test_w2v_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.runner.config import ExperimentConfig
from repro.runner.experiment import run_experiment
from repro.runner.systems import make_ps_factory
from repro.runner.workloads import make_task
from repro.simulation.cluster import ClusterConfig

GOLDEN = Path(__file__).parent / "data" / "w2v_golden.json"
SYSTEMS = ("single-node", "classic", "lapse", "essp", "nups")
EPOCHS = 2
SEED = 0


def w2v_fingerprint(system: str) -> dict:
    """Store digest, per-epoch quality and per-epoch clocks of one run."""
    stores = []
    factory = make_ps_factory(system)

    def capture(store, cluster, task):
        stores.append(store)
        return factory(store, cluster, task)

    nodes = 1 if system == "single-node" else 4
    config = ExperimentConfig(
        cluster=ClusterConfig(num_nodes=nodes, workers_per_node=2),
        epochs=EPOCHS, chunk_size=16, seed=SEED,
    )
    result = run_experiment(make_task("word_vectors", scale="test"), capture,
                            config, system_name=system)
    values = stores[-1].values
    return {
        "store_sha256": hashlib.sha256(values.tobytes()).hexdigest(),
        "quality": [record.quality for record in result.records],
        "sim_time": [[record.sim_time, record.epoch_duration]
                     for record in result.records],
    }


@pytest.mark.parametrize("system", SYSTEMS)
def test_w2v_run_matches_golden_fingerprint(system):
    expected = json.loads(GOLDEN.read_text())[system]
    actual = w2v_fingerprint(system)
    # Compare part by part so a failure names what drifted.
    assert actual["sim_time"] == expected["sim_time"]
    assert actual["quality"] == expected["quality"]
    assert actual["store_sha256"] == expected["store_sha256"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {system: w2v_fingerprint(system) for system in SYSTEMS},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
