"""The benchmark's four workloads and how one run of a system is configured.

Every workload trains one task of :data:`repro.runner.workloads.TASK_FACTORIES`
on a fixed list of systems, one after the other, on the paper's 8x8 cluster
(single-node: 1x8). The dynamic workload adds a composed scenario and the
program's in-memory telemetry. Tests use the same definitions at ``test``
scale on a smaller cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

STATIC_SYSTEMS = ("single-node", "classic", "lapse", "essp", "nups")
DYNAMIC_SYSTEMS = ("classic", "essp", "nups-adaptive")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a task, its systems and its run shape."""

    name: str
    task: str
    systems: Tuple[str, ...]
    epochs: int
    dynamic: bool = False

    @property
    def nups_system(self) -> str:
        """The workload's NuPS system, the one compared with classic."""
        return next(s for s in self.systems if s.startswith("nups"))


WORKLOADS = {w.name: w for w in (
    Workload("kge-sampled", "kge", STATIC_SYSTEMS, epochs=3),
    Workload("w2v-small-calls", "word_vectors", STATIC_SYSTEMS, epochs=1),
    Workload("mf-fused", "matrix_factorization", STATIC_SYSTEMS, epochs=4),
    Workload("mf-dynamic", "matrix_factorization", DYNAMIC_SYSTEMS, epochs=3,
             dynamic=True),
)}


@dataclass(frozen=True)
class Scale:
    """Dataset scale and cluster shape of a benchmark run."""

    data: str = "bench"
    nodes: int = 8
    workers_per_node: int = 8


BENCH = Scale()
#: The tiny scale the benchmark's own tests run at.
TINY = Scale(data="test", nodes=4, workers_per_node=2)


def dynamic_scenario():
    """Hot-set drift, one server crash per epoch and an autoscale storm."""
    from repro.elastic.perturbations import AutoscaleStorm
    from repro.faults.perturbations import ServerCrashes
    from repro.scenarios.base import Scenario
    from repro.scenarios.perturbations import HotSetDrift

    return Scenario("perfbench-dynamic", [
        HotSetDrift(at=((2, None),), oracle_remanage=False),
        ServerCrashes(crashes_per_epoch=1),
        AutoscaleStorm(period_rounds=8),
    ])


def experiment_config(workload: Workload, system: str, seed: int,
                      scale: Scale = BENCH, scenario=None):
    """The :class:`ExperimentConfig` of one run (fresh scenario/telemetry)."""
    from repro.obs.tracer import TelemetryConfig
    from repro.runner.config import ExperimentConfig
    from repro.simulation.cluster import ClusterConfig

    nodes = 1 if system == "single-node" else scale.nodes
    return ExperimentConfig(
        cluster=ClusterConfig(num_nodes=nodes,
                              workers_per_node=scale.workers_per_node),
        epochs=workload.epochs,
        chunk_size=8,
        seed=seed,
        scenario=scenario,
        telemetry=TelemetryConfig() if workload.dynamic else None,
    )


def system_overrides(system: str) -> dict:
    """The scaled-down NuPS settings for NuPS-family systems, else none."""
    from repro.runner.workloads import NUPS_BENCH_OVERRIDES

    return dict(NUPS_BENCH_OVERRIDES) if system.startswith("nups") else {}


def build_task(workload: Workload, seed: int, scale: Scale = BENCH):
    """A fresh task on a freshly generated dataset.

    The task factories share generated datasets through an in-process
    cache. Clearing it makes every set-up sample do the same work: what a
    user pays for one run in a fresh process.
    """
    from repro.runner import workloads as presets

    for value in vars(presets).values():
        clear = getattr(value, "cache_clear", None)
        if clear is not None:
            clear()
    return presets.TASK_FACTORIES[workload.task](scale.data, seed=seed)


def scenario_for(workload: Workload) -> Optional[object]:
    """A fresh scenario per run: perturbations keep per-run state."""
    return dynamic_scenario() if workload.dynamic else None
