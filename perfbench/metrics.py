"""The benchmark's metrics: their catalog and how runs turn into values.

End-to-end metrics come from untraced cycles (one cycle = every system of
the workload once); per-layer metrics from one traced cycle plus the
untraced cycle it is compared with. ``BENCHMARK.json`` lists the same names,
units and directions (a test keeps the two in step).
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, List

from execute import RunRecord, access_total
from layers import LayerClock, Tally
from workloads import Workload

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "train_points_per_s": ("points/s", "higher"),
    "nups_points_per_s": ("points/s", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
}

MODEL_SYSTEMS = ("single-node", "classic", "lapse", "essp", "nups")
PS_KINDS = ("pull", "push", "localize", "sample", "charger")

PER_LAYER = {
    "runner.self_s": ("s", "lower"),
    "runner.rounds": ("count", "lower"),
    "ml.train_self_s": ("s", "lower"),
    "ml.eval_s": ("s", "lower"),
    "ml.eval_calls": ("count", "lower"),
    "ml.points": ("count", "higher"),
    **{f"ps.{kind}.{field}": unit
       for kind in PS_KINDS
       for field, unit in (("calls", ("count", "lower")),
                           ("keys", ("count", "lower")),
                           ("s", ("s", "lower")))},
    "ps.housekeeping.calls": ("count", "lower"),
    "ps.housekeeping.s": ("s", "lower"),
    "ps.self_s": ("s", "lower"),
    "ps.us_per_key": ("us", "lower"),
    "ps.keys_per_call": ("count", "higher"),
    "store.calls": ("count", "lower"),
    "store.rows": ("count", "lower"),
    "store.s": ("s", "lower"),
    "simulation.metrics.calls": ("count", "lower"),
    "simulation.metrics.s": ("s", "lower"),
    "scenarios.hooks.calls": ("count", "lower"),
    "scenarios.hooks.s": ("s", "lower"),
    "scenarios.proxy.calls": ("count", "lower"),
    "scenarios.proxy.s": ("s", "lower"),
    "faults.retries": ("count", "lower"),
    "faults.lost_point_share": ("fraction", "lower"),
    "elastic.migrated_keys": ("count", "lower"),
    "obs.records": ("count", "lower"),
    "obs.dropped": ("count", "lower"),
    "setup.data_s": ("s", "lower"),
    "setup.build_s": ("s", "lower"),
    **{f"model.{system}.epoch_s": ("s", "lower") for system in MODEL_SYSTEMS},
    "model.nups.remote_share": ("fraction", "lower"),
    "model.nups.sample_local_share": ("fraction", "higher"),
    "model.nups.network_bytes": ("bytes", "lower"),
    "model.nups.relocation_waits": ("count", "lower"),
    "model.nups.replica_syncs": ("count", "lower"),
    "model.single_speedup": ("x", "higher"),
    "sim.nups_speedup": ("x", "higher"),
    "sim.nups_quality_ratio": ("x", "higher"),
    "trace.overhead": ("x", "lower"),
    "trace.uncovered_share": ("fraction", "lower"),
}


def peak_rss_mib() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _by_system(records: List[RunRecord]) -> Dict[str, RunRecord]:
    return {r.system: r for r in records if r.result is not None}


def simulated(workload: Workload, records: List[RunRecord]) -> Dict[str, float]:
    """The modelled headline: NuPS vs classic, epoch time and quality."""
    runs = _by_system(records)
    classic, nups = runs["classic"].result, runs[workload.nups_system].result
    quality = nups.final_quality() / classic.final_quality()
    if not nups.higher_is_better:
        quality = 1.0 / quality
    return {
        "sim.nups_speedup": classic.mean_epoch_time() / nups.mean_epoch_time(),
        "sim.nups_quality_ratio": quality,
    }


def end_to_end(workload: Workload, cycles: List[List[RunRecord]],
               import_s: float, peak_mib: float) -> Dict[str, float]:
    """Every end-to-end metric from the untraced cycles of one run.

    ``peak_mib`` is the peak resident memory after the first cycle: later
    cycles raise the peak through allocator fragmentation, which would make
    it depend on how many cycles fit into a run.
    """
    ok = [[r for r in cycle if not r.failed] for cycle in cycles]
    complete = [cycle for cycle, good in zip(cycles, ok)
                if len(good) == len(cycle)] or ok
    nups = [r for cycle in complete for r in cycle
            if r.system == workload.nups_system]
    return {
        "setup_s": import_s + statistics.median(
            r.setup_s for cycle in ok for r in cycle),
        "wall_s": statistics.median(
            sum(r.wall_s for r in cycle) for cycle in complete),
        "train_points_per_s": statistics.median(
            sum(r.points for r in cycle) / sum(r.train_s for r in cycle)
            for cycle in complete),
        "nups_points_per_s": statistics.median(
            r.points / r.train_s for r in nups),
        "peak_rss_mib": peak_mib,
    }


def ps_access(clock: LayerClock) -> Tally:
    """The PS access calls (direct, sampling and charged) summed."""
    total = Tally()
    for kind in PS_KINDS:
        total.merge(clock.group(f"ps.{kind}"))
    return total


def merged_clock(records: List[RunRecord]) -> LayerClock:
    """The tallies of all traced runs in ``records`` added up."""
    clock = LayerClock()
    for record in records:
        if record.clock is not None:
            clock.merge(record.clock)
    return clock


def per_layer(workload: Workload, untraced: List[RunRecord],
              traced: List[RunRecord], untraced_s: float,
              traced_s: float) -> Dict[str, float]:
    """Every per-layer metric from one traced cycle and its untraced twin."""
    clock = merged_clock(traced)
    results = [r.result for r in traced if r.result is not None]
    counters = [res.metrics for res in results]

    def counter_sum(name: str) -> float:
        return sum(m.get(name, 0.0) for m in counters)

    sample = clock.group("ps.sample")
    access = ps_access(clock)
    ml_train = [clock.get(name) for name in
                ("ml.round", "ml.chunk", "ml.prefetch", "ml.epoch_end")]
    points = clock.get("ml.round").outer_keys + clock.get("ml.chunk").outer_keys
    hooks = clock.group("scenarios.hooks")
    # With a scenario the runner calls the round hook once per round;
    # without one it hands every round to process_round.
    rounds = clock.get("scenarios.hooks.round").calls
    expected = sum(r.expected_points for r in traced)
    values = {
        "runner.self_s": clock.get("runner").self_s,
        "runner.rounds": rounds or clock.get("ml.round").calls,
        "ml.train_self_s": sum(t.self_s for t in ml_train),
        "ml.eval_s": clock.get("ml.eval").outer_s,
        "ml.eval_calls": clock.get("ml.eval").calls,
        "ml.points": points,
        "ps.sample.calls": sample.outer_calls,
        "ps.sample.keys": clock.get("ps.sample.pull").outer_keys,
        "ps.sample.s": sample.outer_s,
        "ps.housekeeping.calls": clock.get("ps.housekeeping").outer_calls,
        "ps.housekeeping.s": clock.get("ps.housekeeping").outer_s,
        "ps.self_s": clock.group("ps").self_s,
        "ps.us_per_key": 1e6 * access.outer_s / access.outer_keys
        if access.outer_keys else 0.0,
        "ps.keys_per_call": access.outer_keys / access.outer_calls
        if access.outer_calls else 0.0,
        "store.calls": clock.get("store").calls,
        "store.rows": clock.get("store").keys,
        "store.s": clock.get("store").self_s,
        "simulation.metrics.calls": clock.get("simulation.metrics").calls,
        "simulation.metrics.s": clock.get("simulation.metrics").self_s,
        "scenarios.hooks.calls": hooks.calls,
        "scenarios.hooks.s": hooks.self_s,
        "scenarios.proxy.calls": clock.get("scenarios.proxy").outer_calls,
        "scenarios.proxy.s": clock.get("scenarios.proxy").self_s,
        "faults.retries": counter_sum("faults.retries"),
        "faults.lost_point_share":
            counter_sum("faults.lost_points") / expected if expected else 0.0,
        "elastic.migrated_keys": counter_sum("elastic.migrated_keys"),
        "obs.records": sum(
            len(res.trace["spans"]) + len(res.trace["events"])
            + len(res.trace["samples"]) for res in results if res.trace),
        "obs.dropped": sum(res.trace["dropped"] for res in results
                           if res.trace),
        "setup.data_s": clock.get("setup.data").self_s,
        "setup.build_s": clock.get("setup.build").self_s,
        "trace.overhead": traced_s / untraced_s,
        "trace.uncovered_share": 1.0 - clock.self_seconds() / traced_s,
    }
    for kind in PS_KINDS:
        if kind != "sample":
            tally = clock.get(f"ps.{kind}")
            values[f"ps.{kind}.calls"] = tally.outer_calls
            values[f"ps.{kind}.keys"] = tally.outer_keys
            values[f"ps.{kind}.s"] = tally.outer_s
    values.update(model(workload, untraced))
    values.update(simulated(workload, untraced))
    return values


def model(workload: Workload, records: List[RunRecord]) -> Dict[str, float]:
    """Deterministic model outputs of the program's counters (0 if n/a)."""
    runs = _by_system(records)
    epoch_s = {system: runs[system].result.mean_epoch_time()
               for system in runs}
    nups_name = workload.nups_system
    epoch_s["nups"] = epoch_s[nups_name]
    metrics = runs[nups_name].result.metrics
    total = metrics.get("access.total", 0.0)
    remote = sum(v for k, v in metrics.items()
                 if k.startswith("access.") and k.endswith(".remote"))
    sampled = access_total(metrics, "access.sample.")
    values = {f"model.{system}.epoch_s": epoch_s.get(system, 0.0)
              for system in MODEL_SYSTEMS}
    values.update({
        "model.nups.remote_share": remote / total if total else 0.0,
        "model.nups.sample_local_share":
            metrics.get("access.sample.local", 0.0) / sampled
            if sampled else 0.0,
        "model.nups.network_bytes": metrics.get("network.bytes", 0.0),
        "model.nups.relocation_waits": metrics.get("relocation.waits", 0.0),
        "model.nups.replica_syncs": metrics.get("replica.syncs", 0.0),
        "model.single_speedup":
            epoch_s["single-node"] / epoch_s["nups"]
            if "single-node" in epoch_s else 0.0,
    })
    return values
