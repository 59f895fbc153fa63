"""Running a workload's systems one after another, with coarse timestamps.

An untraced run takes only coarse timestamps: around the task build, around
each ``evaluate`` call and around each ``run_experiment`` call, scaled to a
reference host speed when a :class:`~speed.SpeedSampler` runs. A traced run
(``clock`` given) also wraps every layer's entry points (see
:mod:`layers`) and checks the wrappers' counts against the program's
counters.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from fingerprint import FingerprintGate, fingerprint
from layers import (
    TASK_SPANS,
    LayerClock,
    instrument_scenario,
    instrumented_factory,
    timed_data_generation,
)
from speed import SpeedSampler
from workloads import (
    BENCH,
    Scale,
    Workload,
    build_task,
    experiment_config,
    scenario_for,
    system_overrides,
)


@dataclass
class RunRecord:
    """Host timings, simulated result and problems of one system's run."""

    system: str
    setup_s: float = 0.0   # task build + run set-up before the first evaluate
    wall_s: float = 0.0    # first evaluate start .. run end
    raw_wall_s: float = 0.0  # the same, not scaled to the reference speed
    eval_s: float = 0.0
    points: int = 0        # data points trained (lost points excluded)
    expected_points: int = 0
    result: object = None
    fingerprint: Dict[str, str] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    clock: Optional[LayerClock] = None

    @property
    def train_s(self) -> float:
        """Host seconds in the epoch loops: the run minus its evaluations."""
        return self.wall_s - self.eval_s

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_one(workload: Workload, system: str, seed: int,
            scale: Scale = BENCH, clock: Optional[LayerClock] = None,
            speed: Optional[SpeedSampler] = None) -> RunRecord:
    """Build a fresh task and train it on ``system`` once.

    With ``speed``, host times are scaled to the reference host speed.
    """
    from repro.runner.experiment import run_experiment
    from repro.runner.systems import make_ps_factory

    record = RunRecord(system, clock=clock)
    start = perf_counter()
    if clock is None:
        task = build_task(workload, seed, scale)
    else:
        with timed_data_generation(clock):
            task = clock.call("setup.build", build_task, workload, seed, scale)
        clock.instrument(task, TASK_SPANS)
    task_built = perf_counter()

    evaluations = []
    evaluate = task.evaluate

    def timed_evaluate(store):
        began = perf_counter()
        quality = evaluate(store)
        evaluations.append((began, perf_counter()))
        return quality

    task.evaluate = timed_evaluate
    built = []
    factory = make_ps_factory(system, **system_overrides(system))
    if clock is not None:
        factory = instrumented_factory(clock, factory)

    def capture(store, cluster, task_):
        built.append(factory(store, cluster, task_))
        return built[-1]

    scenario = scenario_for(workload)
    if clock is not None and scenario is not None:
        instrument_scenario(clock, scenario)
    config = experiment_config(workload, system, seed, scale, scenario)
    run_start = perf_counter()
    if clock is None:
        result = run_experiment(task, capture, config, system_name=system)
    else:
        result = clock.call("runner", run_experiment, task, capture, config,
                            system_name=system)
    run_end = perf_counter()

    seconds = speed.scaled if speed is not None else (lambda a, b: b - a)
    first = evaluations[0][0]
    record.setup_s = seconds(start, task_built) + seconds(run_start, first)
    record.wall_s = seconds(first, run_end)
    record.raw_wall_s = run_end - first
    record.eval_s = sum(seconds(began, end) for began, end in evaluations)
    record.expected_points = task.num_data_points() * result.epochs_completed
    # Chunks dropped by dead-owner timeouts are not trained.
    record.points = record.expected_points - int(
        result.metrics.get("faults.lost_points", 0))
    record.result = result
    record.fingerprint = fingerprint(result, built[0].store)
    final = result.final_quality()
    initial = result.initial_quality[result.quality_metric]
    if not task.is_better(final, initial):
        record.problems.append(
            f"final {result.quality_metric} {final!r} is no better than the "
            f"initial {initial!r}")
    return record


def run_cycle(workload: Workload, seed: int, gate: FingerprintGate,
              scale: Scale = BENCH, traced: bool = False,
              speed: Optional[SpeedSampler] = None,
              label: str = "") -> List[RunRecord]:
    """Every system of ``workload`` once, in order; failures are recorded."""
    records = []
    for system in workload.systems:
        name = f"{workload.name}/{system}{label}"
        clock = LayerClock() if traced else None
        try:
            record = run_one(workload, system, seed, scale, clock, speed)
        except Exception as error:  # a failed run counts, the rest go on
            traceback.print_exc(file=sys.stderr)
            record = RunRecord(system, problems=[f"raised {error!r}"])
            records.append(record)
            print(f"FAIL {name}: raised {error!r}")
            continue
        record.problems += gate.check(system, record.fingerprint, name)
        if clock is not None:
            record.problems += coverage_problems(clock, record)
        for problem in record.problems:
            print(f"FAIL {name}: {problem}")
        records.append(record)
    return records


def access_total(metrics: dict, prefix: str) -> float:
    return sum(v for k, v in metrics.items() if k.startswith(prefix))


def coverage_problems(clock: LayerClock, record: RunRecord) -> List[str]:
    """Mismatches between the wrappers' counts and the program's counters.

    Keys of direct calls nested in another PS call (the default sampling
    API pulls through ``pull``) are counted once as direct accesses, which
    is how the architectures record them.
    """
    metrics = record.result.metrics
    pull, push = clock.get("ps.pull"), clock.get("ps.push")
    charged = clock.get("ps.charger").keys
    checks = {
        "pulled keys": (pull.keys + charged,
                        access_total(metrics, "access.pull.")),
        "pushed keys": (push.keys + charged,
                        access_total(metrics, "access.push.")),
        "sampled keys": (
            clock.get("ps.sample.pull").keys - (pull.keys - pull.outer_keys),
            access_total(metrics, "access.sample.")),
        "sample-pushed keys": (
            clock.get("ps.sample.push").keys - (push.keys - push.outer_keys),
            access_total(metrics, "access.sample_push.")),
        "trained points": (trained_points(clock), record.points),
    }
    return [f"traced {what} {seen} != program counter {expected:g}"
            for what, (seen, expected) in checks.items() if seen != expected]


def trained_points(clock: LayerClock) -> int:
    """Points handed to the task by the runner (round or degraded chunk)."""
    return clock.get("ml.round").outer_keys + clock.get("ml.chunk").outer_keys
