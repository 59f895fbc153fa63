"""Tests of the benchmark's workload premises and checks, at tiny scale.

Each workload is meant to stress different layers; these tests pin the
premises a reading of its numbers relies on, so a change that silently moves
a workload off its path fails here rather than skewing the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from execute import run_cycle
from fingerprint import FingerprintGate, differing_parts
from metrics import END_TO_END, PER_LAYER, per_layer, ps_access
from speed import REFERENCE_PROBE_S, SpeedSampler
from workloads import BENCH, TINY, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture(scope="module")
def traced():
    """Per workload: the untraced cycle, the traced cycle, the metrics."""
    out = {}
    for name, workload in WORKLOADS.items():
        gate = FingerprintGate(name, 0, reference={})
        untraced = run_cycle(workload, 0, gate, TINY)
        traced = run_cycle(workload, 0, gate, TINY, traced=True)
        out[name] = (untraced, traced,
                     per_layer(workload, untraced, traced, 1.0, 1.0))
    return out


def test_every_run_passes_its_fingerprint_and_coverage_checks(traced):
    # Quality is exempt: at tiny scale KGE need not beat its initial MRR
    # within three epochs, which the bench-scale runs do.
    for name, (untraced, traced_runs, _) in traced.items():
        for record in untraced + traced_runs:
            assert all(problem.startswith("final ")
                       for problem in record.problems), (name, record.problems)


def test_traced_fingerprint_equals_untraced(traced):
    for untraced, traced_runs, _ in traced.values():
        for plain, timed in zip(untraced, traced_runs):
            assert plain.fingerprint == timed.fingerprint


def test_mf_fused_never_samples_and_classic_lapse_use_the_charger(traced):
    untraced, traced_runs, values = traced["mf-fused"]
    assert values["ps.sample.calls"] == 0
    charged = {r.system: r.clock.get("ps.charger").calls for r in traced_runs}
    assert charged["classic"] > 0 and charged["lapse"] > 0
    assert charged["essp"] == 0 and charged["nups"] == 0


def test_sampling_workloads_never_use_the_charger(traced):
    for name in ("kge-sampled", "w2v-small-calls"):
        values = traced[name][2]
        assert values["ps.charger.calls"] == 0
        assert values["ps.sample.calls"] > 0


def test_only_the_dynamic_workload_runs_scenario_layers_and_telemetry(traced):
    for name, (_, _, values) in traced.items():
        dynamic = name == "mf-dynamic"
        assert (values["scenarios.hooks.calls"] > 0) == dynamic, name
        assert (values["scenarios.proxy.calls"] > 0) == dynamic, name
        assert (values["obs.records"] > 0) == dynamic, name


def test_w2v_makes_smaller_ps_calls_than_kge():
    # A bench-scale premise (the tiny presets draw fewer KGE negatives), so
    # it is checked on one bench-scale NuPS epoch of each task.
    per_call = {}
    for name in ("kge-sampled", "w2v-small-calls"):
        workload = replace(WORKLOADS[name], systems=("nups",), epochs=1)
        gate = FingerprintGate(name, 0, reference={})
        [record] = run_cycle(workload, 0, gate, BENCH, traced=True)
        access = ps_access(record.clock)
        per_call[name] = access.outer_keys / access.outer_calls
    assert per_call["w2v-small-calls"] < per_call["kge-sampled"]


def test_per_layer_values_cover_the_catalog(traced):
    for _, _, values in traced.values():
        assert set(values) == set(PER_LAYER)


def test_fingerprint_gate_names_the_differing_part():
    gate = FingerprintGate("w", 3, reference={"3": {"w": {"nups": {
        "sim_time": "a", "counters": "b", "quality": "c", "store": "d"}}}})
    same = {"sim_time": "a", "counters": "b", "quality": "c", "store": "d"}
    assert gate.check("nups", same, "run") == []
    changed = dict(same, store="x")
    assert differing_parts(changed, same) == ["store"]
    problems = gate.check("nups", changed, "run")
    assert len(problems) == 2 and all("store" in p for p in problems)


def test_speed_scaling_takes_probe_time_out():
    sampler = SpeedSampler()
    sampler.starts = [float(i) for i in range(100)]
    sampler.durations = [2 * REFERENCE_PROBE_S] * 100
    # Twice as slow as the reference: half the seconds, probes removed.
    expected = (50.0 - 50 * 2 * REFERENCE_PROBE_S) / 2
    assert sampler.scaled(0.0, 50.0) == pytest.approx(expected)


def test_benchmark_json_matches_the_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for key, catalog in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == catalog


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mf-fused",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
