"""Repository benchmark: simulator host speed and the modelled NuPS result.

Usage, from the repository root::

    python3 perfbench/run.py --workload kge-sampled --seed 0 --seconds 20 --trace 0

One process runs one workload: its systems one after another at bench scale
on the paper's 8x8 cluster, each on a freshly built task, with BLAS and
OpenMP held at one thread. ``--trace 0`` repeats whole cycles over the
systems for about ``--seconds`` seconds (at least one cycle) and reports the
end-to-end metrics; ``--trace 1`` runs one untraced and one traced cycle and
reports the per-layer metrics. The last line of standard output is one JSON
object; lines before it describe the environment and any failed run.
See ``perfbench/README.md``.
"""

import os

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# Before NumPy is imported: a multi-threaded BLAS stalls the first KGE
# evaluation in some fresh processes by ~1 s.
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def import_program() -> float:
    """Import the program from this checkout's ``src``; return the seconds."""
    start = perf_counter()
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro
    import repro.runner  # noqa: F401  (the modules every run needs)

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    return perf_counter() - start


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "threads": {name: os.environ[name] for name in THREAD_VARIABLES},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="dataset generation and ExperimentConfig.seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, seed: int, seconds: float, gate, speed):
    """Untraced cycles for about ``seconds``; with the first cycle's peak RSS."""
    from execute import run_cycle
    from metrics import peak_rss_mib

    cycles = []
    start = perf_counter()
    while True:
        cycles.append(run_cycle(workload, seed, gate, speed=speed,
                                label=f" (cycle {len(cycles) + 1})"))
        if len(cycles) == 1:
            peak_mib = peak_rss_mib()
        elapsed = perf_counter() - start
        # Start another cycle only if one more of average length fits.
        if elapsed + elapsed / len(cycles) > seconds:
            return cycles, peak_mib


def trace(workload, seed: int, gate):
    """One untraced and one traced cycle; returns both with their seconds."""
    from execute import run_cycle

    start = perf_counter()
    untraced = run_cycle(workload, seed, gate, label=" (untraced)")
    middle = perf_counter()
    traced = run_cycle(workload, seed, gate, traced=True, label=" (traced)")
    return untraced, traced, middle - start, perf_counter() - middle


def layer_shares(traced) -> dict:
    """Share of the traced cycle's covered host time, per layer."""
    from metrics import merged_clock

    shares = {}
    for name, tally in merged_clock(traced).tallies.items():
        layer = name.split(".", 1)[0]
        if layer == "simulation":
            layer = "simulation.metrics"
        shares[layer] = shares.get(layer, 0.0) + tally.self_s
    total = sum(shares.values())
    return {layer: round(s / total, 4) for layer, s in sorted(shares.items())}


def pin_to_one_cpu() -> None:
    """Keep the process on one CPU: migrations add run-to-run noise."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    began = perf_counter()
    from speed import SpeedSampler  # imports NumPy, which the probe uses

    numpy_s = perf_counter() - began
    with SpeedSampler() as speed:
        began = perf_counter()
        import_program()
        import_s = numpy_s + speed.scaled(began, perf_counter())
        from fingerprint import FingerprintGate
        from metrics import (END_TO_END, PER_LAYER, end_to_end, per_layer,
                             simulated)
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload]
        print("environment " + json.dumps(environment(), sort_keys=True))
        gate = FingerprintGate(workload.name, args.seed)
        if not args.trace:
            cycles, peak_mib = measure(workload, args.seed, args.seconds,
                                       gate, speed)
    if args.trace:
        untraced, traced, untraced_s, traced_s = trace(workload, args.seed,
                                                       gate)
        records = untraced + traced
        values = per_layer(workload, untraced, traced, untraced_s, traced_s)
        catalog = PER_LAYER
        print("layer shares " + json.dumps(layer_shares(traced)))
    else:
        records = [r for cycle in cycles for r in cycle]
        values = end_to_end(workload, cycles, import_s, peak_mib)
        catalog = END_TO_END
        raw = sum(r.raw_wall_s for r in records)
        print(f"cycles {len(cycles)}; wall {raw:.3f} s raw, "
              f"{sum(r.wall_s for r in records):.3f} s at reference speed")
        print("model " + json.dumps(simulated(workload, cycles[0])))
    failed = sum(record.failed for record in records)
    print(f"failed_run_share {failed}/{len(records)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in catalog.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
