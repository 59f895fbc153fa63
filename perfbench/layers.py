"""Per-layer host-time accounting for the traced benchmark run.

The traced run wraps the public entry points of each layer on the objects
one run creates — the task, the parameter store, the metrics registry, the
parameter server, its point charger and the scenario runtime — with timing
wrappers set as instance attributes, so classes stay untouched and nothing
outlives the run. Each wrapper is a span: its self time is its duration
minus the spans it encloses, and the self times of all spans add up to the
host time the spans cover. Spans also count calls and keys (or rows,
points), which the coverage checks compare against the program's own
counters: a fast path that skips a wrapped entry point then shows up as a
count mismatch instead of as missing time.

Span names are ``<layer>.<kind>``; the layer is the first component.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Tally:
    """Calls, counted items and host seconds of one span name."""

    __slots__ = ("calls", "keys", "outer_calls", "outer_keys", "outer_s",
                 "self_s")

    def __init__(self) -> None:
        self.calls = 0         # successful calls, at any nesting depth
        self.keys = 0          # items those calls carried
        self.outer_calls = 0   # ... of calls not nested in the same layer
        self.outer_keys = 0
        self.outer_s = 0.0     # inclusive seconds of those outer calls
        self.self_s = 0.0      # seconds minus enclosed spans, all calls

    def merge(self, other: "Tally") -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


class LayerClock:
    """A stack of open spans attributing self time per span name."""

    def __init__(self) -> None:
        self.tallies: Dict[str, Tally] = defaultdict(Tally)
        self._stack: List[list] = []
        self._depth: Dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``; ``count(args, result)`` -> items."""
        layer = name.split(".", 1)[0]
        tally = self.tallies[name]
        stack = self._stack
        depth = self._depth

        def timed(*args, **kwargs):
            outer = depth[layer] == 0
            depth[layer] += 1
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1][0] += elapsed
                tally.self_s += elapsed - frame[0]
                if outer:
                    tally.outer_s += elapsed
            items = count(args, result) if count is not None else 0
            tally.calls += 1
            tally.keys += items
            if outer:
                tally.outer_calls += 1
                tally.outer_keys += items
            return result

        return timed

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` once as span ``name`` (for the benchmark's own calls)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def instrument(self, obj, spans: Dict[str, tuple]) -> None:
        """Replace ``obj``'s methods by timed wrappers (instance attributes).

        ``spans`` maps a method name to ``(span name, count or None)``;
        methods ``obj`` lacks are skipped.
        """
        for method, (name, count) in spans.items():
            fn = getattr(obj, method, None)
            if fn is not None:
                setattr(obj, method, self.wrap(name, fn, count))

    def merge(self, other: "LayerClock") -> None:
        for name, tally in other.tallies.items():
            self.tallies[name].merge(tally)

    # ----------------------------------------------------------- reading
    def get(self, name: str) -> Tally:
        return self.tallies.get(name) or Tally()

    def group(self, prefix: str) -> Tally:
        """The sum of every tally whose name is ``prefix`` or under it."""
        total = Tally()
        for name, tally in self.tallies.items():
            if name == prefix or name.startswith(prefix + "."):
                total.merge(tally)
        return total

    def self_seconds(self) -> float:
        return sum(t.self_s for t in self.tallies.values())


# ------------------------------------------------------------ span tables
def _keys(args, result) -> int:
    return len(args[1])


def _delivered(args, result) -> int:
    return len(result.keys)


def _rows(args, result) -> int:
    try:
        return len(args[0])
    except TypeError:
        return 1


def _points(args, result) -> int:
    return sum(len(item.chunk) for item in args[1])


def _chunk_points(args, result) -> int:
    return len(args[2])


PS_SPANS = {
    "pull": ("ps.pull", _keys),
    "push": ("ps.push", _keys),
    "localize": ("ps.localize", _keys),
    "prepare_sample": ("ps.sample.prepare", None),
    "pull_sample": ("ps.sample.pull", _delivered),
    "push_sample": ("ps.sample.push", _keys),
    "housekeeping": ("ps.housekeeping", None),
    "advance_clock": ("ps.other", None),
    "finish_epoch": ("ps.other", None),
}

STORE_SPANS = {method: ("store", _rows) for method in (
    "get", "view", "add", "add_distinct", "set", "write_rows",
    "read_versions", "write_versions")}
STORE_SPANS["get_single"] = ("store", lambda args, result: 1)

METRICS_SPANS = {method: ("simulation.metrics", None) for method in (
    "increment", "record_access", "record_access_batch", "drain_dirty",
    "mark_dirty", "get", "counters", "node_counters", "share",
    "total_matching", "snapshot", "diff")}

TASK_SPANS = {
    "process_round": ("ml.round", _points),
    "process_chunk": ("ml.chunk", _chunk_points),
    "prefetch_round": ("ml.prefetch", None),
    "prefetch": ("ml.prefetch", None),
    "on_epoch_end": ("ml.epoch_end", None),
    "evaluate": ("ml.eval", None),
    "create_store": ("setup.build", None),
    "create_shards": ("setup.build", None),
    "register_sampling": ("setup.build", None),
}

RUNTIME_SPANS = {
    "on_experiment_start": ("scenarios.hooks.epoch", None),
    "begin_epoch": ("scenarios.hooks.epoch", None),
    "end_epoch": ("scenarios.hooks.epoch", None),
    "on_round": ("scenarios.hooks.round", None),
}

#: The interposers a scenario puts between task and PS (key remapping, the
#: dead-owner retry proxy): their self time is the interposer chain's cost.
PROXY_SPANS = {method: ("scenarios.proxy", None) for method in PS_SPANS}

DATA_GENERATORS = ("generate_knowledge_graph", "generate_corpus",
                   "generate_matrix")


class _TimedCharger:
    """A point charger whose ``charge_chunk`` is a ``ps.charger`` span.

    Chargers use ``__slots__``, so they are wrapped instead of patched.
    """

    def __init__(self, charger, clock: LayerClock) -> None:
        self.charge_chunk = clock.wrap(
            "ps.charger", charger.charge_chunk,
            lambda args, result: args[1].size)
        self.finish = clock.wrap("ps.other", charger.finish)


def instrument_ps(clock: LayerClock, ps) -> None:
    """Wrap a freshly built parameter server's public API."""
    clock.instrument(ps, PS_SPANS)
    charger_factory = ps.direct_point_charger

    def direct_point_charger():
        charger = charger_factory()
        return None if charger is None else _TimedCharger(charger, clock)

    ps.direct_point_charger = clock.wrap("ps.other", direct_point_charger)


def instrumented_factory(clock: LayerClock, factory: Callable) -> Callable:
    """A PS factory that instruments the store, metrics and PS it touches.

    Store and registry are wrapped before the PS is built, so references
    the PS takes at construction already point at the wrappers.
    """

    def build(store, cluster, task):
        clock.instrument(store, STORE_SPANS)
        clock.instrument(cluster.metrics, METRICS_SPANS)
        ps = clock.call("setup.build", factory, store, cluster, task)
        instrument_ps(clock, ps)
        return ps

    return build


def instrument_scenario(clock: LayerClock, scenario) -> None:
    """Wrap the hooks and interposers of the runtime ``scenario`` binds."""
    bind = scenario.bind

    def bind_instrumented(task, ps, cluster, config):
        runtime = bind(task, ps, cluster, config)
        clock.instrument(runtime, RUNTIME_SPANS)
        proxies = {id(p): p for p in (runtime.training_ps, runtime.fault_proxy)
                   if p is not None and p is not ps}
        for proxy in proxies.values():
            clock.instrument(proxy, PROXY_SPANS)
        return runtime

    scenario.bind = bind_instrumented


@contextmanager
def timed_data_generation(clock: LayerClock):
    """Time the dataset generators the task factories call (``setup.data``)."""
    from repro.runner import workloads as presets

    originals = {name: getattr(presets, name) for name in DATA_GENERATORS}
    try:
        for name, fn in originals.items():
            setattr(presets, name, clock.wrap("setup.data", fn))
        yield
    finally:
        for name, fn in originals.items():
            setattr(presets, name, fn)
