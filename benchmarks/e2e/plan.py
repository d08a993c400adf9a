"""Plan workloads: default ``diversify()`` on seeded estates.

``sweep-random`` solves random networks shaped like the cells of the
paper's Tables VII-IX; every cell qualifies for the replicated fast path
(``repro.mrf.batched``).  ``pipeline-chain`` solves chain+chord estates
with per-host preferences, which force the compiled-plan path
(``repro.core.compile`` -> ``repro.mrf.sharded.solve_plan`` -> TRW-S over
one wavefront level per host of the chain).

The seed draws what differs between estates of one shape -- the host graph
of a random cell, the preferences of a pipeline estate.  The similarity
table is the workload's fixed product catalogue: with a per-seed table the
TRW-S iteration count, and with it the solve time, varies 2-3x between
seeds, which no run length averages out.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from common import (
    SETUP_STARTS,
    Outcome,
    Span,
    Speedometer,
    child_env,
    median,
    peak_rss_mb,
    percentile,
)

#: (hosts, degree, services) of the sweep-random cells: points along the
#: host, degree and service axes of Tables VII-IX, each solved in 0.1-1 s
#: on a 2-core machine, so that every cell is solved several times a run
#: and a solve spans few changes of the machine's speed.
SWEEP_CELLS: Tuple[Tuple[int, int, int], ...] = (
    (250, 10, 5),
    (500, 10, 5),
    (1000, 10, 5),
    (500, 5, 5),
    (500, 15, 5),
    (500, 10, 3),
    (500, 10, 10),
)
#: every instance is solved in round-robin rounds, at least this many,
#: and more while ``--seconds`` leaves room; its time is the median solve.
MIN_ROUNDS = 2
#: seed of the fixed similarity catalogue of both plan workloads.
CATALOGUE_SEED = 0

#: pipeline estates per run and their shape.
PIPELINE_ESTATES = 8
PIPELINE_HOSTS = 300
PIPELINE_PRODUCTS = 4
#: preference range.  At 1.0 the TRW-S iteration count of a 300-host
#: estate is 10-12 for 95% of seeds (7 for the rest); at 2.0 a third of
#: the estates took 6-9, and the run's time moved with their number.
PREFERENCE_HIGH = 1.0

#: a fresh start: interpreter, imports, and a warm-up solve of a 3-host
#: chain (the batched fast path's first call).
WARMUP = (
    "from repro.core.diversify import diversify\n"
    "from repro.network.topologies import chain_network\n"
    "from repro.nvd.similarity import SimilarityTable\n"
    "diversify(chain_network(3), SimilarityTable(products=['p0', 'p1']))\n"
)

#: energies and bounds are compared with this relative tolerance.
TOLERANCE = 1e-9


@dataclass
class Instance:
    """One ``diversify()`` input."""

    name: str
    network: object
    similarity: object
    preferences: Optional[Dict[Tuple[str, str, str], float]] = None


def sweep_instances(
    seed: int, cells: Sequence[Tuple[int, int, int]] = SWEEP_CELLS
) -> List[Instance]:
    """One random network per cell; the graph is drawn from ``seed``."""
    from repro.network.generator import (
        RandomNetworkConfig,
        random_network,
        random_similarity,
    )

    instances = []
    for index, (hosts, degree, services) in enumerate(cells):
        graph = RandomNetworkConfig(
            hosts=hosts, degree=degree, services=services,
            seed=seed * len(cells) + index,
        )
        catalogue = RandomNetworkConfig(
            hosts=hosts, degree=degree, services=services, seed=CATALOGUE_SEED
        )
        instances.append(Instance(
            name=f"{hosts}/{degree}/{services}",
            network=random_network(graph),
            similarity=random_similarity(catalogue),
        ))
    return instances


def pipeline_estate(seed: int, hosts: int = PIPELINE_HOSTS) -> Instance:
    """A chain backbone with long redundancy chords and seeded preferences.

    The shape of ``build_pipeline_estate`` in ``bench_dual_scaling.py``
    (a chord spanning 15% of the hosts every 10%): one connected
    component whose overlapping chords keep it loopy, so TRW-S never takes
    the exact forest path.
    """
    from repro.network.topologies import chain_network
    from repro.nvd.similarity import SimilarityTable

    products = tuple(f"p{j}" for j in range(PIPELINE_PRODUCTS))
    network = chain_network(hosts, services={"scada": products})
    span, every = 3 * hosts // 20, hosts // 10
    for i in range(0, hosts - span - 10, every):
        network.add_link(f"h{i}", f"h{i + span}")

    table = SimilarityTable()
    feed = random.Random(CATALOGUE_SEED)
    for product in products:
        table.add_product(product)
    for i, a in enumerate(products):
        for b in products[i + 1:]:
            table.set(a, b, round(feed.uniform(0.05, 0.8), 3))

    rng = random.Random(seed)
    preferences = {
        (f"h{i}", "scada", product): round(rng.uniform(0.0, PREFERENCE_HIGH), 3)
        for i in range(hosts)
        for product in products
    }
    return Instance(f"chain{hosts}#{seed}", network, table, preferences)


def pipeline_instances(
    seed: int, estates: int = PIPELINE_ESTATES, hosts: int = PIPELINE_HOSTS
) -> List[Instance]:
    """``estates`` pipeline estates with preferences drawn from ``seed``."""
    return [pipeline_estate(seed * estates + k, hosts) for k in range(estates)]


# ------------------------------------------------------------------ checks


def _check(instance: Instance, result, problems: List[str]) -> bool:
    """The result checks of one solve; appends failures, returns ok."""
    from repro.core.costs import assignment_energy

    energy = result.energy
    expected = assignment_energy(
        instance.network, instance.similarity, result.assignment
    )
    # assignment_energy has no preference term; diversify adds each
    # chosen product's preference to its unary cost.
    preferences = instance.preferences or {}
    expected += sum(
        preferences.get((host, service, product), 0.0)
        for (host, service), product in result.assignment.as_dict().items()
    )
    ok = True
    scale = max(1.0, abs(energy))
    if abs(energy - expected) > TOLERANCE * scale:
        problems.append(
            f"{instance.name}: energy {energy!r} != recomputed {expected!r}"
        )
        ok = False
    if not result.satisfied:
        problems.append(f"{instance.name}: constraints not satisfied")
        ok = False
    if not result.lower_bound <= energy + TOLERANCE * scale:
        problems.append(
            f"{instance.name}: lower bound {result.lower_bound!r} above "
            f"energy {energy!r}"
        )
        ok = False
    return ok


# --------------------------------------------------------------- measuring


def _solve_rounds(
    instances: Sequence[Instance], seconds: float, problems: List[str],
    speed: Speedometer,
) -> Tuple[List[List[Span]], List[object], int, List[Span]]:
    """Solve every instance once per round, ``MIN_ROUNDS`` times or more.

    A reference probe precedes every timed span.  A fresh start is timed
    before each of the first ``SETUP_STARTS`` rounds, so the starts sample
    the whole run rather than its first seconds.  Past ``MIN_ROUNDS`` a
    round starts only if it is expected to end within ``seconds``.
    Returns per-instance solve spans, the first round's results, the
    number of failed calls and the fresh-start spans.
    """
    from repro.core.diversify import diversify

    spans: List[List[Span]] = [[] for _ in instances]
    results: List[object] = [None] * len(instances)
    setup: List[Span] = []
    failed = 0
    start = time.perf_counter()
    rounds = 0
    while True:
        if len(setup) < SETUP_STARTS:
            setup.append(_fresh_start(speed))
        for index, instance in enumerate(instances):
            speed.probe()
            began = time.perf_counter()
            try:
                result = diversify(
                    instance.network, instance.similarity,
                    preferences=instance.preferences,
                )
            except Exception as problem:  # counted as a failed operation
                problems.append(f"{instance.name}: diversify raised {problem!r}")
                failed += 1
                continue
            spans[index].append((began, time.perf_counter()))
            if results[index] is None:
                results[index] = result
                if not _check(instance, result, problems):
                    failed += 1
            elif result.energy != results[index].energy:
                problems.append(f"{instance.name}: energy differs between rounds")
                failed += 1
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds > seconds:
            while len(setup) < SETUP_STARTS:
                setup.append(_fresh_start(speed))
            speed.probe()
            return spans, results, failed, setup


def _fresh_start(speed: Speedometer) -> Span:
    """The span of one fresh start, run to exit."""
    speed.probe()
    began = time.perf_counter()
    # A pipe, not DEVNULL: with a timeout and no pipe, subprocess polls for
    # the exit in sleeps of up to 50 ms, which rounds every start to that.
    subprocess.run([sys.executable, "-c", WARMUP], env=child_env(),
                   check=True, timeout=120, stdout=subprocess.PIPE)
    return began, time.perf_counter()


def run_plan(
    instances: Sequence[Instance], seconds: float, trace: bool,
    layer_names: Sequence[str],
) -> Outcome:
    """Measure one plan workload (untraced: end-to-end; traced: layers).

    Every time is normalised to the reference speed (see ``common``); an
    instance's time is the median over its solves.
    """
    problems: List[str] = []
    speed = Speedometer()
    recorder = _LayerRecorder() if trace else None
    if recorder is not None:
        recorder.start()
    try:
        spans, results, failed, setup_spans = _solve_rounds(
            instances, seconds, problems, speed
        )
    finally:
        if recorder is not None:
            recorder.stop()
    attempted = sum(len(s) for s in spans) + failed
    solved = [r for r in results if r is not None]
    solves = [[speed.normalise(*span) for span in own] for own in spans]
    latency = [median(own) for own in solves if own]
    solve_s = sum(latency)
    setup = [speed.normalise(*span) for span in setup_spans]
    samples = {
        "setup_s": setup,
        "setup_wall_s": [end - began for began, end in setup_spans],
        "solves_s": {inst.name: own for inst, own in zip(instances, solves)},
        "walls_s": {
            inst.name: [end - began for began, end in own]
            for inst, own in zip(instances, spans)
        },
        "reference_s": [took for _, took in speed.samples],
        "energy": {
            inst.name: r.energy for inst, r in zip(instances, results) if r
        },
        "lower_bound": {
            inst.name: r.lower_bound for inst, r in zip(instances, results) if r
        },
        "iterations": {
            inst.name: r.solver_result.iterations
            for inst, r in zip(instances, results) if r
        },
        "solver": sorted({r.solver_result.solver for r in solved}),
    }
    if recorder is not None:
        layers = recorder.layers()
        metrics = {name: layers.pop(name, 0.0) for name in layer_names}
        samples["unlisted_layers"] = layers
        return Outcome(
            metrics=metrics, headline=solve_s, attempted=attempted,
            failed=failed, problems=problems, samples=samples,
            trace_events=recorder.events,
        )
    energy = sum(r.energy for r in solved)
    metrics = {
        "setup_s": median(setup),
        "solve_s": solve_s,
        "energy": energy,
        "bound_ratio": sum(r.lower_bound for r in solved) / energy,
        "peak_rss_mb": peak_rss_mb(),
        "visible_ms_p50": 1000.0 * percentile(latency, 50),
        "visible_ms_p90": 1000.0 * percentile(latency, 90),
    }
    return Outcome(
        metrics=metrics, headline=solve_s, attempted=attempted,
        failed=failed, problems=problems, samples=samples,
    )


# ----------------------------------------------------------------- tracing


class _LayerRecorder:
    """Benchmark-side spans around the layer entry points ``diversify`` calls.

    The wrappers patch the names as ``diversify`` looks them up, so the
    program itself is unchanged.  A target that no longer exists is
    skipped, and its layer reports zero calls.
    """

    #: (module, attribute path, span name) of each wrapped entry point.
    TARGETS = (
        ("repro.core.diversify", "diversify", "e2e.diversify"),
        ("repro.core.diversify", "compile_plan", "e2e.compile_plan"),
        ("repro.mrf.sharded", "solve_plan", "e2e.solve_plan"),
        ("repro.mrf.batched", "replicated_problem_from_network",
         "e2e.replicated_problem"),
        ("repro.mrf.batched", "BatchedTRWSSolver.solve", "e2e.batched_solve"),
    )

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []
        self._trace = None
        self.events: List[dict] = []

    def start(self) -> None:
        import importlib

        from repro import obs

        self._trace = obs.Trace()
        obs.activate(self._trace)
        for module_name, path, span_name in self.TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent, None)
            original = getattr(owner, attribute, None) if owner else None
            if original is None:
                continue
            setattr(owner, attribute, self._wrap(original, span_name))
            self._undo.append(
                lambda owner=owner, attribute=attribute, original=original:
                setattr(owner, attribute, original)
            )

    def stop(self) -> None:
        from repro import obs

        for undo in reversed(self._undo):
            undo()
        self._undo.clear()
        if obs.current_trace() is self._trace:
            obs.deactivate()
        self.events = self._trace.events

    @staticmethod
    def _wrap(original, span_name: str):
        from repro import obs

        def wrapper(*args, **kwargs):
            with obs.span(span_name, cat="e2e") as span:
                result = original(*args, **kwargs)
                _annotate(span, span_name, result)
            return result

        return wrapper

    def layers(self) -> Dict[str, float]:
        from repro.obs.report import self_durations

        spans = [e for e in self.events if e.get("ph") == "X"]
        selfs = self_durations(spans)

        def of(name: str) -> List[dict]:
            return [e for e in spans if e["name"] == name]

        def seconds(name: str) -> float:
            return sum(e["dur"] for e in of(name)) / 1e6

        def arg_sum(name: str, key: str) -> float:
            return float(sum(e.get("args", {}).get(key, 0) for e in of(name)))

        solves = [e for e in spans if e["name"] == "trws.solve"]
        native = sum(
            1 for e in solves
            if str(e.get("args", {}).get("backend", "")).startswith("native")
        )
        plans = [e.get("args", {}) for e in of("e2e.solve_plan")]
        level_calls = sum(a.get("levels", 0) * a["iterations"] for a in plans)
        level_seconds = arg_sum("e2e.solve_plan", "level_seconds")
        return {
            "diversify.self_s": sum(
                s for e, s in zip(spans, selfs) if e["name"] == "e2e.diversify"
            ) / 1e6,
            "compile.s": seconds("e2e.compile_plan"),
            "compile.calls": float(len(of("e2e.compile_plan"))),
            "compile.edges": arg_sum("e2e.compile_plan", "edges"),
            "batched.s": seconds("e2e.replicated_problem")
            + seconds("e2e.batched_solve"),
            "batched.calls": float(len(of("e2e.batched_solve"))),
            "batched.iterations": arg_sum("e2e.batched_solve", "iterations"),
            "solve.s": seconds("e2e.solve_plan"),
            "solve.calls": float(len(of("e2e.solve_plan"))),
            "solve.iterations": arg_sum("e2e.solve_plan", "iterations"),
            "solve.levels": (
                arg_sum("e2e.solve_plan", "levels") / len(plans) if plans else 0.0
            ),
            "solve.level_calls": float(level_calls),
            "solve.us_per_level_call": (
                1e6 * level_seconds / level_calls if level_calls else 0.0
            ),
            "solve.native_share": native / len(solves) if solves else 0.0,
        }


def _annotate(span, span_name: str, result) -> None:
    """Attach the counts each layer metric needs to its wrapper span."""
    if span_name == "e2e.compile_plan":
        span.add(edges=int(result.plan.edge_count))
    elif span_name in ("e2e.solve_plan", "e2e.batched_solve"):
        span.add(iterations=int(result.iterations))
        stats = getattr(result, "stats", None)
        if span_name == "e2e.solve_plan" and stats is not None:
            per_level = stats.fwd_level_seconds + stats.bwd_level_seconds
            span.add(levels=len(per_level), level_seconds=sum(per_level))
