#!/usr/bin/env python3
"""The repository benchmark: the Table 3 flow and the ECO search.

Run from the repository root::

    python3 perfbench/run.py --workload table3-flow --seed 7 --seconds 25 --trace 0

One process runs one workload, single-threaded, as a closed loop: the
next operation starts when the previous one has finished.  With
``--trace 0`` it reports the end-to-end metrics, measured with tracing
off and timed at a reference speed (see ``speed.py``) that takes the
shared host's changing speed out of them; with ``--trace 1`` it reports
the per-layer metrics from a traced run.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the run
environment.  README.md in this directory describes
the workloads and metrics.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import List, NamedTuple  # noqa: E402

from speed import REFERENCE_S, SpeedSampler  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("table3-flow", "greedy-200", "anneal-10k")
DEFAULT_SEED = 7
#: A seed no tuning used: a claimed gain must hold on it too.
HOLDOUT_SEED = 11


def clock(fn):
    """Call ``fn()``; returns (result, seconds, seconds), like ``measure``."""
    began = time.perf_counter()
    result = fn()
    took = time.perf_counter() - began
    return result, took, took


class Loop(NamedTuple):
    """What a closed loop measured and kept."""

    latencies: List[float]
    """Operation times as ``measure`` reports them."""
    net: List[float]
    """Operation times as the clock read them, less the sampler's time."""
    firsts: list
    """The first cycle's outcomes, kept whole."""
    summaries: list
    """Every outcome as the workload's ``summary`` reduces it."""
    rss_kb: int
    """Peak resident memory when the first cycle had ended."""


def closed_loop(op, summarize, seconds, cycle, measure):
    """Run ``op(index)`` back to back for ``seconds``, at least ``cycle`` times.

    ``measure`` times each operation: ``SpeedSampler.measure`` or ``clock``.
    Only the first cycle's outcomes are kept whole, the rest only as
    ``summarize`` reduces them, so the memory a run holds does not grow
    with the number of operations.  After the first cycle, another
    operation starts only while it can be expected to end in time.
    """
    latencies, net, summaries, firsts, rss_kb = [], [], [], [], 0
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        outcome, scaled, took = measure(lambda: op(len(latencies)))
        elapsed = time.perf_counter() - began
        latencies.append(scaled)
        net.append(took)
        summaries.append(summarize(outcome))
        if len(firsts) < cycle:
            firsts.append(outcome)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        del outcome
        if (len(latencies) >= cycle
                and time.perf_counter() - start + elapsed > seconds):
            return Loop(latencies, net, firsts, summaries, rss_kb)


def cycle_time(latencies, cycle):
    """Time of one cycle: the sum over its positions of their median latency."""
    return sum(statistics.median(latencies[i::cycle]) for i in range(cycle))


def percentile(values, q):
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(workload, seed, seconds, import_s, checks):
    """Set up ``setup_reps`` times, then run the closed loop untraced.

    Times are at reference speed; the run line keeps them as the clock
    read them too, less the sampler's own time.  ``import_s``, measured
    before the sampler starts, is a clock time in both: loading modules
    is file and memory work whose time the reference loop's speed does
    not predict.  The per-layer run does not sample: its spans are clock
    times.
    """
    sampler = SpeedSampler().start()
    setups, net_setups = [], []
    try:
        for _ in range(workload.setup_reps):
            inputs, scaled, took = sampler.measure(
                lambda: workload.setup(seed))
            setups.append(scaled)
            net_setups.append(took)
        loop = closed_loop(lambda index: workload.run(inputs, seed, index),
                           workload.summary, seconds, workload.cycle,
                           sampler.measure)
    finally:
        sampler.stop()
    ratios = workload.check(inputs, loop.firsts, loop.summaries, seed, checks)
    wall_s = cycle_time(loop.latencies, workload.cycle)
    trials = sum(x.trials for x in loop.summaries[:workload.cycle])
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "wall_s": (wall_s, "s"),
        "circuit_ms_p50": (percentile(loop.latencies, 50) * 1e3, "ms"),
        "circuit_ms_p66": (percentile(loop.latencies, 66) * 1e3, "ms"),
        "trial_us": (wall_s / trials * 1e6, "us"),
        "peak_rss_mb": (loop.rss_kb / 1024.0, "MB"),
        "power_ratio": (ratios["power_ratio"], "ratio"),
        "sim_power_ratio": (ratios["sim_power_ratio"], "ratio"),
        "delay_ratio": (ratios["delay_ratio"], "ratio"),
    }
    details = {
        "operations": len(loop.latencies), "setups": len(setups),
        "trials_per_cycle": trials,
        "digests": sorted({x.key for x in loop.summaries}),
        "clock": {"setup_s": import_s + statistics.median(net_setups),
                  "wall_s": cycle_time(loop.net, workload.cycle),
                  "operation_s": loop.net},
        "reference_s": {"tuned": REFERENCE_S,
                        "mean": statistics.mean(sampler.samples),
                        "samples": len(sampler.samples)},
    }
    return metrics, details


def per_layer(workload, seed, seconds, checks):
    """One traced set-up, untraced then traced operations, then the probe.

    Each half of the time budget runs at least one cycle; the difference
    of their cycle times is the tracing overhead.
    """
    from layers import Unit, layer_metrics

    with Unit("setup") as setup_unit:
        inputs = workload.setup(seed)
    units = [setup_unit]
    plain = closed_loop(lambda index: workload.run(inputs, seed, index),
                        workload.summary, seconds / 2, workload.cycle, clock)

    # The traced operations go on where the untraced ones stopped, so an
    # index means the same input in both.
    offset = len(plain.latencies)

    def traced_op(index):
        with Unit("op") as unit:
            outcome = workload.run(inputs, seed, offset + index)
        units.append(unit)
        return outcome

    traced = closed_loop(traced_op, workload.summary, seconds / 2,
                         workload.cycle, clock)
    with Unit("probe") as probe_unit:
        counts = workload.probe(inputs, traced.firsts, seed)
    units.append(probe_unit)
    traced_wall = [u.wall_ns / 1e9 for u in units if u.kind == "op"]
    overhead_pct = 100.0 * (cycle_time(traced_wall, workload.cycle)
                            / cycle_time(plain.latencies, workload.cycle)
                            - 1.0)
    summaries = plain.summaries + traced.summaries
    # Traced and untraced operations must agree exactly.
    workload.check(inputs, plain.firsts, summaries, seed, checks)
    details = {"operations": len(summaries),
               "digests": sorted({x.key for x in summaries})}
    return layer_metrics(units, counts, overhead_pct), details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run the benchmark "
              "from a full checkout", file=sys.stderr)
        return 2

    # The compiled kernels are the production route; once the flag is
    # gone the variable is simply ignored.
    os.environ["REPRO_COMPILED"] = "1"
    # Keep the environment probe's git lookup inside the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, Checks

    from repro.bench.runner import environment_meta

    import_s = time.perf_counter() - _START
    workload = WORKLOADS[args.workload]
    checks = Checks()
    if args.trace:
        metrics, details = per_layer(workload, args.seed, args.seconds,
                                     checks)
    else:
        metrics, details = end_to_end(workload, args.seed, args.seconds,
                                      import_s, checks)
    details.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, default_seed=DEFAULT_SEED,
        holdout_seed=HOLDOUT_SEED, nproc=len(os.sched_getaffinity(0)),
        REPRO_COMPILED=os.environ["REPRO_COMPILED"],
        environment=environment_meta(), failures=checks.failures,
    )
    print(json.dumps({"run": details}, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
