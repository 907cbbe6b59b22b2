"""Process-parallel portfolio annealing: N seeded restarts, one winner.

Simulated annealing is a restart-friendly search: independent runs
from different RNG substreams explore different basins, and the best
of ``restarts`` runs dominates any single run.  This module shards
those restarts over worker processes — each worker rebuilds the
circuit from a plain-data spec and runs the ordinary
:func:`~repro.incremental.search.search_circuit` annealer on its own
:class:`~repro.incremental.cache.StatsCache` /
:class:`~repro.incremental.timing.TimingCache` and its own
:class:`~repro.compiled.circuit.CompiledCircuit` lowering — and merges
the outcomes deterministically.

Determinism is the design constraint, not an afterthought:

* restart ``i`` draws its seed from :func:`restart_seed` — a CRC
  substream of the base seed, the same scheme the samplers and the
  annealer itself use — so the work each restart does is a pure
  function of ``(circuit, input_stats, seed, i)`` and never of which
  process ran it;
* the merge picks the best objective score with a stable tie-break on
  the restart index;
* consequently the merged :class:`~repro.incremental.search.SearchResult`
  — and its canonical JSON artifact minus the stripped timing fields —
  is **byte-identical across any ``jobs`` setting** (the property
  ``tests/test_portfolio.py`` and ``benchmarks/bench_parallel_search.py``
  lock).

Workers receive only picklable plain data (:func:`circuit_spec`), so
the scheme is indifferent to fork/spawn start methods.  That includes
observability: when the parent traces, workers get the trace path and
clock origin in their payload, write ``portfolio.anneal`` spans (and
everything the annealer emits beneath them) to per-pid shard files
(:mod:`repro.obs.trace`), and the parent's auto-merge interleaves them
back into one timeline — none of which touches result artifacts.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from ..circuit.netlist import Circuit
from ..robust import faults as _faults
from ..stochastic.signal import SignalStats

__all__ = [
    "DEFAULT_RESTARTS",
    "PortfolioRun",
    "restart_seed",
    "circuit_spec",
    "circuit_from_spec",
    "run_restarts",
]

#: Restart count when a caller asks for a portfolio (``jobs=N``)
#: without sizing it.  Fixed — never derived from ``jobs`` — so the
#: same request with different worker counts does the same work.
DEFAULT_RESTARTS = 4


def restart_seed(seed: int, index: int) -> int:
    """The CRC-substream seed of restart ``index`` under base ``seed``.

    Mirrors :func:`repro.sim.bitsim.stream_rng`'s labelling scheme:
    stable across processes, platforms and restart-set sizes (adding a
    restart never reseeds the existing ones).
    """
    return zlib.crc32(f"portfolio:{seed}:{index}".encode("utf-8"))


# ----------------------------------------------------------------------
# Picklable circuit round-trip
# ----------------------------------------------------------------------
def _config_index(gate) -> Optional[int]:
    """Position of the gate's configuration in the template enumeration."""
    if gate.config is None:
        return None
    return gate.template.config_index(gate.config)


def circuit_spec(circuit: Circuit) -> Dict[str, object]:
    """A plain-data description a worker can rebuild the circuit from.

    Templates travel as ``(name, pdn_expr, pins)`` triples and
    configurations as indices into the deterministic
    :meth:`~repro.gates.library.GateTemplate.configurations`
    enumeration, so the rebuilt circuit is structurally and
    configuration-wise identical — gate creation order included, which
    topological tie-breaks and artifact byte-stability rely on.
    """
    return {
        "name": circuit.name,
        "templates": [
            (t.name, t.pdn_expr, list(t.pins)) for t in circuit.library
        ],
        "inputs": list(circuit.inputs),
        "outputs": list(circuit.outputs),
        "gates": [
            (
                gate.name,
                gate.template.name,
                [(pin, gate.pin_nets[pin]) for pin in gate.template.pins],
                gate.output,
                _config_index(gate),
            )
            for gate in circuit.gates
        ],
    }


def circuit_from_spec(spec: Mapping[str, object]) -> Circuit:
    """Rebuild a :func:`circuit_spec` circuit (inverse round-trip)."""
    from ..gates.library import GateLibrary, GateTemplate

    library = GateLibrary([
        GateTemplate(name, expr, tuple(pins))
        for name, expr, pins in spec["templates"]
    ])
    circuit = Circuit(spec["name"], library)
    for net in spec["inputs"]:
        circuit.add_input(net)
    for name, template_name, pin_nets, output, config_index in spec["gates"]:
        template = library[template_name]
        config = (None if config_index is None
                  else template.configurations()[config_index])
        circuit.add_gate(name, template_name, dict(pin_nets), output, config)
    for net in spec["outputs"]:
        circuit.add_output(net)
    return circuit


# ----------------------------------------------------------------------
# The worker
# ----------------------------------------------------------------------
def _run_restart(payload: Mapping[str, object]) -> Dict[str, object]:
    """One annealing restart in plain data, for the supervised fan-out.

    Runs in a worker process (or inline for ``jobs=1``); everything in
    and out is picklable, and everything out is a pure function of the
    payload.  When the parent was tracing, the payload carries the
    trace path and clock origin: the worker joins via
    :func:`repro.obs.trace.adopt` (a no-op under ``fork``, where the
    inherited tracer reroutes itself), brackets the whole restart in a
    ``portfolio.anneal`` span, and flushes before returning — pool
    children exit via ``os._exit``, which skips buffer flushing.
    """
    from ..obs import trace as _trace

    trace_ref = payload.get("trace")
    if trace_ref is not None:
        _trace.adopt(trace_ref[0], trace_ref[1])
    tracer = _trace.ACTIVE
    span = (tracer.span("portfolio.anneal", index=payload["index"],
                        seed=payload["search"].seed)
            if tracer is not None else _trace.NULL_SPAN)
    try:
        with span:
            outcome = _run_restart_body(payload)
            span.note(score=outcome["score"], trials=outcome["trials"],
                      accepted=outcome["accepted_count"])
            return outcome
    finally:
        _trace.flush()


def _run_restart_body(payload: Mapping[str, object]) -> Dict[str, object]:
    from .search import _single

    # Fault-injection site: kill-restart=K / crash-restart=K /
    # sleep-restart=K:SECS target the worker running restart K (one
    # env read when nothing is armed).
    _faults.fire("portfolio.restart", match=payload["index"])
    circuit = circuit_from_spec(payload["circuit"])
    input_stats = {
        net: SignalStats(probability, density)
        for net, probability, density in payload["input_stats"]
    }
    result = _single(circuit, input_stats, payload["search"],
                     model=payload["model"])
    score = result.objective.score(result.power_after, result.delay_after,
                                   result.power_before, result.delay_before)
    return {
        "index": payload["index"],
        "seed": result.seed,
        "score": score,
        "power_before": result.power_before,
        "power_after": result.power_after,
        "delay_before": result.delay_before,
        "delay_after": result.delay_after,
        "trials": result.trials,
        "rounds": result.rounds,
        "accepted_count": len(result.accepted),
        "gates_repropagated": result.gates_repropagated,
        "gates_retimed": result.gates_retimed,
        "budget_exhausted": result.budget_exhausted,
        "backend": result.backend,
        # Wall time of this restart, for trace/profiling readouts only:
        # the artifact's restart summaries select explicit keys, so it
        # never perturbs byte-stability across jobs settings.
        "elapsed_s": result.elapsed_s,
        "moves": [asdict(move) for move in result.accepted],
        "net_stats": [
            (net, stats.probability, stats.density)
            for net, stats in result.net_stats.items()
        ],
    }


@dataclass
class PortfolioRun:
    """What a supervised restart fan-out produced.

    ``outcomes`` is in restart order; a ``None`` entry is a restart
    that never completed (crashed/timed out past its retry budget, or
    interrupted).  Those entries are described in ``failures``.
    """

    outcomes: List[Optional[Dict[str, object]]]
    failures: List[Dict[str, object]] = field(default_factory=list)
    interrupted: bool = False


def run_restarts(circuit: Circuit,
                 input_stats: Mapping[str, SignalStats],
                 spec: "SearchSpec",
                 model=None,
                 *,
                 cached: Optional[Mapping[int, Dict[str, object]]] = None,
                 on_outcome: Optional[Callable[[Dict[int, Dict[str, object]]],
                                               None]] = None,
                 ) -> PortfolioRun:
    """Run ``spec.restarts`` seeded annealing restarts, ``spec.jobs`` at a time.

    Each worker runs :meth:`SearchSpec.restart` of ``spec`` — the
    restart's seed, no portfolio or run-descriptor fields — on a
    rebuilt circuit, with ``model`` as its power model.  Returns a
    :class:`PortfolioRun` with the per-restart outcome dicts in restart
    order.  Every ``jobs`` value fans out through
    :func:`repro.robust.supervise.fan_out`, with up to
    ``worker_retries`` retries per restart: ``jobs=1`` (without a
    ``deadline_s``) runs in this process — no fork, no pickling of
    numpy state — and higher values run one supervised process per
    restart, with crash/hang detection and a per-attempt
    ``deadline_s`` wall-time budget.  Either way a restart is a pure
    function of its payload, so retry counts and scheduling never
    change results — the artifact stays byte-identical across ``jobs``
    settings.

    ``cached`` pre-fills completed outcomes by restart index (the
    checkpoint/resume path — only the missing restarts run), and
    ``on_outcome`` fires in the parent with the accumulated
    ``{index: outcome}`` map after each completion (the checkpoint
    hook).  ``KeyboardInterrupt``/SIGTERM stops the fan-out and
    returns whatever completed with ``interrupted=True`` — the
    caller's anytime path — instead of raising.
    """
    from ..obs import trace as _trace
    from ..robust.supervise import fan_out

    tracer = _trace.ACTIVE
    trace_ref = ((tracer.path, tracer._t0)
                 if tracer is not None and tracer.path is not None else None)
    restarts = spec.restarts
    circuit_rows = circuit_spec(circuit)
    stats_rows = [
        (net, input_stats[net].probability, input_stats[net].density)
        for net in circuit.inputs
    ]
    results: Dict[int, Dict[str, object]] = dict(cached or {})
    payloads = [
        {
            "circuit": circuit_rows,
            "input_stats": stats_rows,
            "index": index,
            "search": spec.restart(index),
            "model": model,
            "trace": trace_ref,
        }
        for index in range(restarts)
        if index not in results
    ]

    def on_complete(task, done, total) -> None:
        if task.ok:
            results[payloads[task.index]["index"]] = task.value
            if on_outcome is not None:
                on_outcome(results)

    run = fan_out(_run_restart, payloads, spec.jobs,
                  retries=spec.worker_retries, deadline_s=spec.deadline_s,
                  on_complete=on_complete, label="portfolio.restart")
    # Under an interrupt, tasks the supervisor never resolved are
    # simply "not done yet" and stay out of the failure list.
    failures = [
        {
            "index": payloads[task.index]["index"],
            "status": task.status,
            "error": task.error,
        }
        for task in run.failed
        if not (run.interrupted and task.status == "interrupted")
    ]
    return PortfolioRun(
        outcomes=[results.get(index) for index in range(restarts)],
        failures=failures, interrupted=run.interrupted,
    )
