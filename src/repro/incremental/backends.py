"""Pluggable (P, D) backends for the incremental engine.

A backend owns the arithmetic of signal-statistics propagation; the
:class:`~repro.incremental.cache.StatsCache` owns the dirty-set
bookkeeping and calls the backend through two methods:

``full(circuit, input_stats)``
    Propagate everything from scratch and return the complete
    net-to-:class:`SignalStats` map.  Called once, at cache
    construction.  A backend may keep internal state (both backends
    here keep their per-net arrays across updates).

``update(circuit, dirty_gates, input_stats, changed_inputs, net_stats)``
    Re-propagate exactly ``dirty_gates`` — already sorted in
    topological order — plus the ``changed_inputs``, reading clean
    fanin values from ``net_stats`` (the cache's current map, which the
    backend must not mutate).  Returns the new statistics for the
    recomputed nets only.

The contract that makes the whole subsystem trustworthy: after any
supported edit sequence, ``full`` on the edited circuit and the
accumulated ``update`` results must be **bit-identical** (exact float
equality, not approximate).  Both backends here achieve it the same
way — the incremental path runs the very same batched kernels of
:mod:`repro.compiled`, in the same level order, on the same operands
as the from-scratch path — and both kernels are bit-identical to the
readable per-gate models they lower (:func:`~repro.stochastic.density.local_stats`
and the big-int :mod:`repro.sim.bitsim` streams).

:data:`ENGINES` is the one table of engines by name; each class states
its ``knobs``, whether it is ``seeded`` and whether it
``supports_structure``, and every entry point reads them through
:func:`engine_kwargs` and :func:`refuse_structure`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple, Type

import numpy as np

from ..circuit.netlist import Circuit, CircuitError, GateInstance
from ..compiled.circuit import CompiledCircuit, get_compiled
from ..compiled.sampled import SampledKernel, markov_stream_blocks
from ..sim.bitsim import DEFAULT_LANES, resolve_dt, resolve_seed, stream_rng
from ..stochastic.signal import SignalStats

__all__ = ["StatsBackend", "AnalyticBackend", "SampledBackend", "ENGINES",
           "DEFAULT_ENGINE", "STRUCTURE_ENGINE", "KnobError", "engine_kwargs",
           "refuse_structure", "make_backend"]


class StatsBackend:
    """Abstract backend; see the module docstring for the contract."""

    name = "abstract"
    #: The constructor's keywords besides ``seed``.
    knobs: Tuple[str, ...] = ()
    #: Whether the constructor takes ``seed``, the run's seed.
    seeded = False
    #: Whether ``update`` stays correct across structural edits: the
    #: analytic backend re-lowers and reseeds from the cache's map; the
    #: sampled one's lane histories are keyed to the old structure.
    supports_structure = False

    def full(self, circuit: Circuit,
             input_stats: Mapping[str, SignalStats]) -> Dict[str, SignalStats]:
        raise NotImplementedError

    def update(self, circuit: Circuit,
               dirty_gates: Sequence[GateInstance],
               input_stats: Mapping[str, SignalStats],
               changed_inputs: FrozenSet[str],
               net_stats: Mapping[str, SignalStats]) -> Dict[str, SignalStats]:
        raise NotImplementedError


def _gate_ids(cc: CompiledCircuit,
              dirty_gates: Sequence[GateInstance]) -> np.ndarray:
    return np.fromiter((cc.gate_id[g.name] for g in dirty_gates),
                       dtype=np.int64, count=len(dirty_gates))


class AnalyticBackend(StatsBackend):
    """Gate-local analytic density propagation (the paper's engine).

    Runs on the circuit's :class:`~repro.compiled.circuit.CompiledCircuit`
    arrays: ``full`` is one level-batched sweep, and the live
    ``(prob, dens)`` arrays then persist across updates — every
    mutation of the cache's statistics flows through :meth:`update`,
    so they never drift from the cache's map.  Each gate's output
    (P, D) is a pure function of its fanin statistics, so resettling a
    dirty cone level by level reproduces a from-scratch sweep exactly;
    both are bit-identical to the per-gate
    :func:`~repro.stochastic.density.local_stats` oracle.
    """

    name = "analytic"
    supports_structure = True

    def __init__(self):
        self._cc: Optional[CompiledCircuit] = None
        self._prob: Optional[np.ndarray] = None
        self._dens: Optional[np.ndarray] = None

    def full(self, circuit, input_stats):
        self._cc = get_compiled(circuit)
        self._prob, self._dens = self._cc.stats_arrays(input_stats)
        stats: Dict[str, SignalStats] = {
            net: input_stats[net] for net in circuit.inputs
        }
        for gid in range(len(self._cc.gate_names)):
            out = self._cc.num_inputs + gid
            stats[self._cc.nets[out]] = SignalStats(
                float(self._prob[out]), float(self._dens[out])
            )
        return stats

    def _rebuild(self, circuit, input_stats, net_stats) -> CompiledCircuit:
        """Re-lower after a structural edit, seeding from ``net_stats``.

        The previous lowering went stale (gate/net ids changed), but the
        cache's statistics map is still exact for every surviving net:
        the floats it holds were read out of these very arrays, so
        writing them back is lossless.  Nets new to the circuit start at
        zero — they belong to the dirty cone of this update and are
        resettled (in level order, before any sink reads them) below.
        """
        cc = self._cc = get_compiled(circuit)
        prob = np.zeros(len(cc.nets))
        dens = np.zeros(len(cc.nets))
        for i, net in enumerate(cc.nets):
            stats = net_stats.get(net)
            if stats is None and net in input_stats:
                stats = input_stats[net]
            if stats is not None:
                prob[i] = stats.probability
                dens[i] = stats.density
        self._prob, self._dens = prob, dens
        return cc

    def update(self, circuit, dirty_gates, input_stats, changed_inputs,
               net_stats):
        cc = self._cc
        if cc is None:
            raise RuntimeError("update() before full()")
        if cc.stale:
            cc = self._rebuild(circuit, input_stats, net_stats)
        updates: Dict[str, SignalStats] = {}
        for net in changed_inputs:
            stats = input_stats[net]
            updates[net] = stats
            net_index = cc.net_id[net]
            self._prob[net_index] = stats.probability
            self._dens[net_index] = stats.density
        cc.resettle_stats(_gate_ids(cc, dirty_gates), self._prob, self._dens)
        for gate in dirty_gates:
            out = cc.net_id[gate.output]
            updates[gate.output] = SignalStats(
                float(self._prob[out]), float(self._dens[out])
            )
        return updates


class SampledBackend(StatsBackend):
    """Bit-parallel Monte Carlo measurement with lane-history re-settling.

    ``full`` draws every input's Markov-chain stream from its own RNG
    substream (:func:`repro.sim.bitsim.stream_rng`) as ``(steps,
    lanes/64)`` uint64 blocks (:func:`repro.compiled.sampled.markov_stream_blocks`),
    settles the whole circuit once on a
    :class:`~repro.compiled.sampled.SampledKernel`, and keeps the
    per-net, per-step history.  ``update`` then re-settles only the
    dirty gates' streams against the stored history — cone-sized work
    per edit — and re-counts only the updated nets.  Streams, packing
    and counts match the big-int :mod:`repro.sim.bitsim` path bit for
    bit.

    Per-input substreams are the only draw order of the repository,
    so a fresh backend's ``full`` *is* the from-scratch sampled engine:
    ``propagate_stats(method="sampled", **kw)`` returns
    ``SampledBackend(**kw).full(...)``, and both equal the big-int
    :func:`repro.sim.bitsim.sampled_stats` for equal ``(lanes, steps,
    dt, seed)``.  Editing one input's :class:`SignalStats` regenerates
    only that input's stream, so the dirty set stays the input's fanout
    cone.

    The step size ``dt`` is resolved once, at ``full`` time, by
    :func:`repro.sim.bitsim.resolve_dt`, and then **frozen** — a
    statistics edit that re-derived ``dt`` would perturb every stream
    and dirty the whole circuit.  Pass an explicit ``dt`` when what-if
    edits may shorten dwell times below the initial ones.  ``seed=None``
    warns and falls back to ``0``.
    """

    name = "sampled"
    knobs = ("lanes", "steps", "dt")
    seeded = True

    def __init__(self, lanes: int = DEFAULT_LANES, steps: int = 64,
                 dt: Optional[float] = None, seed: Optional[int] = 0):
        if steps < 1:
            raise ValueError("need at least one time step")
        self.lanes = lanes
        self.steps = steps
        self.seed = resolve_seed(seed)
        self.dt = dt
        self._kernel: Optional[SampledKernel] = None
        #: Materialised input substreams, keyed by ``(net, P, D)`` and
        #: kept for the lifetime of the run (``seed``/``lanes``/``steps``
        #: are fixed per backend, and ``dt`` is frozen at ``full`` time).
        #: The rollback leg of every :class:`~repro.incremental.eco.WhatIf`
        #: trial restores statistics the run has already drawn a stream
        #: for, so it must not redraw it.  The cached arrays are never
        #: mutated (the kernel copies them into its history), so sharing
        #: them is safe.
        self._stream_cache: Dict[tuple, np.ndarray] = {}

    def _input_stream(self, net: str, stats) -> np.ndarray:
        """The net's packed stream, drawn once per distinct (P, D).

        Regenerating a substream is deterministic — ``stream_rng`` is
        rebuilt from ``(seed, net)`` every time — so caching the
        blocks changes nothing bit-wise; it only stops the inner trial
        loops from redrawing streams the run has already seen.
        """
        key = (net, stats.probability, stats.density)
        stream = self._stream_cache.get(key)
        if stream is None:
            stream = markov_stream_blocks(
                stats, self.lanes, self.steps, self.dt,
                stream_rng(self.seed, net),
            )
            self._stream_cache[key] = stream
        return stream

    def full(self, circuit, input_stats):
        circuit.validate()
        self.dt = resolve_dt((input_stats[net] for net in circuit.inputs),
                             self.dt)
        self._stream_cache.clear()  # dt may have changed; old words are stale
        self._kernel = SampledKernel(get_compiled(circuit), self.lanes,
                                     self.steps)
        streams = {
            net: self._input_stream(net, input_stats[net])
            for net in circuit.inputs
        }
        self._kernel.settle_full(streams)
        report = self._kernel.report(range(len(self._kernel.cc.nets)), self.dt)
        return report.stats_map()

    def update(self, circuit, dirty_gates, input_stats, changed_inputs,
               net_stats):
        kernel = self._kernel
        if kernel is None:
            raise RuntimeError("update() before full()")
        cc = kernel.cc
        for net in changed_inputs:
            kernel.set_input_stream(net, self._input_stream(net,
                                                            input_stats[net]))
        gate_ids = _gate_ids(cc, dirty_gates)
        kernel.resettle(gate_ids)
        updated = [cc.net_id[net] for net in changed_inputs]
        updated.extend(int(cc.out_net[gid]) for gid in gate_ids)
        report = kernel.report(updated, self.dt)
        return {net: report.measured_stats(net) for net in report.ones}


#: Every (P, D) engine by name, in the order choices and texts list them.
ENGINES: Dict[str, Type[StatsBackend]] = {
    cls.name: cls for cls in (AnalyticBackend, SampledBackend)
}
#: The paper's engine, used where no engine is named.
DEFAULT_ENGINE = AnalyticBackend.name
#: The engine structural edits need.
STRUCTURE_ENGINE = next(name for name, cls in ENGINES.items()
                        if cls.supports_structure)


class KnobError(ValueError):
    """Knobs given without their engine; the message is a template
    (``"`lanes` requires `backend=sampled`"``) for ``spec.render``."""


def engine_kwargs(engine: str, seed: int, **knobs) -> Dict[str, object]:
    """The knob rule: engine ``engine``'s constructor arguments.

    A given (not ``None``) knob the engine does not take raises
    :class:`KnobError` naming the engine that does; a seeded engine
    gets ``seed``, so one seed drives the whole run.  Names outside the
    table (``propagate_stats``'s ``"exact"``) take no knobs.
    """
    taken = ENGINES.get(engine, StatsBackend)
    given = {name: value for name, value in knobs.items() if value is not None}
    foreign = [name for name in given if name not in taken.knobs]
    if foreign:
        owner = next(name for name, cls in ENGINES.items()
                     if foreign[0] in cls.knobs)
        raise KnobError(", ".join(f"`{name}`" for name in foreign)
                        + f" requires `backend={owner}`")
    if taken.seeded:
        given["seed"] = seed
    return given


def refuse_structure(backend: StatsBackend) -> None:
    """The structure rule: refuse a structural edit ``backend`` cannot
    follow, before any of its state goes stale."""
    if not backend.supports_structure:
        raise CircuitError(
            f"the {backend.name!r} backend cannot maintain statistics "
            f"across structural edits (add-gate/remove-gate/rewire); use "
            f"the {STRUCTURE_ENGINE} backend"
        )


def make_backend(backend, **kwargs) -> StatsBackend:
    """Resolve a backend name of :data:`ENGINES` (or pass through an instance).

    ``kwargs`` go to the engine's constructor: its knobs and, for a
    seeded engine, ``seed``.  Every engine built from a name is built
    here: the caches' (so the search's), and
    :func:`~repro.stochastic.density.propagate_stats`'s analytic and
    sampled maps, which are ``make_backend(method, **kwargs).full``.
    """
    if isinstance(backend, StatsBackend):
        if kwargs:
            raise TypeError(
                f"backend arguments {sorted(kwargs)} conflict with an instance"
            )
        return backend
    engine = ENGINES.get(backend) if isinstance(backend, str) else None
    if engine is None:
        names = ", ".join(map(repr, ENGINES))
        raise ValueError(
            f"unknown backend {backend!r}; use {names} or an instance"
        )
    if kwargs and not (engine.knobs or engine.seeded):
        raise TypeError(f"the {backend} backend takes no arguments: "
                        f"{sorted(kwargs)}")
    return engine(**kwargs)
