"""Pluggable (P, D) backends for the incremental engine.

A backend owns the arithmetic of signal-statistics propagation; the
:class:`~repro.incremental.cache.StatsCache` owns the dirty-set
bookkeeping and the per-net ``(prob, dens)`` arrays, indexed by the
net ids of the circuit's current
:class:`~repro.compiled.circuit.CompiledCircuit`, and calls the
backend through two methods:

``settle(cc, input_stats)``
    Propagate everything from scratch and return fresh ``(prob,
    dens)`` arrays over ``cc``'s nets.  Called once, at cache
    construction.

``update(cc, gate_ids, input_ids, input_stats, prob, dens)``
    Recompute, in place, the nets ``input_ids`` (primary inputs whose
    :class:`SignalStats` changed) and the outputs of ``gate_ids``,
    reading clean fanin values from the arrays.

``full(circuit, input_stats)`` is the name-keyed spelling every
backend shares: ``settle`` on the circuit's lowering, as a
net-to-:class:`SignalStats` map
(:meth:`~repro.compiled.circuit.CompiledCircuit.stats_map`).

The contract that makes the whole subsystem trustworthy: after any
supported edit sequence, ``settle`` on the edited circuit and the
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

from typing import Dict, Mapping, Optional, Sequence, Tuple, Type

import numpy as np

from ..circuit.netlist import Circuit, CircuitError
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
    #: analytic backend keeps no state, so it follows the cache's
    #: re-lowered arrays; the sampled one's lane histories are keyed to
    #: the old structure.
    supports_structure = False

    def settle(self, cc: CompiledCircuit,
               input_stats: Mapping[str, SignalStats]
               ) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def update(self, cc: CompiledCircuit, gate_ids: np.ndarray,
               input_ids: Sequence[int],
               input_stats: Mapping[str, SignalStats],
               prob: np.ndarray, dens: np.ndarray) -> None:
        raise NotImplementedError

    def full(self, circuit: Circuit,
             input_stats: Mapping[str, SignalStats]) -> Dict[str, SignalStats]:
        """Every net's statistics, from scratch, as a name-keyed map."""
        cc = get_compiled(circuit)
        return cc.stats_map(*self.settle(cc, input_stats))


class AnalyticBackend(StatsBackend):
    """Gate-local analytic density propagation (the paper's engine).

    Stateless: ``settle`` is one level-batched sweep of the circuit's
    :class:`~repro.compiled.circuit.CompiledCircuit` arrays
    (:meth:`~repro.compiled.circuit.CompiledCircuit.stats_arrays`) and
    ``update`` resettles the dirty gates on the cache's arrays
    (:meth:`~repro.compiled.circuit.CompiledCircuit.resettle_stats`).
    Each gate's output (P, D) is a pure function of its fanin
    statistics, so resettling a dirty cone level by level reproduces a
    from-scratch sweep exactly; both are bit-identical to the per-gate
    :func:`~repro.stochastic.density.local_stats` oracle.
    """

    name = "analytic"
    supports_structure = True

    def settle(self, cc, input_stats):
        return cc.stats_arrays(input_stats)

    def update(self, cc, gate_ids, input_ids, input_stats, prob, dens):
        for i in input_ids:
            stats = input_stats[cc.nets[i]]
            prob[i] = stats.probability
            dens[i] = stats.density
        cc.resettle_stats(gate_ids, prob, dens)


class SampledBackend(StatsBackend):
    """Bit-parallel Monte Carlo measurement with lane-history re-settling.

    ``settle`` draws every input's Markov-chain stream from its own RNG
    substream (:func:`repro.sim.bitsim.stream_rng`) as ``(steps,
    lanes/64)`` uint64 blocks (:func:`repro.compiled.sampled.markov_stream_blocks`),
    settles the whole circuit once on a
    :class:`~repro.compiled.sampled.SampledKernel`, and keeps the
    per-net, per-step history.  ``update`` then re-settles only the
    dirty gates' streams against the stored history — cone-sized work
    per edit — and re-measures only the updated nets.  Streams, packing
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

    The step size ``dt`` is resolved once, at ``settle`` time, by
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
        #: are fixed per backend, and ``dt`` is frozen at ``settle``
        #: time).  The rollback leg of every
        #: :class:`~repro.incremental.eco.WhatIf` trial restores
        #: statistics the run has already drawn a stream for, so it
        #: must not redraw it.  The cached arrays are never mutated (the
        #: kernel copies them into its history), so sharing them is
        #: safe.
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

    def _measure(self, net_ids: Sequence[int], prob: np.ndarray,
                 dens: np.ndarray) -> None:
        """Write the measured (P, D) of ``net_ids`` into the arrays."""
        report = self._kernel.report(net_ids, self.dt)
        nets = self._kernel.cc.nets
        for i in net_ids:
            stats = report.measured_stats(nets[i])
            prob[i] = stats.probability
            dens[i] = stats.density

    def settle(self, cc, input_stats):
        cc.circuit.validate()
        inputs = cc.circuit.inputs
        self.dt = resolve_dt((input_stats[net] for net in inputs), self.dt)
        self._stream_cache.clear()  # dt may have changed; old words are stale
        self._kernel = SampledKernel(cc, self.lanes, self.steps)
        self._kernel.settle_full({
            net: self._input_stream(net, input_stats[net]) for net in inputs
        })
        prob = np.empty(len(cc.nets))
        dens = np.empty(len(cc.nets))
        self._measure(range(len(cc.nets)), prob, dens)
        return prob, dens

    def update(self, cc, gate_ids, input_ids, input_stats, prob, dens):
        kernel = self._kernel
        if kernel is None:
            raise RuntimeError("update() before settle()")
        for i in input_ids:
            net = cc.nets[i]
            kernel.set_input_stream(net, self._input_stream(net,
                                                            input_stats[net]))
        kernel.resettle(gate_ids)
        self._measure([*input_ids, *cc.out_net[gate_ids].tolist()],
                      prob, dens)


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
