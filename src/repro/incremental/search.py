"""Delta-driven ECO search: incremental local search over what-if trials.

The paper frames low-power transistor reordering as a cost-driven
search over local transformations; :func:`search_circuit` is that
search, run on top of the incremental substrate instead of full
recomputes.  Every candidate move is priced by trial-applying it to a
live :class:`~repro.incremental.cache.StatsCache` through
:class:`~repro.incremental.eco.WhatIf`, then rolling it back.  A
reorder keeps the gate's function, so scoring one re-propagates no
statistics and reprices the gate alone; a retemplate re-propagates the
edited gate's fanout cone, never the whole circuit.

The greedy pure-power sweep goes one step further: all same-gate
candidates of a pass are priced in one vectorised kernel invocation
(:class:`_BatchPricer`) instead of per-move trials — reorders touch
only the gate's own power row, retemplate cones resettle on scratch
copies of the statistics cache's arrays — with scores, accept
decisions and the move trace bit-identical to the WhatIf path
(``tests/test_batch_pricing.py`` holds the artifact equality;
``benchmarks/bench_compiled_sampler.py`` times the pass against the
WhatIf path).

Two strategies, both deterministic for a given ``seed``:

``"greedy"``  steepest descent to a fixed point: per gate, trial every
              candidate move (batched in one :class:`WhatIf` so
              same-gate candidates overwrite each other and a
              retemplate cone is re-propagated once per candidate
              instead of twice),
              accept the best improving one, and re-enqueue its
              neighbourhood: the accepted gate's fanin drivers (the
              paths through them changed delay; their load did not)
              and, for template swaps, its fanout cone (their input
              statistics changed).
``"anneal"``  simulated annealing with a geometric temperature
              schedule.  The RNG comes from the same CRC-stable
              substream scheme as the samplers
              (:func:`repro.sim.bitsim.stream_rng`, seeded by
              ``(seed, crc32(label))``) — never a default-seeded
              ``random.Random`` — so the accepted-move trace is
              byte-stable across runs and processes.

Moves are gate-local: ``reorder`` (every other configuration of the
gate's template) and, opt-in, ``retemplate`` (same-pin-tuple library
cells; these change the logic function, so they stay off unless the
caller explicitly asks for a re-synthesis-style search).

Opt-in **structural** move families (``structural=``) run after the
main strategy, in canonical order: ``buffer`` inserts a buffer (a
``buf`` cell, or an inverter pair when the library has none) on the K
most-loaded multi-sink nets; ``dup`` duplicates the drivers of the K
most-loaded multi-sink nets and moves half the sink pins onto the
copy; ``sweep`` removes dead gates (no sinks, output not a primary
output) in one reverse-topological pass.  Each candidate is a short
sequence of structural edits (``AddGate``/``RemoveGate``/``RewireNet``)
priced through one rolled-back :class:`WhatIf` trial and greedily
accepted when improving; accepted moves record list-valued script
entries that replay through the same ``repro eco`` JSON vocabulary as
everything else.  Structural families need a backend that can maintain
statistics across structural edits (the analytic one; sampled backends
refuse).

Objectives are weighted, baseline-normalised power/delay scores.  All
delay reads go through a live
:class:`~repro.incremental.timing.TimingCache` on the searched
circuit: delay-bearing objectives price every candidate
move cone-locally (arrival re-propagation with early cut-off instead
of a full STA per candidate — ``benchmarks/bench_incremental_timing.py``
holds this to a >= 10x floor), and the pure power objective still only
reads delay per *accepted* move, now cone-sized too.
"""

from __future__ import annotations

import json
import math
import time
import zlib
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuit.netlist import (
    AddGate,
    Circuit,
    RemoveGate,
    RewireNet,
    SetConfig,
    SetTemplate,
)
from ..compiled.circuit import CompiledCircuit, stats_class
from ..compiled.power import power_class, stacked_class
from ..obs import trace as _trace
from ..obs.metrics import REGISTRY as _GLOBAL_METRICS
from ..robust import faults as _faults
from ..robust.checkpoint import (
    DEFAULT_CHECKPOINT_EVERY,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from ..sim.bitsim import stream_rng
from ..stochastic.signal import SignalStats
from .backends import engine_kwargs
from .cache import StatsCache
from .eco import (
    WhatIf,
    apply_eco_edit,
    edit_entry,
    resolve_edit,
    script_edit_label,
)
from .spec import STRUCTURAL_FAMILIES, Objective, SearchSpec, make_objective
from .timing import TimingCache

__all__ = [
    "STRUCTURAL_FAMILIES",
    "Objective",
    "make_objective",
    "SearchSpec",
    "Move",
    "AcceptedMove",
    "SearchResult",
    "swap_groups",
    "enumerate_moves",
    "search_circuit",
]

#: Structural moves accepted across all searches of the process
#: (:mod:`repro.obs.metrics` global registry; snapshotted into traces).
_MOVES_STRUCTURAL = _GLOBAL_METRICS.counter("search.moves_structural")

#: Checkpoints written / runs resumed across the process (robust layer).
_CHECKPOINTS_SAVED = _GLOBAL_METRICS.counter("robust.checkpoints")
_RESUMES = _GLOBAL_METRICS.counter("robust.resumes")

#: Accept only strictly improving greedy moves beyond this score margin
#: (scores are baseline-normalised, so this is a relative threshold);
#: keeps float noise from producing accept/undo churn.
_TOL = 1e-12


# ----------------------------------------------------------------------
# Move enumeration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Move:
    """One candidate local transformation of one gate.

    ``reorder`` and ``retemplate`` moves carry a single edit; the
    structural families (``buffer``/``dup``/``sweep``) carry a tuple of
    structural edits applied as one unit — ``gate`` then names the
    structural anchor (the driver being shielded, the gate duplicated
    or removed) and ``label`` the human-readable trace form.
    """

    gate: str
    kind: str  # "reorder" | "retemplate" | a STRUCTURAL_FAMILIES member
    edit: Union[SetConfig, SetTemplate, Tuple[object, ...]]
    label: Optional[str] = None

    @property
    def structural(self) -> bool:
        return isinstance(self.edit, tuple)

    @property
    def edits(self) -> Tuple[object, ...]:
        """The move's edit sequence (a 1-tuple for a single-edit move)."""
        return self.edit if isinstance(self.edit, tuple) else (self.edit,)

    def script_entry(self, circuit: Circuit
                     ) -> Union[Dict[str, object], List[Dict[str, object]]]:
        """The ``repro eco`` JSON vocabulary form of this move.

        A single-edit move returns one entry dict; a structural move
        returns the list of entries its edit sequence replays as
        (flattened into scripts by :attr:`AcceptedMove.entries`).
        """
        if isinstance(self.edit, tuple):
            return [edit_entry(circuit, edit) for edit in self.edit]
        return edit_entry(circuit, self.edit)


def swap_groups(circuit: Circuit) -> Dict[Tuple[str, ...], List[str]]:
    """Same-pin-tuple template groups of the circuit's library.

    Positional rebinding keeps any same-arity swap structurally valid;
    restricting to identical pin tuples keeps the candidate set the
    realistic one (the grouping the edit-equivalence property tests
    use).  Only groups with at least two members are returned.
    """
    groups: Dict[Tuple[str, ...], List[str]] = {}
    for template in circuit.library:
        groups.setdefault(template.pins, []).append(template.name)
    return {pins: names for pins, names in groups.items() if len(names) > 1}


def enumerate_moves(circuit: Circuit, gate_name: str,
                    retemplate: bool = False,
                    groups: Optional[Mapping[Tuple[str, ...], Sequence[str]]] = None,
                    ) -> List[Move]:
    """Candidate moves for one gate, in deterministic order.

    Reorder moves (every configuration other than the current one)
    come first; retemplate moves (same-pin-tuple cells, only with
    ``retemplate=True``) follow.  The split matters to the batched
    trial loop: all reorder candidates share the gate's current
    template, so they may overwrite each other inside one
    :class:`WhatIf`, but never after a template swap.
    """
    gate = circuit.gate(gate_name)
    current = gate.effective_config().key()
    moves = [
        Move(gate_name, "reorder", SetConfig(gate_name, config))
        for config in gate.template.configurations()
        if config.key() != current
    ]
    if retemplate:
        if groups is None:
            groups = swap_groups(circuit)
        for name in groups.get(gate.template.pins, ()):
            if name != gate.template.name:
                moves.append(
                    Move(gate_name, "retemplate", SetTemplate(gate_name, name))
                )
    return moves


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AcceptedMove:
    """One committed move of the search trace."""

    index: int
    """Acceptance order (0-based)."""

    trial: int
    """Candidate evaluations performed when this move was accepted."""

    gate: str
    kind: str
    label: str
    entry: Union[Dict[str, object], List[Dict[str, object]]]
    """The move in the ``repro eco`` JSON vocabulary (replayable); a
    structural move carries its whole edit sequence as a list."""

    delta_power: float
    delta_delay: float
    power_after: float
    delay_after: float
    cone: int
    """Gates re-propagated to commit this move (dirty-cone work): 0 for
    a reorder, unless it flushes a cone an earlier trial left pending."""

    temperature: float
    """Annealing temperature at acceptance (0.0 under greedy descent)."""

    retimed: int = 0
    """Gate arrivals recomputed for this move's delay reading (the
    incremental-timing mirror of ``cone``; covers everything retimed
    since the previous accepted move's reading)."""

    @property
    def entries(self) -> List[Dict[str, object]]:
        """The move's script entries, edit by edit: the one place a
        structural move's list-valued ``entry`` is flattened."""
        return self.entry if isinstance(self.entry, list) else [self.entry]


class NetStats(Mapping[str, SignalStats]):
    """Every net's final (P, D), made :class:`SignalStats` on first read.

    Kept as the columns it was built from (net names, P, D): a search
    ends without building per-net objects, not even row tuples, whose
    allocation alone shifts the garbage collector's cadence at 10k nets.
    """

    def __init__(self, nets: Sequence[str], prob: Sequence[float],
                 dens: Sequence[float]):
        self.columns = (nets, prob, dens)

    @property
    def rows(self) -> List[Tuple[str, float, float]]:
        """``(net, P, D)`` rows, as a portfolio outcome ships them."""
        return list(zip(*self.columns))

    @cached_property
    def _map(self) -> Dict[str, SignalStats]:
        return {net: SignalStats(p, d) for net, p, d in zip(*self.columns)}

    def __getitem__(self, net: str) -> SignalStats:
        return self._map[net]

    def __iter__(self):
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)


@dataclass
class SearchResult:
    """The searched circuit plus the full bookkeeping of how it got there."""

    circuit: Circuit
    accepted: List[AcceptedMove]
    net_stats: Mapping[str, SignalStats]
    power_before: float
    power_after: float
    delay_before: float
    delay_after: float
    trials: int
    """Candidate moves evaluated (trial-applied and scored)."""

    rounds: int
    gates_repropagated: int
    """Total gate stat re-propagations the cache performed for the search."""

    strategy: str
    objective: Objective
    seed: int
    backend: str
    budget_exhausted: bool = False
    elapsed_s: float = 0.0
    gates_retimed: int = 0
    """Total gate arrival recomputations the timing cache performed for
    the search (delay-bearing objectives price every trial through it;
    a naive searcher would pay a full STA — ``trials * gates`` arrival
    computations — instead)."""

    restarts: Optional[List[Dict[str, object]]] = None
    """Per-restart summaries of a portfolio run (``None`` for a single
    search).  Pure functions of ``(circuit, input_stats, seed)`` — no
    wall-clock fields — so the artifact stays byte-identical across
    ``jobs`` settings."""

    restart_index: Optional[int] = None
    """Which restart the headline results (trace, power, delay) came
    from: the best objective score, ties broken by restart index."""

    jobs: int = 1
    """Worker processes the portfolio ran on (1 = inline).  A run
    descriptor like ``elapsed_s``, not a result: stripped from golden
    artifact comparisons by :func:`repro.bench.runner.strip_timing`."""

    partial: bool = False
    """The search was interrupted (SIGTERM/Ctrl-C) or lost restarts it
    could not recover; the result is the best state reached, not the
    full run.  Partial artifacts carry ``"partial": true`` — complete
    runs omit the key entirely, so their bytes are unchanged."""

    failures: Optional[List[Dict[str, object]]] = None
    """Portfolio restarts that did not complete (after supervision
    retries), as ``{"index", "status", "error"}`` rows; ``None`` when
    everything ran."""

    interrupted: bool = False
    """The run stopped on SIGTERM/Ctrl-C specifically (a subset of
    ``partial``); the CLI exits 130 for these.  Not serialised —
    ``partial`` is the artifact-level signal."""

    @property
    def reduction(self) -> float:
        if self.power_before <= 0.0:
            return 0.0
        return 1.0 - self.power_after / self.power_before

    def eco_script(self) -> List[Dict[str, object]]:
        """The accepted moves as a replayable ``repro eco`` JSON script.

        Structural moves carry list-valued entries (one edit sequence);
        they flatten (:attr:`AcceptedMove.entries`), so the script
        replays edit by edit in the exact order the search committed
        them.
        """
        return [dict(entry) for move in self.accepted
                for entry in move.entries]

    def to_artifact(self, meta: Optional[Mapping[str, object]] = None
                    ) -> Dict[str, object]:
        """Canonical JSON artifact (``repro bench`` schema conventions).

        Deterministic for a fixed seed: every field other than
        ``elapsed_s`` (stripped by
        :func:`repro.bench.runner.strip_timing`) is a pure function of
        the inputs, so repeated runs are byte-identical after
        :func:`repro.bench.runner.dumps_artifact`.
        """
        from ..bench.runner import SCHEMA_VERSION

        search: Dict[str, object] = {
            "circuit": self.circuit.name,
            "gates": len(self.circuit),
            "strategy": self.strategy,
            "objective": {
                "name": self.objective.name,
                "power_weight": self.objective.power_weight,
                "delay_weight": self.objective.delay_weight,
            },
            "seed": self.seed,
            "backend": self.backend,
        }
        if meta:
            search.update(meta)
        artifact: Dict[str, object] = {
            "schema": SCHEMA_VERSION,
            "search": search,
            "baseline": {"power": self.power_before, "delay": self.delay_before},
            "final": {
                "power": self.power_after,
                "delay": self.delay_after,
                "reduction": self.reduction,
            },
            "trials": self.trials,
            "rounds": self.rounds,
            "accepted_count": len(self.accepted),
            "gates_repropagated": self.gates_repropagated,
            "gates_retimed": self.gates_retimed,
            "budget_exhausted": self.budget_exhausted,
            "elapsed_s": self.elapsed_s,
            "moves": [
                {
                    "index": move.index,
                    "trial": move.trial,
                    "gate": move.gate,
                    "kind": move.kind,
                    "label": move.label,
                    "edit": move.entry,
                    "delta_power": move.delta_power,
                    "delta_delay": move.delta_delay,
                    "power_after": move.power_after,
                    "delay_after": move.delay_after,
                    "cone": move.cone,
                    "retimed": move.retimed,
                    "temperature": move.temperature,
                }
                for move in self.accepted
            ],
        }
        if self.restarts is not None:
            artifact["portfolio"] = {
                "count": len(self.restarts),
                "winner": self.restart_index,
                "jobs": self.jobs,
                "restarts": [dict(entry) for entry in self.restarts],
            }
            if self.failures:
                artifact["portfolio"]["failed"] = [
                    dict(entry) for entry in self.failures
                ]
        if self.partial:
            artifact["partial"] = True
        return artifact


# ----------------------------------------------------------------------
# Batched candidate pricing
# ----------------------------------------------------------------------
class _BatchPricer:
    """Vectorised same-gate candidate pricing through the compiled kernels.

    A pure-power greedy pass does not need a WhatIf trial per
    candidate: a ``reorder`` never changes the gate's logic function —
    net statistics, pin terminal counts and hence every net load are
    untouched, so only the gate's own power row moves — and a
    ``retemplate`` cone can be resettled on scratch copies of the
    cache's (P, D) arrays without ever editing the circuit.  Candidate
    totals rebuild the exact left fold
    :meth:`StatsCache.total_power` runs: the baseline per-gate totals
    (:meth:`StatsCache.power_totals`) with the repriced rows
    substituted, folded in topological order via
    ``np.cumsum`` (a strictly sequential partial sum, and ``0.0 + x``
    is exact), so scores, accept decisions and the move trace are
    bit-identical to the per-move WhatIf path.  For reorders neither
    path re-propagates any statistics; for retemplates the pricer
    saves the WhatIf path's cone re-propagations, so
    ``gates_repropagated`` shrinks.

    The pricer keeps no copy of the cache's structure: each batch reads
    the cache's current power kernel (and through it the lowering, its
    loads and fanin), and the baseline totals are dropped on an accept
    and whenever the lowering they were read from is no longer the
    current one.

    Bookkeeping parity with the rolled-back trials is explicit: every
    scored gate seeds the timing cache's dirty set through
    :meth:`TimingCache.mark_dirty` (a trial apply would have notified
    it, and rollback leaves the seeds in place), so ``retimed`` counts
    and accept-time delay readings match; pending rollback cones are
    flushed exactly where opening the WhatIf would have flushed them.
    Accept-time ``cone`` counts therefore match for reorder batches;
    after a retemplate batch the WhatIf path can still carry its last
    rollback cone into a reorder accept, which the pricer never
    leaves.

    :meth:`score` returns ``None`` when it cannot price a batch this
    way — retemplate candidates on the sampled backend (its lane
    histories cannot be trial-run from here) — and the caller falls
    back to the WhatIf loop.
    """

    def __init__(self, state: "_Search"):
        self.state = state
        self.cache = state.cache
        self._templates = {t.name: t for t in state.circuit.library}
        #: ``(lowering, per-gate totals in topological order)``.
        self._baseline: Optional[Tuple[CompiledCircuit, np.ndarray]] = None

    def invalidate(self) -> None:
        """Drop the cached baseline totals (an accept changed rows)."""
        self._baseline = None

    def _fold(self, cc: CompiledCircuit,
              replacements: List[Dict[int, float]]) -> np.ndarray:
        """Candidate totals: baseline rows with replacements, refolded."""
        if self._baseline is None or self._baseline[0] is not cc:
            self._baseline = (cc, self.cache.power_totals())
        rows = np.tile(self._baseline[1], (len(replacements), 1))
        for k, repl in enumerate(replacements):
            for pos, value in repl.items():
                rows[k, pos] = value
        return np.cumsum(rows, axis=1)[:, -1]

    def score(self, moves: Sequence["Move"]
              ) -> Optional[List[Tuple[float, float, float]]]:
        """Price one same-gate batch; ``None`` defers to the WhatIf loop."""
        state = self.state
        # Flush pending work exactly where opening the WhatIf would
        # have (leftover rollback cones from retemplate or structural
        # trials), so the accept-time cone sizes match the per-move
        # path.
        self.cache._refresh_power()
        kernel = self.cache.power_kernel()
        if moves[0].kind == "reorder":
            totals = self._reorder_totals(kernel, moves)
        else:
            totals = self._retemplate_totals(kernel, moves)
            if totals is None:
                return None
        state.timing.mark_dirty(moves[0].gate)
        state.trials += len(moves)
        delay = state.delay
        scored = []
        for total in totals:
            power = float(total)
            scored.append((
                state.objective.score(power, delay, state.power0,
                                      state.delay0),
                power, delay,
            ))
        return scored

    def _reorder_totals(self, kernel, moves: Sequence["Move"]) -> np.ndarray:
        """One kernel call prices every candidate ordering of the gate.

        A reorder changes nothing but the gate's own power row, and
        every candidate reads the same pin statistics and output load,
        so the candidates' programs stack into one lane each of a
        single evaluation (:func:`~repro.compiled.power.stacked_class`).
        """
        cache = self.cache
        cc = kernel.cc
        gate = self.state.circuit.gate(moves[0].gate)
        template = gate.template
        gid = cc.gate_id[gate.name]
        load = cc.net_loads(kernel.model.tech, cache.po_load)[cc.out_net[gid]]
        fanin = cc._fanin_matrix(np.asarray([gid], dtype=np.int64),
                                 len(template.pins))
        configs = [template.default_config() if move.edit.config is None
                   else move.edit.config for move in moves]
        *_, totals = stacked_class(template, configs).evaluate(
            kernel.model, cache.prob[fanin], cache.dens[fanin],
            np.asarray([load]))
        pos = cache.topo_index[gate.name]
        return self._fold(cc, [{pos: total} for total in totals[0].tolist()])

    def _retemplate_totals(self, kernel, moves: Sequence["Move"]
                           ) -> Optional[np.ndarray]:
        from .backends import AnalyticBackend

        cache = self.cache
        backend = cache.backend
        if not isinstance(backend, AnalyticBackend):
            return None
        cc = kernel.cc
        model = kernel.model
        tech = model.tech
        circuit = self.state.circuit
        gate_name = moves[0].gate
        gate = circuit.gate(gate_name)
        gid = cc.gate_id[gate_name]
        base_loads = cc.net_loads(tech, cache.po_load)
        topo = cache.topo_index
        cone = cache.index.cone_from_gates([gate_name])
        rest = sorted((name for name in cone if name != gate_name),
                      key=topo.__getitem__)
        rest_ids = np.fromiter((cc.gate_id[n] for n in rest),
                               dtype=np.int64, count=len(rest))
        fanin = cc._fanin_matrix(np.asarray([gid], dtype=np.int64),
                                 len(gate.template.pins))
        out = int(cc.out_net[gid])
        # Repriced rows besides the gate itself: its cone (new input
        # statistics) — with the gate, a superset of the trial's
        # power-dirty set, which narrows the cone to the sinks of nets
        # that moved (a row whose inputs did not move reprices to its
        # old total).  No load moves under a template swap, so every
        # row prices at the baseline loads.  The rows keep their
        # classes under every candidate, so they are grouped by class
        # once and each group is priced in one kernel call per
        # candidate.
        codes = cc.timing_code[rest_ids]
        groups = []
        for code in np.unique(codes):
            where = np.flatnonzero(codes == code)
            sub = rest_ids[where]
            cls = kernel.class_for_code(int(code))
            groups.append((
                cls, cc._fanin_matrix(sub, cls.arity),
                base_loads[cc.out_net[sub]],
                [topo[rest[i]] for i in where],
            ))
        replacements = []
        for move in moves:
            new_template = self._templates[move.edit.template]
            config = move.edit.config
            if config is None:
                config = new_template.default_config()
            compiled = new_template.compile_config(config)
            # Candidate statistics: the gate's new output first (it is
            # strictly the lowest level of its cone), then the rest of
            # the cone level-batched on scratch copies — the exact
            # group sequence a trial resettle of the cone runs.
            prob = cache.prob.copy()
            dens = cache.dens.copy()
            p_out, d_out = cc._stats_group(stats_class(compiled), fanin,
                                           prob, dens)
            prob[out] = p_out[0]
            dens[out] = d_out[0]
            cc.resettle_stats(rest_ids, prob, dens)
            *_, totals = power_class(compiled).evaluate(
                model, prob[fanin], dens[fanin], base_loads[[out]])
            repl = {topo[gate_name]: float(totals[0, 0])}
            for cls, matrix, loads, positions in groups:
                *_, totals = cls.evaluate(model, prob[matrix], dens[matrix],
                                          loads)
                repl.update(zip(positions, totals[:, 0].tolist()))
            replacements.append(repl)
        return self._fold(cc, replacements)


# ----------------------------------------------------------------------
# Checkpoint/resume (repro.robust)
# ----------------------------------------------------------------------
def _search_fingerprint(circuit: Circuit,
                        input_stats: Mapping[str, SignalStats],
                        params: Mapping[str, object]) -> int:
    """CRC of everything a checkpoint must agree with to be resumable.

    Covers the circuit (via :func:`~repro.incremental.portfolio.circuit_spec`
    — structure, templates, configurations, gate order), the input
    statistics and the search parameters, so a checkpoint from a
    different circuit, stimulus or parameterisation is rejected up
    front instead of resuming into silent divergence.  ``params`` is
    :meth:`SearchSpec.fingerprint`: run descriptors such as ``jobs``
    are guaranteed not to change results and are left out, so resuming
    across them is legal.
    """
    from .portfolio import circuit_spec

    body = {
        "spec": circuit_spec(circuit),
        "input_stats": [
            (net, input_stats[net].probability, input_stats[net].density)
            for net in circuit.inputs
        ],
        "params": dict(params),
    }
    return zlib.crc32(
        json.dumps(body, sort_keys=True, default=str).encode("utf-8")
    )


def _open_checkpoints(circuit: Circuit,
                      input_stats: Mapping[str, SignalStats],
                      spec: SearchSpec, kind: str
                      ) -> Tuple[Optional[int], Optional[Dict[str, object]]]:
    """The run's checkpoint fingerprint and its ``resume_path`` payload.

    Both are ``None`` when the spec neither checkpoints nor resumes.  A
    ``kind`` checkpoint with another fingerprint is refused up front.
    """
    if spec.checkpoint_path is None and spec.resume_path is None:
        return None, None
    fingerprint = _search_fingerprint(circuit, input_stats,
                                      spec.fingerprint())
    if spec.resume_path is None:
        return fingerprint, None
    payload = load_checkpoint(spec.resume_path, expect_kind=kind)
    if payload.get("fingerprint") != fingerprint:
        what = "portfolio search" if kind == "portfolio" else "search"
        raise CheckpointError(
            f"{spec.resume_path}: checkpoint belongs to a different {what} "
            f"(circuit, stimulus or parameters differ)"
        )
    _RESUMES.inc()
    return fingerprint, payload


def _replay(circuit: Circuit, moves: Sequence[AcceptedMove]) -> None:
    """Re-apply accepted moves, edit by edit, through their script form."""
    for move in moves:
        for entry in move.entries:
            circuit.apply_edit(resolve_edit(circuit, entry))


class _Checkpointer:
    """Periodic search-state snapshots, taken only at accept boundaries.

    :meth:`maybe_save` is called immediately after
    :meth:`_Search.accept` returns — the one point where both caches
    are guaranteed fully flushed (``accept`` ends with a
    ``total_power()`` + ``delay()`` read, which settles every pending
    dirty cone, rejected-trial leftovers included) — so a snapshot
    never needs to capture dirty-set state and a resumed run replays
    onto byte-identical cache contents.  The work counters are the
    search's own (:attr:`_Search.gates_repropagated`), which is what
    makes the resumed artifact's ``gates_repropagated``/``gates_retimed``
    equal the uninterrupted run's.
    """

    def __init__(self, spec: SearchSpec, state: "_Search", fingerprint: int):
        self.path = spec.checkpoint_path
        self.every = (spec.checkpoint_every if spec.checkpoint_every
                      is not None else DEFAULT_CHECKPOINT_EVERY)
        self.state = state
        self.fingerprint = fingerprint
        #: Rounds contributed by phases that already completed (the
        #: annealing step count once polish starts).
        self.rounds_prior = 0
        self._last_count = len(state.accepted)

    def payload(self, phase: str,
                phase_state: Dict[str, object]) -> Dict[str, object]:
        state = self.state
        return {
            "kind": "search",
            "fingerprint": self.fingerprint,
            "phase": phase,
            "phase_state": phase_state,
            "rounds_prior": self.rounds_prior,
            "accepted": [asdict(move) for move in state.accepted],
            "trials": state.trials,
            "fresh": state._fresh,
            "power": state.power,
            "delay": state.delay,
            "power0": state.power0,
            "delay0": state.delay0,
            "budget_exhausted": state.budget_exhausted,
            "gates_repropagated": state.gates_repropagated,
            "gates_retimed": state.gates_retimed,
        }

    def maybe_save(self, phase: str, phase_state_fn) -> None:
        """Snapshot if ``every`` accepts landed since the last snapshot."""
        if len(self.state.accepted) - self._last_count < self.every:
            return
        self.save(phase, phase_state_fn())

    def save(self, phase: str, phase_state: Dict[str, object]) -> None:
        with _trace.span("robust.checkpoint.save", phase=phase,
                         accepted=len(self.state.accepted)):
            save_checkpoint(self.path, self.payload(phase, phase_state))
        _CHECKPOINTS_SAVED.inc()
        self._last_count = len(self.state.accepted)


def _rng_state(rng: np.random.Generator) -> Dict[str, object]:
    """The generator's bit-generator state as JSON-safe plain data."""
    return rng.bit_generator.state


def _restore_rng(rng: np.random.Generator, state: Mapping[str, object]) -> None:
    """Restore a :func:`_rng_state` snapshot (exact: PCG64 state is
    integer-valued, and JSON round-trips Python ints losslessly)."""
    rng.bit_generator.state = dict(state)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class _Search:
    """Shared trial/accept machinery of both strategies."""

    def __init__(self, cache: StatsCache, timing: TimingCache,
                 spec: SearchSpec):
        self.cache = cache
        self.timing = timing
        self.circuit = cache.circuit
        self.spec = spec
        self.objective = objective = spec.objective
        self.retemplate = spec.retemplate
        self.groups = swap_groups(self.circuit) if spec.retemplate else {}
        self.trials = 0
        #: Monotonic suffix counter for structural-edit gate names;
        #: deterministic (never reset, rejected candidates consume
        #: values too), so move traces are byte-stable.
        self._fresh = 0
        self.accepted: List[AcceptedMove] = []
        self.budget_exhausted = False
        #: Set when a phase caught SIGTERM/Ctrl-C: the caller returns a
        #: best-so-far result flagged ``partial`` instead of raising.
        self.interrupted = False
        #: Work counted before a resumed run's snapshot; the caches
        #: count from zero (see :attr:`gates_repropagated`).
        self.repropagated_prior = 0
        self.retimed_prior = 0
        self.power = cache.total_power()
        self.delay = timing.delay()
        self.power0 = self.power
        self.delay0 = self.delay
        self.score = objective.score(self.power, self.delay,
                                     self.power0, self.delay0)
        # Batched candidate pricing replaces per-move trials only when
        # no candidate needs a delay reading: a delay-bearing objective
        # must retime every trial state, which requires the edit to be
        # applied for real.
        self._pricer: Optional[_BatchPricer] = None
        if not objective.needs_delay:
            self._pricer = _BatchPricer(self)

    # -- work counters ------------------------------------------------
    @property
    def gates_repropagated(self) -> int:
        """The search's stat re-propagations: its cache's counter (which
        skips the initial propagation) plus a resumed snapshot's."""
        return self.cache.gates_repropagated + self.repropagated_prior

    @property
    def gates_retimed(self) -> int:
        """The search's arrival recomputations, counted the same way."""
        return self.timing.gates_retimed + self.retimed_prior

    # -- budget -------------------------------------------------------
    def out_of_budget(self) -> bool:
        max_trials, max_moves = self.spec.max_trials, self.spec.max_moves
        if max_trials is not None and self.trials >= max_trials:
            self.budget_exhausted = True
        if max_moves is not None and len(self.accepted) >= max_moves:
            self.budget_exhausted = True
        return self.budget_exhausted

    # -- scoring ------------------------------------------------------
    def trial_delay(self) -> float:
        """Delay of the current (trial) circuit state; retimed only if scored.

        Cone-priced: the live :class:`TimingCache` re-propagates only
        the trial edit's timing-dirty cone (with early cut-off), not a
        full STA per candidate.
        """
        if not self.objective.needs_delay:
            return self.delay
        return self.timing.delay()

    def score_batch(self, moves: Sequence[Move]) -> List[Tuple[float, float, float]]:
        """Price one gate's candidates, or one structural move.

        Returns ``(score, power, delay)`` per move.  A pure-power
        objective's same-gate batch is one vectorised kernel pass
        (:class:`_BatchPricer`: bit-identical, no trial applies); the
        rest go through :meth:`trial_scores`."""
        tracer = _trace.ACTIVE
        span = (tracer.span("search.score_batch", gate=moves[0].gate,
                            kind=moves[0].kind, moves=len(moves))
                if tracer is not None else _trace.NULL_SPAN)
        with span:
            if self._pricer is not None and not moves[0].structural:
                scored = self._pricer.score(moves)
                if scored is not None:
                    if tracer is not None:
                        span.note(route="batch")
                    return scored
            if tracer is not None:
                span.note(route="whatif")
            return self.trial_scores(moves)

    def trial_scores(self, moves: Sequence[Move]
                     ) -> List[Tuple[float, float, float]]:
        """One trial per move, each with all its edits, in one rolled-back
        WhatIf.  Several moves must share one gate, so each apply
        overwrites the last: the state is always "baseline plus exactly
        this candidate", one cone per retemplate and none per reorder."""
        scored = []
        with WhatIf(self.cache) as trial:
            for move in moves:
                for edit in move.edits:
                    trial.apply(edit)
                power = trial.power()
                delay = self.trial_delay()
                self.trials += 1
                scored.append(
                    (self.objective.score(power, delay, self.power0,
                                          self.delay0),
                     power, delay)
                )
        return scored

    # -- acceptance ---------------------------------------------------
    def accept(self, move: Move, temperature: float = 0.0) -> None:
        """Commit one move for real and record the trace entry."""
        entry = move.script_entry(self.circuit)
        before = self.cache.gates_repropagated
        retimed_before = self.timing.gates_retimed
        for edit in move.edits:
            apply_eco_edit(self.cache, self.timing, edit)
        if move.structural:
            _MOVES_STRUCTURAL.inc()
        power_after = self.cache.total_power()
        cone = self.cache.gates_repropagated - before
        delay_after = self.timing.delay()
        retimed = self.timing.gates_retimed - retimed_before
        self.accepted.append(AcceptedMove(
            index=len(self.accepted),
            trial=self.trials,
            gate=move.gate,
            kind=move.kind,
            label=(move.label if move.label is not None
                   else script_edit_label(move.edits[0])),
            entry=entry,
            delta_power=power_after - self.power,
            delta_delay=delay_after - self.delay,
            power_after=power_after,
            delay_after=delay_after,
            cone=cone,
            retimed=retimed,
            temperature=temperature,
        ))
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.instant(
                "search.accept", gate=move.gate, kind=move.kind,
                trial=self.trials, delta_power=power_after - self.power,
                delta_delay=delay_after - self.delay, cone=cone,
                retimed=retimed, temperature=temperature,
            )
        self.power = power_after
        self.delay = delay_after
        self.score = self.objective.score(power_after, delay_after,
                                          self.power0, self.delay0)
        if self._pricer is not None:
            self._pricer.invalidate()

    def touched_gates(self, move: Move) -> List[str]:
        """Gates whose decision context an accepted ``move`` changed.

        The accepted gate's fanin drivers always re-enter the worklist.
        Their load did not change (no reorder or retemplate changes a
        pin capacitance), but the gate's new pin-to-output delays
        change the paths through them, which delay-aware objectives
        score; it is a neighbourhood heuristic, and narrowing it would
        change trial counts.  Template swaps additionally re-enqueue
        the accepted gate itself (a new configuration space) and its
        fanout cone (their input statistics changed).
        """
        touched = [g.name for g in self.circuit.fanin_drivers(move.gate)]
        if move.kind == "retemplate":
            touched.extend(self.cache.index.cone_from_gates([move.gate]))
        return touched

    def movable(self, gate_name: str) -> bool:
        gate = self.circuit.gate(gate_name)
        if gate.template.num_configurations() > 1:
            return True
        return bool(self.retemplate and self.groups.get(gate.template.pins))

    def fresh_gate_name(self, stem: str) -> str:
        """A gate name (with a free ``_n`` output net) unused anywhere."""
        circuit = self.circuit
        while True:
            self._fresh += 1
            name = f"{stem}{self._fresh}"
            net = f"{name}_n"
            if (name not in circuit and net not in circuit.inputs
                    and circuit.driver(net) is None):
                return name


def _greedy(state: _Search, checkpointer: Optional[_Checkpointer] = None,
            phase: str = "greedy",
            resume: Optional[Mapping[str, object]] = None) -> int:
    """Steepest descent to a fixed point; returns rounds run.

    ``resume`` restarts the descent mid-round from a checkpoint's phase
    state — the remaining queue (already in this round's order) plus
    the accumulated next-round worklist — without re-counting the
    current round.  Checkpoints are taken only right after an accept
    (the flushed safe point); SIGTERM/Ctrl-C sets ``state.interrupted``
    and returns the rounds finished so far instead of raising.
    """
    topo_index = state.cache.topo_index
    max_rounds = state.spec.max_rounds
    if resume is not None:
        rounds = int(resume["rounds"])
        queue = list(resume["queue"])
        worklist = set(resume["worklist"])
    else:
        rounds = 0
        queue = []
        worklist = {name for name in topo_index if state.movable(name)}
    try:
        while queue or (worklist and not state.out_of_budget()):
            if not queue:
                if max_rounds is not None and rounds >= max_rounds:
                    state.budget_exhausted = True
                    break
                rounds += 1
                queue = sorted(worklist, key=topo_index.__getitem__)
                worklist = set()
            queue_size = len(queue)
            tracer = _trace.ACTIVE
            span = (tracer.span("search.round", round=rounds, queue=queue_size)
                    if tracer is not None else _trace.NULL_SPAN)
            with span:
                accepted_before = len(state.accepted)
                while queue:
                    if state.out_of_budget():
                        queue = []
                        break
                    _faults.fire("search.step", match=len(state.accepted))
                    name = queue.pop(0)
                    moves = enumerate_moves(state.circuit, name,
                                            state.retemplate, state.groups)
                    best: Optional[Tuple[float, Move]] = None
                    # Reorder candidates share the gate's template and
                    # batch in one WhatIf; retemplate candidates batch
                    # in a second one (a reorder of the old template
                    # cannot legally follow a swap inside the same
                    # trial).
                    for kind in ("reorder", "retemplate"):
                        batch = [m for m in moves if m.kind == kind]
                        if not batch:
                            continue
                        for move, (score, _, _) in zip(
                                batch, state.score_batch(batch)):
                            delta = score - state.score
                            if delta < -_TOL and (best is None
                                                  or score < best[0]):
                                best = (score, move)
                    if best is not None:
                        state.accept(best[1])
                        worklist.update(
                            g for g in state.touched_gates(best[1])
                            if state.movable(g)
                        )
                        if checkpointer is not None:
                            checkpointer.maybe_save(phase, lambda: {
                                "rounds": rounds,
                                "queue": list(queue),
                                "worklist": sorted(worklist),
                            })
                if tracer is not None:
                    span.note(accepted=len(state.accepted) - accepted_before,
                              trials=state.trials, score=state.score)
    except KeyboardInterrupt:
        state.interrupted = True
    return rounds


def _anneal(state: _Search, checkpointer: Optional[_Checkpointer] = None,
            resume: Optional[Mapping[str, object]] = None) -> int:
    """Metropolis annealing over single random moves; returns trials run.

    ``resume`` restores a checkpoint's phase state: the movable-gate
    list and budget as captured at anneal start (recomputing them from
    the replayed circuit could diverge — an accepted retemplate can
    change a gate's configuration count), the step counter, and the
    exact PCG64 RNG position, so the continued schedule draws the same
    stream the uninterrupted run would.
    """
    topo_index = state.cache.topo_index
    spec = state.spec
    if resume is not None:
        movable = list(resume["movable"])
        if not movable:
            return int(resume["steps"])
        rng = stream_rng(spec.seed, f"anneal:{state.circuit.name}")
        _restore_rng(rng, resume["rng"])
        budget = int(resume["budget"])
        steps = int(resume["steps"])
    else:
        movable = sorted(
            (name for name in topo_index if state.movable(name)),
            key=topo_index.__getitem__,
        )
        if not movable:
            return 0
        rng = stream_rng(spec.seed, f"anneal:{state.circuit.name}")
        budget = (spec.anneal_trials if spec.anneal_trials is not None
                  else 32 * len(movable))
        steps = 0
    try:
        while steps < budget and not state.out_of_budget():
            _faults.fire("search.step", match=len(state.accepted))
            gate_name = movable[int(rng.integers(len(movable)))]
            moves = enumerate_moves(state.circuit, gate_name, state.retemplate,
                                    state.groups)
            temperature = spec.initial_temp * spec.cooling ** (
                steps // spec.moves_per_temp)
            steps += 1
            if not moves:
                continue  # unreachable for movable gates; spends budget anyway
            move = moves[int(rng.integers(len(moves)))]
            tracer = _trace.ACTIVE
            span = (tracer.span("search.trial", gate=gate_name, kind=move.kind,
                                step=steps)
                    if tracer is not None else _trace.NULL_SPAN)
            with span:
                score, _, _ = state.trial_scores([move])[0]
                delta = score - state.score
                accept = delta <= 0.0 or (
                    temperature > 0.0
                    and rng.random() < math.exp(-delta / temperature))
                if tracer is not None:
                    span.note(accept=accept, delta_score=delta,
                              temperature=temperature)
            # Rolled back either way; committing inside the trial would skip
            # the trace bookkeeping, so accepted moves re-apply for real.
            if accept:
                state.accept(move, temperature)
                if checkpointer is not None:
                    checkpointer.maybe_save("anneal", lambda: {
                        "movable": list(movable),
                        "budget": budget,
                        "steps": steps,
                        "rng": _rng_state(rng),
                    })
    except KeyboardInterrupt:
        state.interrupted = True
    return steps


# ----------------------------------------------------------------------
# Structural move families
# ----------------------------------------------------------------------
def _ranked_drivers(state: _Search, k: int) -> List[str]:
    """Drivers of the K most externally loaded multi-sink nets.

    Ranked once against the state at call time — external load
    descending, gate creation order breaking ties — so the candidate
    order is deterministic and independent of hash randomisation.
    """
    kernel = state.cache.power_kernel()
    cc = kernel.cc
    loads = cc.net_loads(kernel.model.tech, state.cache.po_load).tolist()
    ranked = sorted(
        (-loads[cc.net_id[gate.output]], position, gate.name)
        for position, gate in enumerate(state.circuit.gates)
        if len(state.cache.index.sinks(gate.output)) >= 2
    )
    return [name for _, _, name in ranked[:k]]


def _buffer_moves(state: _Search, k: int):
    """Buffer-insertion candidates for the K most-loaded nets.

    Each move adds a ``buf`` cell — or, when the library has no buffer,
    a logically transparent inverter pair — fed by the net and moves
    every sink pin onto the buffered copy, shielding the driver from
    the fanout load.  Moves materialise lazily against the
    then-current circuit, so earlier accepts are honoured.
    """
    library_names = {t.name for t in state.circuit.library}
    if "buf" in library_names:
        chain = ("buf",)
    elif "inv" in library_names:
        chain = ("inv", "inv")
    else:
        return
    for driver in _ranked_drivers(state, k):
        circuit = state.circuit
        if driver not in circuit:
            continue
        net = circuit.gate(driver).output
        sinks = state.cache.index.sinks(net)
        if len(sinks) < 2:
            continue
        edits: List[object] = []
        source = net
        for template_name in chain:
            template = circuit.library[template_name]
            name = state.fresh_gate_name(f"{driver}__buf")
            output = f"{name}_n"
            edits.append(
                AddGate(name, template_name, ((template.pins[0], source),),
                        output)
            )
            source = output
        for sink, pin in sinks:
            edits.append(RewireNet(sink.name, pin, source))
        yield Move(driver, "buffer", tuple(edits),
                   label=f"buffer {net} ({'+'.join(chain)}, "
                         f"{len(sinks)} pins)")


def _dup_moves(state: _Search, k: int):
    """Fanout-splitting duplication candidates for the K most-loaded nets.

    Each move clones the driver (same template, bindings and
    configuration) onto a fresh output net and moves the upper half of
    the sink pins onto the copy, halving the load either gate drives.
    """
    for name in _ranked_drivers(state, k):
        circuit = state.circuit
        if name not in circuit:
            continue
        gate = circuit.gate(name)
        sinks = state.cache.index.sinks(gate.output)
        if len(sinks) < 2:
            continue
        duplicate = state.fresh_gate_name(f"{name}__dup")
        new_net = f"{duplicate}_n"
        template = gate.template
        edits: List[object] = [AddGate(
            duplicate, template.name,
            tuple((pin, gate.pin_nets[pin]) for pin in template.pins),
            new_net, gate.config,
        )]
        moved = sinks[len(sinks) // 2:]
        edits.extend(RewireNet(sink.name, pin, new_net)
                     for sink, pin in moved)
        yield Move(name, "dup", tuple(edits),
                   label=f"dup {name} -> {duplicate} "
                         f"({len(moved)}/{len(sinks)} pins)")


def _sweep_moves(state: _Search):
    """Dead gates (no sinks, output not a PO), reverse-topologically.

    Reverse order makes one pass complete: removing a dead gate can
    only strand gates upstream of it, and those are visited later.
    """
    circuit = state.circuit
    outputs = frozenset(circuit.outputs)
    order = sorted(state.cache.topo_index,
                   key=state.cache.topo_index.__getitem__, reverse=True)
    for name in order:
        if name not in circuit:
            continue
        gate = circuit.gate(name)
        if gate.output in outputs:
            continue
        if state.cache.index.sinks(gate.output):
            continue
        yield Move(name, "sweep", (RemoveGate(name),),
                   label=f"sweep {name}")


def _structural(state: _Search) -> int:
    """Run the opt-in structural families; returns family passes run.

    Families run in the canonical :data:`STRUCTURAL_FAMILIES` order
    regardless of how the caller listed them.  Every candidate is
    priced by one rolled-back WhatIf trial of its whole edit sequence
    and greedily accepted when strictly improving — no randomness, so
    the trace stays byte-stable for a fixed input.
    """
    requested = frozenset(state.spec.structural)
    nets_k = state.spec.structural_nets
    passes = 0
    with _trace.span("search.structural", nets=nets_k,
                     families=",".join(f for f in STRUCTURAL_FAMILIES
                                       if f in requested)) as span:
        accepted_before = len(state.accepted)
        try:
            for family in STRUCTURAL_FAMILIES:
                if family not in requested or state.out_of_budget():
                    continue
                passes += 1
                if family == "buffer":
                    moves = _buffer_moves(state, nets_k)
                elif family == "dup":
                    moves = _dup_moves(state, nets_k)
                else:
                    moves = _sweep_moves(state)
                for move in moves:
                    if state.out_of_budget():
                        break
                    score, _, _ = state.score_batch([move])[0]
                    if score < state.score - _TOL:
                        state.accept(move)
        except KeyboardInterrupt:
            state.interrupted = True
        span.note(accepted=len(state.accepted) - accepted_before)
    return passes


def _portfolio(circuit: Circuit, input_stats: Mapping[str, SignalStats],
               spec: SearchSpec) -> SearchResult:
    """Fan out CRC-seeded annealing restarts and merge them deterministically.

    Every field of the merged result is a pure function of the restart
    outcomes — winner by (score, index), work counters summed in
    restart order — so the artifact is byte-identical for any ``jobs``.
    The winner's accepted-move script replays onto a fresh copy to
    produce the returned circuit.

    Restarts are checkpointed at restart granularity: each completed
    outcome is appended to ``checkpoint_path`` (atomic, checksummed),
    and ``resume_path`` pre-fills those outcomes so only the missing
    restarts run.  Outcomes are pure functions of their payloads and
    floats round-trip JSON exactly, so a resumed merge is byte-identical
    to an uninterrupted one.  Crashed or hung workers are retried by
    the supervisor (``worker_retries``, per-attempt ``deadline_s``);
    restarts still missing at the end are reported in
    ``result.failures`` and flag the result ``partial`` instead of
    raising — the anytime path.
    """
    from .portfolio import run_restarts

    start = time.perf_counter()
    restarts, checkpoint_path = spec.restarts, spec.checkpoint_path
    # ``restarts`` is in the fingerprint, so a resumed payload ran the
    # same restart count.
    fingerprint, payload = _open_checkpoints(circuit, input_stats, spec,
                                             "portfolio")
    cached: Dict[int, Dict[str, object]] = {}
    if payload is not None:
        cached = {int(index): outcome
                  for index, outcome in payload["outcomes"].items()}
        _trace.instant("robust.resume", kind="portfolio",
                       cached=len(cached), restarts=restarts)

    on_outcome = None
    if checkpoint_path is not None:
        def on_outcome(outcomes_so_far: Dict[int, Dict[str, object]]) -> None:
            with _trace.span("robust.checkpoint.save", kind="portfolio",
                             done=len(outcomes_so_far)):
                save_checkpoint(checkpoint_path, {
                    "kind": "portfolio",
                    "fingerprint": fingerprint,
                    "restarts": restarts,
                    "outcomes": {
                        str(index): outcome
                        for index, outcome in sorted(outcomes_so_far.items())
                    },
                })
            _CHECKPOINTS_SAVED.inc()

    run = run_restarts(circuit, input_stats, spec,
                       cached=cached, on_outcome=on_outcome)
    outcomes = [entry for entry in run.outcomes if entry is not None]
    if not outcomes:
        detail = "; ".join(
            f"restart {entry['index']}: {entry['error']}"
            for entry in run.failures
        ) or "interrupted before any restart finished"
        raise RuntimeError(f"portfolio search: no restarts completed ({detail})")
    partial = run.interrupted or bool(run.failures)
    best = min(outcomes, key=lambda entry: (entry["score"], entry["index"]))
    tracer = _trace.ACTIVE
    if tracer is not None:
        # Workers write their own portfolio.anneal spans to per-pid
        # shards; the parent still records one instant per restart
        # outcome plus the merge decision, so a summarize of just the
        # main file tells the portfolio story too.  Per-restart wall
        # time rides along in the outcome dicts and never reaches the
        # artifact (summaries select explicit keys below).
        for entry in outcomes:
            tracer.instant(
                "portfolio.restart", index=entry["index"],
                seed=entry["seed"], score=entry["score"],
                trials=entry["trials"], accepted=entry["accepted_count"],
                elapsed_s=entry.get("elapsed_s", 0.0),
            )
        tracer.instant("portfolio.merge", restarts=len(outcomes),
                       jobs=spec.jobs, winner=best["index"],
                       score=best["score"])

    work = circuit.copy()
    accepted = [AcceptedMove(**dict(move)) for move in best["moves"]]
    _replay(work, accepted)
    summaries = [
        {
            key: entry[key]
            for key in (
                "index", "seed", "score", "power_after", "delay_after",
                "trials", "rounds", "accepted_count", "gates_repropagated",
                "gates_retimed", "budget_exhausted",
            )
        }
        for entry in outcomes
    ]
    return SearchResult(
        circuit=work,
        accepted=accepted,
        net_stats=NetStats(*zip(*best["net_stats"])),
        power_before=best["power_before"],
        power_after=best["power_after"],
        delay_before=best["delay_before"],
        delay_after=best["delay_after"],
        trials=sum(entry["trials"] for entry in outcomes),
        rounds=best["rounds"],
        gates_repropagated=sum(
            entry["gates_repropagated"] for entry in outcomes),
        strategy="anneal",
        objective=spec.objective,
        seed=spec.seed,
        backend=best["backend"],
        budget_exhausted=any(entry["budget_exhausted"] for entry in outcomes),
        elapsed_s=time.perf_counter() - start,
        gates_retimed=sum(entry["gates_retimed"] for entry in outcomes),
        restarts=summaries,
        restart_index=best["index"],
        jobs=spec.jobs,
        partial=partial,
        failures=(
            [{"index": entry["index"], "status": entry["status"],
              "error": entry["error"]} for entry in run.failures]
            if run.failures else None
        ),
        interrupted=run.interrupted,
    )


def search_circuit(circuit: Circuit,
                   input_stats: Mapping[str, SignalStats],
                   **params) -> SearchResult:
    """Run the delta-driven local search and return the searched circuit.

    ``params`` are exactly the fields of
    :class:`~repro.incremental.spec.SearchSpec`, the complete parameter
    set; its field reference gives each one's meaning, default and
    bound.  The whole set is validated up front, before any circuit
    copy or cache is built; a rejected set raises
    :class:`~repro.incremental.spec.SpecError` (a ``ValueError``), and
    a keyword that is not a field raises ``TypeError``.  The search
    runs on a private copy of ``circuit`` (never mutated) with caches
    it builds and closes itself.  Hitting any budget sets
    ``budget_exhausted`` on the result.

    ``restarts``/``jobs`` switch to **portfolio annealing**
    (:func:`_portfolio`): CRC-seeded restarts on worker processes,
    merged deterministically, with an artifact byte-identical for any
    ``jobs`` value.

    Greedy pure-power candidate batches are priced in one vectorised
    kernel pass instead of per-move trials (:class:`_BatchPricer`);
    results — the move trace included — are bit-identical to the
    per-move :class:`WhatIf` path, and only ``gates_repropagated``
    (the work the pricer saves) is smaller.

    Determinism: for a fixed ``(circuit, input_stats, seed)`` and
    parameters the accepted-move trace — and hence
    :meth:`SearchResult.to_artifact` minus ``elapsed_s``/``jobs`` — is
    byte-stable across runs and processes (greedy uses no randomness
    at all; annealing draws from a CRC-stable substream).

    **Fault tolerance** (:mod:`repro.robust`): checkpoints are taken
    only at accept boundaries, where both caches are fully flushed,
    and a run resumed from one replays the accepted trace onto a fresh
    copy and continues mid-phase, with the hard invariant that its
    artifact is **byte-identical** to an uninterrupted one.  They cover
    the greedy/anneal/polish phases; the structural post-pass is not
    checkpointed (a kill there resumes from the last pre-structural
    snapshot and redoes it).  Portfolio runs checkpoint at restart
    granularity instead, retry crashed/hung workers and merge whatever
    completed into a ``partial`` result rather than raising.  SIGTERM
    or Ctrl-C mid-search returns the best-so-far result flagged
    ``partial=True`` instead of raising.
    """
    spec = SearchSpec(**params)
    if spec.restarts is not None:
        return _portfolio(circuit, input_stats, spec)
    return _single(circuit, input_stats, spec)


def _single(circuit: Circuit, input_stats: Mapping[str, SignalStats],
            spec: SearchSpec) -> SearchResult:
    """One search of a validated spec, on a copy of ``circuit``.

    Both caches are built here and closed on the way out, so their
    counters start at zero: the search's counts are those counters plus,
    on a resumed run, the snapshot's.
    """
    fingerprint, resume_payload = _open_checkpoints(
        circuit, input_stats, spec, "search")
    work = circuit.copy()
    resume_accepted: List[AcceptedMove] = []
    if resume_payload is not None:
        # Replay the checkpointed trace onto the fresh copy: the
        # incremental == from-scratch identity guarantees the rebuilt
        # caches match the snapshot's flushed state bit-for-bit.
        resume_accepted = [AcceptedMove(**move)
                           for move in resume_payload["accepted"]]
        with _trace.span("robust.resume.replay",
                         accepted=len(resume_accepted),
                         phase=resume_payload["phase"]):
            _replay(work, resume_accepted)
        _trace.instant("robust.resume", kind="search",
                       phase=resume_payload["phase"],
                       accepted=len(resume_accepted),
                       trials=resume_payload["trials"])
    cache = StatsCache(work, input_stats, backend=spec.backend,
                       po_load=spec.po_load,
                       **engine_kwargs(spec.backend, spec.seed,
                                       **spec.backend_kwargs()))

    start = time.perf_counter()
    # The search's live timing side: prices every delay read
    # cone-locally.
    timing = TimingCache(work, tech=cache.model.tech, po_load=cache.po_load)
    try:
        state = _Search(cache, timing, spec)
        if resume_payload is not None:
            # The replayed caches carry the snapshot's values; restore
            # the search bookkeeping the caches don't hold — the trace,
            # the counters, and the *original* baseline (the replayed
            # circuit's own power/delay are mid-search values).
            state.accepted = resume_accepted
            state.trials = int(resume_payload["trials"])
            state._fresh = int(resume_payload["fresh"])
            state.repropagated_prior = int(resume_payload["gates_repropagated"])
            state.retimed_prior = int(resume_payload["gates_retimed"])
            state.power0 = resume_payload["power0"]
            state.delay0 = resume_payload["delay0"]
            state.power = resume_payload["power"]
            state.delay = resume_payload["delay"]
            state.score = spec.objective.score(state.power, state.delay,
                                               state.power0, state.delay0)
            state.budget_exhausted = bool(resume_payload["budget_exhausted"])
        resume = resume_payload or {}
        checkpointer = None
        if spec.checkpoint_path is not None:
            checkpointer = _Checkpointer(spec, state, fingerprint)
        resume_phase, phase_state = resume.get("phase"), resume.get("phase_state")
        rounds_prior = int(resume.get("rounds_prior", 0))
        if checkpointer is not None:
            checkpointer.rounds_prior = rounds_prior
        rounds = 0
        with _trace.span("search", circuit=work.name, gates=len(work),
                         strategy=spec.strategy,
                         objective=spec.objective.name,
                         backend=cache.backend.name, seed=spec.seed) as span:
            if spec.strategy == "greedy":
                rounds = _greedy(
                    state, checkpointer=checkpointer, phase="greedy",
                    resume=phase_state if resume_phase == "greedy" else None)
            elif resume_phase == "polish":
                # Annealing completed before the snapshot; only the
                # polish descent continues.
                rounds = rounds_prior
                rounds += _greedy(state, checkpointer=checkpointer,
                                  phase="polish", resume=phase_state)
            else:
                rounds = _anneal(
                    state, checkpointer=checkpointer,
                    resume=phase_state if resume_phase == "anneal" else None)
                if spec.polish and not state.out_of_budget() \
                        and not state.interrupted:
                    if checkpointer is not None:
                        checkpointer.rounds_prior = rounds
                    rounds += _greedy(state, checkpointer=checkpointer,
                                      phase="polish")
            # The structural post-pass is not checkpointed: its moves
            # mint fresh gate names and edit connectivity, and it runs
            # last — a kill here resumes from the final pre-structural
            # snapshot and redoes the pass.
            if spec.structural and not state.out_of_budget() \
                    and not state.interrupted:
                rounds += _structural(state)
            span.note(trials=state.trials, rounds=rounds,
                      accepted=len(state.accepted))
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.metrics({
                **cache.metrics.snapshot(),
                **timing.metrics.snapshot(),
                **_GLOBAL_METRICS.snapshot(),
            })
        power_after = cache.total_power()
        delay_after = timing.delay()
        result = SearchResult(
            circuit=work,
            accepted=state.accepted,
            net_stats=NetStats(cache.power_kernel().cc.nets,
                               cache.prob.tolist(), cache.dens.tolist()),
            power_before=state.power0,
            power_after=power_after,
            delay_before=state.delay0,
            delay_after=delay_after,
            trials=state.trials,
            rounds=rounds,
            gates_repropagated=state.gates_repropagated,
            gates_retimed=state.gates_retimed,
            strategy=spec.strategy,
            objective=spec.objective,
            seed=spec.seed,
            backend=cache.backend.name,
            budget_exhausted=state.budget_exhausted,
            elapsed_s=time.perf_counter() - start,
            partial=state.interrupted,
            interrupted=state.interrupted,
        )
    finally:
        timing.close()
        cache.close()
    return result
