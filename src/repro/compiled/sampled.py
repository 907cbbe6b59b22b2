"""Vectorized bit-parallel sampling on uint64 lane blocks.

The production Monte Carlo (P, D) estimator.  The readable oracle,
:class:`repro.sim.bitsim.BitParallelSimulator`, packs ``W`` lanes into
one Python big int per (net, step) and settles gates one at a time in
pure Python.  This module re-lays those streams into a
``(steps, lanes/64)`` uint64-blocked numpy layout — bit ``k`` of a
stream is bit ``k % 64`` of little-endian word ``k // 64``, the exact
byte layout of ``int.to_bytes(..., "little")`` — and evaluates each
(level, class) gate batch of a :class:`~repro.compiled.circuit.CompiledCircuit`
with elementwise ``np.bitwise_*`` reductions.

**Bit-identity.**  The Shannon word evaluators of
:func:`repro.sim.bitsim._compile_word_function` use only ``&``, ``|``,
``~`` and the lane mask, so the very same memoised closures run here
on uint64 ndarrays (the operators are elementwise and exact); each
input's Markov stream is drawn from its own
:func:`~repro.sim.bitsim.stream_rng` substream with the identical
``rng.random(lanes)`` call sequence as
:func:`~repro.sim.bitsim.markov_stream_words`, then packed with the
same little-endian ``np.packbits`` convention as
``repro.sim.bitsim._word_from_bools``.  Ones/toggle counts are
therefore integer-equal to the big-int path, and the derived
:class:`~repro.sim.bitsim.BitSimReport` statistics are float-equal.

:class:`SampledKernel` holds the raw ``(nets, steps, blocks)`` history
with full settling and dirty-cone resettling.  It runs under
:class:`~repro.incremental.backends.SampledBackend`, which serves both
the :class:`StatsCache` ``"sampled"`` backend and
``propagate_stats(method="sampled")`` (a fresh backend's ``full``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

import numpy as np

from ..sim.bitsim import BitSimReport, _compile_word_function, resolve_dt
from ..obs.metrics import REGISTRY as _METRICS
from ..stochastic.signal import SignalStats
from .circuit import CompiledCircuit

__all__ = [
    "blocks_for_lanes",
    "lane_mask_blocks",
    "pack_lane_bools",
    "blocks_from_int",
    "int_from_blocks",
    "markov_stream_blocks",
    "SampledKernel",
]

#: Process-global kernel metrics: sampled-settle invocation counts and
#: batch-size distribution (twins of the analytic kernels' metrics in
#: :mod:`repro.compiled.circuit`).
_SETTLE_CALLS = _METRICS.counter("compiled.settle_group.calls")
_SETTLE_SIZES = _METRICS.histogram("compiled.settle_group.batch_size")


#: uint64 words per stream step for a given lane count.
def blocks_for_lanes(lanes: int) -> int:
    return (lanes + 63) // 64


def lane_mask_blocks(lanes: int) -> np.ndarray:
    """The ``(1 << lanes) - 1`` lane mask as a ``(blocks,)`` uint64 row."""
    blocks = blocks_for_lanes(lanes)
    mask = np.full(blocks, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    tail = lanes % 64
    if tail:
        mask[-1] = np.uint64((1 << tail) - 1)
    return mask


def pack_lane_bools(values: np.ndarray, blocks: int) -> np.ndarray:
    """Pack a boolean lane vector into ``(blocks,)`` uint64 words.

    Element ``k`` lands on bit ``k % 64`` of word ``k // 64`` — the
    little-endian convention of ``bitsim._word_from_bools``, so
    ``int_from_blocks(pack_lane_bools(v, b)) == _word_from_bools(v)``.
    """
    packed = np.packbits(values.astype(np.uint8), bitorder="little")
    buffer = np.zeros(blocks * 8, dtype=np.uint8)
    buffer[: len(packed)] = packed
    return buffer.view(np.dtype("<u8"))


def blocks_from_int(word: int, blocks: int) -> np.ndarray:
    """One big-int packed word as a ``(blocks,)`` uint64 row."""
    data = word.to_bytes(blocks * 8, "little")
    return np.frombuffer(data, dtype=np.dtype("<u8")).copy()


def int_from_blocks(row: np.ndarray) -> int:
    """The big-int form of a ``(blocks,)`` uint64 row."""
    return int.from_bytes(
        np.ascontiguousarray(row, dtype=np.dtype("<u8")).tobytes(), "little"
    )


def _bernoulli_blocks(rng: np.random.Generator, p: float, lanes: int,
                      blocks: int) -> np.ndarray:
    # The identical rng.random(lanes) draw bitsim._bernoulli_word makes.
    return pack_lane_bools(rng.random(lanes) < p, blocks)


def markov_stream_blocks(stats: SignalStats, lanes: int, steps: int,
                         dt: float, rng: np.random.Generator) -> np.ndarray:
    """``(steps, blocks)`` uint64 form of one input's Markov chain.

    Draws the identical random sequence as
    :func:`repro.sim.bitsim.markov_stream_words` — stationary initial
    word, then per-step fall/rise flips — so
    ``int_from_blocks(result[k]) == markov_stream_words(...)[k]`` for
    every step, given the same ``rng`` state.
    """
    resolve_dt((stats,), dt)
    high, low = stats.mean_high_dwell, stats.mean_low_dwell
    blocks = blocks_for_lanes(lanes)
    mask = lane_mask_blocks(lanes)
    word = _bernoulli_blocks(rng, stats.probability, lanes, blocks)
    out = np.empty((steps, blocks), dtype=np.uint64)
    out[0] = word
    for k in range(1, steps):
        if np.isfinite(high):
            fall = _bernoulli_blocks(rng, dt / high, lanes, blocks)
            rise = _bernoulli_blocks(rng, dt / low, lanes, blocks)
            word = word ^ ((word & fall) | (~word & mask & rise))
        out[k] = word
    return out


class SampledKernel:
    """The vectorized word-stream state of one compiled circuit.

    ``hist[net_id]`` is the net's ``(steps, blocks)`` packed stream —
    the array form of the per-net, per-step big-int words
    :class:`BitParallelSimulator` settles.  Gate evaluation is batched by the compiled
    circuit's (level, stats-class) plan: every gate of a class shares
    one Shannon word evaluator, which runs elementwise on the whole
    ``(gates, steps, blocks)`` fanin stack at once.
    """

    def __init__(self, cc: CompiledCircuit, lanes: int, steps: int):
        if lanes < 1:
            raise ValueError("need at least one sample lane")
        if steps < 1:
            raise ValueError("need at least one time step")
        self.cc = cc
        self.lanes = lanes
        self.steps = steps
        self.blocks = blocks_for_lanes(lanes)
        self.mask = lane_mask_blocks(lanes)
        self.hist = np.zeros((len(cc.nets), steps, self.blocks),
                             dtype=np.uint64)

    # ------------------------------------------------------------------
    def set_input_stream(self, net: str, stream: np.ndarray) -> None:
        """Bind one primary input's ``(steps, blocks)`` stream."""
        if stream.shape != (self.steps, self.blocks):
            raise ValueError(
                f"stream for {net!r} has shape {stream.shape}; "
                f"expected {(self.steps, self.blocks)}"
            )
        self.hist[self.cc.net_id[net]] = stream

    def _settle_group(self, cls, ids: np.ndarray, fanin: np.ndarray) -> None:
        _SETTLE_CALLS.inc()
        _SETTLE_SIZES.observe(len(ids))
        # The memoised big-int Shannon closure runs unchanged on uint64
        # ndarrays: &, |, ~ and the mask are elementwise and exact.
        fn = _compile_word_function(cls.arity, cls.tt_bits)
        words = [self.hist[fanin[:, j]] for j in range(cls.arity)]
        out = fn(words, self.mask)
        shape = (len(ids), self.steps, self.blocks)
        # Constant functions come back as the scalar 0 or the (blocks,)
        # mask row; broadcast either to the full batch shape.
        out = np.broadcast_to(np.asarray(out, dtype=np.uint64), shape)
        self.hist[self.cc.out_net[ids]] = out

    def settle_full(self, streams: Mapping[str, np.ndarray]) -> None:
        """Settle every net from per-input streams (from-scratch sweep)."""
        cc = self.cc
        cc._check_fresh()
        for net in cc.circuit.inputs:
            self.set_input_stream(net, streams[net])
        for cls, ids, fanin in cc._stats_full_plan():
            self._settle_group(cls, ids, fanin)

    def resettle(self, gate_ids: np.ndarray) -> None:
        """Recompute the given gates' streams in place (dirty cone).

        Level-batched like
        :meth:`~repro.compiled.circuit.CompiledCircuit.resettle_stats`:
        each gate reads already-updated fanin streams, exactly as the
        topological :meth:`BitParallelSimulator.resettle` walk would,
        so the rebuilt streams are bit-identical.
        """
        if not len(gate_ids):
            return
        cc = self.cc
        levels = cc.level[gate_ids]
        order = np.argsort(levels, kind="stable")
        sorted_ids = gate_ids[order]
        boundaries = np.flatnonzero(np.diff(levels[order])) + 1
        for chunk in np.split(sorted_ids, boundaries):
            codes = cc.stats_code[chunk]
            for code in np.unique(codes):
                sub = chunk[codes == code]
                cls = cc._stats_classes[code]
                self._settle_group(cls, sub, cc._fanin_matrix(sub, cls.arity))

    # ------------------------------------------------------------------
    def counts(self, net_ids: Iterable[int]) -> tuple:
        """``(ones, toggles)`` per net name — integer-equal to the
        big-int path's ``bit_count`` sums."""
        ones: Dict[str, int] = {}
        toggles: Dict[str, int] = {}
        nets = self.cc.nets
        for i in net_ids:
            words = self.hist[i]
            ones[nets[i]] = int(
                np.bitwise_count(words).sum(dtype=np.int64))
            toggles[nets[i]] = int(
                np.bitwise_count(words[1:] ^ words[:-1]).sum(dtype=np.int64))
        return ones, toggles

    def report(self, net_ids: Iterable[int], dt: float) -> BitSimReport:
        """Fold the given nets' streams into a :class:`BitSimReport`."""
        ones, toggles = self.counts(net_ids)
        return BitSimReport(self.lanes, self.steps, dt, ones, toggles)
