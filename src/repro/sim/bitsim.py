"""Bit-parallel Monte Carlo sampling of signal statistics.

The third (P, D) estimator of the reproduction, next to the analytic
propagation engines in :mod:`repro.stochastic` and the event-driven
:class:`~repro.sim.switchsim.SwitchLevelSimulator`:

* ``W`` independent sample *lanes* are packed into one Python big int
  per net (bit ``k`` of the word is the net's value in lane ``k``), so
  one topological sweep evaluates the whole circuit on ``W`` random
  vectors with a handful of bitwise operations per gate;
* each gate's compiled truth table is translated once into a word-level
  evaluator (a memoised Shannon decomposition — at most ``2^n - 1``
  AND/OR/NOT word operations for an ``n``-input cell);
* inputs evolve as discretised two-state Markov chains matching the
  requested :class:`~repro.stochastic.signal.SignalStats`, each drawn
  from its own :func:`stream_rng` substream, so measured per-net
  toggle counts estimate Najm's transition density and measured
  one-counts estimate the equilibrium probability.

This big-int form is the readable oracle.  Production runs the uint64
kernel of :mod:`repro.compiled.sampled` on the same substreams, and
the two are ``==`` for equal ``(lanes, steps, dt, seed)``.

The estimator is unbiased for the probability at any time step (the
chains start in their stationary distribution) and for the *input*
densities at any step size; internal-net densities converge to the
zero-delay (settled, glitch-free) activity as the step size shrinks,
which is exactly the quantity the stochastic model predicts.

Seeding: every entry point takes an explicit ``seed`` (default ``0`` —
unseeded runs are deterministic).  Passing ``seed=None`` emits a
:class:`UserWarning` and falls back to the deterministic default.
"""

from __future__ import annotations

import warnings
import zlib
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from ..circuit.netlist import Circuit
from ..stochastic.signal import SignalStats
from .stimulus import Stimulus

__all__ = [
    "DEFAULT_LANES",
    "BitSimReport",
    "BitParallelSimulator",
    "sampled_stats",
    "pack_vectors",
    "stimulus_step_vectors",
    "stream_rng",
    "markov_stream_words",
    "resolve_dt",
    "resolve_seed",
]

#: Default number of sample lanes per word (vectors evaluated per sweep).
DEFAULT_LANES = 1024

_EPS = 1e-12

#: Word evaluators memoised per (nvars, truth-table bits) — the suite
#: maps onto a small cell library, so the cache stays tiny.
_EVAL_CACHE: Dict[Tuple[int, int], Callable[[Sequence[int], int], int]] = {}


def _compile_word_function(nvars: int, bits: int) -> Callable[[Sequence[int], int], int]:
    """Word-level evaluator of a dense truth table via Shannon decomposition.

    The returned callable maps ``(pin_words, lane_mask)`` to the output
    word; ``pin_words[j]`` carries the lane values of truth-table
    variable ``j``.
    """
    key = (nvars, bits)
    fn = _EVAL_CACHE.get(key)
    if fn is not None:
        return fn
    full = (1 << (1 << nvars)) - 1
    if bits == 0:
        fn = lambda words, mask: 0  # noqa: E731
    elif bits == full:
        fn = lambda words, mask: mask  # noqa: E731
    else:
        half = 1 << (nvars - 1)
        lo = bits & ((1 << half) - 1)
        hi = bits >> half
        if lo == hi:  # does not depend on the top variable
            fn = _compile_word_function(nvars - 1, lo)
        else:
            f0 = _compile_word_function(nvars - 1, lo)
            f1 = _compile_word_function(nvars - 1, hi)
            j = nvars - 1

            def fn(words, mask, _j=j, _f0=f0, _f1=f1):
                w = words[_j]
                return (w & _f1(words, mask)) | (~w & mask & _f0(words, mask))

    _EVAL_CACHE[key] = fn
    return fn


def _word_from_bools(values: np.ndarray) -> int:
    """Pack a boolean vector into an int (element ``k`` -> bit ``k``)."""
    packed = np.packbits(values.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _bernoulli_word(rng: np.random.Generator, p: float, lanes: int) -> int:
    return _word_from_bools(rng.random(lanes) < p)


def resolve_seed(seed: Optional[int]) -> int:
    """``seed``, or ``0`` with a :class:`UserWarning` when it is ``None``."""
    if seed is None:
        warnings.warn(
            "no seed given; defaulting to seed=0 for a deterministic run "
            "(pass an explicit seed to silence this warning)",
            UserWarning,
            stacklevel=3,
        )
        seed = 0
    return seed


def resolve_dt(input_stats: Iterable[SignalStats],
               dt: Optional[float] = None) -> float:
    """The step size of a sampled run over inputs with ``input_stats``.

    ``dt`` defaults to half the shortest finite mean dwell time (``1.0``
    when every input is constant), keeping every per-step toggle
    probability ``dt / mean_dwell`` at or below one half.  A
    non-positive ``dt``, or one coarser than the shortest dwell (a
    toggle probability above one), is rejected.
    """
    shortest = min(
        (min(s.mean_high_dwell, s.mean_low_dwell) for s in input_stats),
        default=np.inf,
    )
    if dt is None:
        dt = 0.5 * shortest if np.isfinite(shortest) else 1.0
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if dt > shortest:
        raise ValueError(
            f"dt={dt:g} too coarse: per-step toggle probability exceeds 1 "
            f"(shortest mean dwell is {shortest:g})"
        )
    return dt


def pack_vectors(vectors: Sequence[Mapping[str, bool]],
                 input_names: Sequence[str]) -> Dict[str, int]:
    """Pack ``len(vectors)`` input assignments into one word per input.

    Lane ``k`` of every word holds vector ``k`` — the bridge from
    :func:`repro.sim.logicsim.random_vectors`-style vector lists to one
    bit-parallel sweep.
    """
    words: Dict[str, int] = {}
    for name in input_names:
        word = 0
        for k, vector in enumerate(vectors):
            if vector[name]:
                word |= 1 << k
        words[name] = word
    return words


def stimulus_step_vectors(
    stimulus: Stimulus, input_names: Sequence[str]
) -> Tuple[List[Dict[str, int]], List[float]]:
    """Settled input values at t=0 and after every event timestamp.

    Mirrors the event grouping of the zero-delay
    :class:`~repro.sim.switchsim.SwitchLevelSimulator` run: transitions
    at or beyond ``stimulus.duration`` are ignored and simultaneous
    events form a single step, so replaying the returned sequence
    reproduces its settled per-net toggle counts exactly.  Returns
    ``(vectors, durations)`` where ``durations[k]`` is how long step
    ``k``'s settled values persist (summing to ``stimulus.duration``) —
    derived together so the two can never fall out of alignment.
    """
    values: Dict[str, int] = {}
    events: List[Tuple[float, str, int]] = []
    for name in input_names:
        initial, times = stimulus.waveforms[name]
        values[name] = int(initial)
        value = int(initial)
        for t in times:
            value ^= 1
            if t < stimulus.duration:
                events.append((t, name, value))
    events.sort(key=lambda e: e[0])
    steps = [dict(values)]
    step_times = [0.0]
    index = 0
    while index < len(events):
        time = events[index][0]
        while index < len(events) and events[index][0] == time:
            _, name, value = events[index]
            values[name] = value
            index += 1
        steps.append(dict(values))
        step_times.append(time)
    durations = [
        after - now for now, after in zip(step_times, step_times[1:])
    ] + [stimulus.duration - step_times[-1]]
    return steps, durations


def stream_rng(seed: int, net: str) -> np.random.Generator:
    """An RNG substream owned by one input net.

    Seeded by ``(seed, crc32(net))`` so each input's sample path is
    independent of every other input's *and* of the set of inputs being
    drawn.  Every sampled run draws its inputs this way, which is what
    the incremental engine needs: regenerating one input's stream after
    a statistics edit leaves all other streams untouched, so a
    cone-local resettle is bit-identical to a from-scratch run.
    """
    return np.random.default_rng([seed, zlib.crc32(net.encode("utf-8"))])


def markov_stream_words(stats: SignalStats, lanes: int, steps: int, dt: float,
                        rng: np.random.Generator) -> List[int]:
    """``steps`` packed words of one input's discretised Markov chain.

    A stationary initial word, then per-step fall/rise flips with
    probabilities ``dt / mean_dwell``, drawn from a dedicated ``rng``
    (:func:`stream_rng` in every sampled run).
    """
    resolve_dt((stats,), dt)
    high, low = stats.mean_high_dwell, stats.mean_low_dwell
    mask = (1 << lanes) - 1
    word = _bernoulli_word(rng, stats.probability, lanes)
    words = [word]
    for _ in range(steps - 1):
        if np.isfinite(high):
            fall = _bernoulli_word(rng, dt / high, lanes)
            rise = _bernoulli_word(rng, dt / low, lanes)
            word = word ^ ((word & fall) | (~word & mask & rise))
        words.append(word)
    return words


@dataclass(frozen=True)
class BitSimReport:
    """Measured per-net statistics of one bit-parallel run.

    ``ones[net]`` counts set bits over all lanes and steps;
    ``toggles[net]`` counts lane bits that changed between consecutive
    steps.  ``dt`` is the time represented by one step (seconds for the
    paper's Scenario A, one clock cycle for Scenario B-style stimuli).

    For uniformly timed runs (:meth:`BitParallelSimulator.run`) every
    step carries equal weight and probabilities are one-counts over
    samples.  Replayed stimuli have unequal step durations, so those
    reports additionally carry per-net ``high_time`` (per lane, in
    stimulus time) and probabilities are time-weighted — the same
    ``high_time / duration`` convention as
    :meth:`repro.sim.switchsim.SwitchSimReport.measured_stats`.
    """

    lanes: int
    steps: int
    dt: float
    ones: Dict[str, int]
    toggles: Dict[str, int]
    high_time: Optional[Dict[str, float]] = None
    """Per-net high time summed over lanes (set only for timed replays)."""

    time_total: Optional[float] = None
    """Sum of the step durations per lane (set only for timed replays)."""

    @property
    def samples(self) -> int:
        """Total sampled values per net."""
        return self.lanes * self.steps

    @property
    def duration(self) -> float:
        """Observed time per lane: the step durations' sum for timed
        replays, ``(steps - 1) * dt`` for uniformly timed runs."""
        if self.time_total is not None:
            return self.time_total
        return (self.steps - 1) * self.dt

    def probability(self, net: str) -> float:
        """Measured equilibrium probability of ``net``.

        Time-weighted when the report carries step durations (stimulus
        replay), sample-weighted otherwise.
        """
        if self.high_time is not None and self.duration > 0.0:
            return self.high_time[net] / (self.lanes * self.duration)
        return self.ones[net] / self.samples

    def density(self, net: str) -> float:
        """Measured transition density of ``net`` (toggles per time unit)."""
        if self.steps < 2 or self.duration <= 0.0:
            return 0.0
        return self.toggles[net] / (self.lanes * self.duration)

    def measured_stats(self, net: str) -> SignalStats:
        """The (P, D) pair of ``net``, clamped like the analytic engines."""
        p = min(1.0, max(0.0, self.probability(net)))
        d = self.density(net)
        if d > 0.0:
            p = min(1.0 - _EPS, max(_EPS, p))
        return SignalStats(p, d)

    def stats_map(self) -> Dict[str, SignalStats]:
        """Measured statistics of every net."""
        return {net: self.measured_stats(net) for net in self.ones}


class BitParallelSimulator:
    """Evaluate a mapped circuit on ``lanes`` packed vectors per sweep.

    The constructor compiles every gate's truth table into a word
    evaluator once; :meth:`sweep` then settles all nets for one packed
    input assignment, and :meth:`run` drives the circuit with sampled
    Markov-chain inputs to measure (P, D) and toggle counts.
    """

    def __init__(self, circuit: Circuit, lanes: int = DEFAULT_LANES):
        if lanes < 1:
            raise ValueError("need at least one sample lane")
        circuit.validate()
        self.circuit = circuit
        self.lanes = lanes
        self.mask = (1 << lanes) - 1
        self._program: List[Tuple[str, Tuple[str, ...], Callable]] = []
        for gate in circuit.topo_gates():
            tt = gate.compiled().output_tt
            fn = _compile_word_function(tt.nvars, tt.bits)
            pin_nets = tuple(gate.pin_nets[pin] for pin in gate.template.pins)
            self._program.append((gate.output, pin_nets, fn))

    # ------------------------------------------------------------------
    def sweep(self, input_words: Mapping[str, int]) -> Dict[str, int]:
        """One topological settle: packed values of every net.

        Input words must fit the simulator's lane count — extra bits
        would be silently averaged away as dropped samples otherwise.
        """
        words: Dict[str, int] = {}
        for net in self.circuit.inputs:
            word = input_words[net]
            if word >> self.lanes:
                raise ValueError(
                    f"input word for {net!r} has bits beyond lane {self.lanes - 1}; "
                    f"build the simulator with enough lanes"
                )
            words[net] = word
        mask = self.mask
        for output, pins, fn in self._program:
            words[output] = fn([words[p] for p in pins], mask)
        return words

    # ------------------------------------------------------------------
    def run(self, input_stats: Mapping[str, SignalStats], steps: int = 64,
            dt: Optional[float] = None, seed: Optional[int] = 0) -> BitSimReport:
        """Sample ``steps`` time steps of ``lanes`` independent input streams.

        Each input follows the discretised two-state Markov chain of its
        :class:`SignalStats` (:func:`markov_stream_words` on its own
        :func:`stream_rng` substream): a high lane falls with
        probability ``dt / mean_high_dwell`` per step and a low lane
        rises with ``dt / mean_low_dwell``, which preserves the
        stationary probability exactly and yields ``dt * D`` expected
        transitions per step.  ``dt`` is resolved by :func:`resolve_dt`.
        """
        inputs = self.circuit.inputs
        missing = [n for n in inputs if n not in input_stats]
        if missing:
            raise KeyError(f"missing input statistics for {missing}")
        if steps < 1:
            raise ValueError("need at least one time step")
        seed = resolve_seed(seed)
        dt = resolve_dt((input_stats[net] for net in inputs), dt)
        streams = {
            net: markov_stream_words(input_stats[net], self.lanes, steps, dt,
                                     stream_rng(seed, net))
            for net in inputs
        }
        return self.run_vectors(
            [{net: words[k] for net, words in streams.items()}
             for k in range(steps)],
            dt=dt,
        )

    # ------------------------------------------------------------------
    def run_vectors(self, vector_words: Sequence[Mapping[str, int]],
                    dt: float = 1.0,
                    durations: Optional[Sequence[float]] = None) -> BitSimReport:
        """Replay an explicit sequence of packed input words.

        Step ``t`` of lane ``k`` sees bit ``k`` of ``vector_words[t]``;
        toggles are counted between consecutive steps per lane.
        ``durations`` optionally gives the time each vector's settled
        values persist (unequal step lengths); the report then carries
        time-weighted ``high_time``, its probabilities become
        time-weighted, and ``dt`` is recorded as 0 (there is no uniform
        step size — read ``duration`` instead).
        """
        if not vector_words:
            raise ValueError("need at least one vector word")
        if durations is not None and len(durations) != len(vector_words):
            raise ValueError("need one duration per vector word")
        if durations is not None:
            dt = 0.0
        values = self.sweep(vector_words[0])
        ones = {net: word.bit_count() for net, word in values.items()}
        toggles = {net: 0 for net in values}
        high_time = None
        time_total = None
        if durations is not None:
            if any(d < 0.0 for d in durations):
                raise ValueError("durations must be non-negative")
            high_time = {
                net: word.bit_count() * durations[0]
                for net, word in values.items()
            }
            time_total = float(sum(durations))
        for step, step_words in enumerate(vector_words[1:], start=1):
            new_values = self.sweep(step_words)
            for net, word in new_values.items():
                ones[net] += word.bit_count()
                toggles[net] += (word ^ values[net]).bit_count()
                if high_time is not None:
                    high_time[net] += word.bit_count() * durations[step]
            values = new_values
        return BitSimReport(self.lanes, len(vector_words), dt, ones, toggles,
                            high_time, time_total)

    # ------------------------------------------------------------------
    def run_stimulus(self, stimulus: Stimulus) -> BitSimReport:
        """Replay a concrete :class:`Stimulus` on one lane.

        Settles the circuit at every event timestamp — the bit-parallel
        twin of ``SwitchLevelSimulator(delay_mode="zero")``: the
        report's toggle counts match that simulator's per-net transition
        counts exactly on identical stimulus, and its probabilities are
        time-weighted over the (unequal) inter-event intervals, matching
        the event-driven ``measured_stats`` convention.
        """
        if self.lanes != 1:
            raise ValueError("stimulus replay needs a single-lane simulator")
        steps, durations = stimulus_step_vectors(stimulus, self.circuit.inputs)
        return self.run_vectors(steps, durations=durations)


def sampled_stats(circuit: Circuit, input_stats: Mapping[str, SignalStats],
                  lanes: int = DEFAULT_LANES, steps: int = 64,
                  dt: Optional[float] = None,
                  seed: Optional[int] = 0) -> Dict[str, SignalStats]:
    """Monte-Carlo (P, D) estimate for every net of ``circuit``.

    API-compatible with :func:`repro.stochastic.density.local_stats` and
    :func:`~repro.stochastic.density.exact_stats`; also reachable as
    ``propagate_stats(..., method="sampled")``.
    """
    simulator = BitParallelSimulator(circuit, lanes)
    report = simulator.run(input_stats, steps=steps, dt=dt, seed=seed)
    return report.stats_map()
