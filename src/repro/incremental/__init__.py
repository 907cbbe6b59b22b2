"""Incremental (P, D) maintenance under circuit edits.

The third engine-level subsystem (after the analytic propagation in
:mod:`repro.stochastic` and the bit-parallel sampler in
:mod:`repro.sim.bitsim`): instead of recomputing a whole circuit after
every change, a :class:`StatsCache` watches a :class:`~repro.circuit.netlist.Circuit`
for ECO edits and re-propagates only the gates an edit can change —
through a pluggable backend (analytic or sampled) whose incremental
results are bit-identical to a from-scratch run.  A retemplate or a
structural edit dirties the edited gates' transitive fanout cones; a
reordering keeps the gate's function, so it dirties no statistics and
reprices its own gate alone.

:class:`TimingCache` is the delay-side twin: it maintains per-net
arrival times (and lazily required times, slacks and the critical
path) under the same edit-listener protocol and the same seeds, pruned
by early cut-off (re-propagation stops where a recomputed arrival is
bit-identical to the cached one).

See ``src/repro/incremental/README.md`` for the invalidation rules and
the backend contract, and :class:`WhatIf` for trial-apply/rollback.
"""

from .backends import AnalyticBackend, SampledBackend, StatsBackend, make_backend
from .cache import StatsCache
from .eco import (
    InputArrivalEdit,
    InputStatsEdit,
    WhatIf,
    resolve_edit,
    script_edit_label,
)
from .timing import TimingCache
from .portfolio import DEFAULT_RESTARTS, restart_seed
from .search import (
    AcceptedMove,
    Move,
    Objective,
    SearchResult,
    enumerate_moves,
    make_objective,
    search_circuit,
)

__all__ = [
    "StatsBackend",
    "AnalyticBackend",
    "SampledBackend",
    "make_backend",
    "StatsCache",
    "TimingCache",
    "WhatIf",
    "InputStatsEdit",
    "InputArrivalEdit",
    "resolve_edit",
    "script_edit_label",
    "Objective",
    "make_objective",
    "Move",
    "AcceptedMove",
    "SearchResult",
    "enumerate_moves",
    "search_circuit",
    "DEFAULT_RESTARTS",
    "restart_seed",
]
