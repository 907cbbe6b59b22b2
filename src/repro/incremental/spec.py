"""The search's parameters, declared once.

:class:`SearchSpec` is the single spelling of everything
:func:`~repro.incremental.search.search_circuit` can be asked to do.
Each field records its type, default, bound or allowed values, help
text and whether it affects results.  Validation (at construction,
before any circuit copy or cache exists), the ``repro search`` flags
(:func:`flag`), the checkpoint fingerprint
(:meth:`SearchSpec.fingerprint`) and the portfolio worker payload
(:meth:`SearchSpec.restart`) are all derived from those records.

Help texts and error messages name fields in backticks (```jobs```,
```strategy=anneal```); :func:`render` writes them in keyword form for
the library (``jobs``, ``strategy='anneal'``) or as flags for the CLI
(``--jobs``, ``--strategy anneal``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, Optional, Sequence, Union

from ..timing.sta import DEFAULT_PO_LOAD, timing_context
from .backends import (
    DEFAULT_ENGINE,
    ENGINES,
    STRUCTURE_ENGINE,
    KnobError,
    engine_kwargs,
)
from .portfolio import DEFAULT_RESTARTS, restart_seed

__all__ = ["STRATEGIES", "SEARCH_OBJECTIVES", "STRUCTURAL_FAMILIES",
           "SpecError", "Objective", "make_objective", "SearchSpec", "flag",
           "render"]

STRATEGIES = ("greedy", "anneal")
SEARCH_OBJECTIVES = ("power", "delay", "power-delay")
#: Opt-in structural move families, in the canonical order they run.
STRUCTURAL_FAMILIES = ("buffer", "dup", "sweep")

_MENTION = re.compile(r"`(\w+)(?:=([^`]+))?`")


def render(text: str,
           flag_of: Optional[Callable[[str], Optional[str]]] = None) -> str:
    """Write a text's backticked field mentions in keyword form, or as
    the flags ``flag_of`` names (keyword form where it names none)."""
    def mention(match: "re.Match[str]") -> str:
        name, value = match.groups()
        option = flag_of(name) if flag_of is not None else None
        if option is not None:
            return option if value is None else f"{option} {value}"
        return name if value is None else f"{name}={value!r}"

    return _MENTION.sub(mention, text)


class SpecError(ValueError):
    """A rejected parameter set; ``render(error.template, flag)`` names
    its fields as CLI flags."""

    def __init__(self, template: str):
        super().__init__(render(template))
        self.template = template


@dataclass(frozen=True)
class Objective:
    """Weighted power/delay cost, normalised by the baseline values.

    ``score = power_weight * P/P0 + delay_weight * D/D0`` — the
    baseline circuit scores exactly ``power_weight + delay_weight``,
    so deltas are comparable across circuits and units.
    """

    name: str
    power_weight: float = 1.0
    delay_weight: float = 0.0

    def __post_init__(self):
        if self.power_weight < 0.0 or self.delay_weight < 0.0:
            raise ValueError("objective weights must be non-negative")
        if self.power_weight == 0.0 and self.delay_weight == 0.0:
            raise ValueError("objective needs at least one non-zero weight")

    @property
    def needs_delay(self) -> bool:
        """Whether scoring a trial requires an STA run."""
        return self.delay_weight != 0.0

    def score(self, power: float, delay: float,
              power0: float, delay0: float) -> float:
        value = 0.0
        if self.power_weight:
            value += self.power_weight * (power / power0 if power0 else power)
        if self.delay_weight:
            value += self.delay_weight * (delay / delay0 if delay0 else delay)
        return value


def make_objective(objective: Union[str, Objective],
                   delay_weight: Optional[float] = None) -> Objective:
    """Resolve an objective name (or pass an :class:`Objective` through).

    ``"power"`` and ``"delay"`` are single-term; ``"power-delay"`` is
    the weighted product objective with ``delay_weight`` (default 0.5)
    against ``1 - delay_weight`` on power.
    """
    if isinstance(objective, Objective):
        if delay_weight is not None:
            raise TypeError("delay_weight conflicts with an Objective instance")
        return objective
    if objective not in SEARCH_OBJECTIVES:
        raise SpecError(f"unknown `objective` {objective!r}; "
                        f"choose from {SEARCH_OBJECTIVES}")
    if objective != "power-delay":
        if delay_weight is not None:
            raise SpecError("`delay_weight` requires `objective=power-delay`")
        return (Objective("power", 1.0, 0.0) if objective == "power"
                else Objective("delay", 0.0, 1.0))
    weight = 0.5 if delay_weight is None else float(delay_weight)
    if not 0.0 < weight < 1.0:
        raise SpecError("`delay_weight` must lie strictly between 0 and 1")
    return Objective("power-delay", 1.0 - weight, weight)


def _param(default, help: str, **meta):
    """One declared field.  ``meta`` keys, all optional:

    ``result`` (default true) — the value can change the result, so it
    enters the fingerprint; ``cli`` (default true), ``flag``,
    ``metavar`` — its ``repro search`` flag (``--field-name`` unless
    renamed); ``choices`` (per element with ``many``) and
    ``at_least``/``above``/``at_most`` — what a given value may be;
    ``within`` — the fingerprint entry that carries it.
    """
    return field(default=default, metadata={"help": help, **meta})


@dataclass(frozen=True)
class SearchSpec:
    """Every parameter of one search; invalid sets never construct.

    Construction normalises as it validates: ``objective`` becomes the
    resolved :class:`Objective` (``delay_weight`` folds into it),
    ``structural`` a tuple, ``jobs`` alone implies
    ``restarts=DEFAULT_RESTARTS`` and ``restarts`` alone ``jobs=1``.
    The field reference follows.
    """

    seed: int = _param(
        0, "RNG seed of the annealing schedule and the sampled backend's "
           "substreams (repro search draws its stimulus from it too)")
    strategy: str = _param(
        "greedy", "greedy steepest descent or simulated annealing",
        choices=STRATEGIES)
    objective: Union[str, Objective] = _param(
        "power", "objective name; the library also takes an Objective "
                 "instance",
        choices=SEARCH_OBJECTIVES)
    delay_weight: Optional[float] = _param(
        None, "delay weight for `objective=power-delay` (power gets 1 - w; "
              "default 0.5)", within="objective")
    backend: str = _param(
        DEFAULT_ENGINE, "statistics backend", choices=tuple(ENGINES))
    lanes: Optional[int] = _param(
        None, "sample lanes for `backend=sampled`", at_least=1,
        within="backend_kwargs")
    steps: Optional[int] = _param(
        None, "time steps for `backend=sampled`", at_least=1,
        within="backend_kwargs")
    dt: Optional[float] = _param(
        None, "explicit step size for `backend=sampled` (default: half the "
              "shortest mean input dwell, frozen for the run)",
        cli=False, above=0, within="backend_kwargs")
    po_load: Optional[float] = _param(
        DEFAULT_PO_LOAD, "external load on every primary output (F)",
        cli=False)
    retemplate: bool = _param(
        False, "also search same-pin-tuple cell swaps (changes the logic "
               "function)")
    max_trials: Optional[int] = _param(
        None, "cap on candidate-move evaluations", at_least=0)
    max_moves: Optional[int] = _param(
        None, "cap on accepted moves", at_least=0)
    max_rounds: Optional[int] = _param(
        None, "cap on greedy sweeps", cli=False, at_least=0)
    initial_temp: float = _param(
        0.02, "annealing start temperature, in baseline-normalised score "
              "units", cli=False, at_least=0)
    cooling: float = _param(
        0.9, "geometric cooling factor, applied every `moves_per_temp` "
             "annealing steps", cli=False, above=0, at_most=1)
    moves_per_temp: int = _param(
        8, "annealing steps per temperature", cli=False, at_least=1)
    anneal_trials: Optional[int] = _param(
        None, "annealing schedule length (default: 32 x movable gates); "
              "does not consume the `max_trials` cap", at_least=0)
    polish: bool = _param(False, "greedy descent after annealing")
    structural: Optional[Sequence[str]] = _param(
        None, "opt-in structural move families run after the main "
              "strategy: buffer (insert a buffer on the most-loaded "
              "nets), dup (duplicate heavy-fanout drivers), sweep "
              "(remove dead gates); needs `backend=analytic`",
        metavar="FAMILY", choices=STRUCTURAL_FAMILIES, many=True)
    structural_nets: int = _param(
        4, "top-K loaded nets the buffer/dup families consider "
           "(default 4)", at_least=1)
    restarts: Optional[int] = _param(
        None, "portfolio mode: run this many CRC-seeded annealing "
              f"restarts and keep the best (default {DEFAULT_RESTARTS} "
              "when `jobs` is given; requires `strategy=anneal`)",
        at_least=1)
    jobs: Optional[int] = _param(
        None, "worker processes for the restart portfolio; results are "
              "identical across `jobs` values (artifacts byte-identical "
              "once the run-timing fields are stripped; requires "
              "`strategy=anneal`)", result=False, at_least=1)
    checkpoint_path: Optional[str] = _param(
        None, "periodically snapshot the search state here (atomic, "
              "checksummed); resuming a killed run from it with "
              "`resume_path` gives a byte-identical artifact",
        result=False, flag="--checkpoint", metavar="PATH")
    checkpoint_every: Optional[int] = _param(
        None, "accepted moves between checkpoint snapshots (default 32; "
              "needs `checkpoint_path`)", result=False, metavar="N",
        at_least=1)
    resume_path: Optional[str] = _param(
        None, "resume from a checkpoint written by `checkpoint_path` (the "
              "run must use the same circuit, stats and search "
              "parameters)", result=False, flag="--resume", metavar="PATH")
    deadline_s: Optional[float] = _param(
        None, "per-restart wall-time budget for portfolio workers; a "
              "restart that exceeds it is killed and retried (requires "
              "`restarts`/`jobs`)", result=False, flag="--deadline",
        metavar="SECONDS", above=0)
    worker_retries: int = _param(
        2, "extra attempts for a portfolio restart whose worker crashes, "
           "raises or times out before it is recorded as failed "
           "(default 2)", result=False, flag="--retries", metavar="N",
        at_least=0)

    def __post_init__(self):
        for spec_field in fields(self):
            _check(spec_field, getattr(self, spec_field.name))
        try:
            engine_kwargs(self.backend, self.seed, **self.backend_kwargs())
        except KnobError as error:
            raise SpecError(str(error)) from None
        try:
            timing_context(po_load=self.po_load)
        except ValueError:
            raise SpecError(f"`po_load` must be a finite non-negative "
                            f"capacitance, got {self.po_load!r}") from None
        if self.structural and not ENGINES[self.backend].supports_structure:
            raise SpecError(
                f"`structural` requires `backend={STRUCTURE_ENGINE}` "
                f"({self.backend} backends cannot maintain statistics "
                f"across structural edits)")
        # A fixed count, never derived from jobs: changing the worker
        # count never changes the work.
        restarts = (DEFAULT_RESTARTS if self.restarts is None
                    and self.jobs is not None else self.restarts)
        if restarts is not None and self.strategy != "anneal":
            raise SpecError("`restarts`/`jobs` require `strategy=anneal` "
                            "(greedy descent is deterministic — every "
                            "restart would repeat the same search)")
        if self.deadline_s is not None and restarts is None:
            raise SpecError("`deadline_s` budgets portfolio restart "
                            "attempts; it needs `restarts`/`jobs`")
        if self.checkpoint_every is not None and self.checkpoint_path is None:
            raise SpecError("`checkpoint_every` requires `checkpoint_path`")
        normalised = {
            "objective": make_objective(self.objective, self.delay_weight),
            "delay_weight": None,
            "structural": tuple(self.structural or ()),
            "restarts": restarts,
            "jobs": 1 if restarts is not None and self.jobs is None
                    else self.jobs,
        }
        for name, value in normalised.items():
            object.__setattr__(self, name, value)

    def backend_kwargs(self) -> Dict[str, object]:
        """The backend knobs that were given."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.metadata.get("within") == "backend_kwargs"
                and getattr(self, f.name) is not None}

    def fingerprint(self) -> Dict[str, object]:
        """The result-affecting fields, for a checkpoint to match.

        The objective enters as ``[name, power_weight, delay_weight]``,
        the backend by name and its knobs under ``backend_kwargs``.
        """
        params: Dict[str, object] = {
            f.name: getattr(self, f.name) for f in fields(self)
            if f.metadata.get("result", True) and "within" not in f.metadata
        }
        objective = self.objective
        params.update(
            objective=[objective.name, objective.power_weight,
                       objective.delay_weight],
            structural=list(self.structural),
            backend_kwargs=self.backend_kwargs(),
        )
        return params

    def restart(self, index: int) -> "SearchSpec":
        """What portfolio restart ``index`` runs: the restart's seed, the
        portfolio and run-descriptor fields cleared."""
        cleared = {f.name: f.default for f in fields(self)
                   if not f.metadata.get("result", True)}
        return replace(self, seed=restart_seed(self.seed, index),
                       restarts=None, **cleared)


def _check(spec_field, value) -> None:
    """One field's own checks: allowed names and numeric bounds."""
    name, meta = spec_field.name, spec_field.metadata
    choices = meta.get("choices")
    if value is None or name == "objective":
        return  # make_objective resolves objective names and instances
    if meta.get("many"):
        if isinstance(value, str):
            raise SpecError(f"`{name}` takes a sequence of names, not the "
                            f"bare string {value!r}")
        unknown = [item for item in value if item not in choices]
        if unknown:
            raise SpecError(f"unknown `{name}` names {unknown}; "
                            f"choose from {choices}")
    elif choices is not None:
        if not isinstance(value, str) or value not in choices:
            raise SpecError(f"unknown `{name}` {value!r}; "
                            f"choose from {choices}")
    elif meta.get("at_least") is not None and value < meta["at_least"]:
        raise SpecError(f"`{name}` must be at least {meta['at_least']}")
    elif meta.get("above") is not None and value <= meta["above"]:
        raise SpecError(f"`{name}` must be greater than {meta['above']}")
    elif meta.get("at_most") is not None and value > meta["at_most"]:
        raise SpecError(f"`{name}` must be at most {meta['at_most']}")


def flag(name: str) -> Optional[str]:
    """The ``repro search`` flag of a spec field (``None``: library only)."""
    meta = SearchSpec.__dataclass_fields__[name].metadata
    if not meta.get("cli", True):
        return None
    return meta.get("flag") or "--" + name.replace("_", "-")


SearchSpec.__doc__ += "\n" + "\n".join(
    f"    ``{f.name}`` (default ``{f.default!r}``)\n        "
    + render(f.metadata["help"]) for f in fields(SearchSpec)) + "\n"
