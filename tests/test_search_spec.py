"""`SearchSpec`: one declaration of the search parameters.

The spec validates every parameter set before any circuit copy or
cache is built, and the `repro search` flags, the checkpoint
fingerprint and the portfolio worker payload are all derived from its
fields.  These tests pin the derived views against what they replaced.
"""

import argparse
import io
from dataclasses import fields
from pathlib import Path

import pytest

from repro.bench.runner import dumps_artifact, strip_timing
from repro.bench.suite import get_case
from repro.cli import build_parser, main
from repro.incremental import DEFAULT_RESTARTS, restart_seed, search_circuit
from repro.incremental.cache import StatsCache
from repro.incremental.spec import SearchSpec, SpecError, flag, render
from repro.sim.stimulus import ScenarioA
from repro.synth.mapper import map_circuit


@pytest.fixture(scope="module")
def adder():
    circuit = map_circuit(get_case("fa1").network())
    stats = ScenarioA(seed=3).input_stats(circuit.inputs)
    return circuit, stats


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def search_actions():
    parser = build_parser()
    subactions = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    return subactions.choices["search"]._actions


# ----------------------------------------------------------------------
# The derived parser
# ----------------------------------------------------------------------
#: Every `repro search` flag as the hand-written parser declared it
#: before the flags were derived from the spec: option strings ->
#: (dest, default, choices, nargs, metavar, lowest accepted value).
PARENT_FLAGS = {
    ("--scenario",): ("scenario", "A", ["A", "B"], None, None, None),
    ("--seed",): ("seed", 0, None, None, None, None),
    ("--strategy",): ("strategy", "greedy", ["greedy", "anneal"], None,
                      None, None),
    ("--objective",): ("objective", "power",
                       ["power", "delay", "power-delay"], None, None, None),
    ("--delay-weight",): ("delay_weight", None, None, None, None, None),
    ("--backend",): ("backend", "analytic", ["analytic", "sampled"], None,
                     None, None),
    ("--lanes",): ("lanes", None, None, None, None, 1),
    ("--steps",): ("steps", None, None, None, None, 1),
    ("--retemplate",): ("retemplate", False, None, 0, None, None),
    ("--max-trials",): ("max_trials", None, None, None, None, 1),
    ("--max-moves",): ("max_moves", None, None, None, None, 1),
    ("--anneal-trials",): ("anneal_trials", None, None, None, None, 1),
    ("--polish",): ("polish", False, None, 0, None, None),
    ("--structural",): ("structural", None, ["buffer", "dup", "sweep"],
                        "+", "FAMILY", None),
    ("--structural-nets",): ("structural_nets", 4, None, None, None, 1),
    ("--restarts",): ("restarts", None, None, None, None, 1),
    ("--jobs",): ("jobs", None, None, None, None, 1),
    ("--out",): ("out", None, None, None, "PATH", None),
    ("--save-blif",): ("save_blif", None, None, None, "PATH", None),
    ("--checkpoint",): ("checkpoint", None, None, None, "PATH", None),
    ("--checkpoint-every",): ("checkpoint_every", None, None, None, "N", 1),
    ("--resume",): ("resume", None, None, None, "PATH", None),
    ("--deadline",): ("deadline", None, None, None, "SECONDS", None),
    ("--retries",): ("retries", 2, None, None, "N", 0),
    ("--trace",): ("trace", None, None, None, "PATH", None),
    ("--progress",): ("progress", False, None, 0, None, None),
}

#: The one deliberate difference: each field has one bound, and these
#: three caps now take the library's (0 is a valid budget; perfbench's
#: anneal-10k probe runs with ``anneal_trials=0``).
LOOSENED_TO_ZERO = {"max_trials", "max_moves", "anneal_trials"}


class TestDerivedParser:
    def test_flags_match_the_hand_written_parser(self):
        derived = {}
        for action in search_actions():
            if not action.option_strings or action.dest == "help":
                continue
            derived[tuple(action.option_strings)] = (
                action.dest, action.default, action.choices, action.nargs,
                action.metavar)
        assert derived == {options: row[:5]
                           for options, row in PARENT_FLAGS.items()}

    def test_bounds_match_except_the_documented_loosening(self):
        by_name = {f.name: f for f in fields(SearchSpec)}
        for options, row in PARENT_FLAGS.items():
            lowest = row[5]
            name = next((n for n in by_name if flag(n) == options[0]), None)
            if name is None:
                assert lowest is None  # not a spec flag
                continue
            declared = by_name[name].metadata.get("at_least")
            if name in LOOSENED_TO_ZERO:
                assert (lowest, declared) == (1, 0), name
            else:
                assert declared == lowest, name

    def test_library_only_fields_have_no_flag(self):
        library_only = {f.name for f in fields(SearchSpec)
                        if flag(f.name) is None}
        assert library_only == {"initial_temp", "cooling", "moves_per_temp",
                                "max_rounds", "dt", "po_load"}

    def test_only_four_fields_rename_their_flag(self):
        renamed = {f.name: flag(f.name) for f in fields(SearchSpec)
                   if f.metadata.get("flag") is not None}
        assert renamed == {"checkpoint_path": "--checkpoint",
                           "resume_path": "--resume",
                           "deadline_s": "--deadline",
                           "worker_retries": "--retries"}

    def test_zero_budgets_run_from_the_cli(self):
        blif = Path(__file__).parent / "data" / "ci_fa.blif"
        code, text = run_cli("search", str(blif), "--strategy", "anneal",
                             "--anneal-trials", "0", "--max-moves", "0")
        assert code == 0
        assert "accepted 0 of 0 trialled moves" in text


# ----------------------------------------------------------------------
# Bounds and rules at the boundary
# ----------------------------------------------------------------------
PORTFOLIO = dict(strategy="anneal", restarts=2)


@pytest.mark.parametrize("params, argv, message", [
    (dict(strategy="anneal", moves_per_temp=0), None,
     "moves_per_temp must be at least 1"),
    (dict(strategy="anneal", initial_temp=-0.01), None,
     "initial_temp must be at least 0"),
    (dict(strategy="anneal", cooling=0.0), None,
     "cooling must be greater than 0"),
    (dict(strategy="anneal", cooling=-0.5), None,
     "cooling must be greater than 0"),
    (dict(strategy="anneal", cooling=1.5), None,
     "cooling must be at most 1"),
    (dict(PORTFOLIO, deadline_s=0.0),
     ["--strategy", "anneal", "--restarts", "2", "--deadline", "0"],
     "deadline_s must be greater than 0"),
    (dict(PORTFOLIO, deadline_s=-5.0),
     ["--strategy", "anneal", "--restarts", "2", "--deadline", "-5"],
     "deadline_s must be greater than 0"),
    (dict(PORTFOLIO, worker_retries=-1),
     ["--strategy", "anneal", "--restarts", "2", "--retries", "-1"],
     "worker_retries must be at least 0"),
    (dict(max_trials=-1), ["--max-trials", "-1"],
     "max_trials must be at least 0"),
])
def test_out_of_bound_values_are_rejected(adder, tmp_path, params, argv,
                                          message):
    circuit, stats = adder
    with pytest.raises(ValueError, match=message):
        search_circuit(circuit, stats, **params)
    if argv is not None:
        # The spec is checked before the BLIF file is read: this path
        # does not exist, so reaching the loader would raise OSError.
        missing = str(tmp_path / "never-read.blif")
        field_name = message.split()[0]
        with pytest.raises(SystemExit, match=flag(field_name)):
            run_cli("search", missing, *argv)


@pytest.fixture
def no_cache_builds(monkeypatch):
    """Any StatsCache construction fails loudly."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("a cache was built before the spec was checked")

    monkeypatch.setattr(StatsCache, "__init__", refuse)


@pytest.mark.parametrize("params, message", [
    (dict(backend="sampled", structural=["buffer"]),
     r"structural requires backend='analytic'"),
    (dict(checkpoint_every=4), r"checkpoint_every requires checkpoint_path"),
    (dict(lanes=32), r"lanes requires backend='sampled'"),
    (dict(steps=8, dt=1e-10), r"steps, dt requires backend='sampled'"),
    (dict(structural="buffer"), r"not the bare string 'buffer'"),
    (dict(structural=["bogus"]), r"\['bogus'\]"),
    (dict(strategy="greedy", restarts=2), r"strategy='anneal'"),
    (dict(deadline_s=10.0), r"deadline_s budgets portfolio"),
    (dict(backend="local"), r"unknown backend 'local'"),
    # nan < 0 is False and "x" < 0 raises TypeError: no bare bound
    # check would refuse these.
    (dict(po_load=-1e-12), r"po_load must be a finite non-negative"),
    (dict(po_load=float("nan")), r"po_load must be a finite non-negative"),
    (dict(po_load="x"), r"po_load must be a finite non-negative"),
    # Each numeric field declares its kind; before that, the first
    # eight constructed and the last raised TypeError.
    (dict(cooling=float("nan")), r"cooling must be a finite number"),
    (dict(initial_temp=float("nan")), r"initial_temp must be a finite"),
    (dict(PORTFOLIO, deadline_s=float("nan")),
     r"deadline_s must be a finite number"),
    (dict(anneal_trials=float("inf")), r"anneal_trials must be an integer"),
    (dict(max_trials=2.5), r"max_trials must be an integer, got 2.5"),
    (dict(seed=1.5), r"seed must be an integer, got 1.5"),
    (dict(seed="7"), r"seed must be an integer, got '7'"),
    (dict(structural_nets=True), r"structural_nets must be an integer"),
    (dict(max_trials="x"), r"max_trials must be an integer, got 'x'"),
])
def test_rejected_before_any_cache_is_built(adder, no_cache_builds, params,
                                            message):
    circuit, stats = adder
    with pytest.raises(SpecError, match=message):
        search_circuit(circuit, stats, **params)


def test_backend_takes_engine_names_only():
    from repro.incremental import SampledBackend

    with pytest.raises(SpecError, match="unknown backend"):
        SearchSpec(backend=SampledBackend(lanes=8))


def test_errors_render_as_flags_on_the_cli():
    with pytest.raises(SpecError) as info:
        SearchSpec(strategy="greedy", jobs=2)
    assert str(info.value).startswith(
        "restarts/jobs require strategy='anneal'")
    assert render(info.value.template, flag).startswith(
        "--restarts/--jobs require --strategy anneal")
    with pytest.raises(SpecError) as info:
        SearchSpec(lanes=16, steps=4)
    assert render(info.value.template, flag) == \
        "--lanes, --steps requires --backend sampled"


# ----------------------------------------------------------------------
# Normalisation and the portfolio payload
# ----------------------------------------------------------------------
class TestPortfolioFields:
    def test_jobs_alone_implies_the_default_restart_count(self):
        for jobs in (1, 3):
            spec = SearchSpec(strategy="anneal", jobs=jobs)
            assert (spec.restarts, spec.jobs) == (DEFAULT_RESTARTS, jobs)
        assert SearchSpec(strategy="anneal", restarts=3).jobs == 1
        assert SearchSpec(strategy="anneal").restarts is None

    def test_jobs_one_is_the_same_portfolio_as_jobs_two(self, adder):
        circuit, stats = adder
        kwargs = dict(strategy="anneal", seed=2, anneal_trials=20)
        one = search_circuit(circuit, stats, jobs=1, **kwargs)
        two = search_circuit(circuit, stats, jobs=2, **kwargs)
        assert dumps_artifact(strip_timing(one.to_artifact())) == \
            dumps_artifact(strip_timing(two.to_artifact()))
        assert one.to_artifact()["portfolio"]["count"] == DEFAULT_RESTARTS

    def test_restart_spec_is_a_plain_search(self, tmp_path):
        spec = SearchSpec(strategy="anneal", seed=9, objective="power-delay",
                          delay_weight=0.3, restarts=3, jobs=2,
                          checkpoint_path=str(tmp_path / "ck.json"),
                          checkpoint_every=2, deadline_s=5.0,
                          worker_retries=0, anneal_trials=7)
        worker = spec.restart(2)
        assert worker.seed == restart_seed(9, 2)
        assert worker.restarts is None and worker.jobs is None
        assert worker.checkpoint_path is None
        assert worker.checkpoint_every is None
        assert worker.deadline_s is None and worker.worker_retries == 2
        assert worker.objective == spec.objective
        assert worker.anneal_trials == 7
