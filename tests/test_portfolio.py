"""Tests for the multi-process portfolio search (`repro.incremental.portfolio`)."""

import pytest

from repro.bench.runner import dumps_artifact, load_artifact, strip_timing
from repro.bench.suite import get_case
from repro.incremental import (
    DEFAULT_RESTARTS,
    StatsCache,
    restart_seed,
    search_circuit,
)
from repro.incremental import portfolio
from repro.incremental import search as search_module
from repro.incremental.portfolio import circuit_from_spec, circuit_spec
from repro.incremental.spec import SearchSpec
from repro.sim.stimulus import ScenarioA
from repro.synth.mapper import map_circuit
from repro.timing.sta import analyze_timing


@pytest.fixture(scope="module")
def adder():
    circuit = map_circuit(get_case("rca4").network())
    stats = ScenarioA(seed=3).input_stats(circuit.inputs)
    return circuit, stats


def canonical(result):
    return dumps_artifact(strip_timing(result.to_artifact()))


class TestRestartSeeds:
    def test_stable_and_distinct(self):
        seeds = [restart_seed(7, index) for index in range(8)]
        assert seeds == [restart_seed(7, index) for index in range(8)]
        assert len(set(seeds)) == len(seeds)

    def test_independent_of_restart_count(self):
        # adding restarts never reseeds the existing ones
        assert restart_seed(0, 2) == restart_seed(0, 2)
        assert restart_seed(0, 0) != restart_seed(1, 0)


class TestCircuitSpec:
    def test_roundtrip_is_equivalent(self, adder):
        circuit, stats = adder
        work = circuit.copy()
        # a non-default configuration must survive the round trip
        gate = next(g for g in work.gates
                    if g.template.num_configurations() > 1)
        work.set_config(gate.name, gate.template.configurations()[-1])
        rebuilt = circuit_from_spec(circuit_spec(work))
        assert [g.name for g in rebuilt.gates] == [g.name for g in work.gates]
        assert rebuilt.inputs == work.inputs
        assert rebuilt.outputs == work.outputs
        for original in work.gates:
            copy = rebuilt.gate(original.name)
            assert copy.template.name == original.template.name
            assert copy.pin_nets == original.pin_nets
            assert copy.effective_config().key() \
                == original.effective_config().key()
        # the acid test: timing (configuration-sensitive) is bit-identical
        assert analyze_timing(rebuilt).arrivals \
            == analyze_timing(work).arrivals


class TestPortfolio:
    def test_jobs_do_not_change_the_artifact(self, adder):
        circuit, stats = adder
        serial = search_circuit(circuit, stats, strategy="anneal",
                                restarts=3, jobs=1, anneal_trials=25, seed=7)
        parallel = search_circuit(circuit, stats, strategy="anneal",
                                  restarts=3, jobs=3, anneal_trials=25,
                                  seed=7)
        assert canonical(serial) == canonical(parallel)

    def test_winner_is_best_score_with_stable_tie_break(self, adder):
        circuit, stats = adder
        result = search_circuit(circuit, stats, strategy="anneal",
                                restarts=3, jobs=1, anneal_trials=25, seed=7)
        scores = [entry["score"] for entry in result.restarts]
        best = min(scores)
        assert result.restart_index == scores.index(best)
        assert result.power_after \
            == result.restarts[result.restart_index]["power_after"]

    def test_merged_circuit_replays_the_winner_bit_for_bit(self, adder):
        circuit, stats = adder
        result = search_circuit(circuit, stats, strategy="anneal",
                                restarts=2, jobs=1, anneal_trials=25, seed=5)
        with StatsCache(result.circuit, stats) as cache:
            assert cache.total_power() == result.power_after

    def test_work_counters_aggregate_over_restarts(self, adder):
        circuit, stats = adder
        result = search_circuit(circuit, stats, strategy="anneal",
                                restarts=3, jobs=1, anneal_trials=10, seed=1)
        assert result.trials \
            == sum(entry["trials"] for entry in result.restarts)
        assert result.gates_repropagated \
            == sum(entry["gates_repropagated"] for entry in result.restarts)

    def test_jobs_without_restarts_uses_the_fixed_default(self, adder):
        circuit, stats = adder
        result = search_circuit(circuit, stats, strategy="anneal", jobs=2,
                                anneal_trials=10, seed=0)
        assert len(result.restarts) == DEFAULT_RESTARTS

    def test_portfolio_fields_absent_on_single_search(self, adder):
        circuit, stats = adder
        result = search_circuit(circuit, stats, strategy="anneal",
                                anneal_trials=10, seed=0)
        assert result.restarts is None
        assert "portfolio" not in result.to_artifact()

    def test_worker_ships_rows_without_building_the_view(self, adder,
                                                         monkeypatch):
        circuit, stats = adder
        results = []
        original = search_module._single

        def spy(*args):
            results.append(original(*args))
            return results[-1]

        monkeypatch.setattr(search_module, "_single", spy)
        spec = SearchSpec(strategy="anneal", restarts=1, anneal_trials=10,
                          seed=2)
        outcome = portfolio._run_restart({
            "circuit": circuit_spec(circuit),
            "input_stats": [(net, stats[net].probability,
                             stats[net].density) for net in circuit.inputs],
            "index": 0,
            "search": spec.restart(0),
        })
        view = results[0].net_stats
        assert "_map" not in vars(view)
        assert outcome["net_stats"] == [
            (net, value.probability, value.density)
            for net, value in view.items()]

    def test_rejections(self, adder):
        circuit, stats = adder
        with pytest.raises(ValueError):
            search_circuit(circuit, stats, strategy="greedy", restarts=2)
        with pytest.raises(ValueError):
            search_circuit(circuit, stats, strategy="anneal", restarts=0)
        with pytest.raises(ValueError):
            search_circuit(circuit, stats, strategy="anneal", restarts=2,
                           jobs=0)


class TestPortfolioCli:
    BLIF = """.model fa
.inputs a b cin
.outputs s cout
.names a b cin s
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
"""

    def run_cli(self, *argv):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_jobs_flag_emits_byte_identical_artifacts(self, tmp_path):
        blif = tmp_path / "fa.blif"
        blif.write_text(self.BLIF)
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        code, text = self.run_cli(
            "search", str(blif), "--strategy", "anneal", "--restarts", "2",
            "--anneal-trials", "30", "--jobs", "1", "--out", str(serial))
        assert code == 0 and "portfolio: best of 2 restart(s)" in text
        code, _ = self.run_cli(
            "search", str(blif), "--strategy", "anneal", "--restarts", "2",
            "--anneal-trials", "30", "--jobs", "2", "--out", str(parallel))
        assert code == 0
        assert dumps_artifact(strip_timing(load_artifact(str(serial)))) \
            == dumps_artifact(strip_timing(load_artifact(str(parallel))))

    def test_portfolio_flags_require_anneal(self, tmp_path):
        blif = tmp_path / "fa.blif"
        blif.write_text(self.BLIF)
        with pytest.raises(SystemExit):
            self.run_cli("search", str(blif), "--jobs", "2")
