"""Tests for the incremental (P, D) engine (`repro.incremental`)."""

import pytest

from repro.bench.suite import get_case
from repro.circuit.netlist import CircuitError, SetConfig, SetTemplate
from repro.circuit.topology import (
    FanoutIndex,
    topological_gates,
    transitive_fanout,
)
from repro.core.optimizer import circuit_power
from repro.incremental import (
    AnalyticBackend,
    SampledBackend,
    StatsCache,
    WhatIf,
    make_backend,
)
from repro.incremental.eco import InputStatsEdit, resolve_edit, script_edit_label
from repro.sim.stimulus import ScenarioA
from repro.stochastic.density import local_stats
from repro.stochastic.signal import SignalStats
from repro.synth.mapper import map_circuit


@pytest.fixture(scope="module")
def _adder_master():
    circuit = map_circuit(get_case("rca4").network())
    stats = ScenarioA(seed=3).input_stats(circuit.inputs)
    return circuit, stats


@pytest.fixture()
def adder(_adder_master):
    # Tests edit the circuit in place; hand each one a private copy of
    # the module-scoped mapping (mapping is the expensive part).
    circuit, stats = _adder_master
    return circuit.copy(), stats


def two_pin_gate(circuit, index=0):
    gates = [g for g in circuit.gates if len(g.template.pins) == 2]
    return gates[index]


def other_two_pin_template(gate):
    return "nor2" if gate.template.name != "nor2" else "nand2"


# ----------------------------------------------------------------------
# Fanout index / cones
# ----------------------------------------------------------------------
class TestFanoutIndex:
    def test_sinks_match_linear_scan(self, adder):
        circuit, _ = adder
        index = FanoutIndex(circuit)
        for net in circuit.nets():
            expected = {(g.name, pin) for g, pin in circuit.fanout(net)}
            assert {(g.name, pin) for g, pin in index.sinks(net)} == expected

    def test_cone_is_reflexive_and_transitive(self, adder):
        circuit, _ = adder
        index = FanoutIndex(circuit)
        for gate in circuit.gates:
            cone = index.cone_from_gates([gate.name])
            assert gate.name in cone
            for sink in index.gate_sinks(gate.name):
                assert sink.name in cone
                assert index.cone_from_gates([sink.name]) <= cone

    def test_transitive_fanout_topological(self, adder):
        circuit, _ = adder
        order = {g.name: i for i, g in enumerate(topological_gates(circuit))}
        net = circuit.inputs[0]
        cone = transitive_fanout(circuit, net)
        assert cone, "an adder input reaches at least one gate"
        positions = [order[g.name] for g in cone]
        assert positions == sorted(positions)

    def test_output_gate_cone_is_singleton(self, adder):
        circuit, _ = adder
        index = FanoutIndex(circuit)
        # A gate driving only a primary output has no gate sinks.
        lonely = [
            g for g in circuit.gates
            if g.output in circuit.outputs and not index.gate_sinks(g.name)
        ]
        assert lonely
        assert index.cone_from_gates([lonely[0].name]) == {lonely[0].name}


# ----------------------------------------------------------------------
# Circuit edit API
# ----------------------------------------------------------------------
class TestEditAPI:
    def test_set_config_inverse_roundtrips(self, adder):
        circuit, _ = adder
        gate = circuit.gates[0]
        original = gate.config
        inverse = circuit.set_config(gate.name, gate.template.configurations()[-1])
        assert inverse == SetConfig(gate.name, original)
        circuit.apply_edit(inverse)
        assert gate.config == original

    def test_set_template_rebinds_and_roundtrips(self, adder):
        circuit, _ = adder
        gate = two_pin_gate(circuit)
        nets_before = dict(gate.pin_nets)
        name_before = gate.template.name
        inverse = circuit.set_template(gate.name, other_two_pin_template(gate))
        assert gate.template.name != name_before
        assert list(gate.pin_nets.values()) == list(nets_before.values())
        circuit.apply_edit(inverse)
        assert gate.template.name == name_before
        assert gate.pin_nets == nets_before

    def test_template_arity_mismatch_rejected(self, adder):
        circuit, _ = adder
        gate = two_pin_gate(circuit)
        with pytest.raises(CircuitError):
            circuit.set_template(gate.name, "inv")

    def test_unknown_edit_rejected(self, adder):
        circuit, _ = adder
        with pytest.raises(TypeError):
            circuit.apply_edit("not an edit")

    def test_listeners_fire_and_detach(self, adder):
        circuit, _ = adder
        seen = []
        circuit.add_edit_listener(lambda name, kind: seen.append((name, kind)))
        gate = circuit.gates[0]
        circuit.set_config(gate.name, None)
        assert seen == [(gate.name, "config")]
        detached = lambda name, kind: seen.append(("detached", kind))  # noqa: E731
        circuit.add_edit_listener(detached)
        circuit.remove_edit_listener(detached)
        circuit.set_config(gate.name, None)
        assert seen == [(gate.name, "config"), (gate.name, "config")]

    def test_copy_does_not_share_listeners(self, adder):
        circuit, _ = adder
        seen = []
        circuit.add_edit_listener(lambda name, kind: seen.append(name))
        clone = circuit.copy()
        clone.set_config(clone.gates[0].name, None)
        assert seen == []


# ----------------------------------------------------------------------
# StatsCache — dirty protocol and equivalence
# ----------------------------------------------------------------------
class TestStatsCacheAnalytic:
    def test_initial_full_propagation(self, adder):
        circuit, stats = adder
        with StatsCache(circuit, stats) as cache:
            assert cache.stats() == local_stats(circuit, stats)

    def test_dirty_set_is_exactly_the_cone(self, adder):
        circuit, stats = adder
        index = FanoutIndex(circuit)
        with StatsCache(circuit, stats) as cache:
            # A reordering keeps the function: no statistics go dirty.
            gate = circuit.gates[5]
            circuit.set_config(gate.name, gate.template.configurations()[-1])
            assert cache.dirty_gates == frozenset()
            # A retemplate dirties exactly its cone.
            swap = two_pin_gate(circuit)
            circuit.set_template(swap.name, other_two_pin_template(swap))
            cone = index.cone_from_gates([swap.name])
            assert len(cone) > 1
            assert cache.dirty_gates == cone
            cache.refresh()
            assert cache.dirty_gates == frozenset()

    def test_input_edit_dirties_input_cone(self, adder):
        circuit, stats = adder
        index = FanoutIndex(circuit)
        with StatsCache(circuit, stats) as cache:
            net = circuit.inputs[2]
            cache.set_input_stats(net, SignalStats(0.25, 1.0e5))
            assert cache.dirty_gates == index.cone_from_nets([net])

    def test_equal_input_stats_edit_is_a_noop(self, adder):
        circuit, stats = adder
        with StatsCache(circuit, stats) as cache:
            net = circuit.inputs[0]
            cache.set_input_stats(net, stats[net])
            assert cache.dirty_gates == frozenset()

    def test_reorder_keeps_stats_bitidentical(self, adder):
        # The output function does not depend on the ordering, so the
        # recomputed cone must land on exactly the same statistics.
        circuit, stats = adder
        with StatsCache(circuit, stats) as cache:
            before = dict(cache.stats())
            gate = circuit.gates[7]
            circuit.set_config(gate.name, gate.template.configurations()[-1])
            assert cache.stats() == before

    def test_edit_sequence_matches_from_scratch(self, adder):
        circuit, stats = adder
        current = dict(stats)
        with StatsCache(circuit, stats) as cache:
            gate = circuit.gates[1]
            circuit.set_config(gate.name, gate.template.configurations()[-1])
            assert cache.stats() == local_stats(circuit, current)

            swap = two_pin_gate(circuit, 1)
            circuit.set_template(swap.name, other_two_pin_template(swap))
            assert cache.stats() == local_stats(circuit, current)

            net = circuit.inputs[1]
            current[net] = SignalStats(0.8, 3.0e5)
            cache.set_input_stats(net, current[net])
            assert cache.stats() == local_stats(circuit, current)

    def test_power_matches_circuit_power(self, adder):
        circuit, stats = adder
        with StatsCache(circuit, stats) as cache:
            gate = two_pin_gate(circuit)
            circuit.set_template(gate.name, other_two_pin_template(gate))
            report = cache.power()
            reference = circuit_power(circuit, stats)
            assert report.total == pytest.approx(reference.total, rel=1e-12)
            for name, gate_report in reference.by_gate.items():
                assert report.by_gate[name].total == pytest.approx(
                    gate_report.total, rel=1e-12
                )

    def test_refresh_reports_recomputed_nets(self, adder):
        circuit, stats = adder
        with StatsCache(circuit, stats) as cache:
            cache.refresh()
            gate = circuit.gates[5]
            circuit.set_config(gate.name, gate.template.configurations()[-1])
            assert cache.refresh() == ()
            swap = two_pin_gate(circuit)
            circuit.set_template(swap.name, other_two_pin_template(swap))
            updated = cache.refresh()
            cone = FanoutIndex(circuit).cone_from_gates([swap.name])
            assert set(updated) == {circuit.gate(n).output for n in cone}

    def test_missing_input_stats_rejected(self, adder):
        circuit, stats = adder
        partial = dict(stats)
        partial.pop(circuit.inputs[0])
        with pytest.raises(KeyError):
            StatsCache(circuit, partial)

    def test_set_input_stats_rejects_internal_net(self, adder):
        circuit, stats = adder
        with StatsCache(circuit, stats) as cache:
            with pytest.raises(KeyError):
                cache.set_input_stats(circuit.gates[0].output, SignalStats(0.5, 1.0))


class TestStatsCacheSampled:
    LANES, STEPS, SEED = 128, 24, 11

    def fresh(self, circuit, input_stats, dt):
        return SampledBackend(lanes=self.LANES, steps=self.STEPS, dt=dt,
                              seed=self.SEED).full(circuit, input_stats)

    def test_edits_bitidentical_to_full_resample(self, adder):
        circuit, stats = adder
        dwells = [
            d for s in stats.values()
            for d in (s.mean_high_dwell, s.mean_low_dwell)
        ]
        dt = 0.2 * min(dwells)
        current = dict(stats)
        with StatsCache(circuit, stats, backend="sampled", lanes=self.LANES,
                        steps=self.STEPS, dt=dt, seed=self.SEED) as cache:
            assert cache.stats() == self.fresh(circuit, current, dt)

            gate = circuit.gates[4]
            circuit.set_config(gate.name, gate.template.configurations()[-1])
            assert cache.stats() == self.fresh(circuit, current, dt)

            swap = two_pin_gate(circuit, 2)
            circuit.set_template(swap.name, other_two_pin_template(swap))
            assert cache.stats() == self.fresh(circuit, current, dt)

            net = circuit.inputs[3]
            current[net] = SignalStats(0.6, current[net].density * 1.5)
            cache.set_input_stats(net, current[net])
            assert cache.stats() == self.fresh(circuit, current, dt)

    def test_update_before_full_rejected(self, adder):
        circuit, stats = adder
        backend = SampledBackend(lanes=8, steps=4, dt=1.0)
        with pytest.raises(RuntimeError):
            backend.update(circuit, [], stats, frozenset(), {})

    def test_dt_too_coarse_rejected(self, adder):
        circuit, stats = adder
        with pytest.raises(ValueError):
            StatsCache(circuit, stats, backend="sampled", lanes=8, steps=4,
                       dt=1.0e9)

    def test_substreams_drawn_once_per_distinct_stats(self, adder,
                                                      monkeypatch):
        # The inner-loop fix: toggling an input's statistics back and
        # forth (the WhatIf apply/rollback pattern) must not redraw a
        # stream the run has already materialised — and the cached
        # words must keep the bit-identity contract intact.
        import repro.incremental.backends as backends_module

        calls = []
        real = backends_module.markov_stream_blocks

        def counting(stats, lanes, steps, dt, rng):
            calls.append(stats)
            return real(stats, lanes, steps, dt, rng)

        monkeypatch.setattr(backends_module, "markov_stream_blocks", counting)
        circuit, stats = adder
        dwells = [
            d for s in stats.values()
            for d in (s.mean_high_dwell, s.mean_low_dwell)
        ]
        dt = 0.2 * min(dwells)
        current = dict(stats)
        with StatsCache(circuit, stats, backend="sampled", lanes=self.LANES,
                        steps=self.STEPS, dt=dt, seed=self.SEED) as cache:
            cache.stats()
            drawn_at_full = len(calls)
            assert drawn_at_full == len(circuit.inputs)
            net = circuit.inputs[0]
            edited = SignalStats(0.6, current[net].density)
            for _ in range(3):  # apply/rollback, three times over
                cache.set_input_stats(net, edited)
                cache.stats()
                cache.set_input_stats(net, current[net])
                cache.stats()
            # one new draw for the edited stats; every rollback (and
            # re-apply) comes from the cache
            assert len(calls) == drawn_at_full + 1
            current[net] = edited
            cache.set_input_stats(net, edited)
            assert cache.stats() == self.fresh(circuit, current, dt)


class TestMakeBackend:
    def test_names_resolve(self):
        assert isinstance(make_backend("analytic"), AnalyticBackend)
        assert isinstance(make_backend("sampled", lanes=8), SampledBackend)

    def test_instance_passthrough(self):
        backend = SampledBackend(lanes=8)
        assert make_backend(backend) is backend
        with pytest.raises(TypeError):
            make_backend(backend, lanes=16)

    def test_rejections(self):
        with pytest.raises(ValueError):
            make_backend("exact")
        with pytest.raises(ValueError):  # one name per source
            make_backend("local")
        with pytest.raises(TypeError):
            make_backend("analytic", lanes=8)


# ----------------------------------------------------------------------
# WhatIf — trial edits, delta power, rollback
# ----------------------------------------------------------------------
class TestWhatIf:
    def test_rollback_restores_everything_bitidentical(self, adder):
        circuit, stats = adder
        with StatsCache(circuit, stats) as cache:
            baseline_stats = dict(cache.stats())
            baseline_power = cache.total_power()
            gate = circuit.gates[2]
            swap = two_pin_gate(circuit, 3)
            with WhatIf(cache) as trial:
                trial.apply(SetConfig(gate.name, gate.template.configurations()[-1]))
                trial.apply(SetTemplate(swap.name, other_two_pin_template(swap)))
                trial.apply(InputStatsEdit(circuit.inputs[0], SignalStats(0.9, 2.0e5)))
                assert trial.delta_power() != 0.0
            assert cache.stats() == baseline_stats
            assert cache.total_power() == baseline_power

    def test_commit_keeps_edits(self, adder):
        circuit, stats = adder
        with StatsCache(circuit, stats) as cache:
            gate = two_pin_gate(circuit)
            target = other_two_pin_template(gate)
            with WhatIf(cache) as trial:
                trial.apply(SetTemplate(gate.name, target))
                trial.commit()
            assert gate.template.name == target
            assert cache.stats() == local_stats(circuit, stats)

    def test_delta_power_matches_recompute(self, adder):
        circuit, stats = adder
        with StatsCache(circuit, stats) as cache:
            before = circuit_power(circuit, stats).total
            gate = two_pin_gate(circuit, 1)
            with WhatIf(cache) as trial:
                trial.apply(SetTemplate(gate.name, other_two_pin_template(gate)))
                after = circuit_power(circuit, stats).total
                assert trial.delta_power() == pytest.approx(after - before, rel=1e-12)

    def test_rollback_runs_when_the_trial_body_raises(self, adder):
        circuit, stats = adder
        with StatsCache(circuit, stats) as cache:
            baseline_stats = dict(cache.stats())
            baseline_power = cache.total_power()
            gate = circuit.gates[3]
            with pytest.raises(RuntimeError, match="boom"):
                with WhatIf(cache) as trial:
                    trial.apply(
                        SetConfig(gate.name, gate.template.configurations()[-1])
                    )
                    raise RuntimeError("boom")
            assert cache.stats() == baseline_stats
            assert cache.total_power() == baseline_power

    def test_raising_body_aborts_even_after_commit(self, adder):
        # commit() marks intent, but a body that then raises never ran
        # to completion — the partial trial must not leak.
        circuit, stats = adder
        with StatsCache(circuit, stats) as cache:
            gate = circuit.gates[3]
            original = gate.effective_config().key()
            baseline_power = cache.total_power()
            with pytest.raises(RuntimeError, match="after commit"):
                with WhatIf(cache) as trial:
                    trial.apply(
                        SetConfig(gate.name, gate.template.configurations()[-1])
                    )
                    trial.commit()
                    raise RuntimeError("after commit")
            assert gate.effective_config().key() == original
            assert cache.total_power() == baseline_power

    def test_nested_trials_unwind_lifo(self, adder):
        # An uncommitted outer trial rolls back its own edits AND an
        # inner committed trial's (the inner commit is relative to the
        # enclosing trial, not to the world).
        circuit, stats = adder
        with StatsCache(circuit, stats) as cache:
            baseline_stats = dict(cache.stats())
            baseline_power = cache.total_power()
            outer_gate, inner_gate = circuit.gates[2], two_pin_gate(circuit, 1)
            target_template = other_two_pin_template(inner_gate)
            with WhatIf(cache) as outer:
                outer.apply(SetConfig(
                    outer_gate.name, outer_gate.template.configurations()[-1]
                ))
                with WhatIf(cache) as inner:
                    inner.apply(SetTemplate(inner_gate.name, target_template))
                    inner.commit()
                # inner edits survive while the outer trial is open
                assert inner_gate.template.name == target_template
            assert cache.stats() == baseline_stats
            assert cache.total_power() == baseline_power

    def test_nested_commit_commit_keeps_both(self, adder):
        circuit, stats = adder
        with StatsCache(circuit, stats) as cache:
            outer_gate, inner_gate = circuit.gates[2], two_pin_gate(circuit, 1)
            target_config = outer_gate.template.configurations()[-1]
            target_template = other_two_pin_template(inner_gate)
            with WhatIf(cache) as outer:
                outer.apply(SetConfig(outer_gate.name, target_config))
                with WhatIf(cache) as inner:
                    inner.apply(SetTemplate(inner_gate.name, target_template))
                    inner.commit()
                outer.commit()
            assert outer_gate.effective_config().key() == target_config.key()
            assert inner_gate.template.name == target_template
            assert cache.stats() == local_stats(circuit, stats)

    def test_out_of_order_unwinding_rejected(self, adder):
        circuit, stats = adder
        with StatsCache(circuit, stats) as cache:
            outer = WhatIf(cache).__enter__()
            inner = WhatIf(cache).__enter__()
            with pytest.raises(RuntimeError, match="LIFO"):
                outer.__exit__(None, None, None)
            # proper order still unwinds cleanly afterwards
            inner.__exit__(None, None, None)
            outer.__exit__(None, None, None)
            assert cache.trial_stack == []

    def test_rollback_is_cone_sized(self, adder):
        circuit, stats = adder
        with StatsCache(circuit, stats) as cache:
            cache.refresh()
            done = cache.gates_repropagated
            # A reorder trial and its rollback re-propagate nothing ...
            gate = circuit.gates[-1]
            with WhatIf(cache) as trial:
                trial.apply(SetConfig(gate.name,
                                      gate.template.configurations()[-1]))
                trial.power()
            cache.refresh()
            assert cache.gates_repropagated == done
            # ... a retemplate trial costs its cone each way.
            swap = two_pin_gate(circuit)
            cone = len(FanoutIndex(circuit).cone_from_gates([swap.name]))
            with WhatIf(cache) as trial:
                trial.apply(SetTemplate(swap.name,
                                        other_two_pin_template(swap)))
                trial.power()
            cache.refresh()
            assert cache.gates_repropagated - done == 2 * cone


# ----------------------------------------------------------------------
# Edit scripts (the `repro eco` vocabulary)
# ----------------------------------------------------------------------
class TestEditScripts:
    def test_reorder_resolution(self, adder):
        circuit, _ = adder
        gate = circuit.gates[0]
        edit = resolve_edit(circuit, {"op": "reorder", "gate": gate.name,
                                      "config": 0})
        assert edit == SetConfig(gate.name, gate.template.configurations()[0])
        default = resolve_edit(circuit, {"op": "reorder", "gate": gate.name,
                                         "config": -1})
        assert default == SetConfig(gate.name, None)

    def test_reorder_index_out_of_range(self, adder):
        circuit, _ = adder
        gate = circuit.gates[0]
        with pytest.raises(ValueError):
            resolve_edit(circuit, {"op": "reorder", "gate": gate.name,
                                   "config": 10_000})

    def test_retemplate_and_input_stats_resolution(self, adder):
        circuit, _ = adder
        gate = two_pin_gate(circuit)
        edit = resolve_edit(circuit, {"op": "retemplate", "gate": gate.name,
                                      "template": "nor2"})
        assert edit == SetTemplate(gate.name, "nor2")
        stats_edit = resolve_edit(circuit, {
            "op": "input-stats", "net": "a0", "probability": 0.25,
            "density": 1.5e5,
        })
        assert stats_edit == InputStatsEdit("a0", SignalStats(0.25, 1.5e5))

    def test_unknown_op_rejected(self, adder):
        circuit, _ = adder
        with pytest.raises(ValueError):
            resolve_edit(circuit, {"op": "delete-gate", "gate": "g0"})

    def test_labels_are_readable(self, adder):
        circuit, _ = adder
        assert "reorder" in script_edit_label(SetConfig("g0", None))
        assert "nor2" in script_edit_label(SetTemplate("g0", "nor2"))
        assert "input-stats" in script_edit_label(
            InputStatsEdit("a", SignalStats(0.5, 1.0))
        )
