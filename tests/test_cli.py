"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main
from repro.incremental.backends import ENGINES


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_usage_names_the_installed_script(self):
        assert build_parser().format_usage().startswith("usage: repro ")

    def test_table3_defaults(self):
        args = build_parser().parse_args(["table3"])
        assert args.subset == "quick" and args.scenario == "both"


class TestCommands:
    def test_table1(self):
        code, text = run_cli("table1")
        assert code == 0
        assert "Case 1" in text and "Case 2" in text
        assert "%" in text

    def test_table2(self):
        code, text = run_cli("table2")
        assert code == 0
        assert "aoi222" in text and "48" in text

    def test_adder(self):
        code, text = run_cli("adder", "--width", "4")
        assert code == 0
        assert "c3" in text

    def test_bench_emits_json_artifact(self, tmp_path):
        import json

        out_path = tmp_path / "bench.json"
        # Two cases so --jobs 2 actually exercises the process pool
        # (run_suite falls back to serial for a single work item).
        code, text = run_cli(
            "bench", "--cases", "maj3", "fa1", "--scenario", "A",
            "--jobs", "2", "--out", str(out_path),
        )
        assert code == 0
        assert "bench - scenario A" in text
        assert "wrote JSON artifact" in text
        artifact = json.loads(out_path.read_text())
        assert artifact["suite"]["cases"] == ["maj3", "fa1"]
        assert [r["scenario"] for r in artifact["results"]] == ["A", "A"]
        assert [r["circuit"] for r in artifact["results"]] == ["maj3", "fa1"]

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.subset == "quick" and args.jobs == 1 and args.out is None

    def test_optimize_blif(self, tmp_path):
        blif = tmp_path / "fa.blif"
        blif.write_text(
            ".model fa\n.inputs a b cin\n.outputs s\n"
            ".names a b cin s\n100 1\n010 1\n001 1\n111 1\n.end\n"
        )
        code, text = run_cli("optimize", str(blif), "--scenario", "A")
        assert code == 0
        assert "best vs worst" in text
        assert "power reduction" in text

    def test_optimize_scenario_b(self, tmp_path):
        blif = tmp_path / "g.blif"
        blif.write_text(
            ".model g\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n"
        )
        code, text = run_cli("optimize", str(blif), "--scenario", "B")
        assert code == 0
        assert "mapped gates" in text

    def test_optimize_sampled_stats_and_objective(self, tmp_path):
        blif = tmp_path / "fa.blif"
        blif.write_text(
            ".model fa\n.inputs a b cin\n.outputs s\n"
            ".names a b cin s\n100 1\n010 1\n001 1\n111 1\n.end\n"
        )
        code, text = run_cli(
            "optimize", str(blif), "--stats", "sampled", "--lanes", "64",
            "--objective", "delay-constrained",
        )
        assert code == 0
        assert "stats=sampled" in text and "lanes=64" in text
        assert "delay-constrained vs worst" in text

    def test_optimize_analytic_alias(self, tmp_path):
        blif = tmp_path / "g.blif"
        blif.write_text(
            ".model g\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n"
        )
        code, text = run_cli("optimize", str(blif), "--stats", "analytic")
        assert code == 0
        assert "stats=model" in text
        # 'local' runs the same sweep under its own label.
        code, local = run_cli("optimize", str(blif), "--stats", "local")
        assert code == 0
        assert local == text.replace("stats=model", "stats=local")

    def test_optimize_propagates_once(self, tmp_path, monkeypatch):
        # No reordering moves a statistic, so the chosen and the worst
        # run share one exact propagation.
        from repro.stochastic import density

        calls = []
        exact_stats = density.exact_stats

        def counted(*args, **kwargs):
            calls.append(1)
            return exact_stats(*args, **kwargs)

        monkeypatch.setattr(density, "exact_stats", counted)
        blif = tmp_path / "fa.blif"
        blif.write_text(FA_BLIF)
        for objective in ("best", "worst"):
            calls.clear()
            code, text = run_cli("optimize", str(blif), "--stats", "exact",
                                 "--objective", objective)
            assert code == 0 and "stats=exact" in text
            assert len(calls) == 1

    def test_optimize_has_no_passes_flag(self):
        # One pass is the whole algorithm (no reorder moves a load).
        with pytest.raises(SystemExit):
            build_parser().parse_args(["optimize", "x.blif", "--passes", "2"])

    def test_optimize_lanes_requires_sampled(self, tmp_path):
        blif = tmp_path / "g.blif"
        blif.write_text(
            ".model g\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n"
        )
        with pytest.raises(SystemExit,
                           match="^--lanes requires --stats sampled$"):
            run_cli("optimize", str(blif), "--lanes", "64")

    def test_optimize_saves_netlists(self, tmp_path):
        from repro.circuit.blif import parse_mapped_blif
        from repro.circuit.verilog import parse_verilog
        from repro.gates.library import default_library

        blif = tmp_path / "g.blif"
        blif.write_text(
            ".model g\n.inputs a b c\n.outputs y\n.names a b c y\n11- 1\n--1 1\n.end\n"
        )
        out_blif = tmp_path / "opt.blif"
        out_verilog = tmp_path / "opt.v"
        code, text = run_cli(
            "optimize", str(blif),
            "--save-blif", str(out_blif), "--save-verilog", str(out_verilog),
        )
        assert code == 0
        library = default_library()
        circuit_b = parse_mapped_blif(out_blif.read_text(), library)
        circuit_v = parse_verilog(out_verilog.read_text(), library)
        assert set(circuit_b.outputs) == {"y"}
        assert len(circuit_b) == len(circuit_v)


#: sha256 of `repro table3 --subset quick --scenario S --seed N` stdout,
#: recorded while the command still had its own per-scenario driver:
#: rendering the bench runner's rows must not change a byte.
TABLE3_QUICK_SHA256 = {
    ("A", "0"): "e83f61a993202fe862a16f4ee3e3d946"
                "fb97ab64da2fd00ceb976609d841fea8",
    ("A", "1"): "cf9c9b1107f2e18cd7b4c7233456905c"
                "4c50c6dbe2207c7132df2271bb028a4e",
    ("B", "0"): "b7a5e8f50884e1aa8a585b53f48be029"
                "60dd1498cbe3377bf20e8abc82d4c69d",
    ("B", "1"): "68e62f52d74131bfa30abba9e12a5b16"
                "9ec0cde3259aa13ca7834d2dd50eed73",
    ("both", "0"): "9ec9ae34fabd8475029bd65cab91862e"
                   "78d8c703968960b56d1cc0158f6af836",
    ("both", "1"): "bee04fd77e43dc936c26eea5bdc31aac"
                   "091cc98ed590edafe966f1ed51a9b6a9",
}


class TestTable3Command:
    @pytest.mark.parametrize("scenario, seed", sorted(TABLE3_QUICK_SHA256))
    def test_quick_stdout_is_pinned(self, scenario, seed):
        import hashlib

        code, text = run_cli("table3", "--subset", "quick",
                             "--scenario", scenario, "--seed", seed)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() \
            == TABLE3_QUICK_SHA256[scenario, seed]

    def test_maps_each_case_once(self, monkeypatch):
        import repro.analysis.experiments as experiments
        import repro.bench.runner as runner
        from repro.bench.suite import benchmark_suite

        mapped = []
        real_map = runner.map_circuit

        def counting_map(network, *args, **kwargs):
            mapped.append(network.name)
            return real_map(network, *args, **kwargs)

        monkeypatch.setattr(runner, "map_circuit", counting_map)
        monkeypatch.setattr(experiments, "map_circuit", counting_map)
        code, _ = run_cli("table3", "--subset", "quick")
        assert code == 0
        assert sorted(mapped) == sorted(
            case.network().name for case in benchmark_suite("quick"))


FA_BLIF = (
    ".model fa\n.inputs a b cin\n.outputs s cout\n"
    ".names a b cin s\n100 1\n010 1\n001 1\n111 1\n"
    ".names a b cin cout\n11- 1\n1-1 1\n-11 1\n.end\n"
)


class TestEco:
    def write_inputs(self, tmp_path, script):
        import json

        blif = tmp_path / "fa.blif"
        blif.write_text(FA_BLIF)
        script_path = tmp_path / "edits.json"
        script_path.write_text(json.dumps(script))
        return str(blif), str(script_path)

    def test_eco_reports_per_edit_deltas(self, tmp_path):
        import json

        blif, script = self.write_inputs(tmp_path, [
            {"op": "reorder", "gate": "g0", "config": 1},
            {"op": "input-stats", "net": "a", "probability": 0.3,
             "density": 2.0e5},
            {"op": "reorder", "gate": "g0", "config": -1},
        ])
        out_path = tmp_path / "eco.json"
        code, text = run_cli("eco", blif, script, "--out", str(out_path))
        assert code == 0
        assert "eco - fa" in text
        assert "input-stats a" in text
        assert "3 edits" in text
        artifact = json.loads(out_path.read_text())
        assert artifact["eco"]["backend"] == "analytic"
        assert len(artifact["results"]) == 3
        rows = artifact["results"]
        # consecutive rows chain: power_after of row k = power_before of k+1
        for before, after in zip(rows, rows[1:]):
            assert after["power_before"] == before["power_after"]
        # a reordering re-propagates nothing; the input edit re-propagates
        # its cone, fewer gates than a from-scratch sweep
        assert [r["cone"] for r in rows][::2] == [0, 0]
        assert 0 < rows[1]["cone"] <= artifact["eco"]["gates"]

    def test_eco_same_template_retemplate_has_no_cone(self, tmp_path):
        import json

        from repro.circuit.blif import load_blif
        from repro.synth.mapper import map_circuit

        blif, _ = self.write_inputs(tmp_path, [])
        own = map_circuit(load_blif(blif)).gate("g1").template.name
        blif, script = self.write_inputs(tmp_path, [
            {"op": "reorder", "gate": "g1", "config": 1},
            {"op": "retemplate", "gate": "g1", "template": own},
        ])
        out_path = tmp_path / "eco.json"
        code, _ = run_cli("eco", blif, script, "--out", str(out_path))
        assert code == 0
        rows = json.loads(out_path.read_text())["results"]
        # Back to the own template's default ordering: a reorder, so it
        # re-propagates nothing and undoes the first row's power change.
        assert [r["cone"] for r in rows] == [0, 0]
        assert rows[1]["power_after"] == rows[0]["power_before"]

    def test_eco_sampled_backend(self, tmp_path):
        blif, script = self.write_inputs(tmp_path, [
            {"op": "reorder", "gate": "g1", "config": 0},
        ])
        code, text = run_cli("eco", blif, script, "--backend", "sampled",
                             "--lanes", "64")
        assert code == 0
        assert "backend=sampled" in text

    def test_eco_sampled_dt_too_coarse_has_clean_error_and_remedy(self, tmp_path):
        # An input-stats edit far above the initial densities shrinks the
        # dwell times below the backend's frozen default dt.
        blif, script = self.write_inputs(tmp_path, [
            {"op": "input-stats", "net": "a", "probability": 0.5,
             "density": 1.0e9},
        ])
        with pytest.raises(SystemExit, match="--dt"):
            run_cli("eco", blif, script, "--backend", "sampled",
                    "--lanes", "16", "--steps", "8")
        code, text = run_cli("eco", blif, script, "--backend", "sampled",
                             "--lanes", "16", "--steps", "8", "--dt", "1e-10")
        assert code == 0
        assert "1 edits" in text

    @pytest.mark.parametrize("script, message", [
        (["x"], "script entry 0: expected a JSON object"),
        ([{"op": "reorder", "gate": 5, "config": 0}],
         "script entry 0: reorder entry field 'gate' must be a string"),
        # Values of the wrong JSON type: no silent truncation to an
        # index, and no TypeError traceback from deep inside.
        ([{"op": "reorder", "gate": "g0", "config": 2.5}],
         "script entry 0: reorder entry field 'config' must be an integer"),
        ([{"op": "reorder", "gate": "g0", "config": True}],
         "script entry 0: reorder entry field 'config' must be an integer"),
        ([{"op": "input-stats", "net": "a", "probability": None,
           "density": 1.0e5}],
         "script entry 0: input-stats entry field 'probability' must be a "
         "finite number"),
        ([{"op": "add-gate", "gate": "b0", "template": "inv", "pins": ["a"],
           "output": "b0_n"}],
         "script entry 0: add-gate entry field 'pins' must be an object"),
        ([{"op": "input-arrival", "net": "a", "arrival": [1]}],
         "script entry 0: input-arrival entry field 'arrival' must be a "
         "finite number"),
        # Well-typed but out of range.
        ([{"op": "input-stats", "net": "a", "probability": 1.5,
           "density": 1.0e5}],
         "script entry 0: probability 1.5 outside [0, 1]"),
        ([{"op": "reorder", "gate": "g0", "config": 99}],
         "script entry 0: gate g0 (nand3): config index 99 outside 0..5"),
        ([{"op": "add-gate", "gate": "b0", "template": "inv",
           "pins": {"b": "a"}, "output": "b0_n"}],
         "script entry 0: add-gate b0: pins ['b'] do not match template "
         "'inv' pins ['a']"),
        ([{"op": "retemplate", "gate": "g0", "template": "nope"}],
         "script entry 0: unknown template 'nope'; available: "),
    ])
    def test_eco_malformed_entry_is_a_one_line_error(self, tmp_path, script,
                                                     message):
        blif, script_path = self.write_inputs(tmp_path, script)
        with pytest.raises(SystemExit) as exit_info:
            run_cli("eco", blif, script_path)
        text = str(exit_info.value.code)
        assert text.startswith("eco failed: ")
        assert message in text
        assert "\n" not in text

    def test_eco_timing_prices_delay_incrementally(self, tmp_path):
        import json

        from repro.circuit.blif import parse_blif
        from repro.incremental.eco import (
            InputArrivalEdit,
            InputStatsEdit,
            resolve_edit,
        )
        from repro.synth.mapper import map_circuit
        from repro.timing.sta import analyze_timing

        circuit = map_circuit(parse_blif(FA_BLIF))
        last = circuit.gates[-1]
        script = [
            {"op": "reorder", "gate": "g0", "config": 1},
            {"op": "input-stats", "net": "a", "probability": 0.3,
             "density": 2.0e5},
            {"op": "add-gate", "gate": "b0", "template": "inv",
             "pins": {"a": "a"}, "output": "a_n"},
            {"op": "rewire", "gate": last.name, "pin": last.template.pins[0],
             "net": "a_n"},
            {"op": "input-arrival", "net": "b", "arrival": 2.0e-10},
            {"op": "reorder", "gate": "g0", "config": -1},
        ]
        blif, script_path = self.write_inputs(tmp_path, script)
        out_path = tmp_path / "eco.json"
        code, text = run_cli("eco", blif, script_path, "--out", str(out_path))
        assert code == 0
        assert "retimed" in text and "re-timed" in text
        artifact = json.loads(out_path.read_text())
        assert "timing" not in artifact["eco"]
        # Each delay equals the reference STA of the script replayed up
        # to that edit; the work is cone-sized.
        for stop, row in enumerate(artifact["results"]):
            work = circuit.copy()
            arrivals = {net: 0.0 for net in work.inputs}
            for index, entry in enumerate(script[:stop + 1]):
                edit = resolve_edit(work, entry, index)
                if isinstance(edit, InputArrivalEdit):
                    arrivals[edit.net] = edit.arrival
                elif not isinstance(edit, InputStatsEdit):
                    work.apply_edit(edit)
            assert row["delay_after"] == analyze_timing(
                work, input_arrivals=arrivals, compiled=False).delay
            assert row["delta_delay"] \
                == row["delay_after"] - row["delay_before"]
            assert 0 <= row["retimed"] <= artifact["eco"]["gates"]

    def test_eco_rejects_non_list_script(self, tmp_path):
        import json

        blif = tmp_path / "fa.blif"
        blif.write_text(FA_BLIF)
        script_path = tmp_path / "edits.json"
        script_path.write_text(json.dumps({"op": "reorder"}))
        with pytest.raises(SystemExit):
            run_cli("eco", str(blif), str(script_path))

    def test_eco_lanes_requires_sampled(self, tmp_path):
        blif, script = self.write_inputs(tmp_path, [])
        refusal = "^--lanes, --steps requires --backend sampled$"
        with pytest.raises(SystemExit, match=refusal):
            run_cli("eco", blif, script, "--lanes", "64", "--steps", "8")

    @pytest.mark.parametrize("backend", list(ENGINES))
    def test_eco_takes_every_engine(self, tmp_path, backend):
        blif, script = self.write_inputs(tmp_path, [
            {"op": "reorder", "gate": "g1", "config": 0},
        ])
        code, text = run_cli("eco", blif, script, "--backend", backend)
        assert code == 0
        assert f"backend={backend}" in text


class TestInputErrors:
    """A bad input ends the run with one line naming it, no traceback."""

    FILES = {
        "fa.blif": FA_BLIF,
        "edits.json": "[]",
        "syntax.blif": ".model m\n.inputs a\n.outputs y\n.names\n",
        "undriven.blif": ".model m\n.inputs a\n.outputs y\n.end\n",
        "cube.blif": ".model m\n.inputs a\n.outputs y\n.names a y\n2 1\n",
        "mixed.blif": ".model m\n.inputs a\n.outputs y\n.names a y\n"
                      "1 1\n0 0\n",
        "bad.json": "[{\"op\": ",
        "stats_net.json": '[{"op": "input-stats", "net": "s", '
                          '"probability": 0.5, "density": 1e5}]',
        "arrival_net.json": '[{"op": "reorder", "gate": "g0", "config": 0}, '
                            '{"op": "input-arrival", "net": "nope", '
                            '"arrival": 1e-10}]',
    }

    @pytest.mark.parametrize("argv, message", [
        (["bench", "--cases", "nonexistent"],
         "bench: no benchmark named 'nonexistent'"),
        (["optimize", "<missing.blif>"],
         "optimize: <missing.blif>: No such file or directory"),
        (["search", "<missing.blif>"],
         "search: <missing.blif>: No such file or directory"),
        (["eco", "<missing.blif>", "<edits.json>"],
         "eco: <missing.blif>: No such file or directory"),
        (["eco", "<fa.blif>", "<missing.json>"],
         "eco: <missing.json>: No such file or directory"),
        (["optimize", "<syntax.blif>"],
         "optimize: <syntax.blif>: line 4: .names needs at least an "
         "output"),
        (["eco", "<undriven.blif>", "<edits.json>"],
         "eco: <undriven.blif>: primary output 'y' has no driver"),
        (["optimize", "<cube.blif>"],
         "optimize: <cube.blif>: line 5: invalid cube characters ['2'] "
         "in '2'"),
        (["optimize", "<mixed.blif>"],
         "optimize: <mixed.blif>: line 4: node y: mixed ON-set/OFF-set "
         "cover"),
        (["eco", "<fa.blif>", "<bad.json>"],
         "eco: <bad.json>: Expecting value"),
        (["eco", "<fa.blif>", "<stats_net.json>"],
         "eco failed: script entry 0: input-stats net 's' is not a "
         "primary input"),
        (["eco", "<fa.blif>", "<arrival_net.json>"],
         "eco failed: script entry 1: input-arrival net 'nope' is not a "
         "primary input"),
    ], ids=["unknown-case", "optimize-missing-blif", "search-missing-blif",
            "eco-missing-blif", "eco-missing-script", "blif-syntax",
            "blif-undriven-output", "blif-bad-cube", "blif-mixed-cover",
            "script-not-json", "input-stats-net",
            "input-arrival-net"])
    def test_one_line_error(self, tmp_path, argv, message):
        paths = {"missing.blif": str(tmp_path / "missing.blif"),
                 "missing.json": str(tmp_path / "missing.json")}
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text)
            paths[name] = str(tmp_path / name)

        def fill(text):
            for name, path in paths.items():
                text = text.replace(f"<{name}>", path)
            return text

        with pytest.raises(SystemExit) as exit_info:
            run_cli(*map(fill, argv))
        text = str(exit_info.value.code)
        assert text.startswith(fill(message))
        assert "\n" not in text


class TestSearchCommand:
    def write_blif(self, tmp_path):
        blif = tmp_path / "fa.blif"
        blif.write_text(FA_BLIF)
        return str(blif)

    def test_search_reports_trace_and_artifact(self, tmp_path):
        import json

        blif = self.write_blif(tmp_path)
        out_path = tmp_path / "search.json"
        code, text = run_cli("search", blif, "--out", str(out_path))
        assert code == 0
        assert "search - fa" in text
        assert "greedy/power" in text
        assert "power reduction" not in text  # search prints its own summary
        assert "reduction" in text
        assert "re-propagated" in text
        artifact = json.loads(out_path.read_text())
        assert artifact["search"]["strategy"] == "greedy"
        assert artifact["search"]["scenario"] == "A"
        assert artifact["accepted_count"] == len(artifact["moves"])
        assert artifact["final"]["power"] <= artifact["baseline"]["power"]
        # every traced move is a replayable eco-script entry
        for move in artifact["moves"]:
            assert move["edit"]["op"] in ("reorder", "retemplate")

    def test_search_artifact_is_byte_stable(self, tmp_path):
        from repro.bench.runner import dumps_artifact, load_artifact, strip_timing

        blif = self.write_blif(tmp_path)
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        run_cli("search", blif, "--strategy", "anneal", "--seed", "5",
                "--anneal-trials", "40", "--out", str(one))
        run_cli("search", blif, "--strategy", "anneal", "--seed", "5",
                "--anneal-trials", "40", "--out", str(two))
        assert dumps_artifact(strip_timing(load_artifact(str(one)))) == \
            dumps_artifact(strip_timing(load_artifact(str(two))))

    def test_search_power_delay_trace_is_stable_and_replays_via_sta(
            self, tmp_path):
        # The power-delay objective now prices every trial through the
        # incremental TimingCache; the artifact's per-move delay trace
        # must (a) be byte-stable across runs and (b) replay exactly:
        # applying the accepted-move script to a fresh circuit and
        # running a from-scratch STA after each edit reproduces every
        # delay_after bit-for-bit.
        import json

        from repro.circuit.blif import load_blif
        from repro.incremental.eco import resolve_edit
        from repro.synth.mapper import map_circuit
        from repro.timing.sta import analyze_timing

        from repro.bench.runner import dumps_artifact, load_artifact, strip_timing

        blif = self.write_blif(tmp_path)
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        argv = ["search", blif, "--objective", "power-delay",
                "--delay-weight", "0.4", "--seed", "3"]
        code, text = run_cli(*argv, "--out", str(one))
        assert code == 0
        assert "re-timed" in text and "full STA per trial" in text
        run_cli(*argv, "--out", str(two))
        assert dumps_artifact(strip_timing(load_artifact(str(one)))) == \
            dumps_artifact(strip_timing(load_artifact(str(two))))

        artifact = json.loads(one.read_text())
        assert artifact["gates_retimed"] > 0
        circuit = map_circuit(load_blif(blif))
        for move in artifact["moves"]:
            circuit.apply_edit(resolve_edit(circuit, move["edit"]))
            assert analyze_timing(circuit).delay == move["delay_after"]
        assert analyze_timing(circuit).delay == artifact["final"]["delay"]

    def test_search_saves_blif(self, tmp_path):
        from repro.circuit.blif import parse_mapped_blif
        from repro.gates.library import default_library

        blif = self.write_blif(tmp_path)
        out_blif = tmp_path / "searched.blif"
        code, text = run_cli("search", blif, "--save-blif", str(out_blif))
        assert code == 0
        assert "wrote mapped BLIF" in text
        restored = parse_mapped_blif(out_blif.read_text(), default_library())
        assert len(restored) > 0

    def test_search_sampled_backend(self, tmp_path):
        blif = self.write_blif(tmp_path)
        code, text = run_cli("search", blif, "--backend", "sampled",
                             "--lanes", "32", "--steps", "8", "--max-moves", "3")
        assert code == 0
        assert "backend=sampled" in text

    def test_search_lanes_requires_sampled(self, tmp_path):
        blif = self.write_blif(tmp_path)
        with pytest.raises(SystemExit,
                           match="^--lanes requires --backend sampled$"):
            run_cli("search", blif, "--lanes", "64")

    def test_search_delay_weight_validation(self, tmp_path):
        blif = self.write_blif(tmp_path)
        with pytest.raises(SystemExit, match="power-delay"):
            run_cli("search", blif, "--delay-weight", "0.7")
        with pytest.raises(SystemExit, match="between 0 and 1"):
            run_cli("search", blif, "--objective", "power-delay",
                    "--delay-weight", "1.5")

    def test_search_defaults(self):
        args = build_parser().parse_args(["search", "x.blif"])
        assert args.strategy == "greedy"
        assert args.objective == "power"
        assert not args.retemplate and not args.polish

    def test_search_portfolio_flags_require_anneal(self, tmp_path):
        blif = self.write_blif(tmp_path)
        with pytest.raises(SystemExit, match="--strategy anneal"):
            run_cli("search", blif, "--restarts", "2")
        with pytest.raises(SystemExit, match="--strategy anneal"):
            run_cli("search", blif, "--jobs", "2")

    def test_restarts_help_states_the_real_default(self):
        # the help text is built from DEFAULT_RESTARTS, not a literal,
        # so the two can never drift apart; introspect the action
        # (matching --help output is fragile under argparse wrapping).
        import argparse

        from repro.incremental.portfolio import DEFAULT_RESTARTS

        parser = build_parser()
        subactions = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        search = subactions.choices["search"]
        restarts = next(a for a in search._actions
                        if "--restarts" in a.option_strings)
        assert f"default {DEFAULT_RESTARTS} when --jobs" in restarts.help


class TestRobustCLI:
    """Checkpoint/resume and supervision flags on search and bench."""

    def write_blif(self, tmp_path):
        blif = tmp_path / "fa.blif"
        blif.write_text(FA_BLIF)
        return str(blif)

    def test_checkpoint_then_resume_is_byte_identical(self, tmp_path):
        from repro.bench.runner import dumps_artifact, load_artifact, \
            strip_timing

        blif = self.write_blif(tmp_path)
        plain, resumed = tmp_path / "plain.json", tmp_path / "resumed.json"
        ck = tmp_path / "run.ck.json"
        code, _ = run_cli("search", blif, "--strategy", "anneal",
                          "--seed", "5", "--anneal-trials", "40",
                          "--out", str(plain))
        assert code == 0
        code, _ = run_cli("search", blif, "--strategy", "anneal",
                          "--seed", "5", "--anneal-trials", "40",
                          "--checkpoint", str(ck), "--checkpoint-every", "1",
                          "--out", str(tmp_path / "ignored.json"))
        assert code == 0 and ck.exists()
        code, text = run_cli("search", blif, "--strategy", "anneal",
                             "--seed", "5", "--anneal-trials", "40",
                             "--resume", str(ck), "--out", str(resumed))
        assert code == 0
        assert dumps_artifact(strip_timing(load_artifact(str(resumed)))) == \
            dumps_artifact(strip_timing(load_artifact(str(plain))))

    def test_resume_rejects_mismatched_parameters(self, tmp_path):
        blif = self.write_blif(tmp_path)
        ck = tmp_path / "run.ck.json"
        run_cli("search", blif, "--strategy", "anneal", "--seed", "5",
                "--anneal-trials", "40", "--checkpoint", str(ck),
                "--checkpoint-every", "1",
                "--out", str(tmp_path / "a.json"))
        with pytest.raises(SystemExit, match="different search"):
            run_cli("search", blif, "--strategy", "anneal", "--seed", "6",
                    "--anneal-trials", "40", "--resume", str(ck),
                    "--out", str(tmp_path / "b.json"))

    def test_checkpoint_every_requires_checkpoint(self, tmp_path):
        blif = self.write_blif(tmp_path)
        with pytest.raises(SystemExit, match="--checkpoint"):
            run_cli("search", blif, "--checkpoint-every", "4")

    def test_deadline_requires_portfolio(self, tmp_path):
        blif = self.write_blif(tmp_path)
        with pytest.raises(SystemExit, match="--restarts/--jobs"):
            run_cli("search", blif, "--deadline", "10")

    def test_search_robust_defaults(self):
        args = build_parser().parse_args(["search", "x.blif"])
        assert args.checkpoint is None and args.resume is None
        assert args.checkpoint_every is None
        assert args.deadline is None and args.retries == 2

    def test_bench_robust_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.case_timeout is None and args.retries == 2


class TestTraceCLI:
    """--trace / REPRO_TRACE plumbing and the trace summarize subcommand."""

    def write_blif(self, tmp_path):
        blif = tmp_path / "fa.blif"
        blif.write_text(FA_BLIF)
        return str(blif)

    def test_trace_flag_writes_trace_without_perturbing_artifact(
            self, tmp_path):
        from repro.bench.runner import dumps_artifact, load_artifact, \
            strip_timing
        from repro.obs import trace
        from repro.obs.summarize import summarize_file

        blif = self.write_blif(tmp_path)
        plain_out = tmp_path / "plain.json"
        traced_out = tmp_path / "traced.json"
        trace_path = tmp_path / "run.jsonl"

        code, plain_text = run_cli("search", blif, "--out", str(plain_out))
        assert code == 0
        code, traced_text = run_cli("search", blif, "--out", str(traced_out),
                                    "--trace", str(trace_path))
        assert code == 0
        # tracing must not change a byte of the report or the artifact
        assert traced_text.replace(str(traced_out), str(plain_out)) == \
            plain_text
        assert dumps_artifact(strip_timing(load_artifact(str(traced_out)))) \
            == dumps_artifact(strip_timing(load_artifact(str(plain_out))))
        # the tracer is closed and cleared once main() returns
        assert trace.ACTIVE is None
        summary = summarize_file(str(trace_path))
        assert summary.records > 0
        assert summary.unclosed == []
        assert any(entry.name == "search" for entry in summary.spans)

    def test_env_var_enables_tracing(self, tmp_path, monkeypatch):
        from repro.obs import trace
        from repro.obs.summarize import summarize_file

        blif = self.write_blif(tmp_path)
        trace_path = tmp_path / "env.jsonl"
        monkeypatch.setenv(trace.ENV_VAR, str(trace_path))
        code, _ = run_cli("optimize", blif)
        assert code == 0
        assert trace.ACTIVE is None
        assert summarize_file(str(trace_path)).records > 0

    def test_trace_summarize_renders_table(self, tmp_path):
        blif = self.write_blif(tmp_path)
        trace_path = tmp_path / "run.jsonl"
        run_cli("search", blif, "--trace", str(trace_path))
        code, text = run_cli("trace", "summarize", str(trace_path),
                             "--top", "3")
        assert code == 0
        assert "trace summary" in text
        assert "slowest spans (top 3)" in text
        assert "search" in text
        assert "final metrics snapshot:" in text
        assert "stats.refresh_count" in text
        # byte-deterministic: summarizing the same file twice matches
        code, again = run_cli("trace", "summarize", str(trace_path),
                              "--top", "3")
        assert text == again

    def test_trace_summarize_missing_file_is_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="trace summarize"):
            run_cli("trace", "summarize", str(tmp_path / "nope.jsonl"))

    def test_trace_summarize_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_trace_merge_without_shards_is_a_noop(self, tmp_path):
        blif = self.write_blif(tmp_path)
        trace_path = tmp_path / "run.jsonl"
        run_cli("search", blif, "--trace", str(trace_path))
        before = trace_path.read_bytes()
        code, text = run_cli("trace", "merge", str(trace_path))
        assert code == 0
        assert "no shards found" in text
        assert trace_path.read_bytes() == before

    def test_trace_merge_out_flag_writes_copy(self, tmp_path):
        import json

        blif = self.write_blif(tmp_path)
        trace_path = tmp_path / "run.jsonl"
        run_cli("search", blif, "--trace", str(trace_path))
        merged = tmp_path / "merged.jsonl"
        code, text = run_cli("trace", "merge", str(trace_path),
                             "-o", str(merged))
        assert code == 0 and "merged 0 shard(s)" in text
        lines = merged.read_text().splitlines()
        assert lines
        assert all(isinstance(json.loads(line), dict) for line in lines)

    def test_trace_export_chrome_to_stdout_parses(self, tmp_path):
        import json

        blif = self.write_blif(tmp_path)
        trace_path = tmp_path / "run.jsonl"
        run_cli("search", blif, "--trace", str(trace_path))
        code, text = run_cli("trace", "export", str(trace_path),
                             "--format", "chrome")
        assert code == 0
        doc = json.loads(text)
        assert doc["displayTimeUnit"] == "ms"
        assert doc["traceEvents"]
        assert all(e["ph"] in ("B", "E", "i", "C") for e in doc["traceEvents"])

        out_path = tmp_path / "run.chrome.json"
        code, text = run_cli("trace", "export", str(trace_path),
                             "-o", str(out_path))
        assert code == 0 and "wrote chrome trace" in text
        assert json.loads(out_path.read_text()) == doc

    def test_trace_export_missing_file_is_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="trace export"):
            run_cli("trace", "export", str(tmp_path / "nope.jsonl"))

    def test_progress_flag_streams_to_stderr(self, tmp_path, capsys):
        import json

        from repro.bench.runner import dumps_artifact, load_artifact, \
            strip_timing
        from repro.obs import trace

        blif = self.write_blif(tmp_path)
        code, _ = run_cli("search", blif, "--out", str(tmp_path / "p.json"))
        assert code == 0
        capsys.readouterr()
        plain = dumps_artifact(strip_timing(load_artifact(
            str(tmp_path / "p.json"))))
        for extra in ([], ["--trace", str(tmp_path / "t.jsonl")]):
            out = str(tmp_path / "progress.json")
            code, text = run_cli("search", blif, "--progress", "--out", out,
                                 *extra)
            assert code == 0
            assert trace.ACTIVE is None  # cleared once main() returns
            err = capsys.readouterr().err
            assert "search.round" in err
            # progress must stay off the artifact/report channel
            assert "search.round" not in text
            assert dumps_artifact(strip_timing(load_artifact(out))) == plain
        # With --trace, the heartbeat and the file share one stream.
        records = [json.loads(line) for line in
                   (tmp_path / "t.jsonl").read_text().splitlines()]
        assert any(r.get("name") == "search.round" for r in records)

    def test_eco_artifact_unperturbed_by_tracing(self, tmp_path):
        import json

        from repro.bench.runner import dumps_artifact, load_artifact, \
            strip_timing

        blif = tmp_path / "fa.blif"
        blif.write_text(FA_BLIF)
        script_path = tmp_path / "edits.json"
        script_path.write_text(json.dumps([
            {"op": "reorder", "gate": "g0", "config": 1},
            {"op": "reorder", "gate": "g1", "config": 0},
        ]))
        plain_out = tmp_path / "plain.json"
        traced_out = tmp_path / "traced.json"
        code, _ = run_cli("eco", str(blif), str(script_path),
                          "--out", str(plain_out))
        assert code == 0
        code, _ = run_cli("eco", str(blif), str(script_path),
                          "--out", str(traced_out),
                          "--trace", str(tmp_path / "eco.jsonl"))
        assert code == 0
        assert dumps_artifact(strip_timing(load_artifact(str(traced_out)))) \
            == dumps_artifact(strip_timing(load_artifact(str(plain_out))))
