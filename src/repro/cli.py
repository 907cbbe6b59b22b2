"""Command-line interface: ``repro`` (or ``python -m repro``).

Subcommands::

    table1                 regenerate the motivation example (Table 1b)
    table2                 regenerate the library configuration counts
    table3 [--subset ...]  regenerate the main evaluation (Table 3)
    bench [--jobs N ...]   parallel Table-3 sweep -> JSON result artifact
    adder [--width N]      the ripple-carry activity profile (§1.1)
    optimize FILE.blif     map + optimise a BLIF circuit, report savings
    eco FILE.blif SCRIPT   replay a JSON edit script incrementally,
                           reporting per-edit delta power/delay and
                           the cone each edit re-propagated and re-timed
    search FILE.blif       delta-driven ECO local search (greedy or
                           annealing) over the incremental engine
    trace summarize FILE   per-span profile of a JSONL trace written by
                           --trace / REPRO_TRACE (see repro.obs)
    trace merge FILE       interleave worker trace shards
                           (FILE.pid<N>.jsonl) back into FILE
    trace export FILE      convert a trace to Chrome trace-event JSON
                           (open in chrome://tracing)
    bench baseline ART...  record bench artifacts' headline metrics in
                           a perf baseline (benchmarks/BASELINE.json)
    bench check [ART...]   compare bench artifacts (or a fresh run)
                           against the baseline; nonzero on regression

``--trace PATH`` on ``search``/``eco``/``optimize``/``bench`` (or the
``REPRO_TRACE`` environment variable, honoured by every subcommand)
streams span/metrics events to a JSONL file while the run's printed
output and artifacts stay byte-identical; multi-process runs shard per
worker pid and the shards are merged automatically on exit.
``--progress`` on the same subcommands renders that stream as
rate-limited live status lines on stderr (greedy rounds, anneal
trials, resumes, restart and bench-case completions), with or without
a trace file.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis.experiments import run_adder_activity, run_table1
from .analysis.report import format_percent, format_si, format_table
from .analysis.stats import mean
from .core.optimizer import OBJECTIVES
from .incremental.backends import DEFAULT_ENGINE, ENGINES

__all__ = ["main", "build_parser"]

#: ``repro optimize --stats`` choices: the label the report prints and
#: the :func:`~repro.stochastic.density.propagate_stats` engine.  The
#: paper's flow (``model``) is the analytic sweep, also spelt
#: ``analytic`` (printed as ``model``) and ``local``.
_STATS_CHOICES = {
    "model": ("model", "analytic"),
    "analytic": ("model", "analytic"),
    "local": ("local", "analytic"),
    "exact": ("exact", "exact"),
    "sampled": ("sampled", "sampled"),
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}")
    return value


def _add_obs_args(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--trace", metavar="PATH",
        help="stream a JSONL span/metrics trace of this run here "
             "(overrides REPRO_TRACE; printed output and artifacts are "
             "unchanged — inspect with 'repro trace summarize PATH'; "
             "worker shards are merged into PATH on exit)",
    )
    subparser.add_argument(
        "--progress", action="store_true",
        help="stream rate-limited live status lines to stderr "
             "(rounds, anneal steps, restarts, bench cases)",
    )


def _add_spec_args(subparser: argparse.ArgumentParser) -> None:
    """One flag per :class:`~repro.incremental.spec.SearchSpec` field
    that has one, with the field's default, choices and help."""
    from dataclasses import fields
    from typing import get_args, get_type_hints

    from .incremental.spec import SearchSpec, flag, render

    hints = get_type_hints(SearchSpec)
    for spec_field in fields(SearchSpec):
        option, meta = flag(spec_field.name), spec_field.metadata
        if option is None:
            continue
        kwargs = {"default": spec_field.default,
                  "help": render(meta["help"], flag)}
        hint = hints[spec_field.name]
        if hint is bool:
            kwargs["action"] = "store_true"
        elif "choices" in meta:
            kwargs.update(choices=list(meta["choices"]),
                          nargs="+" if meta.get("many") else None,
                          metavar=meta.get("metavar"))
        else:  # Optional[int] -> int, float -> float, Optional[str] -> str
            kwargs.update(type=(get_args(hint) or (hint,))[0],
                          metavar=meta.get("metavar"))
        subparser.add_argument(option, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Musoll & Cortadella (DATE 1996): transistor "
            "reordering for low power."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="motivation gate, two activity cases")
    sub.add_parser("table2", help="library configuration counts")

    p3 = sub.add_parser("table3", help="main evaluation over the suite")
    p3.add_argument("--subset", choices=["quick", "full"], default="quick")
    p3.add_argument("--scenario", choices=["A", "B", "both"], default="both")
    p3.add_argument("--seed", type=int, default=0)

    pb = sub.add_parser(
        "bench",
        help="run the benchmark sweep in parallel and emit a JSON artifact",
    )
    pb.add_argument("--subset", choices=["quick", "full"], default="quick")
    pb.add_argument("--scenario", choices=["A", "B", "both"], default="both")
    pb.add_argument("--jobs", type=_positive_int, default=1,
                    help="worker processes (1 = run serially in-process)")
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--out", metavar="PATH",
                    help="write the JSON result artifact here")
    pb.add_argument("--cases", nargs="+", metavar="NAME",
                    help="explicit case names (overrides --subset)")
    pb.add_argument("--case-timeout", type=float, default=None,
                    metavar="SECONDS",
                    help="per-case wall-time budget; a case that "
                         "exceeds it is killed, retried, and finally "
                         "recorded as a status=timeout row (routes the "
                         "run through supervised workers)")
    pb.add_argument("--retries", type=_nonnegative_int, default=2,
                    metavar="N",
                    help="extra attempts for a case that raises, "
                         "crashes its worker or times out before its "
                         "error row is recorded (default 2)")
    _add_obs_args(pb)
    # Optional nested subcommands: plain `repro bench [flags]` still
    # runs the sweep (bench_command stays None).
    bsub = pb.add_subparsers(dest="bench_command", required=False,
                             metavar="{check,baseline}")
    pbc = bsub.add_parser(
        "check",
        help="compare bench artifacts (or a fresh quick-suite run) "
             "against a perf baseline; exit 1 on regression",
    )
    pbc.add_argument("artifacts", nargs="*", metavar="ARTIFACT",
                     help="bench/suite JSON artifacts to check; none = "
                          "run the suite fresh (see --subset/--jobs)")
    pbc.add_argument("--baseline", metavar="PATH",
                     default="benchmarks/BASELINE.json",
                     help="baseline store (default benchmarks/BASELINE.json)")
    pbc.add_argument("--tolerance", type=float, default=None,
                     help="override the per-kind relative tolerances "
                          "(e.g. 0.2 = fail beyond ±20%%)")
    pbc.add_argument("--subset", choices=["quick", "full"], default="quick",
                     help="suite subset for the fresh run (no artifacts)")
    pbc.add_argument("--scenario", choices=["A", "B", "both"],
                     default="both")
    pbc.add_argument("--jobs", type=_positive_int, default=1)
    pbc.add_argument("--seed", type=int, default=0)
    pbb = bsub.add_parser(
        "baseline",
        help="record bench artifacts' headline metrics as new entries "
             "in the perf baseline",
    )
    pbb.add_argument("artifacts", nargs="+", metavar="ARTIFACT",
                     help="bench/suite JSON artifacts to record")
    pbb.add_argument("--baseline", metavar="PATH",
                     default="benchmarks/BASELINE.json",
                     help="baseline store (default benchmarks/BASELINE.json)")
    pbb.add_argument("--label", metavar="TEXT", default=None,
                     help="free-form entry label (e.g. the reason for "
                          "re-baselining)")

    pa = sub.add_parser("adder", help="ripple-carry carry activity profile")
    pa.add_argument("--width", type=int, default=8)

    po = sub.add_parser("optimize", help="map and optimise a BLIF file")
    po.add_argument("blif", help="path to a combinational BLIF file")
    po.add_argument("--scenario", choices=["A", "B"], default="A")
    po.add_argument("--seed", type=int, default=0)
    po.add_argument("--stats",
                    choices=list(_STATS_CHOICES),
                    default="model",
                    help="(P, D) estimator driving the optimisation "
                         "('analytic' and 'local' name the default 'model' "
                         "flow; 'sampled' runs the bit-parallel Monte Carlo "
                         "engine)")
    po.add_argument("--lanes", type=_positive_int, default=None,
                    help="sample lanes for --stats sampled")
    po.add_argument("--objective", choices=list(OBJECTIVES), default="best",
                    help="optimisation objective (default: best)")
    po.add_argument("--save-blif", metavar="PATH",
                    help="write the optimised netlist as mapped BLIF")
    po.add_argument("--save-verilog", metavar="PATH",
                    help="write the optimised netlist as structural Verilog")
    _add_obs_args(po)

    pe = sub.add_parser(
        "eco",
        help="replay a JSON edit script against the incremental engine",
    )
    pe.add_argument("blif", help="path to a combinational BLIF file")
    pe.add_argument("script",
                    help="JSON edit script: a list of "
                         '{"op": "reorder"|"retemplate"|"add-gate"'
                         '|"remove-gate"|"rewire"|"input-stats"'
                         '|"input-arrival", ...} entries (see '
                         "repro.incremental.eco; the structural ops need "
                         "--backend analytic)")
    pe.add_argument("--scenario", choices=["A", "B"], default="A")
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--backend", choices=list(ENGINES),
                    default=DEFAULT_ENGINE)
    pe.add_argument("--lanes", type=_positive_int, default=None,
                    help="sample lanes for --backend sampled")
    pe.add_argument("--steps", type=_positive_int, default=None,
                    help="time steps for --backend sampled")
    pe.add_argument("--dt", type=float, default=None,
                    help="explicit step size for --backend sampled (needed "
                         "when input-stats edits shorten dwell times below "
                         "the initial ones)")
    pe.add_argument("--out", metavar="PATH",
                    help="write the JSON result artifact here")
    _add_obs_args(pe)

    ps = sub.add_parser(
        "search",
        help="delta-driven ECO local search over the incremental engine",
    )
    ps.add_argument("blif", help="path to a combinational BLIF file")
    ps.add_argument("--scenario", choices=["A", "B"], default="A")
    _add_spec_args(ps)
    ps.add_argument("--out", metavar="PATH",
                    help="write the canonical JSON search artifact here")
    ps.add_argument("--save-blif", metavar="PATH",
                    help="write the searched netlist as mapped BLIF")
    _add_obs_args(ps)

    pt = sub.add_parser(
        "trace",
        help="inspect JSONL traces written by --trace / REPRO_TRACE",
    )
    tsub = pt.add_subparsers(dest="trace_command", required=True)
    pts = tsub.add_parser(
        "summarize",
        help="per-span count/total/self/p50/p95 table plus the slowest "
             "individual spans",
    )
    pts.add_argument("file", help="path to a JSONL trace file")
    pts.add_argument("--top", type=_positive_int, default=10,
                     help="how many of the slowest spans to list "
                          "(default 10)")
    ptm = tsub.add_parser(
        "merge",
        help="interleave per-pid worker shards (FILE.pid<N>.jsonl) back "
             "into FILE, ordered by timestamp with stable pid "
             "tie-breaks (traced CLI runs do this automatically on "
             "exit)",
    )
    ptm.add_argument("file", help="path to the main JSONL trace file")
    ptm.add_argument("-o", "--out", metavar="PATH", default=None,
                     help="write the merged stream here instead of "
                          "rewriting FILE (keeps the shards)")
    ptm.add_argument("--keep-shards", action="store_true",
                     help="keep the shard files after an in-place merge")
    pte = tsub.add_parser(
        "export",
        help="convert a trace to another format (chrome: Chrome "
             "trace-event JSON for chrome://tracing / Perfetto)",
    )
    pte.add_argument("file", help="path to a JSONL trace file")
    pte.add_argument("--format", choices=["chrome"], default="chrome",
                     help="output format (default chrome)")
    pte.add_argument("-o", "--out", metavar="PATH", default=None,
                     help="write here instead of stdout")
    return parser


def _load(command: str, path: str, parse):
    """``parse(path)``; a missing, unreadable or malformed file ends the
    run with one line naming ``path`` and the error."""
    try:
        return parse(path)
    except OSError as error:
        raise SystemExit(f"{command}: {path}: {error.strerror or error}")
    except ValueError as error:  # BlifError, LogicError, JSONDecodeError
        raise SystemExit(f"{command}: {path}: {error}")


def _load_circuit(command: str, path: str, scenario: str, seed: int):
    """Load the BLIF at ``path``, map it and draw the scenario's input
    statistics; returns ``(network, circuit, input_stats)``."""
    from .circuit.blif import load_blif
    from .sim.stimulus import ScenarioA, ScenarioB
    from .synth.mapper import map_circuit

    network = _load(command, path, load_blif)
    circuit = map_circuit(network)
    generator = ScenarioA(seed=seed) if scenario == "A" else ScenarioB(seed=seed)
    return network, circuit, generator.input_stats(circuit.inputs)


def _engine_kwargs(engine: str, seed: int, engine_flag: str, **knobs) -> dict:
    """:func:`~repro.incremental.backends.engine_kwargs`; a refused knob
    ends the run naming its flag and ``engine_flag`` (``--stats`` or
    ``--backend``), the flag that selects the engine."""
    from .incremental.backends import KnobError, engine_kwargs
    from .incremental.spec import render

    try:
        return engine_kwargs(engine, seed, **knobs)
    except KnobError as error:
        raise SystemExit(render(str(error), lambda name: (
            engine_flag if name == "backend" else f"--{name}")))


def _load_json(path: str):
    import json

    with open(path) as handle:
        return json.load(handle)


def _cmd_table1(out) -> int:
    rows = run_table1()
    for row in rows:
        out.write(f"Case {row.case}: densities {row.densities}\n")
        cells = "  ".join(f"{p:.2f}" for p in row.relative_powers)
        out.write(f"  relative power per configuration: {cells}\n")
        out.write(
            f"  best is configuration #{row.best_index}, "
            f"{format_percent(row.reduction_vs_worst)}% below the worst\n"
        )
    return 0


def _cmd_table2(out) -> int:
    from .analysis.experiments import run_table2_instances

    rows = run_table2_instances()
    out.write(format_table(
        ("Gate", "Instances", "#C"),
        [(gate, label, count) for gate, label, count in rows],
        title="Table 2 - gate library",
    ))
    out.write("\n")
    return 0


def _scenarios(scenario: str) -> tuple:
    """The Table 3 scenarios a ``--scenario`` choice names."""
    return ("A", "B") if scenario == "both" else (scenario,)


def _write_suite_tables(out, artifact, scenarios, title, timed=False) -> int:
    """Render a :func:`~repro.bench.runner.run_suite` artifact.

    One Table-3 block per scenario — per-circuit M/S/D columns and an
    average footer, headed ``title(scenario)``; ``timed`` adds each
    row's wall time as a ``t`` column — then one line per failed case.
    Returns the number of failed cases.
    """
    rows = artifact["results"]
    for sc in scenarios:
        sc_rows = [r for r in rows
                   if r["status"] == "ok" and r["scenario"] == sc]
        if not sc_rows:
            continue
        headers = ["Circuit", "G", "M%", "S%", "D%"]
        columns = ("model_reduction", "sim_reduction", "delay_increase")
        table_rows = [[r["circuit"], r["gates"]]
                      + [format_percent(r[c]) for c in columns]
                      for r in sc_rows]
        footer = ["average", ""] + [
            format_percent(mean([r[c] for r in sc_rows])) for c in columns]
        if timed:
            headers.append("t")
            for line, r in zip(table_rows, sc_rows):
                line.append(f"{r['elapsed_s']:.2f}s")
            footer.append("")
        out.write(format_table(tuple(headers),
                               [tuple(r) for r in table_rows],
                               title=title(sc), footer=tuple(footer)))
        out.write("\n\n")
    failed = [r for r in rows if r["status"] != "ok"]
    for row in failed:
        first_line = (row["error"] or "").strip().splitlines()
        out.write(f"[{row['status']}] {row['circuit']}: "
                  f"{first_line[-1] if first_line else ''}\n")
    return len(failed)


def _cmd_table3(out, subset: str, scenario: str, seed: int) -> int:
    from .bench.runner import run_suite

    scenarios = _scenarios(scenario)
    artifact = run_suite(subset=subset, scenarios=scenarios, seed=seed)
    failed = _write_suite_tables(out, artifact, scenarios,
                                 lambda sc: f"Table 3 - scenario {sc}")
    if artifact.get("partial"):
        return 130
    return 1 if failed else 0


def _cmd_bench(out, subset: str, scenario: str, jobs: int, seed: int,
               out_path: Optional[str], cases: Optional[List[str]],
               case_timeout: Optional[float] = None,
               retries: int = 2) -> int:
    from .bench.runner import run_suite

    scenarios = _scenarios(scenario)
    try:
        artifact = run_suite(subset=subset, scenarios=scenarios, jobs=jobs,
                             seed=seed, cases=cases, out_path=out_path,
                             case_timeout_s=case_timeout, retries=retries)
    except KeyError as error:  # an unknown --cases name
        raise SystemExit(f"bench: {error.args[0]}")
    label = artifact["suite"]["subset"]
    _write_suite_tables(
        out, artifact, scenarios,
        lambda sc: f"bench - scenario {sc} ({label}, jobs={jobs})",
        timed=True)
    out.write(f"{len(artifact['results'])} rows in "
              f"{artifact['elapsed_s']:.2f}s with {jobs} job(s)\n")
    if artifact.get("partial"):
        out.write("[partial] sweep interrupted; artifact carries the "
                  "completed cases and is flagged \"partial\": true\n")
    if out_path:
        out.write(f"wrote JSON artifact to {out_path}\n")
    return 130 if artifact.get("partial") else 0


def _cmd_adder(out, width: int) -> int:
    profile = run_adder_activity(width)
    rows = [(name, f"{density:.3f}") for name, density in profile.items()]
    out.write(format_table(
        ("Signal", "D (trans/cycle)"), rows,
        title=f"{width}-bit ripple-carry adder activity (P = 0.5 everywhere)",
    ))
    out.write("\n")
    return 0


def _cmd_optimize(out, path: str, scenario: str, seed: int,
                  stats_source: str = "model",
                  lanes: Optional[int] = None,
                  objective: str = "best",
                  save_blif: Optional[str] = None,
                  save_verilog: Optional[str] = None) -> int:
    from .circuit.blif import write_mapped_blif
    from .circuit.verilog import write_verilog
    from .core.optimizer import optimize_circuit
    from .stochastic.density import propagate_stats
    from .timing.sta import circuit_delay

    label, engine = _STATS_CHOICES[stats_source]
    engine_kwargs = _engine_kwargs(engine, seed, "--stats", lanes=lanes)

    network, circuit, stats = _load_circuit("optimize", path, scenario, seed)
    # No reordering moves a net's (P, D): one propagation serves both runs.
    net_stats = propagate_stats(circuit, stats, engine, **engine_kwargs)
    chosen = optimize_circuit(circuit, stats, objective=objective,
                              net_stats=net_stats)
    worst = chosen if objective == "worst" else optimize_circuit(
        circuit, stats, objective="worst", net_stats=net_stats)
    out.write(f"circuit        : {network.name}\n")
    out.write(f"mapped gates   : {len(circuit)}\n")
    out.write(f"gate mix       : {circuit.gate_count_by_template()}\n")
    out.write(f"objective      : {objective} (stats={label}"
              + (f", lanes={lanes}" if lanes else "")
              + ")\n")
    out.write(f"model power    : {format_si(chosen.power_after, 'W')} (optimised), "
              f"{format_si(worst.power_after, 'W')} (worst ordering)\n")
    saving = 1.0 - chosen.power_after / worst.power_after if worst.power_after else 0.0
    label = "best vs worst" if objective == "best" else f"{objective} vs worst"
    out.write(f"{label:<15}: {format_percent(saving)}% power reduction\n")
    d0 = circuit_delay(circuit)
    d1 = circuit_delay(chosen.circuit)
    change = (d1 - d0) / d0 if d0 else 0.0
    out.write(f"delay          : {format_si(d0, 's')} -> {format_si(d1, 's')} "
              f"({format_percent(change)}%)\n")
    if save_blif:
        with open(save_blif, "w") as handle:
            handle.write(write_mapped_blif(chosen.circuit))
        out.write(f"wrote mapped BLIF to {save_blif}\n")
    if save_verilog:
        with open(save_verilog, "w") as handle:
            handle.write(write_verilog(chosen.circuit))
        out.write(f"wrote Verilog to {save_verilog}\n")
    return 0


def _cmd_eco(out, path: str, script_path: str, scenario: str, seed: int,
             backend: str, lanes: Optional[int], steps: Optional[int],
             dt: Optional[float], out_path: Optional[str]) -> int:
    from .analysis.experiments import run_eco
    from .bench.runner import SCHEMA_VERSION, write_artifact

    script = _load("eco", script_path, _load_json)
    if not isinstance(script, list):
        raise SystemExit(f"eco: {script_path}: expected a JSON list of edits")

    backend_kwargs = _engine_kwargs(backend, seed, "--backend",
                                    lanes=lanes, steps=steps, dt=dt)

    network, circuit, stats = _load_circuit("eco", path, scenario, seed)
    try:
        rows = run_eco(circuit, stats, script, backend=backend,
                       **backend_kwargs)
    except ValueError as error:
        # A malformed script entry, or e.g. the sampled backend's frozen
        # dt becoming too coarse for an input-stats edit (no other engine
        # has a dt); surface the message (and, for the latter, the
        # remedy) instead of a traceback.
        remedy = (
            "\n(for --backend sampled, pass an explicit --dt small enough "
            "for every input-stats edit in the script)"
            if "too coarse" in str(error) else ""
        )
        raise SystemExit(f"eco failed: {error}{remedy}")

    table = [
        (row.index, row.label, row.cone,
         format_si(row.delta_power, "W"), format_si(row.power_after, "W"),
         format_percent((row.delta_delay / row.delay_before)
                        if row.delay_before else 0.0),
         row.retimed)
        for row in rows
    ]
    out.write(format_table(
        ("#", "edit", "cone", "dP", "P after", "dD%", "retimed"), table,
        title=f"eco - {network.name} ({len(circuit)} gates, "
              f"backend={backend})",
    ))
    out.write("\n")
    if rows:
        total = rows[-1].power_after - rows[0].power_before
        out.write(f"{len(rows)} edits, net power change "
                  f"{format_si(total, 'W')}; re-propagated "
                  f"{sum(r.cone for r in rows)} gate cones "
                  f"vs {len(rows) * len(circuit)} from scratch\n")
        out.write(f"re-timed {sum(r.retimed for r in rows)} gate "
                  f"arrivals vs {len(rows) * len(circuit)} for a full "
                  f"STA per edit\n")
    if out_path:
        results = [
            {
                "index": row.index,
                "edit": row.label,
                "cone": row.cone,
                "power_before": row.power_before,
                "power_after": row.power_after,
                "delta_power": row.delta_power,
                "delay_before": row.delay_before,
                "delay_after": row.delay_after,
                "delta_delay": row.delta_delay,
                "retimed": row.retimed,
            }
            for row in rows
        ]
        artifact = {
            "schema": SCHEMA_VERSION,
            "eco": {
                "circuit": network.name,
                "gates": len(circuit),
                "scenario": scenario,
                "seed": seed,
                "backend": backend,
                "script": script,
            },
            "results": results,
        }
        write_artifact(artifact, out_path)
        out.write(f"wrote JSON artifact to {out_path}\n")
    return 0


def _cmd_search(out, args) -> int:
    from dataclasses import fields

    from .bench.runner import write_artifact
    from .circuit.blif import write_mapped_blif
    from .incremental.search import search_circuit
    from .incremental.spec import SearchSpec, SpecError, flag, render
    from .robust import CheckpointError

    # Each flag's dest is its option string minus the dashes.
    params = {f.name: getattr(args, flag(f.name)[2:].replace("-", "_"))
              for f in fields(SearchSpec) if flag(f.name) is not None}
    try:
        SearchSpec(**params)
    except SpecError as error:
        raise SystemExit(render(error.template, flag))

    network, circuit, stats = _load_circuit("search", args.blif,
                                            args.scenario, args.seed)
    try:
        result = search_circuit(circuit, stats, **params)
    except CheckpointError as error:
        raise SystemExit(f"search: {error}")

    table = [
        (move.index, move.label, move.cone,
         format_si(move.delta_power, "W"), format_si(move.power_after, "W"))
        for move in result.accepted
    ]
    out.write(format_table(
        ("#", "move", "cone", "dP", "P after"), table,
        title=f"search - {network.name} ({len(circuit)} gates, "
              f"{args.strategy}/{result.objective.name}, "
              f"backend={args.backend})",
    ))
    out.write("\n")
    out.write(f"accepted {len(result.accepted)} of {result.trials} trialled "
              f"moves in {result.rounds} round(s)"
              + (" [budget exhausted]" if result.budget_exhausted else "")
              + "\n")
    if result.restarts is not None:
        winner = result.restarts[result.restart_index]
        out.write(f"portfolio: best of {len(result.restarts)} restart(s) "
                  f"on {result.jobs} job(s) — winner #{result.restart_index} "
                  f"(seed {winner['seed']}, score {winner['score']:.6f})\n")
    out.write(f"power  : {format_si(result.power_before, 'W')} -> "
              f"{format_si(result.power_after, 'W')} "
              f"({format_percent(result.reduction)}% reduction)\n")
    delay_change = ((result.delay_after - result.delay_before)
                    / result.delay_before if result.delay_before else 0.0)
    out.write(f"delay  : {format_si(result.delay_before, 's')} -> "
              f"{format_si(result.delay_after, 's')} "
              f"({format_percent(delay_change)}%)\n")
    out.write(f"re-propagated {result.gates_repropagated} gate stats vs "
              f"{result.trials * len(circuit)} for full rescoring per trial\n")
    out.write(f"re-timed {result.gates_retimed} gate arrivals"
              + (f" vs {result.trials * len(circuit)} for a full STA per trial"
                 if result.objective.needs_delay else " (delay co-metric)")
              + "\n")
    if result.partial:
        detail = ("interrupted" if result.interrupted
                  else f"{len(result.failures or [])} restart(s) failed")
        out.write(f"[partial] {detail}; artifact carries the best state "
                  "reached and is flagged \"partial\": true\n")
    if args.out:
        write_artifact(result.to_artifact({"scenario": args.scenario}), args.out)
        out.write(f"wrote JSON artifact to {args.out}\n")
    if args.save_blif:
        with open(args.save_blif, "w") as handle:
            handle.write(write_mapped_blif(result.circuit))
        out.write(f"wrote mapped BLIF to {args.save_blif}\n")
    return 130 if result.interrupted else 0


def _cmd_trace_summarize(out, path: str, top: int) -> int:
    from .obs.summarize import render_summary, summarize_file

    try:
        summary = summarize_file(path)
    except OSError as error:
        raise SystemExit(f"trace summarize: {error}")
    out.write(render_summary(summary, top=top))
    return 0


def _cmd_trace_merge(out, path: str, out_path: Optional[str],
                     keep_shards: bool) -> int:
    from .obs.shards import find_shards, merge_file

    if not find_shards(path) and out_path is None:
        out.write(f"no shards found for {path}; trace left untouched\n")
        return 0
    try:
        count = merge_file(path, out=out_path, keep_shards=keep_shards)
    except OSError as error:
        raise SystemExit(f"trace merge: {error}")
    target = out_path if out_path is not None else path
    out.write(f"merged {count} shard(s) into {target}\n")
    return 0


def _cmd_trace_export(out, path: str, fmt: str,
                      out_path: Optional[str]) -> int:
    from .obs.export import export_chrome_file

    assert fmt == "chrome"  # argparse choices guarantee this
    try:
        text = export_chrome_file(path, out=out_path)
    except OSError as error:
        raise SystemExit(f"trace export: {error}")
    if out_path is not None:
        out.write(f"wrote chrome trace to {out_path}\n")
    else:
        out.write(text)
    return 0


def _cmd_bench_baseline(out, artifacts: List[str], baseline: str,
                        label: Optional[str]) -> int:
    from .bench.runner import load_artifact
    from .obs.perfdb import append_artifact

    for path in artifacts:
        try:
            entry = append_artifact(baseline, load_artifact(path),
                                    label=label)
        except (OSError, ValueError) as error:
            raise SystemExit(f"bench baseline: {path}: {error}")
        out.write(f"recorded {len(entry['metrics'])} metric(s) from "
                  f"{path} into {baseline}\n")
    return 0


def _cmd_bench_check(out, args) -> int:
    from .bench.runner import load_artifact, run_suite
    from .obs.perfdb import (
        baseline_metrics,
        check_metrics,
        headline_metrics,
        load_baseline,
        render_check,
    )

    try:
        store = load_baseline(args.baseline)
    except (OSError, ValueError) as error:
        raise SystemExit(f"bench check: {error}")
    current = {}
    try:
        if args.artifacts:
            for path in args.artifacts:
                current.update(headline_metrics(load_artifact(path)))
        else:
            artifact = run_suite(subset=args.subset,
                                 scenarios=_scenarios(args.scenario),
                                 jobs=args.jobs, seed=args.seed)
            current.update(headline_metrics(artifact))
    except (OSError, ValueError) as error:
        raise SystemExit(f"bench check: {error}")
    result = check_metrics(current, baseline_metrics(store),
                           tolerance=args.tolerance)
    out.write(render_check(result))
    return 1 if result.regressions else 0


def _dispatch(args, out) -> int:
    if args.command == "table1":
        return _cmd_table1(out)
    if args.command == "table2":
        return _cmd_table2(out)
    if args.command == "table3":
        return _cmd_table3(out, args.subset, args.scenario, args.seed)
    if args.command == "bench":
        bench_command = getattr(args, "bench_command", None)
        if bench_command == "check":
            return _cmd_bench_check(out, args)
        if bench_command == "baseline":
            return _cmd_bench_baseline(out, args.artifacts, args.baseline,
                                       args.label)
        return _cmd_bench(out, args.subset, args.scenario, args.jobs,
                          args.seed, args.out, args.cases,
                          args.case_timeout, args.retries)
    if args.command == "adder":
        return _cmd_adder(out, args.width)
    if args.command == "optimize":
        return _cmd_optimize(out, args.blif, args.scenario, args.seed,
                             args.stats, args.lanes, args.objective,
                             args.save_blif, args.save_verilog)
    if args.command == "eco":
        return _cmd_eco(out, args.blif, args.script, args.scenario, args.seed,
                        args.backend, args.lanes, args.steps, args.dt,
                        args.out)
    if args.command == "search":
        return _cmd_search(out, args)
    if args.command == "trace":
        if args.trace_command == "merge":
            return _cmd_trace_merge(out, args.file, args.out,
                                    args.keep_shards)
        if args.trace_command == "export":
            return _cmd_trace_export(out, args.file, args.format, args.out)
        return _cmd_trace_summarize(out, args.file, args.top)
    raise AssertionError("unreachable")


def _install_sigterm_handler():
    """Route SIGTERM through KeyboardInterrupt so a terminated run
    unwinds like Ctrl-C: the search/bench loops keep their best-so-far
    state, artifacts land flagged ``partial``, trace shards merge, and
    the process exits 130 with no traceback.  Returns the previous
    handler (``None`` when SIGTERM can't be hooked — non-main thread,
    restricted platform)."""
    import signal

    def handler(signum, frame):
        raise KeyboardInterrupt

    try:
        return signal.signal(signal.SIGTERM, handler)
    except (ValueError, OSError):  # non-main thread / no SIGTERM
        return None


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """Entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    from .obs import progress as _progress
    from .obs import trace as _trace

    _install_sigterm_handler()
    # --trace (search/eco/optimize/bench) wins over REPRO_TRACE; the
    # environment flag alone enables tracing for any subcommand.
    # --progress renders the same stream, on a file-less tracer if
    # nothing is traced.
    tracer = _trace.start(getattr(args, "trace", None))
    if getattr(args, "progress", False):
        _progress.attach()
        tracer = _trace.ACTIVE
    trace_path = tracer.path if tracer is not None else None
    try:
        return _dispatch(args, out)
    except KeyboardInterrupt:
        # An interrupt outside the anytime loops (during mapping, say):
        # exit 130 cleanly; the finally block still merges trace shards.
        sys.stderr.write("interrupted\n")
        return 130
    finally:
        if tracer is not None:
            _trace.disable()
            if trace_path is not None:
                # Fold any worker shards back into the main trace so
                # the file on disk is always the whole story.
                from .obs.shards import merge_file

                try:
                    merged = merge_file(trace_path)
                except OSError as error:
                    sys.stderr.write(f"trace merge failed: {error}\n")
                else:
                    if merged:
                        sys.stderr.write(
                            f"merged {merged} trace shard(s) into "
                            f"{trace_path}\n"
                        )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
