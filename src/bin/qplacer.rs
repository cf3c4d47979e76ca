//! `qplacer` — command-line front end for the placement pipeline.
//!
//! ```text
//! qplacer inventory
//! qplacer place    <topology> [--strategy qplacer|classic|human]
//!                  [--segment <mm>] [--levels N] [--svg FILE] [--gds FILE]
//! qplacer evaluate <topology> <benchmark> [--strategy ...] [--subsets N]
//!                  [--seed N] [--segment <mm>]
//! qplacer sweep    <topology>            # l_b ablation on one device
//! qplacer e2e      [--devices a,b,..] [--strategy qplacer|classic]
//!                  [--segment <mm>] [--levels N] [--fast] [--trace FILE]
//!                  [--chrome FILE]
//! qplacer replace  <topology> (--drop-coupler A-B | --drop-qubit N
//!                  | --yield PCT [--seed S]) [--strategy S] [--fast]
//! qplacer profile  <topology> [--strategy qplacer|classic] [--levels N]
//!                  [--fast] [--chrome FILE] [--folded FILE]
//! qplacer suite    [--devices a,b,..] [--strategies s,..]
//!                  [--benchmarks b,..] [--subsets N] [--seeds N]
//!                  [--threads N] [--fast] [--levels N]
//!                  [--jsonl FILE] [--csv FILE]
//! qplacer serve    [--addr HOST:PORT] [--workers N] [--queue N]
//!                  [--cache N] [--batch N] [--flight N] [--store DIR]
//!                  [--tenant-quota N] [--shard-id I --shards N]
//! qplacer submit   <topology> [--strategy S] [--addr HOST:PORT] [--fast]
//!                  [--segment <mm>] [--count N] [--deadline MS]
//!                  [--priority high|normal|low] [--tenant NAME]
//! qplacer stats    [--addr HOST:PORT] [--format text|prometheus]
//! qplacer dump-trace [--addr HOST:PORT] [--out FILE]
//! qplacer shutdown [--addr HOST:PORT]
//! ```
//!
//! Topologies span the whole device zoo: the paper's six (`grid`,
//! `falcon`, `eagle`, `aspen11`, `aspenm`, `xtree`), the parametric
//! families (`grid-WxH`, `heavy-hex-dN`, `ring-N`, `ladder-N`), the
//! seeded defect wrapper (`defective-<base>[-yPCT][-sSEED]`), and JSON
//! device files (`path/to/device.json`, written by `qplacer export`).
//! Benchmarks: the Table-I eight (`bv-4` … `qgan-9`) plus any
//! parametric `bv-N`/`qaoa-N`/`ising-N`/`qgan-N`/`ghz-N`/`qv-N`.
//!
//! `--levels N` (on `place`, `e2e`, `profile`, and `suite`) switches
//! global placement to the multilevel V-cycle
//! ([`PlacerConfig::levels`](qplacer::PlacerConfig::levels)) — the
//! intended mode for Osprey/Condor-scale devices such as
//! `heavy-hex-d10` and `heavy-hex-d16`.
//!
//! `suite` runs the full paper evaluation grid through the
//! [`qplacer_harness`] runner: jobs fan out across worker threads and the
//! per-job records stream (in deterministic plan order) to JSONL/CSV.
//! `serve` starts the [`qplacer_service`] placement daemon; `submit`,
//! `stats`, and `shutdown` talk to it over the JSON-lines protocol.
//! `serve --store DIR` makes results durable (an append-only log
//! replayed into the cache on restart); `--shard-id I --shards N`
//! labels the daemon as one shard of a consistent-hash fleet; `submit
//! --priority`/`--tenant` exercise the queue's scheduling lanes and
//! per-tenant admission quotas.
//!
//! Observability (the [`qplacer::obs`] layer): `e2e --trace FILE`
//! writes per-iteration / per-phase convergence telemetry as JSONL;
//! `profile` runs one placement with span timing enabled and prints the
//! aggregated span tree; `stats --format prometheus` fetches the
//! server's metrics in the Prometheus text exposition format.
//!
//! Event timelines: `profile --chrome FILE` / `--folded FILE` capture
//! the placement's begin/end event stream and export it as Chrome
//! Trace Event JSON (loads in Perfetto / `chrome://tracing`) or
//! collapsed flamegraph stacks; `e2e --chrome FILE` does the same
//! across the device list, one trace id per device. `serve` keeps an
//! always-on bounded flight recorder (`--flight N` events per thread,
//! overwrite-oldest), and `dump-trace` fetches it from a running
//! daemon as Chrome-trace JSON — the post-mortem view.
//!
//! Every subcommand rejects a flag it does not take, naming it.

use std::process::ExitCode;

use qplacer::{
    paper_suite, ClientBuilder, CsvSink, DeviceSpec, ExecOptions, ExperimentPlan, JsonlSink,
    JsonlTraceSink, NetlistConfig, PipelineConfig, PipelineWorkspace, PlaceJob, PlacedLayout,
    Priority, Profile, Qplacer, RunOptions, Runner, Server, ServiceClient, ServiceConfig, Sink,
    Strategy, Summary, Topology, TopologyDelta,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = run(command, &args[1..]);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Checks `command`'s flags, then runs it.
fn run(command: &str, args: &[String]) -> Result<(), String> {
    check_flags(command, args)?;
    match command {
        "inventory" => cmd_inventory(),
        "export" => cmd_export(args),
        "place" => cmd_place(args),
        "evaluate" => cmd_evaluate(args),
        "sweep" => cmd_sweep(args),
        "e2e" => cmd_e2e(args),
        "replace" => cmd_replace(args),
        "profile" => cmd_profile(args),
        "suite" => cmd_suite(args),
        "serve" => cmd_serve(args),
        "submit" => cmd_submit(args),
        "stats" => cmd_stats(args),
        "dump-trace" => cmd_dump_trace(args),
        "shutdown" => cmd_shutdown(args),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

/// The arguments each subcommand takes: `(command, positional
/// arguments, flags that take a value, switches)`.
const FLAGS: &[(&str, usize, &[&str], &[&str])] = &[
    ("inventory", 0, &[], &[]),
    ("export", 1, &["--out"], &[]),
    (
        "place",
        1,
        &["--strategy", "--segment", "--levels", "--svg", "--gds"],
        &[],
    ),
    (
        "evaluate",
        2,
        &["--strategy", "--subsets", "--seed", "--segment"],
        &[],
    ),
    ("sweep", 1, &[], &[]),
    (
        "e2e",
        0,
        &[
            "--devices",
            "--strategy",
            "--segment",
            "--levels",
            "--trace",
            "--chrome",
        ],
        &["--fast"],
    ),
    (
        "replace",
        1,
        &[
            "--strategy",
            "--drop-coupler",
            "--drop-qubit",
            "--yield",
            "--seed",
        ],
        &["--fast"],
    ),
    (
        "profile",
        1,
        &["--strategy", "--levels", "--chrome", "--folded"],
        &["--fast"],
    ),
    (
        "suite",
        0,
        &[
            "--devices",
            "--strategies",
            "--benchmarks",
            "--subsets",
            "--seeds",
            "--threads",
            "--levels",
            "--jsonl",
            "--csv",
        ],
        &["--fast"],
    ),
    (
        "serve",
        0,
        &[
            "--addr",
            "--workers",
            "--queue",
            "--cache",
            "--batch",
            "--flight",
            "--store",
            "--tenant-quota",
            "--shard-id",
            "--shards",
        ],
        &[],
    ),
    (
        "submit",
        1,
        &[
            "--strategy",
            "--addr",
            "--segment",
            "--count",
            "--deadline",
            "--priority",
            "--tenant",
        ],
        &["--fast"],
    ),
    ("stats", 0, &["--addr", "--format"], &[]),
    ("dump-trace", 0, &["--addr", "--out"], &[]),
    ("shutdown", 0, &["--addr"], &[]),
];

/// Rejects the first argument of `command` that looks like a flag
/// (starts with `-`) but is none of the command's flags, repeats a flag
/// already given, or is a positional argument beyond those the command
/// takes. The argument after a value-taking flag is its value, never a
/// flag.
fn check_flags(command: &str, args: &[String]) -> Result<(), String> {
    let Some(&(_, positionals, values, switches)) =
        FLAGS.iter().find(|(name, ..)| *name == command)
    else {
        return Ok(());
    };
    let mut seen: Vec<&str> = Vec::new();
    let mut positional = 0;
    let mut rest = args.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        if values.contains(&arg) || switches.contains(&arg) {
            if seen.contains(&arg) {
                return Err(format!("`{command}` flag `{arg}` given more than once"));
            }
            seen.push(arg);
            if values.contains(&arg) {
                rest.next();
            }
        } else if arg.starts_with('-') {
            return Err(format!(
                "`{command}` has no flag `{arg}` (see `qplacer --help`)"
            ));
        } else if positional == positionals {
            return Err(format!(
                "`{command}` takes {positionals} positional argument(s); \
                 unexpected `{arg}` (see `qplacer --help`)"
            ));
        } else {
            positional += 1;
        }
    }
    Ok(())
}

const USAGE: &str = "usage:
  qplacer inventory
  qplacer export   <topology> [--out FILE]     # write the JSON device file
  qplacer place    <topology> [--strategy qplacer|classic|human]
                   [--segment <mm>] [--levels N] [--svg FILE] [--gds FILE]
  qplacer evaluate <topology> <benchmark> [--strategy S] [--subsets N]
                   [--seed N] [--segment <mm>]
  qplacer sweep    <topology>
  qplacer e2e      [--devices a,b,..] [--strategy qplacer|classic]
                   [--segment <mm>] [--levels N] [--fast] [--trace FILE]
                   [--chrome FILE]
  qplacer replace  <topology> (--drop-coupler A-B[,C-D..] | --drop-qubit N[,M..]
                   | --yield PCT [--seed S]) [--strategy qplacer|classic] [--fast]
  qplacer profile  <topology> [--strategy qplacer|classic] [--levels N] [--fast]
                   [--chrome FILE] [--folded FILE]
  qplacer suite    [--devices a,b,..] [--strategies s,..] [--benchmarks b,..]
                   [--subsets N] [--seeds N] [--threads N] [--fast] [--levels N]
                   [--jsonl FILE] [--csv FILE]
  qplacer serve    [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
                   [--batch N] [--flight N] [--store DIR] [--tenant-quota N]
                   [--shard-id I --shards N]
  qplacer submit   <topology> [--strategy S] [--addr HOST:PORT] [--fast]
                   [--segment <mm>] [--count N] [--deadline MS]
                   [--priority high|normal|low] [--tenant NAME]
  qplacer stats    [--addr HOST:PORT] [--format text|prometheus]
  qplacer dump-trace [--addr HOST:PORT] [--out FILE]
  qplacer shutdown [--addr HOST:PORT]

topologies (device zoo):
  paper devices:  grid falcon eagle aspen11 aspenm xtree
  parametric:     grid-WxH heavy-hex-dN ring-N ladder-N
  defect model:   defective-<base>[-yPCT][-sSEED]   (e.g. defective-eagle,
                  defective-heavy-hex-d7-y85-s3; defaults y90 s0)
  seed ranges:    defective-<base>[-yPCT]-sA..B expands to one suite job
                  per seed in A..B inclusive (e.g. defective-eagle-s0..4)
  JSON import:    any path ending in .json, or json:<path>
benchmarks: bv-4 bv-9 bv-16 qaoa-4 qaoa-9 ising-4 qgan-4 qgan-9,
  plus parametric bv-N qaoa-N ising-N qgan-N ghz-N qv-N at any size
--levels N runs the multilevel V-cycle (coarsen, place, refine) at depth
  N; 1 (the default) places flat. Use 2-4 for Osprey/Condor-scale devices.
default service address: 127.0.0.1:7177";

fn parse_topology(name: &str) -> Result<Topology, String> {
    // try_build so a bad spelling or an unplaceable device is a clean
    // `error:` line, not a panic.
    DeviceSpec::parse(name).and_then(|spec| spec.try_build().map_err(|e| e.to_string()))
}

fn parse_strategy(name: &str) -> Result<Strategy, String> {
    Ok(match name {
        "qplacer" => Strategy::FrequencyAware,
        "classic" => Strategy::Classic,
        "human" => Strategy::Human,
        other => return Err(format!("unknown strategy `{other}`")),
    })
}

/// Pulls `--flag value` out of an argument list.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parses `--segment <mm>` with the netlist constructor's own predicate
/// (`l_b > 0`), so NaN and non-positive sizes are an error, not a panic.
fn segment_flag(args: &[String]) -> Result<Option<f64>, String> {
    let Some(seg) = flag_value(args, "--segment") else {
        return Ok(None);
    };
    match seg.parse::<f64>() {
        Ok(lb) if lb > 0.0 => Ok(Some(lb)),
        Ok(_) => Err(format!("--segment must be positive, got `{seg}`")),
        Err(_) => Err(format!("bad --segment `{seg}`")),
    }
}

/// Parses `--flag value` as a number, with a helpful error.
fn numeric_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, String> {
    flag_value(args, flag)
        .map(|v| v.parse().map_err(|_| format!("bad {flag} `{v}`")))
        .transpose()
        .map(|opt| opt.unwrap_or(default))
}

/// Parses the optional `--levels N` multilevel depth (≥ 1; 1 = flat).
fn levels_flag(args: &[String]) -> Result<Option<usize>, String> {
    match flag_value(args, "--levels") {
        None => Ok(None),
        Some(v) => {
            let levels: usize = v.parse().map_err(|_| format!("bad --levels `{v}`"))?;
            if levels == 0 {
                return Err("--levels must be at least 1".into());
            }
            Ok(Some(levels))
        }
    }
}

/// Writes a device's JSON description — the round-trippable import
/// format `--devices <file>.json` (and `Topology::from_json`) consume.
fn cmd_export(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("export needs a topology")?;
    let device = parse_topology(name)?;
    let json = device.to_json();
    match flag_value(args, "--out") {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
            println!(
                "wrote {path} ({}, {} qubits, {} couplers)",
                device.name(),
                device.num_qubits(),
                device.num_edges()
            );
        }
        None => print!("{json}"),
    }
    Ok(())
}

fn cmd_inventory() -> Result<(), String> {
    println!("topologies:");
    for t in Topology::paper_suite() {
        println!(
            "  {:<10} {:>4} qubits {:>4} couplings  ({})",
            t.name(),
            t.num_qubits(),
            t.num_edges(),
            t.class()
        );
    }
    println!("benchmarks:");
    for b in paper_suite() {
        println!(
            "  {:<8} {:>3} qubits {:>4} gates ({} two-qubit, depth {})",
            b.name,
            b.circuit.num_qubits(),
            b.circuit.len(),
            b.circuit.two_qubit_count(),
            b.circuit.depth()
        );
    }
    Ok(())
}

fn run_pipeline(args: &[String], device: &Topology) -> Result<PlacedLayout, String> {
    let strategy = parse_strategy(flag_value(args, "--strategy").unwrap_or("qplacer"))?;
    let mut config = PipelineConfig::paper();
    if let Some(lb) = segment_flag(args)? {
        config.netlist = NetlistConfig::with_segment_size(lb);
    }
    if let Some(levels) = levels_flag(args)? {
        config.placer.levels = levels;
    }
    Ok(Qplacer::new(config).execute(device, strategy, ExecOptions::default()))
}

fn cmd_place(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("place needs a topology")?;
    let device = parse_topology(name)?;
    let layout = run_pipeline(args, &device)?;

    let area = layout.area();
    let hs = layout.hotspots();
    println!("device:    {device}");
    println!("strategy:  {}", layout.strategy);
    if let Some(p) = &layout.placement {
        println!(
            "placement: {} iterations, capacity overflow {:.4}, HPWL {:.1} mm, {:.2} s",
            p.iterations, p.final_overflow, p.hpwl, p.elapsed_seconds
        );
    }
    if let Some(l) = &layout.legalization {
        println!(
            "legalize:  {}/{} resonators integrated, {} overlaps",
            l.integrated_after, l.resonator_count, l.remaining_overlaps
        );
    }
    println!(
        "area:      {:.1} x {:.1} mm  (A_mer {:.1} mm², utilization {:.1}%)",
        area.mer.width(),
        area.mer.height(),
        area.mer_area,
        area.utilization * 100.0
    );
    println!(
        "hotspots:  P_h {:.2}%, {} violations, {} impacted qubits",
        hs.ph * 100.0,
        hs.violations.len(),
        hs.impacted_qubits.len()
    );

    if let Some(path) = flag_value(args, "--svg") {
        std::fs::write(path, layout.svg()).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = flag_value(args, "--gds") {
        std::fs::write(path, layout.gds(&device.name().to_uppercase()))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_evaluate(args: &[String]) -> Result<(), String> {
    let tname = args.first().ok_or("evaluate needs a topology")?;
    let bname = args.get(1).ok_or("evaluate needs a benchmark")?;
    let device_spec = DeviceSpec::parse(tname)?;
    let strategy = parse_strategy(flag_value(args, "--strategy").unwrap_or("qplacer"))?;
    let subsets: usize = numeric_flag(args, "--subsets", 50)?;
    let seed: u64 = numeric_flag(args, "--seed", 0xF1D0)?;

    // A single-job plan through the harness, on the calling thread.
    let mut plan = ExperimentPlan::grid(
        "evaluate",
        &[device_spec],
        &[strategy],
        &[bname],
        subsets,
        &[seed],
    );
    plan.jobs[0].segment_size_mm = segment_flag(args)?;
    let report = Runner::new(1).run(&plan);
    let record = &report.records[0];
    if !record.status.is_ok() {
        return Err(format!("{:?}", record.status));
    }
    println!(
        "{} on {} ({}, {} mappings, {} skipped):",
        bname,
        record.device,
        record.strategy,
        record.subsets_evaluated,
        record.subsets_skipped_too_large + record.subsets_skipped_unroutable,
    );
    println!("  mean fidelity:  {:.4e}", record.mean_fidelity);
    println!(
        "  worst fidelity: {:.4e} (log10 {:.2})",
        record.min_fidelity, record.min_log10_fidelity
    );
    println!(
        "  mean active crosstalk violations: {:.1}",
        record.mean_active_violations
    );
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("sweep needs a topology")?;
    let device_spec = DeviceSpec::parse(name)?;
    let plan = ExperimentPlan::placement_grid(
        "segment-sweep",
        &[device_spec],
        &[Strategy::FrequencyAware],
        &[Some(0.2), Some(0.3), Some(0.4)],
    );
    let report = Runner::new(0).run(&plan);
    println!(
        "{:>6} {:>7} {:>12} {:>8} {:>10}",
        "l_b", "#cells", "utilization", "Ph %", "runtime s"
    );
    for record in &report.records {
        println!(
            "{:>6.1} {:>7} {:>12.3} {:>8.2} {:>10.2}",
            record.segment_size_mm.unwrap_or_default(),
            record.instances,
            record.utilization,
            record.ph * 100.0,
            record.wall_ms / 1e3,
        );
    }
    Ok(())
}

/// Comma-separated flag list, with a default.
fn list_flag<'a>(args: &'a [String], flag: &str, default: &'a str) -> Vec<&'a str> {
    flag_value(args, flag)
        .unwrap_or(default)
        .split(',')
        .filter(|s| !s.is_empty())
        .collect()
}

/// Runs the full pipeline — frequency assignment, global placement,
/// legalization, area/hotspot metrics — on each device, reusing one
/// [`PipelineWorkspace`] across runs, and reports per-stage wall times.
/// Fails when any device's layout keeps residual overlaps, so CI can
/// smoke the whole loop with one command.
fn cmd_e2e(args: &[String]) -> Result<(), String> {
    let devices = list_flag(args, "--devices", "falcon,eagle")
        .into_iter()
        .map(DeviceSpec::parse)
        .collect::<Result<Vec<_>, _>>()?;
    let strategy = parse_strategy(flag_value(args, "--strategy").unwrap_or("qplacer"))?;
    if strategy == Strategy::Human {
        return Err("e2e measures the engine pipeline; use qplacer or classic".into());
    }
    let mut config = if args.iter().any(|a| a == "--fast") {
        PipelineConfig::fast()
    } else {
        PipelineConfig::paper()
    };
    if let Some(lb) = segment_flag(args)? {
        config.netlist = NetlistConfig::with_segment_size(lb);
    }
    if let Some(levels) = levels_flag(args)? {
        config.placer.levels = levels;
    }
    let mut trace = flag_value(args, "--trace")
        .map(|path| JsonlTraceSink::create(path).map_err(|e| format!("create {path}: {e}")))
        .transpose()?;
    let chrome = flag_value(args, "--chrome");
    if chrome.is_some() {
        qplacer::obs::set_spans_enabled(true);
        qplacer::obs::set_event_mode(qplacer::obs::EventMode::Capture);
        qplacer::obs::clear_events();
    }
    let engine = Qplacer::new(config);
    let mut ws = PipelineWorkspace::new();
    println!(
        "{:<10} {:>6} {:>11} {:>10} {:>12} {:>11} {:>9} {:>8}",
        "device", "cells", "assign ms", "place s", "legalize ms", "integrated", "overlaps", "Ph %"
    );
    let mut dirty = 0usize;
    for spec in devices {
        let device = spec.try_build().map_err(|e| e.to_string())?;
        // One trace id per device keeps the exported timeline separable.
        let _scope = chrome
            .is_some()
            .then(|| qplacer::adopt_trace_id(qplacer::fresh_trace_id()));
        let layout = match trace.as_mut() {
            Some(sink) => {
                sink.set_label(Some(device.name().to_string()));
                engine.execute(
                    &device,
                    strategy,
                    ExecOptions {
                        workspace: Some(&mut ws),
                        sink: Some(sink),
                        ..Default::default()
                    },
                )
            }
            None => engine.execute(
                &device,
                strategy,
                ExecOptions {
                    workspace: Some(&mut ws),
                    ..Default::default()
                },
            ),
        };
        let legal = layout
            .legalization
            .as_ref()
            .expect("engine strategies legalize");
        let hs = layout.hotspots();
        println!(
            "{:<10} {:>6} {:>11.3} {:>10.2} {:>12.3} {:>7}/{:<3} {:>9} {:>8.2}",
            device.name(),
            layout.netlist.num_instances(),
            layout.timings.assign_ms,
            layout.timings.place_ms / 1e3,
            layout.timings.legalize_ms,
            legal.integrated_after,
            legal.resonator_count,
            legal.remaining_overlaps,
            hs.ph * 100.0,
        );
        if legal.remaining_overlaps > 0 {
            dirty += 1;
        }
    }
    if let Some(sink) = trace {
        sink.finish().map_err(|e| format!("writing trace: {e}"))?;
        println!("wrote {}", flag_value(args, "--trace").unwrap_or_default());
    }
    if let Some(path) = chrome {
        let snapshot = qplacer::event_snapshot();
        qplacer::obs::set_event_mode(qplacer::obs::EventMode::Off);
        std::fs::write(path, qplacer::chrome_trace_json(&snapshot.events))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path} ({} events)", snapshot.events.len());
    }
    if dirty > 0 {
        return Err(format!("{dirty} device(s) kept residual overlaps"));
    }
    Ok(())
}

/// Parses the `--drop-coupler A-B[,C-D..]` spelling into qubit pairs.
fn parse_coupler_list(value: &str) -> Result<Vec<(usize, usize)>, String> {
    value
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|pair| {
            let (a, b) = pair
                .split_once('-')
                .ok_or_else(|| format!("bad coupler `{pair}` (expected A-B)"))?;
            let a = a.parse().map_err(|_| format!("bad qubit `{a}`"))?;
            let b = b.parse().map_err(|_| format!("bad qubit `{b}`"))?;
            Ok((a, b))
        })
        .collect()
}

/// Incremental (ECO) re-placement: cold-place the base device, apply a
/// topology edit (dropped couplers, dropped qubits, or the seeded yield
/// model), then warm-start the whole pipeline from the cold layout and
/// report how local the edit stayed. Exits nonzero when the warm layout
/// keeps residual overlaps.
fn cmd_replace(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("replace needs a topology")?;
    let base = parse_topology(name)?;
    let strategy = parse_strategy(flag_value(args, "--strategy").unwrap_or("qplacer"))?;
    if strategy == Strategy::Human {
        return Err("replace warm-starts the engine pipeline; use qplacer or classic".into());
    }

    let mut deltas: Vec<TopologyDelta> = Vec::new();
    if let Some(list) = flag_value(args, "--drop-coupler") {
        let pairs = parse_coupler_list(list)?;
        deltas.push(TopologyDelta::drop_couplers(&base, &pairs).map_err(|e| e.to_string())?);
    }
    if let Some(list) = flag_value(args, "--drop-qubit") {
        let qubits = list
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|q| q.parse().map_err(|_| format!("bad qubit `{q}`")))
            .collect::<Result<Vec<usize>, String>>()?;
        deltas.push(TopologyDelta::drop_qubits(&base, &qubits).map_err(|e| e.to_string())?);
    }
    if let Some(pct) = flag_value(args, "--yield") {
        let yield_pct: u32 = pct.parse().map_err(|_| format!("bad --yield `{pct}`"))?;
        let seed: u64 = numeric_flag(args, "--seed", 0)?;
        deltas.push(base.yield_delta(yield_pct, seed));
    }
    let delta = match deltas.len() {
        0 => return Err("replace needs an edit: --drop-coupler, --drop-qubit, or --yield".into()),
        1 => deltas.pop().expect("one delta"),
        _ => return Err("pick one edit: --drop-coupler, --drop-qubit, or --yield".into()),
    };

    let config = if args.iter().any(|a| a == "--fast") {
        PipelineConfig::fast()
    } else {
        PipelineConfig::paper()
    };
    let engine = Qplacer::new(config);
    let mut ws = PipelineWorkspace::new();

    let start = std::time::Instant::now();
    let cold = engine.execute(
        &base,
        strategy,
        ExecOptions {
            workspace: Some(&mut ws),
            ..Default::default()
        },
    );
    let cold_s = start.elapsed().as_secs_f64();
    println!(
        "cold:    {} ({} qubits, {} instances) in {:.2} s",
        base.name(),
        base.num_qubits(),
        cold.netlist.num_instances(),
        cold_s
    );

    let start = std::time::Instant::now();
    let (warm, report) = engine
        .execute_replace(
            &base,
            &cold,
            &delta,
            ExecOptions {
                workspace: Some(&mut ws),
                ..Default::default()
            },
        )
        .map_err(|e| e.to_string())?;
    let warm_s = start.elapsed().as_secs_f64();
    println!(
        "replace: {} (-{} qubits, -{} +{} couplers) in {:.3} s ({:.1}x vs cold)",
        delta.name(),
        delta.removed_qubits().len(),
        delta.removed_couplers().len(),
        delta.added_couplers().len(),
        warm_s,
        cold_s / warm_s.max(1e-9),
    );

    let overlaps = warm.netlist.overlapping_pairs().len();
    println!(
        "replace ok: moved {}/{} instances ({} qubits), pinned {}, dirty {} qubits, {} overlaps",
        report.moved_instances,
        report.total_instances,
        warm.netlist.num_qubits(),
        report.pinned_instances,
        report.dirty_qubits,
        overlaps
    );
    if overlaps > 0 {
        return Err(format!("warm layout kept {overlaps} residual overlaps"));
    }
    Ok(())
}

/// Runs one placement with span timing and event capture enabled and
/// prints the span tree keyed by call path (count, total wall time,
/// share of the parent node), read off the captured timeline — the
/// quick "where does the time go" view. `--chrome` / `--folded`
/// additionally write that timeline as Chrome Trace Event JSON /
/// collapsed flamegraph stacks.
fn cmd_profile(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("profile needs a topology")?;
    let device = parse_topology(name)?;
    let strategy = parse_strategy(flag_value(args, "--strategy").unwrap_or("qplacer"))?;
    if strategy == Strategy::Human {
        return Err("profile measures the engine pipeline; use qplacer or classic".into());
    }
    let mut config = if args.iter().any(|a| a == "--fast") {
        PipelineConfig::fast()
    } else {
        PipelineConfig::paper()
    };
    if let Some(levels) = levels_flag(args)? {
        config.placer.levels = levels;
    }
    qplacer::obs::set_spans_enabled(true);
    qplacer::obs::set_event_mode(qplacer::obs::EventMode::Capture);
    qplacer::obs::clear_events();
    let engine = Qplacer::new(config);
    let mut ws = PipelineWorkspace::new();
    let _scope = qplacer::adopt_trace_id(qplacer::fresh_trace_id());
    let layout = engine.execute(
        &device,
        strategy,
        ExecOptions {
            workspace: Some(&mut ws),
            ..Default::default()
        },
    );
    println!(
        "{} / {}: {} cells, {:.2} s wall",
        device.name(),
        layout.strategy,
        layout.netlist.num_instances(),
        (layout.timings.assign_ms + layout.timings.place_ms + layout.timings.legalize_ms) / 1e3,
    );
    let snapshot = qplacer::event_snapshot();
    qplacer::obs::set_event_mode(qplacer::obs::EventMode::Off);
    print!(
        "{}",
        qplacer::span_tree_text(&qplacer::span_tree(&snapshot.events))
    );
    if let Some(path) = flag_value(args, "--chrome") {
        std::fs::write(path, qplacer::chrome_trace_json(&snapshot.events))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path} ({} events)", snapshot.events.len());
    }
    if let Some(path) = flag_value(args, "--folded") {
        std::fs::write(path, qplacer::folded_stacks(&snapshot.events))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    // How often the spectral solver fell back to the O(n²) naive DCT:
    // nonzero means some bin-grid length dodged every fast path.
    println!(
        "naive DCT fallbacks: {}",
        qplacer::obs::global()
            .counter("qplacer_dct_naive_fallback_total")
            .get()
    );
    Ok(())
}

fn cmd_suite(args: &[String]) -> Result<(), String> {
    // parse_multi so seed-range spellings (defective-eagle-s0..4) fan
    // out into one job per seed.
    let devices = list_flag(args, "--devices", "grid,falcon,eagle,aspen11,aspenm,xtree")
        .into_iter()
        .map(DeviceSpec::parse_multi)
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .flatten()
        .collect::<Vec<_>>();
    let strategies = list_flag(args, "--strategies", "qplacer,classic,human")
        .into_iter()
        .map(parse_strategy)
        .collect::<Result<Vec<_>, _>>()?;
    let suite = paper_suite();
    let known: Vec<&str> = suite.iter().map(|b| b.name.as_str()).collect();
    let default_benchmarks = known.join(",");
    let benchmarks = list_flag(args, "--benchmarks", &default_benchmarks)
        .into_iter()
        .map(str::to_string)
        .collect::<Vec<_>>();
    for b in &benchmarks {
        // Paper names plus the parametric zoo (ghz-N, qv-N, …).
        if qplacer::circuits::benchmark_by_name(b).is_none() {
            return Err(format!("unknown benchmark `{b}`"));
        }
    }
    let subsets: usize = numeric_flag(args, "--subsets", 50)?;
    let num_seeds: usize = numeric_flag(args, "--seeds", 1)?;
    let threads: usize = numeric_flag(args, "--threads", 0)?;
    let seeds: Vec<u64> = (0..num_seeds as u64).map(|i| 0xF1D0 + i).collect();

    let benchmark_refs: Vec<&str> = benchmarks.iter().map(String::as_str).collect();
    let mut plan = ExperimentPlan::grid(
        "paper-suite",
        &devices,
        &strategies,
        &benchmark_refs,
        subsets,
        &seeds,
    );
    if args.iter().any(|a| a == "--fast") {
        plan = plan.with_profile(Profile::Fast);
    }
    if let Some(levels) = levels_flag(args)? {
        plan = plan.with_levels(levels);
    }

    let runner = Runner::new(threads);
    eprintln!(
        "running {} jobs on {} threads ...",
        plan.len(),
        runner.threads()
    );

    let mut jsonl = flag_value(args, "--jsonl")
        .map(|path| JsonlSink::create(path).map_err(|e| format!("create {path}: {e}")))
        .transpose()?;
    let mut csv = flag_value(args, "--csv")
        .map(|path| CsvSink::create(path).map_err(|e| format!("create {path}: {e}")))
        .transpose()?;
    let mut sinks: Vec<&mut dyn Sink> = Vec::new();
    if let Some(sink) = jsonl.as_mut() {
        sinks.push(sink);
    }
    if let Some(sink) = csv.as_mut() {
        sinks.push(sink);
    }
    let report = runner
        .execute(
            &plan,
            RunOptions {
                sinks,
                ..Default::default()
            },
        )
        .map_err(|e| format!("writing results: {e}"))?
        .report;

    print!("{}", Summary::table(&report.summaries()));
    println!(
        "{} jobs in {:.1} s on {} threads ({} failed)",
        report.records.len(),
        report.wall_ms / 1e3,
        report.threads,
        report.failures().len()
    );
    if let Some(path) = flag_value(args, "--jsonl") {
        println!("wrote {path}");
    }
    if let Some(path) = flag_value(args, "--csv") {
        println!("wrote {path}");
    }
    // Results (including failure records) are written above; the exit
    // code still has to tell scripts the sweep was not clean, and the
    // per-job failure messages say why.
    let failures = Summary::failures(&report.records);
    if !failures.is_empty() {
        for line in &failures {
            eprintln!("  {line}");
        }
        return Err(format!(
            "{}/{} jobs failed",
            failures.len(),
            report.records.len()
        ));
    }
    Ok(())
}

/// Default service address for `serve`/`submit`/`stats`/`shutdown`.
const DEFAULT_ADDR: &str = "127.0.0.1:7177";

fn service_addr(args: &[String]) -> &str {
    flag_value(args, "--addr").unwrap_or(DEFAULT_ADDR)
}

fn connect(args: &[String]) -> Result<ServiceClient, String> {
    let addr = service_addr(args);
    ClientBuilder::new(addr)
        .connect_timeout(std::time::Duration::from_secs(5))
        .connect()
        .map_err(|e| format!("connect {addr}: {e}"))
}

/// Runs the placement daemon until a `shutdown` request drains it.
///
/// The daemon keeps an always-on flight recorder: spans record into
/// bounded per-thread rings (`--flight N` events per thread,
/// overwrite-oldest, so memory stays fixed no matter the uptime), and
/// `qplacer dump-trace` fetches the retained window as Chrome-trace
/// JSON for post-mortem inspection.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flight: usize = numeric_flag(args, "--flight", qplacer::obs::DEFAULT_FLIGHT_CAPACITY)?;
    qplacer::obs::set_flight_capacity(flight);
    qplacer::obs::set_spans_enabled(true);
    qplacer::set_event_mode(qplacer::EventMode::Flight);
    let shards: usize = numeric_flag(args, "--shards", 1usize)?;
    let shard_id: usize = numeric_flag(args, "--shard-id", 0usize)?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    if shard_id >= shards {
        return Err(format!(
            "--shard-id {shard_id} out of range for --shards {shards}"
        ));
    }
    let config = ServiceConfig {
        addr: service_addr(args).to_string(),
        workers: numeric_flag(args, "--workers", 0usize)?,
        queue_capacity: numeric_flag(args, "--queue", 128usize)?,
        cache_capacity: numeric_flag(args, "--cache", 256usize)?,
        batch_max: numeric_flag(args, "--batch", 8usize)?,
        store_dir: flag_value(args, "--store").map(std::path::PathBuf::from),
        tenant_quota: flag_value(args, "--tenant-quota")
            .map(|v| v.parse().map_err(|_| format!("bad --tenant-quota `{v}`")))
            .transpose()?,
        shard_id,
        shards,
    };
    let store_dir = config.store_dir.clone();
    let server = Server::start(config).map_err(|e| format!("start server: {e}"))?;
    println!(
        "qplacer-service listening on {} (shard {}/{})",
        server.local_addr(),
        shard_id,
        shards
    );
    if let Some(dir) = &store_dir {
        let stats = server.metrics();
        println!(
            "durable store at {} ({} results replayed into cache)",
            dir.display(),
            stats.store_replayed
        );
    }
    println!("stop with: qplacer shutdown --addr {}", server.local_addr());
    server.join();
    println!("drained; goodbye");
    Ok(())
}

/// Submits one or more placements and prints the reply envelopes.
fn cmd_submit(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("submit needs a topology")?;
    let device = DeviceSpec::parse(name)?;
    let strategy = parse_strategy(flag_value(args, "--strategy").unwrap_or("qplacer"))?;
    let count: usize = numeric_flag(args, "--count", 1)?;
    let mut job = if args.iter().any(|a| a == "--fast") {
        PlaceJob::fast(device, strategy)
    } else {
        PlaceJob::new(device, strategy)
    };
    if let Some(lb) = segment_flag(args)? {
        job.segment_size_mm = Some(lb);
    }
    if let Some(ms) = flag_value(args, "--deadline") {
        job.deadline_ms = Some(ms.parse().map_err(|_| format!("bad --deadline `{ms}`"))?);
    }
    if let Some(priority) = flag_value(args, "--priority") {
        job.priority = priority
            .parse::<Priority>()
            .map_err(|e| format!("bad --priority `{priority}`: {e}"))?;
    }
    if let Some(tenant) = flag_value(args, "--tenant") {
        job.tenant = Some(tenant.to_string());
    }

    let mut client = connect(args)?;
    for i in 0..count.max(1) {
        let reply = client.place(&job).map_err(|e| e.to_string())?;
        let r = &reply.result;
        println!(
            "#{i} {} {} [{}] {:.1} ms: {} cells, {} iters, HPWL {:.1} mm, \
             A_mer {:.1} mm², P_h {:.2}%, {} overlaps",
            r.device,
            r.strategy,
            if reply.cached { "cached" } else { "fresh" },
            reply.wall_ms,
            r.instances,
            r.place_iterations,
            r.hpwl_mm,
            r.mer_area_mm2,
            r.ph * 100.0,
            r.remaining_overlaps,
        );
    }
    Ok(())
}

/// Prints the server's metrics snapshot (or Prometheus text).
fn cmd_stats(args: &[String]) -> Result<(), String> {
    let format = flag_value(args, "--format").unwrap_or("text");
    if !matches!(format, "text" | "prometheus") {
        return Err(format!("unknown --format `{format}` (text|prometheus)"));
    }
    let mut client = connect(args)?;
    if format == "prometheus" {
        let text = client.metrics_text().map_err(|e| e.to_string())?;
        print!("{text}");
        return Ok(());
    }
    let m = client.stats().map_err(|e| e.to_string())?;
    println!(
        "uptime {:.1} s  requests {}  placed {}  errors {}",
        m.uptime_ms as f64 / 1e3,
        m.requests,
        m.placed,
        m.errors
    );
    println!(
        "rejected: busy {}  invalid-device {}  deadline-expired {}",
        m.rejected_busy, m.rejected_invalid_device, m.deadline_expired
    );
    println!(
        "queue depth {}  in-flight {}  batches {} ({} jobs batched)",
        m.queue_depth, m.in_flight, m.batches, m.batched_jobs
    );
    println!(
        "cache: {:.1}% hit ({} hits / {} misses), {} entries, {} evictions",
        m.cache_hit_rate * 100.0,
        m.cache_hits,
        m.cache_misses,
        m.cache_entries,
        m.cache_evictions
    );
    println!("warm placements {}", m.warm_placements);
    for (name, h) in [
        ("assign", &m.assign),
        ("place", &m.place),
        ("legalize", &m.legalize),
        ("total", &m.total),
    ] {
        println!(
            "{name:>9}: n {:>5}  mean {:>8.2} ms  p50 <= {:>8.2} ms  p99 <= {:>8.2} ms",
            h.count,
            h.mean_ms,
            h.quantile_upper_bound_ms(0.5),
            h.quantile_upper_bound_ms(0.99),
        );
    }
    Ok(())
}

/// Fetches the daemon's flight recorder as Chrome-trace JSON — what
/// the server's threads were doing lately, loadable in Perfetto.
fn cmd_dump_trace(args: &[String]) -> Result<(), String> {
    let mut client = connect(args)?;
    let dump = client.dump_trace().map_err(|e| e.to_string())?;
    match flag_value(args, "--out") {
        Some(path) => {
            std::fs::write(path, &dump.chrome_json).map_err(|e| format!("write {path}: {e}"))?;
            println!(
                "wrote {path} ({} events, {} overwritten by the ring)",
                dump.events, dump.dropped
            );
        }
        None => println!("{}", dump.chrome_json),
    }
    Ok(())
}

/// Asks the server to drain and exit.
fn cmd_shutdown(args: &[String]) -> Result<(), String> {
    let mut client = connect(args)?;
    client.shutdown().map_err(|e| e.to_string())?;
    println!("server draining");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_parsing() {
        assert_eq!(parse_topology("falcon").unwrap().num_qubits(), 27);
        assert_eq!(parse_topology("eagle").unwrap().num_qubits(), 127);
        assert_eq!(parse_topology("aspenm").unwrap().num_qubits(), 80);
        assert!(parse_topology("sycamore").is_err());
        // Zoo spellings reach the CLI too.
        assert_eq!(parse_topology("heavy-hex-d5").unwrap().num_qubits(), 127);
        assert_eq!(parse_topology("ring-16").unwrap().num_qubits(), 16);
        assert_eq!(parse_topology("ladder-4").unwrap().num_qubits(), 8);
        let defective = parse_topology("defective-eagle").unwrap();
        assert!(defective.is_connected());
        assert!(defective.num_qubits() < 127);
    }

    #[test]
    fn export_round_trips_through_the_json_device_spelling() {
        let dir = std::env::temp_dir().join("qplacer-cli-export-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("falcon.json");
        let path_str = path.to_string_lossy().into_owned();
        let args: Vec<String> = ["falcon", "--out", path_str.as_str()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(cmd_export(&args).is_ok());
        let imported = parse_topology(&path_str).unwrap();
        assert_eq!(imported, Topology::falcon27());
        // And the whole pipeline runs on the imported device.
        let e2e_args: Vec<String> = ["--devices", path_str.as_str(), "--fast"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(cmd_e2e(&e2e_args).is_ok());
        // Export validates its topology argument.
        assert!(cmd_export(&["warp".to_string()]).is_err());
        assert!(cmd_export(&[]).is_err());
    }

    #[test]
    fn strategy_parsing() {
        assert_eq!(parse_strategy("qplacer").unwrap(), Strategy::FrequencyAware);
        assert_eq!(parse_strategy("classic").unwrap(), Strategy::Classic);
        assert_eq!(parse_strategy("human").unwrap(), Strategy::Human);
        assert!(parse_strategy("best").is_err());
    }

    #[test]
    fn flag_extraction() {
        let args: Vec<String> = ["--svg", "out.svg", "--subsets", "10"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_value(&args, "--svg"), Some("out.svg"));
        assert_eq!(flag_value(&args, "--subsets"), Some("10"));
        assert_eq!(flag_value(&args, "--seed"), None);
        // Flag at the end without a value.
        let dangling: Vec<String> = vec!["--svg".to_string()];
        assert_eq!(flag_value(&dangling, "--svg"), None);
    }

    #[test]
    fn unknown_flags_are_named_errors() {
        let to_args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        for (command, args, bad) in [
            (
                "evaluate",
                &["grid", "bv-4", "--subsets", "1", "--bogus", "3"][..],
                "--bogus",
            ),
            ("evaluate", &["grid", "bv-4", "--subset", "5"], "--subset"),
            ("evaluate", &["grid", "bv-4", "--threads", "4"], "--threads"),
            ("inventory", &["--fast"], "--fast"),
            ("export", &["falcon", "--svg", "f.svg"], "--svg"),
            ("place", &["grid", "--fast"], "--fast"),
            ("sweep", &["grid", "--levels", "2"], "--levels"),
            ("e2e", &["--device", "grid"], "--device"),
            ("replace", &["grid", "--drop-coupler", "0-1", "-v"], "-v"),
            ("profile", &["grid", "--trace", "t.jsonl"], "--trace"),
            ("suite", &["--devices", "grid", "--help"], "--help"),
            ("serve", &["--fast"], "--fast"),
            ("submit", &["grid", "--workers", "2"], "--workers"),
            ("stats", &["--out", "x"], "--out"),
            ("dump-trace", &["--format", "text"], "--format"),
            ("shutdown", &["--count", "1"], "--count"),
            // Positional arguments beyond those a command takes.
            ("inventory", &["extra-arg"], "extra-arg"),
            ("place", &["grid", "falcon"], "falcon"),
            (
                "evaluate",
                &["grid", "bv-4", "--subsets", "1", "qaoa-4"],
                "qaoa-4",
            ),
            ("suite", &["grid"], "grid"),
            ("shutdown", &["--addr", "a", "now"], "now"),
            // Flags given twice, with a value or as a switch.
            (
                "evaluate",
                &["grid", "bv-4", "--subsets", "1", "--subsets", "9"],
                "--subsets",
            ),
            ("e2e", &["--fast", "--devices", "grid", "--fast"], "--fast"),
        ] {
            let err = run(command, &to_args(args)).expect_err(command);
            assert!(err.contains(&format!("`{bad}`")), "{command}: {err}");
        }
        // A value that looks like a flag belongs to the flag before it.
        assert!(check_flags("evaluate", &to_args(&["grid", "bv-4", "--seed", "-1"])).is_ok());
        // The command lines CI and the benchmark's daemon spawn use.
        for (command, args) in [
            (
                "e2e",
                &[
                    "--devices",
                    "grid",
                    "--fast",
                    "--levels",
                    "4",
                    "--trace",
                    "t",
                ][..],
            ),
            (
                "profile",
                &[
                    "grid", "--fast", "--levels", "4", "--chrome", "c", "--folded", "f",
                ],
            ),
            (
                "suite",
                &[
                    "--devices",
                    "grid",
                    "--strategies",
                    "qplacer,classic",
                    "--benchmarks",
                    "bv-4",
                    "--subsets",
                    "2",
                    "--fast",
                    "--levels",
                    "4",
                    "--jsonl",
                    "s.jsonl",
                    "--csv",
                    "s.csv",
                    "--threads",
                    "2",
                    "--seeds",
                    "1",
                ],
            ),
            (
                "serve",
                &["--addr", "127.0.0.1:0", "--workers", "2", "--store", "dir"],
            ),
            (
                "submit",
                &["falcon", "--fast", "--count", "2", "--addr", "a"],
            ),
            ("stats", &["--addr", "a", "--format", "prometheus"]),
            ("dump-trace", &["--addr", "a", "--out", "flight.json"]),
            ("replace", &["eagle", "--drop-coupler", "0-1", "--fast"]),
            ("export", &["falcon", "--out", "device-ci.json"]),
        ] {
            assert!(
                check_flags(command, &to_args(args)).is_ok(),
                "{command} {args:?}"
            );
        }
    }

    #[test]
    fn list_flag_splits_and_defaults() {
        let args: Vec<String> = ["--devices", "grid,falcon"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(list_flag(&args, "--devices", "x"), vec!["grid", "falcon"]);
        assert_eq!(list_flag(&args, "--strategies", "a,b"), vec!["a", "b"]);
    }

    #[test]
    fn inventory_runs() {
        assert!(cmd_inventory().is_ok());
    }

    #[test]
    fn e2e_command_runs_on_a_grid() {
        let args: Vec<String> = ["--devices", "grid", "--fast"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(cmd_e2e(&args).is_ok());
        // Human is placement-free; e2e must refuse it.
        let bad: Vec<String> = ["--strategy", "human"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(cmd_e2e(&bad).is_err());
    }

    #[test]
    fn e2e_trace_writes_parseable_jsonl() {
        let dir = std::env::temp_dir().join("qplacer-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let path_str = path.to_string_lossy().into_owned();
        let args: Vec<String> = ["--devices", "grid", "--fast", "--trace", path_str.as_str()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(cmd_e2e(&args).is_ok());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.trim().is_empty());
        for line in text.lines() {
            let value: serde_json::Value =
                serde_json::from_str(line).expect("valid JSON trace line");
            assert!(value.as_map().is_some());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profile_command_prints_a_span_tree_and_exports_timelines() {
        let args: Vec<String> = ["grid", "--fast"].iter().map(|s| s.to_string()).collect();
        assert!(cmd_profile(&args).is_ok());
        // At least the pipeline root span must have been recorded.
        assert!(qplacer::obs::span_report()
            .iter()
            .any(|s| s.name == "pipeline" && s.count > 0));
        assert!(cmd_profile(&[]).is_err());
        let bad: Vec<String> = ["grid", "--strategy", "human"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(cmd_profile(&bad).is_err());

        // --chrome / --folded capture the event timeline and write the
        // two export formats. Same test (not a sibling) because profile
        // toggles the process-global span/event gates.
        let dir = std::env::temp_dir().join("qplacer-cli-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let chrome = dir.join("trace.json").to_string_lossy().into_owned();
        let folded = dir.join("stacks.txt").to_string_lossy().into_owned();
        let args: Vec<String> = ["grid", "--fast", "--chrome", &chrome, "--folded", &folded]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(cmd_profile(&args).is_ok());
        let text = std::fs::read_to_string(&chrome).unwrap();
        let value: serde_json::Value = serde_json::from_str(&text).expect("valid Chrome JSON");
        let map = value.as_map().expect("top-level object");
        assert!(map.iter().any(|(k, _)| k == "traceEvents"));
        assert!(text.contains("\"name\":\"pipeline\""));
        let stacks = std::fs::read_to_string(&folded).unwrap();
        assert!(
            stacks.lines().any(|l| l.starts_with("pipeline")),
            "folded stacks must root at the pipeline span: {stacks}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_format_is_validated_before_connecting() {
        let args: Vec<String> = ["--format", "xml"].iter().map(|s| s.to_string()).collect();
        // Invalid format errors without touching the network.
        assert!(cmd_stats(&args).unwrap_err().contains("unknown --format"));
    }

    #[test]
    fn service_commands_validate_arguments() {
        // submit needs a topology…
        assert!(cmd_submit(&[]).is_err());
        // …and rejects bad values before touching the network. Every
        // command taking `--segment` refuses NaN and non-positive sizes
        // with a named error instead of panicking in the pipeline.
        for seg in ["-1", "0", "nan"] {
            let bad_seg = |head: &[&str]| -> Vec<String> {
                head.iter()
                    .chain(&["--segment", seg])
                    .map(|s| s.to_string())
                    .collect()
            };
            assert!(cmd_submit(&bad_seg(&["falcon"]))
                .unwrap_err()
                .contains("--segment"));
            assert!(cmd_place(&bad_seg(&["grid"]))
                .unwrap_err()
                .contains("--segment"));
            assert!(cmd_e2e(&bad_seg(&["--devices", "grid", "--fast"]))
                .unwrap_err()
                .contains("--segment"));
            assert!(cmd_evaluate(&bad_seg(&["grid", "bv-4", "--subsets", "1"]))
                .unwrap_err()
                .contains("--segment"));
        }
        let bad_deadline: Vec<String> = ["falcon", "--deadline", "soon"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(cmd_submit(&bad_deadline).is_err());
    }

    #[test]
    fn oversized_devices_are_named_errors() {
        // Each used to abort on allocation, panic, or run unbounded.
        for device in [
            "heavy-hex-d99999999999",
            "ring-18446744073709551615",
            "grid-100000x100000",
        ] {
            let err = cmd_export(&[device.to_string()]).unwrap_err();
            assert!(err.contains("device limit"), "{device}: {err}");
        }
    }

    #[test]
    fn serve_submit_stats_shutdown_round_trip() {
        // Full CLI loop against an in-process server on an ephemeral
        // port (the CLI helpers talk to whatever --addr names).
        let server = Server::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .expect("bind server");
        let addr = server.local_addr().to_string();
        let args = |rest: &[&str]| -> Vec<String> {
            rest.iter()
                .map(|s| s.to_string())
                .chain(["--addr".to_string(), addr.clone()])
                .collect()
        };
        assert!(cmd_submit(&args(&["grid", "--fast", "--count", "2"])).is_ok());
        assert!(cmd_stats(&args(&[])).is_ok());
        // dump-trace round-trips the flight-recorder wire pair; the
        // payload is valid Chrome JSON even with recording off.
        let dir = std::env::temp_dir().join("qplacer-cli-dump-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("dump.json").to_string_lossy().into_owned();
        assert!(cmd_dump_trace(&args(&["--out", &out])).is_ok());
        let text = std::fs::read_to_string(&out).unwrap();
        let value: serde_json::Value = serde_json::from_str(&text).expect("valid Chrome JSON");
        assert!(value.as_map().is_some());
        std::fs::remove_dir_all(&dir).ok();
        assert!(cmd_shutdown(&args(&[])).is_ok());
        server.join();
    }

    #[test]
    fn replace_command_runs_each_edit_kind() {
        let to_args =
            |rest: &[&str]| -> Vec<String> { rest.iter().map(|s| s.to_string()).collect() };
        // Grid 3x3 edge (0,1) exists (row-major rows of 3).
        assert!(cmd_replace(&to_args(&["grid-3x3", "--drop-coupler", "0-1", "--fast"])).is_ok());
        assert!(cmd_replace(&to_args(&["grid-3x3", "--drop-qubit", "4", "--fast"])).is_ok());
        assert!(cmd_replace(&to_args(&[
            "grid-4x4", "--yield", "90", "--seed", "3", "--fast"
        ]))
        .is_ok());
        // Argument validation: an edit is required, only one edit kind
        // at a time, couplers must exist, and Human has no warm path.
        assert!(cmd_replace(&to_args(&["grid-3x3", "--fast"])).is_err());
        assert!(cmd_replace(&to_args(&[
            "grid-3x3",
            "--drop-coupler",
            "0-1",
            "--drop-qubit",
            "4"
        ]))
        .is_err());
        assert!(cmd_replace(&to_args(&["grid-3x3", "--drop-coupler", "0-8"])).is_err());
        assert!(cmd_replace(&to_args(&[
            "grid-3x3",
            "--drop-coupler",
            "0-1",
            "--strategy",
            "human"
        ]))
        .is_err());
        assert!(cmd_replace(&[]).is_err());
    }

    #[test]
    fn coupler_list_parsing() {
        assert_eq!(parse_coupler_list("0-1,4-5").unwrap(), vec![(0, 1), (4, 5)]);
        assert!(parse_coupler_list("01").is_err());
        assert!(parse_coupler_list("a-b").is_err());
    }

    #[test]
    fn suite_command_runs_a_tiny_grid() {
        let args: Vec<String> = [
            "--devices",
            "grid",
            "--strategies",
            "qplacer",
            "--benchmarks",
            "bv-4",
            "--subsets",
            "1",
            "--threads",
            "2",
            "--fast",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert!(cmd_suite(&args).is_ok());
    }
}
