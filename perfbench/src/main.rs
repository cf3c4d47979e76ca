//! `perfbench` — the QPlacer benchmark: four workloads, end-to-end
//! metrics from untraced runs, per-layer metrics from traced runs.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_eagle --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run it from the repository root. Every metric prints by name with
//! its unit; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See `NOTES.md` beside
//! this crate for what each workload and metric means.

mod cold;
mod eco;
mod inputs;
mod layers;
mod report;
mod serve;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::{Host, Outcome};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["cold_eagle", "cold_hh_d10", "eco_eagle", "serve_mix"];

const USAGE: &str = "usage: perfbench --workload <cold_eagle|cold_hh_d10|eco_eagle|serve_mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The repository checkout the benchmark runs in: the working
/// directory, which must hold the workspace manifest.
fn checkout_root() -> Result<PathBuf, String> {
    let root = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    if root.join("Cargo.toml").is_file() && root.join("crates").is_dir() {
        Ok(root)
    } else {
        Err(format!(
            "{} is not a QPlacer checkout (run from the repository root)",
            root.display()
        ))
    }
}

/// A per-run scratch directory inside the checkout, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    fn create(root: &Path) -> Result<Self, String> {
        let dir = root
            .join(".bench_tmp")
            .join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only when empty
        }
    }
}

fn run(args: &Args, started: Instant) -> Result<(), String> {
    let root = checkout_root()?;
    let scratch = Scratch::create(&root)?;
    let outcome: Outcome = match (args.workload.as_str(), args.trace) {
        ("cold_eagle", false) => cold::run(&cold::EAGLE, args),
        ("cold_hh_d10", false) => cold::run(&cold::HH_D10, args),
        ("eco_eagle", false) => eco::run(args),
        ("serve_mix", false) => serve::run(args, &root, &scratch, started)?,
        ("cold_eagle", true) => layers::run_cold(&cold::EAGLE, args, &scratch),
        ("cold_hh_d10", true) => layers::run_cold(&cold::HH_D10, args, &scratch),
        ("eco_eagle", true) => layers::run_eco(args, &scratch),
        ("serve_mix", true) => layers::run_serve(args, &root, &scratch)?,
        _ => unreachable!("workload validated by parse_args"),
    };
    drop(scratch);
    outcome.print(&args.workload, args.trace, &Host::detect())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, started) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn command_line_round_trip_and_rejections() {
        let a = parse_args(&argv(
            "--workload eco_eagle --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("eco_eagle", 9, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload cold_eagle --seed x --seconds 1 --trace 0",
            "--workload cold_eagle --seed 1 --seconds 0 --trace 0",
            "--workload cold_eagle --seed 1 --seconds 1 --trace 2",
            "--workload cold_eagle --seed 1 --seconds 1",
            "--workload cold_eagle --seed 1 --seconds 1 --trace 0 --extra",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
