//! The metric registry, the run outcome, the host fingerprint, and the
//! printed result (a human-readable table, then one JSON line).

use std::collections::BTreeMap;

/// End-to-end metrics, `(name, unit)`, printed by every untraced run.
/// Each workload fills each metric from its own operations; see
/// `perfbench/NOTES.md` for the per-workload meaning.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("aux_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("ph", "ratio"),
    ("neg_log10_fidelity", "log10"),
    ("area_mm2", "mm2"),
];

/// Per-layer metrics, `(name, unit, the end-to-end metric it should
/// move)`, printed by every traced run.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    (
        "place.freq_force_us",
        "us",
        "op_p50_ms (cold_*, eco_eagle); not aux_p50_ms on cold_*",
    ),
    (
        "place.freq_force_build_ms",
        "ms",
        "op_p50_ms (cold_*, eco_eagle); not aux_p50_ms on cold_*",
    ),
    ("place.freq_pairs", "count", "op_p50_ms (cold_*, eco_eagle)"),
    (
        "place.density_grad_us",
        "us",
        "op_p50_ms + aux_p50_ms (cold_*)",
    ),
    (
        "place.density_deposit_us",
        "us",
        "op_p50_ms + aux_p50_ms (cold_*)",
    ),
    (
        "numeric.poisson_us",
        "us",
        "op_p50_ms + aux_p50_ms (cold_*)",
    ),
    ("place.overflow_us", "us", "op_p50_ms + aux_p50_ms (cold_*)"),
    (
        "place.wirelength_us",
        "us",
        "op_p50_ms + aux_p50_ms (cold_*)",
    ),
    (
        "numeric.nesterov_step_us",
        "us",
        "op_p50_ms + aux_p50_ms (cold_*)",
    ),
    ("place.iterations", "count", "op_p50_ms (all)"),
    ("place.global_s", "s", "op_p50_ms (cold_*)"),
    (
        "place.attributed_frac",
        "ratio",
        "coverage of place.global_s (cold_eagle)",
    ),
    ("freq.assign_ms", "ms", "op_p50_ms (cold_*, serve_mix aux)"),
    (
        "netlist.build_ms",
        "ms",
        "op_p50_ms (cold_*, serve_mix aux)",
    ),
    ("legal.legalize_ms", "ms", "op_p50_ms (cold_*, eco_eagle)"),
    ("legal.legalize_classic_ms", "ms", "aux_p50_ms (cold_*)"),
    (
        "legal.overlaps",
        "count",
        "correctness: 0 on every workload",
    ),
    (
        "metrics.evaluate_ms",
        "ms",
        "op_p50_ms (cold_*); not neg_log10_fidelity",
    ),
    (
        "metrics.hotspot_ms",
        "ms",
        "op_p50_ms + aux_p50_ms (cold_*)",
    ),
    (
        "topology.delta_us",
        "us",
        "op_p50_ms + aux_p50_ms (eco_eagle)",
    ),
    (
        "harness.replace_ms",
        "ms",
        "op_p50_ms + aux_p50_ms (eco_eagle)",
    ),
    ("harness.replace_dirty", "count", "op_p50_ms (eco_eagle)"),
    ("harness.replace_pinned", "count", "op_p50_ms (eco_eagle)"),
    ("harness.replace_moved", "count", "op_p50_ms (eco_eagle)"),
    (
        "service.parse_us",
        "us",
        "op_p50_ms + throughput_per_s (serve_mix)",
    ),
    (
        "service.cache_key_us",
        "us",
        "op_p50_ms + throughput_per_s (serve_mix)",
    ),
    (
        "service.reply_serialize_us",
        "us",
        "op_p50_ms + throughput_per_s (serve_mix)",
    ),
    ("service.store_append_us", "us", "aux_p50_ms (serve_mix)"),
    ("service.miss_pipeline_ms", "ms", "aux_p50_ms (serve_mix)"),
    ("service.cache_hit_rate", "ratio", "op_p50_ms (serve_mix)"),
    ("service.jobs_per_batch", "count", "aux_p50_ms (serve_mix)"),
    (
        "service.rejected_busy",
        "count",
        "correctness: 0 at the base rate",
    ),
    ("service.store_appended", "count", "aux_p50_ms (serve_mix)"),
    ("bench.gen_late_p99_ms", "ms", "aux_p50_ms (serve_mix)"),
    (
        "bench.trace_overhead_frac",
        "ratio",
        "gap between traced and untraced runs",
    ),
];

/// What one run measured and whether its outputs checked out.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness gate passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or gave a wrong output.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Failed correctness gates, for the log.
    pub problems: Vec<String>,
}

impl Outcome {
    /// A fresh outcome; correct until a gate fails.
    #[must_use]
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Default::default()
        }
    }

    /// Records one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one operation, failed when `ok` is false.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a correctness gate; a failing gate marks the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            let what = what();
            if self.problems.len() < 20 {
                self.problems.push(what);
            }
        }
    }

    /// Prints the table and the final JSON line. Fails when a metric of
    /// the selected registry was not measured or is not a finite number.
    ///
    /// # Errors
    ///
    /// Names the first missing or non-finite metric.
    pub fn print(&self, workload: &str, traced: bool, host: &Host) -> Result<(), String> {
        let rows: Vec<(&str, &str, &str)> = if traced {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n, u, "")).collect()
        };
        let mut json = Vec::new();
        println!("host: {}", host.json());
        println!(
            "workload {workload} ({}): {} ops, {} failed, outputs {}",
            if traced { "traced" } else { "end to end" },
            self.attempted,
            self.failed,
            if self.correct { "correct" } else { "WRONG" }
        );
        for problem in &self.problems {
            println!("  problem: {problem}");
        }
        for (name, unit, moves) in rows {
            let value = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            if moves.is_empty() {
                println!("  {name:<28} {value:>16.6} {unit}");
            } else {
                println!("  {name:<28} {value:>16.6} {unit:<6} -> {moves}");
            }
            json.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
        Ok(())
    }
}

/// The host a result was measured on. Results from different hosts are
/// not comparable.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU brand string.
    pub cpu: String,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// Threads of the rayon pool the pipeline runs on.
    pub rayon_threads: usize,
}

impl Host {
    /// Fingerprints the current host.
    #[must_use]
    pub fn detect() -> Self {
        let rustc = std::process::Command::new(std::env::var("RUSTC").unwrap_or("rustc".into()))
            .arg("--version")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_brand(),
            rustc,
            rayon_threads: rayon::current_num_threads(),
        }
    }

    /// One-line JSON rendering.
    #[must_use]
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": {:?}, \"rustc\": {:?}, \"rayon_threads\": {}}}",
            self.nproc, self.cpu, self.rustc, self.rayon_threads
        )
    }
}

#[cfg(target_arch = "x86_64")]
fn cpu_brand() -> String {
    // Leaves 0x8000_0002..=4 hold the brand string when the maximum
    // extended leaf reaches them.
    let max_leaf = std::arch::x86_64::__cpuid(0x8000_0000).eax;
    if max_leaf < 0x8000_0004 {
        return "unknown x86_64".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = std::arch::x86_64::__cpuid(leaf);
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_brand() -> String {
    std::env::consts::ARCH.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_name, valid_unit};

    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = serde::Value::field(doc.as_map().expect("object"), key).expect(key);
        let serde::Value::Seq(items) = list else {
            panic!("{key} is a list")
        };
        items
            .iter()
            .map(|item| {
                let map = item.as_map().expect("metric object");
                let text = |k: &str| match serde::Value::field(map, k).expect(k) {
                    serde::Value::Str(s) => s.clone(),
                    other => panic!("{k} is a string, got {other:?}"),
                };
                (text("name"), text("unit"))
            })
            .collect()
    }

    #[test]
    fn registry_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .copied()
            .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        for workload in crate::WORKLOADS {
            assert!(valid_name(workload));
        }
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let owned = |v: Vec<(&str, &str)>| -> Vec<(String, String)> {
            v.into_iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), owned(END_TO_END.to_vec()));
        assert_eq!(
            declared("per_layer"),
            owned(PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect())
        );
    }

    #[test]
    fn print_requires_every_metric_of_the_run_kind() {
        let mut outcome = Outcome::new();
        for &(name, _) in END_TO_END {
            outcome.set(name, 1.5);
        }
        outcome.op(true);
        let host = Host {
            nproc: 1,
            cpu: "test".into(),
            rustc: "test".into(),
            rayon_threads: 1,
        };
        assert!(outcome.print("cold_eagle", false, &host).is_ok());
        assert!(outcome.print("cold_eagle", true, &host).is_err());
    }
}
