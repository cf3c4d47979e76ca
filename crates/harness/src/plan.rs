//! Declarative experiment plans: what to run, not how to run it.
//!
//! An [`ExperimentPlan`] is a serde-round-trippable list of [`JobSpec`]s,
//! usually built as a device × strategy × benchmark × seed grid via
//! [`ExperimentPlan::grid`]. Plans carry everything needed to reproduce a
//! run — the [`Runner`](crate::Runner) derives all randomness from the
//! specs, never from global state.

use serde::{Deserialize, Serialize};

use qplacer_topology::{Topology, MAX_DEVICE_QUBITS};

use crate::pipeline::{PipelineConfig, Strategy};
use qplacer_netlist::NetlistConfig;
use qplacer_place::PlacerConfig;

/// A device topology as declarative data (rather than a built
/// [`Topology`]), so plans stay compact and serializable.
///
/// Beyond the paper's fixed devices, the zoo adds parametric families
/// ([`DeviceSpec::HeavyHex`], [`DeviceSpec::Ring`],
/// [`DeviceSpec::Ladder`]), a seeded fabrication-yield wrapper
/// ([`DeviceSpec::Defective`]) around any base spec, and calibration
/// import from a JSON file ([`DeviceSpec::FromJson`]). Use
/// [`DeviceSpec::try_build`] to materialize with typed errors;
/// [`DeviceSpec::build`] panics on invalid specs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceSpec {
    /// Regular `width` × `height` lattice.
    Grid {
        /// Columns.
        width: usize,
        /// Rows.
        height: usize,
    },
    /// IBM Falcon r5.11 heavy-hex (27 qubits).
    Falcon27,
    /// IBM Eagle r1 heavy-hex (127 qubits).
    Eagle127,
    /// Parametric heavy-hex lattice ([`Topology::heavy_hex`]):
    /// `distance` 5 is the Eagle graph; 10 and 16 reach Osprey-433 and
    /// Condor-1121 scale.
    HeavyHex {
        /// Lattice distance (≥ 2).
        distance: usize,
    },
    /// Cycle of `qubits` qubits ([`Topology::ring`]).
    Ring {
        /// Ring length (≥ 3).
        qubits: usize,
    },
    /// Two rails of `rungs` qubits each ([`Topology::ladder`]).
    Ladder {
        /// Rung count (≥ 2).
        rungs: usize,
    },
    /// Rigetti Aspen octagon lattice.
    Aspen {
        /// Octagon rows.
        rows: usize,
        /// Octagon columns.
        cols: usize,
    },
    /// Pauli-string-efficient X-tree.
    Xtree {
        /// Children of the root.
        root: usize,
        /// Branching factor below the root.
        branch: usize,
        /// Tree depth.
        levels: usize,
    },
    /// `base` after a seeded Bernoulli yield model kills qubits and
    /// couplers, trimmed to the largest connected component
    /// ([`Topology::with_yield`]).
    Defective {
        /// The pristine device.
        base: Box<DeviceSpec>,
        /// Per-component survival probability, percent (clamped 0–100).
        yield_pct: u32,
        /// Defect-sampling seed.
        seed: u64,
    },
    /// A device imported from a JSON calibration file
    /// ([`Topology::from_json_file`]).
    FromJson {
        /// Path to the JSON device description.
        path: String,
    },
}

/// Why a [`DeviceSpec`] could not be materialized into a placeable
/// device. Surfaced as a typed job failure by the harness runner and as
/// an `invalid-device` protocol error by `qplacer-service` — never as a
/// panic into the placement engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// A structural parameter is outside the family's domain
    /// (zero-sized grid, ring shorter than 3, heavy-hex distance < 2…).
    BadParameter {
        /// The offending spec's display name.
        device: String,
        /// What was wrong.
        reason: String,
    },
    /// A JSON device file could not be read or parsed.
    BadImport {
        /// The import path.
        path: String,
        /// The underlying error.
        reason: String,
    },
    /// The materialized device is not one connected component — some
    /// qubit is isolated from the rest, so placement (and the spiral
    /// searches inside legalization) cannot meaningfully run.
    Disconnected {
        /// The device's display name.
        device: String,
        /// Total qubits.
        qubits: usize,
        /// Qubits in the largest connected component.
        largest_component: usize,
    },
    /// The device has fewer than two qubits — nothing to couple, place,
    /// or legalize.
    TooSmall {
        /// The device's display name.
        device: String,
        /// Total qubits.
        qubits: usize,
    },
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::BadParameter { device, reason } => {
                write!(f, "invalid device `{device}`: {reason}")
            }
            DeviceError::BadImport { path, reason } => {
                write!(f, "invalid device import `{path}`: {reason}")
            }
            DeviceError::Disconnected {
                device,
                qubits,
                largest_component,
            } => write!(
                f,
                "device `{device}` is disconnected: largest component holds \
                 {largest_component} of {qubits} qubits"
            ),
            DeviceError::TooSmall { device, qubits } => {
                write!(f, "device `{device}` has only {qubits} qubit(s)")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

/// Qubits in [`Topology::heavy_hex`]`(distance)` (`distance ≥ 2`), or
/// `None` past [`MAX_DEVICE_QUBITS`]: `distance + 2` rows of `3·distance`
/// qubits (the first and last one short), plus one bridge qubit per
/// fourth column between neighbouring rows — columns `≡ 0 (mod 4)` below
/// even rows, `≡ 2` below odd ones, clipped to both rows' spans.
fn heavy_hex_qubits(distance: usize) -> Option<usize> {
    let cols = distance.checked_mul(3)?;
    let row_qubits = cols.checked_mul(distance.checked_add(2)?)? - 2;
    if row_qubits > MAX_DEVICE_QUBITS {
        return None;
    }
    // Bridge columns `offset + 4k` in `lo..=hi`.
    let bridges =
        |offset: usize, lo: usize, hi: usize| (hi - offset) / 4 + 1 - usize::from(lo > offset);
    let odd_middle = distance / 2; // odd rows among 1..distance
    let even_middle = distance - 1 - odd_middle;
    let last_offset = 2 * (distance % 2);
    let total = row_qubits
        + bridges(0, 0, cols - 2)
        + even_middle * bridges(0, 0, cols - 1)
        + odd_middle * bridges(2, 0, cols - 1)
        + bridges(last_offset, 1, cols - 1);
    (total <= MAX_DEVICE_QUBITS).then_some(total)
}

/// Qubits in [`Topology::xtree`]`(root, branch, levels)`, or `None`
/// past [`MAX_DEVICE_QUBITS`]: the root plus `root·branch^k` children on
/// level `k`.
fn xtree_qubits(root: usize, branch: usize, levels: usize) -> Option<usize> {
    let mut total = 1usize;
    let mut width = root;
    // A non-empty level adds at least one qubit, so the limit (or an
    // empty level) ends the loop long before a hostile `levels` would.
    for _ in 0..levels {
        if width == 0 || total > MAX_DEVICE_QUBITS {
            break;
        }
        total = total.checked_add(width)?;
        width = width.saturating_mul(branch);
    }
    (total <= MAX_DEVICE_QUBITS).then_some(total)
}

impl DeviceSpec {
    /// Materializes the topology, panicking on invalid specs.
    ///
    /// Prefer [`DeviceSpec::try_build`] anywhere a bad spec can come
    /// from user input (plans, CLI, wire requests).
    ///
    /// # Panics
    ///
    /// Panics whenever [`DeviceSpec::try_build`] would return an error.
    #[must_use]
    pub fn build(&self) -> Topology {
        match self.try_build() {
            Ok(topology) => topology,
            Err(e) => panic!("{e}"),
        }
    }

    /// Materializes the topology, validating that the result is a
    /// placeable device: structural parameters in-domain, at most
    /// [`MAX_DEVICE_QUBITS`] qubits (checked before anything is built),
    /// at least two qubits, and one connected component.
    ///
    /// # Errors
    ///
    /// [`DeviceError`] describing the first violation found.
    pub fn try_build(&self) -> Result<Topology, DeviceError> {
        let bad = |reason: &str| DeviceError::BadParameter {
            device: self.name(),
            reason: reason.to_string(),
        };
        // Sizes come from untrusted spellings: count the qubits with
        // checked arithmetic before a generator allocates anything.
        let within_limit = |qubits: Option<usize>| match qubits {
            Some(n) if n <= MAX_DEVICE_QUBITS => Ok(()),
            _ => Err(bad(&format!(
                "more than the {MAX_DEVICE_QUBITS}-qubit device limit"
            ))),
        };
        let topology = match self {
            DeviceSpec::Grid { width, height } => {
                if *width == 0 || *height == 0 {
                    return Err(bad("grid dims must be positive"));
                }
                within_limit(width.checked_mul(*height))?;
                Topology::grid(*width, *height)
            }
            DeviceSpec::Falcon27 => Topology::falcon27(),
            DeviceSpec::Eagle127 => Topology::eagle127(),
            DeviceSpec::HeavyHex { distance } => {
                if *distance < 2 {
                    return Err(bad("heavy-hex distance must be at least 2"));
                }
                within_limit(heavy_hex_qubits(*distance))?;
                Topology::heavy_hex(*distance)
            }
            DeviceSpec::Ring { qubits } => {
                if *qubits < 3 {
                    return Err(bad("a ring needs at least 3 qubits"));
                }
                within_limit(Some(*qubits))?;
                Topology::ring(*qubits)
            }
            DeviceSpec::Ladder { rungs } => {
                if *rungs < 2 {
                    return Err(bad("a ladder needs at least 2 rungs"));
                }
                within_limit(rungs.checked_mul(2))?;
                Topology::ladder(*rungs)
            }
            DeviceSpec::Aspen { rows, cols } => {
                if *rows == 0 || *cols == 0 {
                    return Err(bad("octagon lattice dims must be positive"));
                }
                within_limit(
                    rows.checked_mul(*cols)
                        .and_then(|cells| cells.checked_mul(8)),
                )?;
                Topology::aspen(*rows, *cols)
            }
            DeviceSpec::Xtree {
                root,
                branch,
                levels,
            } => {
                if *root == 0 {
                    return Err(bad("root branch factor must be positive"));
                }
                if *levels == 0 || (*levels > 1 && *branch == 0) {
                    return Err(bad("xtree needs at least one level of children"));
                }
                within_limit(xtree_qubits(*root, *branch, *levels))?;
                Topology::xtree(*root, *branch, *levels)
            }
            DeviceSpec::Defective {
                base,
                yield_pct,
                seed,
            } => base.try_build()?.with_yield(*yield_pct, *seed),
            DeviceSpec::FromJson { path } => {
                Topology::from_json_file(path).map_err(|e| DeviceError::BadImport {
                    path: path.clone(),
                    reason: e.to_string(),
                })?
            }
        };
        Self::validate_topology(&topology)?;
        Ok(topology)
    }

    /// The placeability gate [`DeviceSpec::try_build`] applies after
    /// construction: at least two qubits, one connected component.
    /// Exposed so callers that materialized the topology themselves
    /// (e.g. service admission parsing a JSON import it already read)
    /// can apply the identical checks without building twice.
    ///
    /// # Errors
    ///
    /// [`DeviceError::TooSmall`] or [`DeviceError::Disconnected`].
    pub fn validate_topology(topology: &Topology) -> Result<(), DeviceError> {
        if topology.num_qubits() < 2 {
            return Err(DeviceError::TooSmall {
                device: topology.name().to_string(),
                qubits: topology.num_qubits(),
            });
        }
        if !topology.is_connected() {
            let largest = topology.largest_connected_component().num_qubits();
            return Err(DeviceError::Disconnected {
                device: topology.name().to_string(),
                qubits: topology.num_qubits(),
                largest_component: largest,
            });
        }
        Ok(())
    }

    /// The device's display name (matches [`Topology::name`]).
    ///
    /// Computed without materializing the topology (and without I/O for
    /// [`DeviceSpec::FromJson`]), so it stays usable for labeling
    /// records of specs that fail to build.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            DeviceSpec::Grid { width, height } => format!("Grid-{width}x{height}"),
            DeviceSpec::Falcon27 => "Falcon".to_string(),
            DeviceSpec::Eagle127 => "Eagle".to_string(),
            DeviceSpec::HeavyHex { distance } => format!("HeavyHex-d{distance}"),
            DeviceSpec::Ring { qubits } => format!("Ring-{qubits}"),
            DeviceSpec::Ladder { rungs } => format!("Ladder-{rungs}"),
            DeviceSpec::Aspen { rows: 1, cols: 5 } => "Aspen-11".to_string(),
            DeviceSpec::Aspen { rows: 2, cols: 5 } => "Aspen-M".to_string(),
            DeviceSpec::Aspen { rows, cols } => format!("Octagon-{rows}x{cols}"),
            DeviceSpec::Xtree {
                root,
                branch,
                levels,
            } => match xtree_qubits(*root, *branch, *levels) {
                Some(nodes) => format!("Xtree-{nodes}"),
                None => format!("Xtree-{root}x{branch}x{levels}"),
            },
            DeviceSpec::Defective {
                base,
                yield_pct,
                seed,
            } => format!("{}-y{}-s{}", base.name(), (*yield_pct).min(100), seed),
            DeviceSpec::FromJson { path } => {
                let stem = std::path::Path::new(path)
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or(path.as_str());
                format!("Json-{stem}")
            }
        }
    }

    /// The paper's six-device suite (§VI-A), in Table II order.
    #[must_use]
    pub fn paper_suite() -> Vec<DeviceSpec> {
        vec![
            DeviceSpec::Grid {
                width: 5,
                height: 5,
            },
            DeviceSpec::Falcon27,
            DeviceSpec::Eagle127,
            DeviceSpec::Aspen { rows: 1, cols: 5 },
            DeviceSpec::Aspen { rows: 2, cols: 5 },
            DeviceSpec::Xtree {
                root: 4,
                branch: 3,
                levels: 3,
            },
        ]
    }

    /// Parses the CLI device spellings:
    ///
    /// - paper devices: `grid`, `falcon`, `eagle`, `aspen11`, `aspenm`,
    ///   `xtree`;
    /// - parametric zoo: `grid-WxH`, `heavy-hex-dN` (also `heavyhex-dN`),
    ///   `ring-N`, `ladder-N`;
    /// - defect wrapper: `defective-<base>[-yP][-sS]` (yield percent `P`
    ///   defaults to 90, seed `S` to 0; e.g. `defective-eagle`,
    ///   `defective-heavy-hex-d7-y85-s3`);
    /// - JSON import: any spelling ending in `.json`, or `json:<path>`.
    pub fn parse(name: &str) -> Result<DeviceSpec, String> {
        if let Some(path) = name.strip_prefix("json:") {
            return Ok(DeviceSpec::FromJson {
                path: path.to_string(),
            });
        }
        if name.ends_with(".json") {
            return Ok(DeviceSpec::FromJson {
                path: name.to_string(),
            });
        }
        if let Some(rest) = name.strip_prefix("defective-") {
            return Self::parse_defective(rest);
        }
        Ok(match name {
            "grid" => DeviceSpec::Grid {
                width: 5,
                height: 5,
            },
            "falcon" => DeviceSpec::Falcon27,
            "eagle" => DeviceSpec::Eagle127,
            "aspen11" => DeviceSpec::Aspen { rows: 1, cols: 5 },
            "aspenm" => DeviceSpec::Aspen { rows: 2, cols: 5 },
            "xtree" => DeviceSpec::Xtree {
                root: 4,
                branch: 3,
                levels: 3,
            },
            other => return Self::parse_parametric(other),
        })
    }

    /// Parses the `heavy-hex-dN` / `ring-N` / `ladder-N` / `grid-WxH`
    /// spellings.
    fn parse_parametric(name: &str) -> Result<DeviceSpec, String> {
        let unknown = || format!("unknown topology `{name}`");
        let parse_n = |s: &str| s.parse::<usize>().map_err(|_| unknown());
        if let Some(d) = name
            .strip_prefix("heavy-hex-d")
            .or_else(|| name.strip_prefix("heavyhex-d"))
        {
            return Ok(DeviceSpec::HeavyHex {
                distance: parse_n(d)?,
            });
        }
        if let Some(n) = name.strip_prefix("ring-") {
            return Ok(DeviceSpec::Ring {
                qubits: parse_n(n)?,
            });
        }
        if let Some(n) = name.strip_prefix("ladder-") {
            return Ok(DeviceSpec::Ladder { rungs: parse_n(n)? });
        }
        if let Some(dims) = name.strip_prefix("grid-") {
            let (w, h) = dims.split_once('x').ok_or_else(unknown)?;
            return Ok(DeviceSpec::Grid {
                width: parse_n(w)?,
                height: parse_n(h)?,
            });
        }
        Err(unknown())
    }

    /// Parses a device spelling that may expand to several specs: the
    /// seed-range defect wrapper `defective-<base>[-yP]-s<A>..<B>`
    /// yields one [`DeviceSpec::Defective`] per seed in the inclusive
    /// range `A..B` (e.g. `defective-eagle-y90-s0..4` is five devices);
    /// every other spelling parses to a single [`DeviceSpec::parse`]
    /// spec.
    ///
    /// # Errors
    ///
    /// Everything [`DeviceSpec::parse`] rejects, plus empty (`B < A`)
    /// and oversized (more than 10 000 seeds) ranges.
    pub fn parse_multi(name: &str) -> Result<Vec<DeviceSpec>, String> {
        if let Some(rest) = name.strip_prefix("defective-") {
            if let Some((prefix, range)) = rest.rsplit_once("-s") {
                if let Some((lo, hi)) = range.split_once("..") {
                    if let (Ok(lo), Ok(hi)) = (lo.parse::<u64>(), hi.parse::<u64>()) {
                        if hi < lo {
                            return Err(format!("empty seed range `{lo}..{hi}` in `{name}`"));
                        }
                        if hi - lo >= 10_000 {
                            return Err(format!(
                                "seed range `{lo}..{hi}` in `{name}` expands to more \
                                 than 10000 devices"
                            ));
                        }
                        return (lo..=hi)
                            .map(|seed| Self::parse(&format!("defective-{prefix}-s{seed}")))
                            .collect();
                    }
                }
            }
        }
        Self::parse(name).map(|spec| vec![spec])
    }

    /// Parses the defect wrapper: `<base>[-yP][-sS]` where the optional
    /// suffixes (in that order) override yield percent and seed.
    fn parse_defective(rest: &str) -> Result<DeviceSpec, String> {
        let mut base = rest;
        let mut yield_pct = 90u32;
        let mut seed = 0u64;
        if let Some((prefix, s)) = base.rsplit_once("-s") {
            if let Ok(v) = s.parse::<u64>() {
                seed = v;
                base = prefix;
            }
        }
        if let Some((prefix, y)) = base.rsplit_once("-y") {
            if let Ok(v) = y.parse::<u32>() {
                yield_pct = v;
                base = prefix;
            }
        }
        let base = Self::parse(base)
            .map_err(|e| format!("bad defective base in `defective-{rest}`: {e}"))?;
        Ok(DeviceSpec::Defective {
            base: Box::new(base),
            yield_pct,
            seed,
        })
    }
}

/// Pipeline budget profile for a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Profile {
    /// The paper's full iteration budgets.
    #[default]
    Paper,
    /// Reduced budgets for tests, docs, and smoke runs.
    Fast,
}

impl Profile {
    /// The corresponding pipeline configuration.
    #[must_use]
    pub fn pipeline_config(&self) -> PipelineConfig {
        match self {
            Profile::Paper => PipelineConfig::paper(),
            Profile::Fast => PipelineConfig::fast(),
        }
    }
}

/// One unit of work: place a device with a strategy and (optionally)
/// evaluate one benchmark on the placed layout.
///
/// A job is self-contained: two jobs with equal specs produce identical
/// records (modulo wall-time fields) no matter which thread runs them or
/// in which order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// The device to lay out.
    pub device: DeviceSpec,
    /// The placement arm.
    pub strategy: Strategy,
    /// Workload name resolvable by
    /// [`qplacer_circuits::benchmark_by_name`] (e.g. `"bv-4"`,
    /// `"ghz-20"`, `"qv-8"`), or `None` for a placement-only job.
    pub benchmark: Option<String>,
    /// Random connected subsets to evaluate (ignored without benchmark).
    pub subsets: usize,
    /// Seed for subset sampling; the sole source of randomness.
    pub seed: u64,
    /// Resonator segment size `l_b` override (mm); `None` = paper default.
    pub segment_size_mm: Option<f64>,
    /// Multilevel V-cycle depth override (see
    /// [`PlacerConfig::levels`](qplacer_place::PlacerConfig::levels));
    /// `None` = the profile's default (flat placement).
    pub levels: Option<usize>,
}

impl JobSpec {
    /// Resolves the benchmark name: the paper suite's fixed circuits
    /// plus every parametric `<family>-<qubits>` workload
    /// [`qplacer_circuits::benchmark_by_name`] understands (`bv-N`,
    /// `qaoa-N`, `ising-N`, `qgan-N`, `ghz-N`, `qv-N`).
    pub fn resolve_benchmark(&self) -> Result<Option<qplacer_circuits::Benchmark>, String> {
        match &self.benchmark {
            None => Ok(None),
            Some(name) => qplacer_circuits::benchmark_by_name(name)
                .map(Some)
                .ok_or_else(|| format!("unknown benchmark `{name}`")),
        }
    }

    /// The pipeline configuration this job runs under.
    #[must_use]
    pub fn pipeline_config(&self, profile: Profile) -> PipelineConfig {
        let mut config = profile.pipeline_config();
        if let Some(lb) = self.segment_size_mm {
            config.netlist = NetlistConfig::with_segment_size(lb);
        }
        if let Some(levels) = self.levels {
            config.placer.levels = levels.max(1);
        }
        config
    }
}

/// A named batch of jobs plus shared execution settings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentPlan {
    /// Plan name, stamped into every record.
    pub name: String,
    /// Pipeline budget profile.
    pub profile: Profile,
    /// The jobs, in deterministic emission order.
    pub jobs: Vec<JobSpec>,
}

impl ExperimentPlan {
    /// An empty plan.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ExperimentPlan {
            name: name.into(),
            profile: Profile::Paper,
            jobs: Vec::new(),
        }
    }

    /// Switches the plan to reduced (test/docs) budgets.
    #[must_use]
    pub fn with_profile(mut self, profile: Profile) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the multilevel V-cycle depth on every job in the plan
    /// (see [`PlacerConfig::levels`](qplacer_place::PlacerConfig::levels)).
    #[must_use]
    pub fn with_levels(mut self, levels: usize) -> Self {
        for job in &mut self.jobs {
            job.levels = Some(levels);
        }
        self
    }

    /// Builds the full device × strategy × benchmark × seed grid, the
    /// Fig. 11/12 evaluation shape.
    ///
    /// Job order is the nesting order of the arguments, so records are
    /// emitted grouped by device, then strategy, then benchmark, then
    /// seed.
    #[must_use]
    pub fn grid(
        name: impl Into<String>,
        devices: &[DeviceSpec],
        strategies: &[Strategy],
        benchmarks: &[&str],
        subsets: usize,
        seeds: &[u64],
    ) -> Self {
        let mut plan = ExperimentPlan::new(name);
        for device in devices {
            for &strategy in strategies {
                for benchmark in benchmarks {
                    for &seed in seeds {
                        plan.jobs.push(JobSpec {
                            device: device.clone(),
                            strategy,
                            benchmark: Some((*benchmark).to_string()),
                            subsets,
                            seed,
                            segment_size_mm: None,
                            levels: None,
                        });
                    }
                }
            }
        }
        plan
    }

    /// Builds a placement-only grid (no benchmark evaluation): the
    /// Fig. 13 / Table II shape, optionally sweeping segment sizes.
    #[must_use]
    pub fn placement_grid(
        name: impl Into<String>,
        devices: &[DeviceSpec],
        strategies: &[Strategy],
        segment_sizes: &[Option<f64>],
    ) -> Self {
        let mut plan = ExperimentPlan::new(name);
        for device in devices {
            for &strategy in strategies {
                for &segment_size_mm in segment_sizes {
                    plan.jobs.push(JobSpec {
                        device: device.clone(),
                        strategy,
                        benchmark: None,
                        subsets: 0,
                        seed: 0,
                        segment_size_mm,
                        levels: None,
                    });
                }
            }
        }
        plan
    }

    /// Number of jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the plan has no jobs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

/// The placer configuration a profile implies — exposed for callers that
/// bypass the runner but want matching budgets.
#[must_use]
pub fn placer_config(profile: Profile) -> PlacerConfig {
    profile.pipeline_config().placer
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_cartesian_size_and_order() {
        let plan = ExperimentPlan::grid(
            "t",
            &DeviceSpec::paper_suite()[..2],
            &[Strategy::FrequencyAware, Strategy::Classic],
            &["bv-4", "qaoa-4", "ising-4"],
            10,
            &[1, 2],
        );
        assert_eq!(plan.len(), 2 * 2 * 3 * 2);
        assert_eq!(plan.jobs[0].device, plan.jobs[1].device);
        assert_eq!(plan.jobs[0].benchmark.as_deref(), Some("bv-4"));
        assert_eq!(plan.jobs[1].seed, 2);
    }

    #[test]
    fn plan_serde_round_trips() {
        let plan = ExperimentPlan::grid(
            "round-trip",
            &[DeviceSpec::Falcon27],
            &[Strategy::Human],
            &["bv-4"],
            5,
            &[7],
        )
        .with_profile(Profile::Fast);
        let json = serde_json::to_string(&plan).unwrap();
        let back: ExperimentPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn device_specs_match_paper_suite() {
        let specs = DeviceSpec::paper_suite();
        let built = Topology::paper_suite();
        assert_eq!(specs.len(), built.len());
        for (spec, topo) in specs.iter().zip(&built) {
            assert_eq!(spec.name(), topo.name());
            assert_eq!(spec.build().num_qubits(), topo.num_qubits());
        }
    }

    #[test]
    fn unknown_benchmark_is_rejected() {
        let job = JobSpec {
            device: DeviceSpec::Falcon27,
            strategy: Strategy::FrequencyAware,
            benchmark: Some("nope-9".to_string()),
            subsets: 1,
            seed: 0,
            segment_size_mm: None,
            levels: None,
        };
        assert!(job.resolve_benchmark().is_err());
        // Parametric zoo workloads resolve at any size.
        let mut ghz = job.clone();
        ghz.benchmark = Some("ghz-20".to_string());
        let resolved = ghz.resolve_benchmark().unwrap().unwrap();
        assert_eq!(resolved.circuit.num_qubits(), 20);
    }

    #[test]
    fn zoo_spellings_parse_and_build() {
        for (spelling, name, qubits) in [
            ("heavy-hex-d3", "HeavyHex-d3", 52),
            ("heavyhex-d5", "HeavyHex-d5", 127),
            ("ring-12", "Ring-12", 12),
            ("ladder-6", "Ladder-6", 12),
            ("grid-4x3", "Grid-4x3", 12),
        ] {
            let spec = DeviceSpec::parse(spelling).unwrap();
            assert_eq!(spec.name(), name, "{spelling}");
            let topology = spec.try_build().unwrap();
            assert_eq!(topology.num_qubits(), qubits, "{spelling}");
            assert_eq!(topology.name(), name, "{spelling}");
        }
        assert!(DeviceSpec::parse("heavy-hex-dx").is_err());
        assert!(DeviceSpec::parse("ring-").is_err());
        assert!(DeviceSpec::parse("mystery").is_err());
    }

    #[test]
    fn defective_spellings_parse_with_defaults_and_overrides() {
        let spec = DeviceSpec::parse("defective-eagle").unwrap();
        assert_eq!(
            spec,
            DeviceSpec::Defective {
                base: Box::new(DeviceSpec::Eagle127),
                yield_pct: 90,
                seed: 0,
            }
        );
        assert_eq!(spec.name(), "Eagle-y90-s0");
        let built = spec.try_build().unwrap();
        assert!(built.is_connected());
        assert!(built.num_qubits() < 127);

        let custom = DeviceSpec::parse("defective-heavy-hex-d3-y85-s7").unwrap();
        assert_eq!(
            custom,
            DeviceSpec::Defective {
                base: Box::new(DeviceSpec::HeavyHex { distance: 3 }),
                yield_pct: 85,
                seed: 7,
            }
        );
        assert!(DeviceSpec::parse("defective-nothing").is_err());
    }

    #[test]
    fn seed_range_spelling_expands_to_one_spec_per_seed() {
        let specs = DeviceSpec::parse_multi("defective-eagle-y85-s2..5").unwrap();
        assert_eq!(specs.len(), 4);
        for (i, spec) in specs.iter().enumerate() {
            assert_eq!(
                *spec,
                DeviceSpec::Defective {
                    base: Box::new(DeviceSpec::Eagle127),
                    yield_pct: 85,
                    seed: 2 + i as u64,
                }
            );
        }
        // Without a -y suffix the default yield applies to every seed.
        let specs = DeviceSpec::parse_multi("defective-falcon-s0..0").unwrap();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].name(), "Falcon-y90-s0");

        // Non-range spellings pass through parse() unchanged.
        assert_eq!(
            DeviceSpec::parse_multi("defective-eagle-s3").unwrap(),
            vec![DeviceSpec::parse("defective-eagle-s3").unwrap()]
        );
        assert_eq!(
            DeviceSpec::parse_multi("grid-4x4").unwrap(),
            vec![DeviceSpec::parse("grid-4x4").unwrap()]
        );

        // Empty and oversized ranges are rejected, as are bad bases.
        assert!(DeviceSpec::parse_multi("defective-eagle-s5..2").is_err());
        assert!(DeviceSpec::parse_multi("defective-eagle-s0..99999").is_err());
        assert!(DeviceSpec::parse_multi("defective-nothing-s0..2").is_err());
        assert!(DeviceSpec::parse_multi("mystery").is_err());
    }

    #[test]
    fn json_spellings_parse_and_round_trip_through_files() {
        let spec = DeviceSpec::parse("json:/tmp/dev.json").unwrap();
        assert_eq!(
            spec,
            DeviceSpec::FromJson {
                path: "/tmp/dev.json".to_string()
            }
        );
        assert_eq!(spec.name(), "Json-dev");
        assert_eq!(
            DeviceSpec::parse("devices/eagle.json").unwrap(),
            DeviceSpec::FromJson {
                path: "devices/eagle.json".to_string()
            }
        );

        // A real export → import → build loop.
        let dir = std::env::temp_dir().join("qplacer-plan-json-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("falcon.json");
        std::fs::write(&path, Topology::falcon27().to_json()).unwrap();
        let spec = DeviceSpec::FromJson {
            path: path.to_string_lossy().into_owned(),
        };
        let built = spec.try_build().unwrap();
        assert_eq!(built.num_qubits(), 27);
        assert_eq!(built, Topology::falcon27());
    }

    #[test]
    fn try_build_returns_typed_errors() {
        use crate::plan::DeviceError;
        assert!(matches!(
            DeviceSpec::Grid {
                width: 0,
                height: 3
            }
            .try_build(),
            Err(DeviceError::BadParameter { .. })
        ));
        assert!(matches!(
            DeviceSpec::FromJson {
                path: "/nonexistent/dev.json".to_string()
            }
            .try_build(),
            Err(DeviceError::BadImport { .. })
        ));
        // Total yield loss leaves fewer than 2 qubits.
        assert!(matches!(
            DeviceSpec::Defective {
                base: Box::new(DeviceSpec::Falcon27),
                yield_pct: 0,
                seed: 3,
            }
            .try_build(),
            Err(DeviceError::TooSmall { .. })
        ));

        // A JSON device with an isolated qubit is rejected as
        // disconnected — with the component size in the message.
        let dir = std::env::temp_dir().join("qplacer-plan-json-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("disconnected.json");
        std::fs::write(
            &path,
            r#"{"name": "islanded", "qubits": 4, "couplers": [[0, 1], [1, 2]]}"#,
        )
        .unwrap();
        let spec = DeviceSpec::FromJson {
            path: path.to_string_lossy().into_owned(),
        };
        match spec.try_build() {
            Err(DeviceError::Disconnected {
                qubits,
                largest_component,
                ..
            }) => {
                assert_eq!((qubits, largest_component), (4, 3));
            }
            other => panic!("expected Disconnected, got {other:?}"),
        }
        let message = spec.try_build().unwrap_err().to_string();
        assert!(message.contains("disconnected"), "{message}");
    }

    #[test]
    fn qubit_counts_match_the_generators() {
        for distance in 2..=16 {
            assert_eq!(
                heavy_hex_qubits(distance),
                Some(Topology::heavy_hex(distance).num_qubits()),
                "heavy-hex d{distance}"
            );
        }
        for (root, branch, levels) in [(1, 0, 1), (3, 2, 2), (4, 3, 3), (2, 1, 5), (3, 0, 4)] {
            assert_eq!(
                xtree_qubits(root, branch, levels),
                Some(Topology::xtree(root, branch, levels).num_qubits()),
                "xtree {root}/{branch}/{levels}"
            );
        }
    }

    #[test]
    fn oversized_parametric_devices_are_rejected_before_building() {
        use crate::plan::DeviceError;
        let huge = usize::MAX;
        for spec in [
            DeviceSpec::Grid {
                width: 100_000,
                height: 100_000,
            },
            DeviceSpec::Grid {
                width: huge,
                height: 2,
            },
            DeviceSpec::HeavyHex {
                distance: 99_999_999_999,
            },
            DeviceSpec::HeavyHex { distance: huge },
            DeviceSpec::Ring { qubits: huge },
            DeviceSpec::Ring {
                qubits: MAX_DEVICE_QUBITS + 1,
            },
            DeviceSpec::Ladder { rungs: huge },
            DeviceSpec::Aspen {
                rows: huge,
                cols: 1,
            },
            DeviceSpec::Xtree {
                root: huge,
                branch: 2,
                levels: 1,
            },
            DeviceSpec::Xtree {
                root: 2,
                branch: 1_000,
                levels: huge,
            },
            DeviceSpec::Xtree {
                root: 1,
                branch: 1,
                levels: huge,
            },
            DeviceSpec::Defective {
                base: Box::new(DeviceSpec::HeavyHex { distance: huge }),
                yield_pct: 90,
                seed: 1,
            },
        ] {
            match spec.try_build() {
                Err(DeviceError::BadParameter { reason, .. }) => {
                    assert!(reason.contains("device limit"), "{spec:?}: {reason}");
                }
                other => panic!("{spec:?}: expected BadParameter, got {other:?}"),
            }
        }
        // The limit itself is placeable-sized, not a typo trap.
        let ring = DeviceSpec::Ring {
            qubits: MAX_DEVICE_QUBITS,
        };
        assert_eq!(ring.try_build().unwrap().num_qubits(), MAX_DEVICE_QUBITS);
        assert!(DeviceSpec::HeavyHex { distance: 16 }.try_build().is_ok());
    }
}
