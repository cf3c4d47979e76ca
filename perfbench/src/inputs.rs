//! Seeded workload inputs. Everything a run feeds the program is a pure
//! function of `--seed`: the evaluation subsets, the ECO edit stream,
//! and the serving request stream.

use qplacer_harness::{DeviceSpec, Strategy};
use qplacer_service::PlaceJob;
use qplacer_topology::{Topology, TopologyDelta};

/// SplitMix64: a tiny, well-mixed, reproducible generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream of one seed.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The evaluation-subset seed of the `job`-th scored layout of a run.
#[must_use]
pub fn subset_seed(seed: u64, job: usize) -> u64 {
    Rng::new(seed, 1 + job as u64).next_u64()
}

/// One topology edit of the ECO stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    /// Drop one coupler.
    DropCoupler(usize, usize),
    /// Drop one qubit and its couplers.
    DropQubit(usize),
    /// Fabrication yield: keep each qubit and coupler with probability
    /// `pct`%, then the largest connected component.
    Yield {
        /// Survival probability in percent.
        pct: u32,
        /// Defect-sampling seed.
        seed: u64,
    },
}

/// Yield of the multi-defect edits.
pub const ECO_YIELD_PCT: u32 = 97;

impl Edit {
    /// Whether this is a single-element edit (the ECO workload's primary
    /// op); yield edits are its secondary op.
    #[must_use]
    pub fn is_single(&self) -> bool {
        !matches!(self, Edit::Yield { .. })
    }

    /// The delta this edit applies to `base`.
    ///
    /// # Panics
    ///
    /// Panics if the edit was not generated for `base`.
    #[must_use]
    pub fn delta(&self, base: &Topology) -> TopologyDelta {
        match *self {
            Edit::DropCoupler(a, b) => {
                TopologyDelta::drop_couplers(base, &[(a, b)]).expect("coupler of the base device")
            }
            Edit::DropQubit(q) => {
                TopologyDelta::drop_qubits(base, &[q]).expect("qubit of the base device")
            }
            Edit::Yield { pct, seed } => base.yield_delta(pct, seed),
        }
    }
}

/// Couplers and qubits of `base` whose removal leaves the device
/// connected, so every single-element edit yields a placeable device.
#[must_use]
pub fn safe_edits(base: &Topology) -> (Vec<(usize, usize)>, Vec<usize>) {
    let edges = base.edges();
    let couplers = edges
        .iter()
        .copied()
        .filter(|&e| {
            let rest = edges.iter().copied().filter(|&f| f != e);
            Topology::from_edges("probe", base.num_qubits(), rest).is_ok_and(|t| t.is_connected())
        })
        .collect();
    let qubits = (0..base.num_qubits())
        .filter(|&q| {
            TopologyDelta::drop_qubits(base, &[q])
                .and_then(|d| d.apply(base))
                .is_ok_and(|t| t.is_connected())
        })
        .collect();
    (couplers, qubits)
}

/// The seeded ECO edit stream: cycles of coupler drop, yield edit,
/// qubit drop, yield edit. Half the edits are yield edits, whose cost
/// varies most with the seed, so their median rests on as many samples
/// as the single-element edits'.
#[must_use]
pub fn eco_stream(base: &Topology, seed: u64, len: usize) -> Vec<Edit> {
    let (couplers, qubits) = safe_edits(base);
    let mut rng = Rng::new(seed, 0xEC0);
    (0..len)
        .map(|i| match i % 4 {
            0 => {
                let (a, b) = couplers[rng.below(couplers.len())];
                Edit::DropCoupler(a, b)
            }
            2 => Edit::DropQubit(qubits[rng.below(qubits.len())]),
            _ => Edit::Yield {
                pct: ECO_YIELD_PCT,
                seed: rng.next_u64() % 1_000_000,
            },
        })
        .collect()
}

/// The serving working set: a fixed set of fast-profile jobs on small
/// devices, both arms, two segment sizes. Sixteen entries, well under
/// the daemon's 256-entry result cache, so every repeat is a hit. Fixed
/// (not seeded) so the quality of the served layouts is one number.
#[must_use]
pub fn working_set() -> Vec<PlaceJob> {
    let devices = [
        DeviceSpec::Grid {
            width: 3,
            height: 3,
        },
        DeviceSpec::Grid {
            width: 3,
            height: 4,
        },
        DeviceSpec::Grid {
            width: 4,
            height: 4,
        },
        DeviceSpec::Falcon27,
    ];
    let mut jobs = Vec::new();
    for device in devices {
        for strategy in [Strategy::FrequencyAware, Strategy::Classic] {
            for segment in [0.3, 0.4] {
                let mut job = PlaceJob::fast(device.clone(), strategy);
                job.segment_size_mm = Some(segment);
                jobs.push(job);
            }
        }
    }
    jobs
}

/// Segment sizes of the miss jobs lie in `[0.45, 0.46)` mm on a 0.1 nm
/// lattice: distinct from each other and from the working set, and close
/// enough that every miss costs the same.
const MISS_SEGMENT_SLOTS: usize = 100_000;

/// `n` distinct fresh jobs (`n <= 100 000`): fast-profile QPlacer on
/// `grid-3x3` with seeded, pairwise-distinct segment sizes, so each one
/// misses the cache.
#[must_use]
pub fn miss_jobs(seed: u64, n: usize) -> Vec<PlaceJob> {
    assert!(
        n <= MISS_SEGMENT_SLOTS,
        "at most {MISS_SEGMENT_SLOTS} misses"
    );
    // A seeded affine permutation of the slot lattice keeps every
    // segment size distinct.
    let mut rng = Rng::new(seed, 0x5E9);
    let stride = loop {
        let s = 1 + rng.below(MISS_SEGMENT_SLOTS - 1);
        if gcd(s, MISS_SEGMENT_SLOTS) == 1 {
            break s;
        }
    };
    let offset = rng.below(MISS_SEGMENT_SLOTS);
    (0..n)
        .map(|i| {
            let slot = (offset + i * stride) % MISS_SEGMENT_SLOTS;
            let mut job = PlaceJob::fast(
                DeviceSpec::Grid {
                    width: 3,
                    height: 3,
                },
                Strategy::FrequencyAware,
            );
            job.segment_size_mm = Some(0.45 + slot as f64 * 1e-7);
            job
        })
        .collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// What one scheduled request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ask {
    /// The working-set entry with this index (a cache hit).
    Hit(usize),
    /// The fresh job with this index (a cache miss).
    Miss(usize),
}

/// The seeded request mix of one open-loop phase: `n` requests, one
/// miss at a seeded position in every block of `miss_every` (none when
/// `miss_every` is 0), hits drawn uniformly from `working_set` entries.
/// Miss indices continue from `first_miss`.
#[must_use]
pub fn request_mix(
    seed: u64,
    phase: u64,
    n: usize,
    working_set: usize,
    miss_every: usize,
    first_miss: usize,
) -> Vec<Ask> {
    let mut rng = Rng::new(seed, 0xA5C ^ (phase << 16));
    let mut next_miss = first_miss;
    let mut miss_at = usize::MAX;
    (0..n)
        .map(|i| {
            if miss_every > 0 && i % miss_every == 0 {
                miss_at = i + rng.below(miss_every);
            }
            if i == miss_at {
                next_miss += 1;
                Ask::Miss(next_miss - 1)
            } else {
                Ask::Hit(rng.below(working_set))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let eagle = Topology::eagle127();
        assert_eq!(eco_stream(&eagle, 7, 64), eco_stream(&eagle, 7, 64));
        assert_ne!(eco_stream(&eagle, 7, 64), eco_stream(&eagle, 8, 64));
        assert_eq!(miss_jobs(7, 50), miss_jobs(7, 50));
        assert_ne!(miss_jobs(7, 50), miss_jobs(8, 50));
        assert_eq!(
            request_mix(7, 0, 500, 16, 200, 0),
            request_mix(7, 0, 500, 16, 200, 0)
        );
        assert_ne!(
            request_mix(7, 0, 500, 16, 200, 0),
            request_mix(8, 0, 500, 16, 200, 0)
        );
        assert_eq!(subset_seed(7, 3), subset_seed(7, 3));
        assert_ne!(subset_seed(7, 3), subset_seed(8, 3));
        assert_ne!(subset_seed(7, 3), subset_seed(7, 4));
    }

    #[test]
    fn eco_stream_edits_apply_and_keep_the_device_connected() {
        let eagle = Topology::eagle127();
        let stream = eco_stream(&eagle, 3, 16);
        assert_eq!(stream.iter().filter(|e| e.is_single()).count(), 8);
        for edit in stream.iter().filter(|e| e.is_single()) {
            let target = edit.delta(&eagle).apply(&eagle).unwrap();
            assert!(target.is_connected(), "{edit:?}");
        }
    }

    #[test]
    fn misses_are_distinct_and_never_in_the_working_set() {
        let ws = working_set();
        assert_eq!(ws.len(), 16);
        let misses = miss_jobs(11, 5000);
        let mut sizes: Vec<u64> = misses
            .iter()
            .map(|j| (j.segment_size_mm.unwrap() * 1e8).round() as u64)
            .collect();
        sizes.sort_unstable();
        sizes.dedup();
        assert_eq!(sizes.len(), misses.len());
        assert!(misses.iter().all(|m| !ws.contains(m)));
    }

    #[test]
    fn request_mix_places_one_miss_per_block() {
        let mix = request_mix(5, 1, 1000, 16, 200, 10);
        let misses: Vec<usize> = mix
            .iter()
            .filter_map(|a| match a {
                Ask::Miss(i) => Some(*i),
                Ask::Hit(_) => None,
            })
            .collect();
        assert_eq!(misses, (10..15).collect::<Vec<_>>());
        assert!(request_mix(5, 1, 300, 16, 0, 0)
            .iter()
            .all(|a| matches!(a, Ask::Hit(i) if *i < 16)));
    }
}
