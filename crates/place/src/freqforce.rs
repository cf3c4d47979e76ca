//! The frequency repulsive force `F(i, j; x, y)` (Eqs. 9–10).
//!
//! Near-resonant instances (detuning ≤ Δc) from different resonators
//! repel like charges: force magnitude `1/d²`, i.e. potential energy
//! `1/d`. Only the pairs of the netlist's collision map
//! ([`qplacer_netlist::QuantumNetlist::collision_map`]) interact, so each
//! iteration touches genuinely conflicting pairs instead of all pairs —
//! the optimization described in §IV-C1.
//!
//! # Band layout
//!
//! The pairs are never listed. Sorted by frequency, the instances split
//! into *bands*: maximal runs whose neighbouring frequencies pass the
//! collision map's test (`f_hi − f_lo ≤ 0.999·Δc`). Every colliding pair
//! lies inside one band, so the force renumbers the instances band by
//! band, by id inside a band. An instance's partners are then its later
//! band members minus its own resonator's segments (Eq. 10's exclusion):
//! a few contiguous runs of band positions, stored once at build time.
//! On the paper's spectra every band holds a single frequency; a band
//! that chains several frequencies within Δc (a spectrum whose pitch is
//! below Δc) also tests each candidate's detuning inside the same sweep.
//!
//! Each call copies the positions into band-ordered arrays and sweeps the
//! runs as contiguous slices. Instances are visited in id order and their
//! partners in increasing id, so every gradient slot and the energy
//! receive the same terms, in the same order, as a loop over the
//! lexicographic pair list would add them: the result is bit-identical
//! to that loop.
//!
//! Distances are softened below `d_min` (the mutual padded clearance) so
//! coincident instances exert a large-but-finite force and the potential
//! stays differentiable everywhere.
//!
//! # Pinned sweeps
//!
//! A warm (ECO) placement pins most instances; their gradient is
//! discarded, so [`FrequencyForce::grad_into`] takes the pin mask and
//! skips the work that only fed pinned slots. A free instance sweeps its
//! runs as above. A pinned instance visits only the *free* members of
//! its runs (found by binary search in the band-ordered free list),
//! applies the same detuning test, and adds each pair's term to the
//! partner's slot alone. Every free slot still receives its terms from
//! the same visitors, in the same id order, through the same per-pair
//! formula, so free slots are bit-identical to the unmasked
//! sweep; pinned slots come back `0.0`. A coupler drop on Eagle frees 2
//! of 1851 instances, so the sweep shrinks from every pair in the
//! collision map to the pairs that touch a free instance.

use std::sync::{Mutex, PoisonError};

use qplacer_geometry::Point;
use qplacer_netlist::QuantumNetlist;

/// Lanes of one branch-free block of the partner sweep: wide enough for
/// the compiler to emit packed square roots and divisions. On a 2-core
/// x86-64 Xeon, 16 lanes swept faster than 8 or 32.
const LANES: usize = 16;

/// Pairwise 1/d frequency-repulsion potential over the collision map
/// ([`QuantumNetlist::collision_map`]), without listing its pairs.
///
/// The build cuts the frequency-sorted instances into bands (runs whose
/// neighbouring frequencies collide) and orders each band by id; an
/// instance's partners are its later band members minus its own
/// resonator's segments, kept as contiguous runs. Each call sweeps those
/// runs over band-ordered coordinates on the calling thread, adding the
/// same terms in the same order as a loop over the lexicographic pair
/// list, so energy and gradient are bit-identical to that loop.
#[derive(Debug, Clone)]
pub struct FrequencyForce {
    /// Band position of each instance id.
    rank: Vec<u32>,
    /// Partner runs of band position `p`:
    /// `runs[run_start[p]..run_start[p + 1]]`, each a half-open range of
    /// later positions in `p`'s band, ascending and disjoint.
    run_start: Vec<u32>,
    runs: Vec<(u32, u32)>,
    /// Per band position: its band spans more than `0.999·Δc`, so each
    /// candidate's detuning is tested.
    mixed: Vec<bool>,
    /// Frequency (GHz) per band position, read by the detuning test.
    ghz: Vec<f64>,
    /// The collision map's detuning bound `0.999·Δc`, in GHz.
    max_detuning: f64,
    /// Deduplicated (unordered) interacting pairs.
    pair_count: usize,
    softening: f64,
    scratch: Scratch,
}

/// Working buffers of one call, kept between calls so steady-state
/// calls allocate nothing. They sit behind a lock because the kernels
/// take `&self`; every call overwrites them whole, so a poisoned lock is
/// still usable.
#[derive(Debug, Default)]
struct Scratch(Mutex<Buffers>);

#[derive(Debug, Default)]
struct Buffers {
    /// Band-ordered `[x…, y…, ∂x…, ∂y…]`.
    coords: Vec<f64>,
    /// The free band positions of the current masked call, ascending.
    free_list: Vec<u32>,
}

impl Clone for Scratch {
    /// A clone starts with empty buffers and sizes them on first use.
    fn clone(&self) -> Self {
        Self::default()
    }
}

// Placements run on harness and service worker threads, so the force
// must stay shareable.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FrequencyForce>();
};

/// The visited instance of a sweep: its coordinates and frequency, with
/// the call's constants.
struct Probe {
    x: f64,
    y: f64,
    ghz: f64,
    eps2: f64,
    max_detuning: f64,
}

/// Running sums a sweep carries in registers: the call's energy and the
/// visited instance's own gradient.
struct Sums {
    energy: f64,
    gx: f64,
    gy: f64,
}

impl FrequencyForce {
    /// Builds the force model for `netlist`, with softening distance set
    /// to half the largest padded footprint (a coincident pair behaves
    /// like one at half-overlap rather than exploding).
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than `u32::MAX` instances.
    #[must_use]
    pub fn new(netlist: &QuantumNetlist) -> Self {
        let instances = netlist.instances();
        let n = instances.len();
        assert!(u32::try_from(n).is_ok(), "instance count exceeds u32");
        let max_detuning = (netlist.detuning_threshold() * 0.999).ghz();
        let ghz_of = |id: u32| instances[id as usize].frequency().ghz();

        // Stable frequency sort (ties by id), cut into bands where
        // neighbours fail the collision test, then id order per band.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| ghz_of(a).total_cmp(&ghz_of(b)));
        let mut band_end = vec![0u32; n];
        let mut mixed = vec![false; n];
        let mut start = 0;
        while start < n {
            let mut end = start + 1;
            while end < n && collides(ghz_of(order[end]), ghz_of(order[end - 1]), max_detuning) {
                end += 1;
            }
            let (lowest, highest) = (ghz_of(order[start]), ghz_of(order[end - 1]));
            mixed[start..end].fill(!collides(lowest, highest, max_detuning));
            band_end[start..end].fill(end as u32);
            order[start..end].sort_unstable();
            start = end;
        }
        let mut rank = vec![0u32; n];
        for (p, &id) in order.iter().enumerate() {
            rank[id as usize] = p as u32;
        }
        let ghz: Vec<f64> = order.iter().map(|&id| ghz_of(id)).collect();

        // Next band position holding a segment of the same resonator.
        let resonator_at = |p: usize| instances[order[p] as usize].kind().resonator();
        let resonators = (0..n).filter_map(resonator_at).max().map_or(0, |r| r + 1);
        let mut last_seen = vec![usize::MAX; resonators];
        let mut next_same = vec![usize::MAX; n];
        for p in (0..n).rev() {
            if let Some(r) = resonator_at(p) {
                next_same[p] = last_seen[r];
                last_seen[r] = p;
            }
        }

        // Partner runs: the rest of the band with same-resonator
        // positions cut out.
        let mut run_start = Vec::with_capacity(n + 1);
        let mut runs = Vec::new();
        let mut pair_count = 0;
        run_start.push(0);
        for p in 0..n {
            let end = band_end[p] as usize;
            let first = runs.len();
            let mut cursor = p + 1;
            let mut skip = next_same[p];
            while skip < end {
                if skip > cursor {
                    runs.push((cursor as u32, skip as u32));
                }
                cursor = skip + 1;
                skip = next_same[skip];
            }
            if end > cursor {
                runs.push((cursor as u32, end as u32));
            }
            for &(a, b) in &runs[first..] {
                let (a, b) = (a as usize, b as usize);
                pair_count += if mixed[p] {
                    ghz[a..b]
                        .iter()
                        .filter(|&&f| collides(ghz[p], f, max_detuning))
                        .count()
                } else {
                    b - a
                };
            }
            run_start.push(u32::try_from(runs.len()).expect("partner runs exceed u32"));
        }

        Self {
            rank,
            run_start,
            runs,
            mixed,
            ghz,
            max_detuning,
            pair_count,
            softening: 0.5 * netlist.max_padded_side().max(1e-3),
            scratch: Scratch(Mutex::new(Buffers {
                coords: vec![0.0; 4 * n],
                ..Buffers::default()
            })),
        }
    }

    /// Number of interacting (ordered) pairs in the collision map.
    #[must_use]
    pub fn interaction_count(&self) -> usize {
        2 * self.pair_count
    }

    /// Number of deduplicated (unordered) interacting pairs.
    #[must_use]
    pub fn pair_count(&self) -> usize {
        self.pair_count
    }

    /// The softening distance.
    #[must_use]
    pub fn softening(&self) -> f64 {
        self.softening
    }

    /// Penalty energy `Σ 1/max(d, ε)`-style (softened) and its gradient
    /// (layout `[∂x…, ∂y…]`).
    ///
    /// Convenience wrapper over [`FrequencyForce::energy_grad_into`] that
    /// allocates the gradient vector.
    ///
    /// # Panics
    ///
    /// Panics if `positions.len()` differs from the instance count of the
    /// netlist the force was built for.
    #[must_use]
    pub fn energy_grad(&self, positions: &[Point]) -> (f64, Vec<f64>) {
        let mut grad = vec![0.0; 2 * positions.len()];
        let energy = self.energy_grad_into(positions, &mut grad);
        (energy, grad)
    }

    /// Allocation-free variant of [`FrequencyForce::energy_grad`]:
    /// overwrites the caller-owned `grad` and returns the energy.
    ///
    /// Softened potential: `φ(d) = 1/√(d² + ε²)`, so the force magnitude
    /// is `d/(d² + ε²)^{3/2}` ≈ `1/d²` for `d ≫ ε`. Runs on the calling
    /// thread; concurrent calls on one force take turns.
    ///
    /// # Panics
    ///
    /// Panics if `positions.len()` differs from the instance count of the
    /// netlist the force was built for, or if
    /// `grad.len() != 2 * positions.len()`.
    pub fn energy_grad_into(&self, positions: &[Point], grad: &mut [f64]) -> f64 {
        self.evaluate::<true>(positions, grad, None)
    }

    /// Gradient-only variant of [`FrequencyForce::energy_grad_into`],
    /// optionally restricted to the free instances of a pin mask.
    ///
    /// With `pinned = None` the gradient is bit-identical to
    /// [`FrequencyForce::energy_grad_into`]'s; only the energy sum is
    /// skipped. With a mask, every free slot (`pinned[i] == false`) is
    /// bit-identical to the unmasked gradient and every pinned slot is
    /// written `0.0`. A pinned instance visits only its free partners
    /// and adds to their slots alone, so pairs between two pinned
    /// instances cost nothing.
    ///
    /// # Panics
    ///
    /// Panics if `positions.len()` or `pinned.len()` differs from the
    /// instance count of the netlist the force was built for, or if
    /// `grad.len() != 2 * positions.len()`.
    pub fn grad_into(&self, positions: &[Point], grad: &mut [f64], pinned: Option<&[bool]>) {
        let _ = self.evaluate::<false>(positions, grad, pinned);
    }

    /// The sweep behind both kernels: returns the energy when `ENERGY`
    /// is set (and then takes no mask), `0.0` otherwise.
    fn evaluate<const ENERGY: bool>(
        &self,
        positions: &[Point],
        grad: &mut [f64],
        pinned: Option<&[bool]>,
    ) -> f64 {
        let n = self.rank.len();
        assert_eq!(
            positions.len(),
            n,
            "position count differs from the force's instance count"
        );
        assert_eq!(grad.len(), 2 * n, "gradient buffer length mismatch");
        debug_assert!(!ENERGY || pinned.is_none(), "the energy needs every pair");
        let mut scratch = self
            .scratch
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let Buffers { coords, free_list } = &mut *scratch;
        coords.resize(4 * n, 0.0);
        let (x, rest) = coords.split_at_mut(n);
        let (y, rest) = rest.split_at_mut(n);
        let (gx, gy) = rest.split_at_mut(n);
        for (pos, &p) in positions.iter().zip(&self.rank) {
            x[p as usize] = pos.x;
            y[p as usize] = pos.y;
        }
        gx.fill(0.0);
        gy.fill(0.0);
        free_list.clear();
        if let Some(mask) = pinned {
            assert_eq!(mask.len(), n, "pin mask length mismatch");
            let free = self.rank.iter().zip(mask).filter(|&(_, &pin)| !pin);
            free_list.extend(free.map(|(&p, _)| p));
            free_list.sort_unstable();
        }

        let eps2 = self.softening * self.softening;
        let mut energy = 0.0;
        for (id, &p) in self.rank.iter().enumerate() {
            let p = p as usize;
            let probe = Probe {
                x: x[p],
                y: y[p],
                ghz: self.ghz[p],
                eps2,
                max_detuning: self.max_detuning,
            };
            let runs = &self.runs[self.run_start[p] as usize..self.run_start[p + 1] as usize];
            if pinned.is_some_and(|mask| mask[id]) {
                // Only the free partners' slots are kept.
                for &(a, b) in runs {
                    let first = free_list.partition_point(|&q| q < a);
                    for &q in free_list[first..].iter().take_while(|&&q| q < b) {
                        let q = q as usize;
                        if self.mixed[p] && !collides(probe.ghz, self.ghz[q], probe.max_detuning) {
                            continue;
                        }
                        let (_, fx, fy) = pair(&probe, x[q], y[q]);
                        gx[q] += fx;
                        gy[q] += fy;
                    }
                }
                continue;
            }
            let mut sums = Sums {
                energy,
                gx: gx[p],
                gy: gy[p],
            };
            for &(a, b) in runs {
                let r = a as usize..b as usize;
                let (x, y, f) = (&x[r.clone()], &y[r.clone()], &self.ghz[r.clone()]);
                let (gx, gy) = (&mut gx[r.clone()], &mut gy[r]);
                if self.mixed[p] {
                    sweep::<true, ENERGY>(&probe, x, y, f, gx, gy, &mut sums);
                } else {
                    sweep::<false, ENERGY>(&probe, x, y, f, gx, gy, &mut sums);
                }
            }
            energy = sums.energy;
            gx[p] = sums.gx;
            gy[p] = sums.gy;
        }

        let (grad_x, grad_y) = grad.split_at_mut(n);
        for (id, ((gxi, gyi), &p)) in grad_x.iter_mut().zip(grad_y).zip(&self.rank).enumerate() {
            let kept = pinned.is_none_or(|mask| !mask[id]);
            *gxi = if kept { gx[p as usize] } else { 0.0 };
            *gyi = if kept { gy[p as usize] } else { 0.0 };
        }
        energy
    }
}

/// The collision map's test: two frequencies (GHz) collide when they lie
/// within `max_detuning` of each other.
fn collides(a: f64, b: f64, max_detuning: f64) -> bool {
    (a - b).abs() <= max_detuning
}

/// Adds the probe's interactions with one contiguous slice of partner
/// candidates, in slice order. `MIXED` enables the per-candidate
/// detuning test; `ENERGY` adds each pair's potential to the energy.
#[inline]
fn sweep<const MIXED: bool, const ENERGY: bool>(
    probe: &Probe,
    x: &[f64],
    y: &[f64],
    ghz: &[f64],
    gx: &mut [f64],
    gy: &mut [f64],
    sums: &mut Sums,
) {
    let (xc, xt) = x.as_chunks::<LANES>();
    let (yc, yt) = y.as_chunks::<LANES>();
    let (fc, ft) = ghz.as_chunks::<LANES>();
    let (gxc, gxt) = gx.as_chunks_mut::<LANES>();
    let (gyc, gyt) = gy.as_chunks_mut::<LANES>();
    for ((((x, y), f), gx), gy) in xc.iter().zip(yc).zip(fc).zip(gxc).zip(gyc) {
        block::<MIXED, ENERGY>(probe, x, y, f, gx, gy, sums);
    }
    block::<MIXED, ENERGY>(probe, xt, yt, ft, gxt, gyt, sums);
}

/// One block of at most [`LANES`] candidates: a branch-free pass
/// computes every distance, potential and force, then an in-order pass
/// adds them to the running sums and the partners' slots.
#[inline(always)]
fn block<const MIXED: bool, const ENERGY: bool>(
    probe: &Probe,
    x: &[f64],
    y: &[f64],
    ghz: &[f64],
    gx: &mut [f64],
    gy: &mut [f64],
    sums: &mut Sums,
) {
    let m = x.len();
    debug_assert!(m <= LANES);
    let (y, ghz, gx, gy) = (&y[..m], &ghz[..m], &mut gx[..m], &mut gy[..m]);
    let mut inv_r = [0.0; LANES];
    let mut fx = [0.0; LANES];
    let mut fy = [0.0; LANES];
    for k in 0..m {
        (inv_r[k], fx[k], fy[k]) = pair(probe, x[k], y[k]);
    }
    for k in 0..m {
        if MIXED && !collides(probe.ghz, ghz[k], probe.max_detuning) {
            continue;
        }
        if ENERGY {
            sums.energy += inv_r[k];
        }
        sums.gx -= fx[k];
        sums.gy -= fy[k];
        gx[k] += fx[k];
        gy[k] += fy[k];
    }
}

/// The one pair formula: the softened potential `1/r` between the probe
/// and a partner at `(x, y)`, and the term `(dx, dy)/r³` the partner's
/// gradient gains (the probe's loses it).
#[inline(always)]
fn pair(probe: &Probe, x: f64, y: f64) -> (f64, f64, f64) {
    let dx = probe.x - x;
    let dy = probe.y - y;
    let r2 = dx * dx + dy * dy + probe.eps2;
    // One division per pair: 1/r³ = (1/r)·(1/r)², avoiding a second
    // divide through r²·r.
    let inv = 1.0 / r2.sqrt();
    // ∂(1/r)/∂x_i = -dx / r³ — descending increases distance.
    let inv3 = inv * inv * inv;
    (inv, dx * inv3, dy * inv3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qplacer_freq::FrequencyAssigner;
    use qplacer_netlist::{NetlistConfig, QuantumNetlist};
    use qplacer_topology::Topology;

    fn netlist() -> QuantumNetlist {
        let t = Topology::grid(3, 3);
        let freqs = FrequencyAssigner::paper_defaults().assign(&t);
        QuantumNetlist::build(&t, &freqs, &NetlistConfig::default())
    }

    /// Find two resonant instances from different resonators.
    fn resonant_pair(nl: &QuantumNetlist) -> (usize, usize) {
        let map = nl.collision_map();
        for (i, partners) in map.iter().enumerate() {
            if let Some(&j) = partners.first() {
                return (i, j);
            }
        }
        panic!("no resonant pair in test netlist");
    }

    #[test]
    fn gradient_pushes_resonant_pair_apart() {
        let nl = netlist();
        let force = FrequencyForce::new(&nl);
        let (i, j) = resonant_pair(&nl);
        let n = nl.num_instances();
        let mut pos = vec![Point::ORIGIN; n];
        // Park everything far away; overlap only the pair of interest.
        for (k, p) in pos.iter_mut().enumerate() {
            p.x = 100.0 + k as f64 * 10.0;
        }
        pos[i] = Point::new(-0.1, 0.0);
        pos[j] = Point::new(0.1, 0.0);
        let (_, grad) = force.energy_grad(&pos);
        // Descending separates: left instance must move −x (positive grad).
        assert!(grad[i] > 0.0, "grad_i.x = {}", grad[i]);
        assert!(grad[j] < 0.0, "grad_j.x = {}", grad[j]);
    }

    #[test]
    fn energy_decays_with_separation() {
        let nl = netlist();
        let force = FrequencyForce::new(&nl);
        let (i, j) = resonant_pair(&nl);
        let n = nl.num_instances();
        let far = |d: f64| {
            let mut pos = vec![Point::ORIGIN; n];
            for (k, p) in pos.iter_mut().enumerate() {
                p.x = 1000.0 + k as f64 * 50.0;
            }
            pos[i] = Point::new(0.0, 0.0);
            pos[j] = Point::new(d, 0.0);
            force.energy_grad(&pos).0
        };
        assert!(far(1.0) > far(2.0));
        assert!(far(2.0) > far(5.0));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let nl = netlist();
        let force = FrequencyForce::new(&nl);
        let n = nl.num_instances();
        let pos: Vec<Point> = (0..n)
            .map(|k| Point::new((k as f64 * 0.7).sin() * 3.0, (k as f64 * 1.3).cos() * 3.0))
            .collect();
        let (_, grad) = force.energy_grad(&pos);
        let h = 1e-6;
        for k in (0..n).step_by(7) {
            let mut plus = pos.clone();
            plus[k].x += h;
            let mut minus = pos.clone();
            minus[k].x -= h;
            let fd = (force.energy_grad(&plus).0 - force.energy_grad(&minus).0) / (2.0 * h);
            assert!(
                (fd - grad[k]).abs() < 1e-4 * (1.0 + fd.abs()),
                "x-grad {k}: fd {fd} vs {}",
                grad[k]
            );
        }
    }

    #[test]
    fn zero_force_between_detuned_instances() {
        // A device with a single edge: the two qubits get distinct slots,
        // the segments belong to one resonator (excluded), so the only
        // possible interactions are qubit-vs-segment (different bands,
        // never resonant). The collision map must be empty.
        let t = Topology::from_edges("pair", 2, [(0, 1)]).unwrap();
        let freqs = FrequencyAssigner::paper_defaults().assign(&t);
        let nl = QuantumNetlist::build(&t, &freqs, &NetlistConfig::default());
        let force = FrequencyForce::new(&nl);
        assert_eq!(force.interaction_count(), 0);
        let pos = vec![Point::ORIGIN; nl.num_instances()];
        let (e, grad) = force.energy_grad(&pos);
        assert_eq!(e, 0.0);
        assert!(grad.iter().all(|&g| g == 0.0));
    }

    #[test]
    #[should_panic(expected = "position count differs")]
    fn short_positions_are_rejected() {
        let nl = netlist();
        let force = FrequencyForce::new(&nl);
        let n = nl.num_instances() - 1;
        let mut grad = vec![0.0; 2 * n];
        let _ = force.energy_grad_into(&vec![Point::ORIGIN; n], &mut grad);
    }

    #[test]
    #[should_panic(expected = "position count differs")]
    fn long_positions_are_rejected() {
        let nl = netlist();
        let force = FrequencyForce::new(&nl);
        let _ = force.energy_grad(&vec![Point::ORIGIN; nl.num_instances() + 1]);
    }

    #[test]
    fn softening_caps_coincident_force() {
        let nl = netlist();
        let force = FrequencyForce::new(&nl);
        let (i, j) = resonant_pair(&nl);
        let n = nl.num_instances();
        let mut pos = vec![Point::ORIGIN; n];
        for (k, p) in pos.iter_mut().enumerate() {
            p.y = 500.0 + k as f64 * 10.0;
        }
        pos[i] = Point::ORIGIN;
        pos[j] = Point::ORIGIN; // exactly coincident
        let (e, grad) = force.energy_grad(&pos);
        assert!(e.is_finite());
        assert!(grad.iter().all(|g| g.is_finite()));
    }
}
