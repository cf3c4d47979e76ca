//! The undirected device-connectivity graph.

use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};

/// The largest device, in qubits, that [`Topology::from_json`] imports
/// and that a parametric device spec may request: ~60× heavy-hex d16
/// (1066 qubits, the largest zoo member). A device past it would spend
/// the machine's memory before placement starts, so untrusted sizes are
/// checked against it before anything is allocated.
pub const MAX_DEVICE_QUBITS: usize = 65_536;

/// Device family label, used by benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceClass {
    /// Regular 2-D grid lattice.
    Grid,
    /// IBM-style heavy-hexagon lattice.
    HeavyHex,
    /// Rigetti-style octagon cells.
    Octagon,
    /// Pauli-string-efficient X-tree.
    Xtree,
    /// Single cycle of couplers.
    Ring,
    /// Two rails joined by rungs.
    Ladder,
    /// Anything user-constructed.
    Custom,
}

impl fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceClass::Grid => "grid",
            DeviceClass::HeavyHex => "heavy-hex",
            DeviceClass::Octagon => "octagon",
            DeviceClass::Xtree => "xtree",
            DeviceClass::Ring => "ring",
            DeviceClass::Ladder => "ladder",
            DeviceClass::Custom => "custom",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for DeviceClass {
    type Err = String;

    /// Parses the lowercase class labels [`DeviceClass`] displays
    /// (`grid`, `heavy-hex`, `octagon`, `xtree`, `ring`, `ladder`,
    /// `custom`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "grid" => DeviceClass::Grid,
            "heavy-hex" => DeviceClass::HeavyHex,
            "octagon" => DeviceClass::Octagon,
            "xtree" => DeviceClass::Xtree,
            "ring" => DeviceClass::Ring,
            "ladder" => DeviceClass::Ladder,
            "custom" => DeviceClass::Custom,
            other => return Err(format!("unknown device class `{other}`")),
        })
    }
}

/// An undirected device-connectivity graph: vertices are physical qubits,
/// edges are resonator-mediated couplings.
///
/// Edges are stored normalized (`a < b`), deduplicated, in insertion
/// order; the edge index doubles as the *resonator index* throughout the
/// placement pipeline.
///
/// # Examples
///
/// ```
/// use qplacer_topology::Topology;
/// let t = Topology::from_edges("line", 3, [(0, 1), (1, 2)]).unwrap();
/// assert_eq!(t.neighbors(1), &[0, 2]);
/// assert_eq!(t.degree(1), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    name: String,
    class: DeviceClass,
    num_qubits: usize,
    edges: Vec<(usize, usize)>,
    adjacency: Vec<Vec<usize>>,
    /// Canonical grid coordinates per qubit, when the generator knows the
    /// device's physical arrangement (used by the Human baseline layout
    /// and artwork rendering).
    coords: Option<Vec<(f64, f64)>>,
}

/// Error constructing a [`Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// An edge referenced a qubit index ≥ `num_qubits`.
    QubitOutOfRange {
        /// The offending edge.
        edge: (usize, usize),
        /// Number of qubits in the device.
        num_qubits: usize,
    },
    /// An edge connected a qubit to itself.
    SelfLoop(usize),
    /// A serialized device description could not be understood (bad
    /// JSON, missing fields, unknown class, malformed coords, …).
    Invalid(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::QubitOutOfRange { edge, num_qubits } => write!(
                f,
                "edge ({}, {}) references a qubit outside 0..{num_qubits}",
                edge.0, edge.1
            ),
            TopologyError::SelfLoop(q) => write!(f, "self-loop on qubit {q}"),
            TopologyError::Invalid(msg) => write!(f, "invalid device description: {msg}"),
        }
    }
}

impl std::error::Error for TopologyError {}

impl Topology {
    /// Builds a topology from an edge list. Edges are normalized to
    /// `(min, max)` and deduplicated, preserving first-seen order.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] on out-of-range endpoints or self-loops.
    pub fn from_edges<I>(
        name: impl Into<String>,
        num_qubits: usize,
        edges: I,
    ) -> Result<Self, TopologyError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        Self::build(name.into(), DeviceClass::Custom, num_qubits, edges)
    }

    pub(crate) fn build<I>(
        name: String,
        class: DeviceClass,
        num_qubits: usize,
        edges: I,
    ) -> Result<Self, TopologyError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut seen = std::collections::HashSet::new();
        let mut normalized = Vec::new();
        for (a, b) in edges {
            if a == b {
                return Err(TopologyError::SelfLoop(a));
            }
            if a >= num_qubits || b >= num_qubits {
                return Err(TopologyError::QubitOutOfRange {
                    edge: (a, b),
                    num_qubits,
                });
            }
            let e = (a.min(b), a.max(b));
            if seen.insert(e) {
                normalized.push(e);
            }
        }
        let mut adjacency = vec![Vec::new(); num_qubits];
        for &(a, b) in &normalized {
            adjacency[a].push(b);
            adjacency[b].push(a);
        }
        for nbrs in &mut adjacency {
            nbrs.sort_unstable();
        }
        Ok(Self {
            name,
            class,
            num_qubits,
            edges: normalized,
            adjacency,
            coords: None,
        })
    }

    /// Attaches canonical grid coordinates (one per qubit) describing the
    /// device's physical arrangement.
    ///
    /// # Panics
    ///
    /// Panics if `coords.len()` differs from the qubit count.
    #[must_use]
    pub fn with_coords(mut self, coords: Vec<(f64, f64)>) -> Self {
        assert_eq!(
            coords.len(),
            self.num_qubits,
            "one coordinate per qubit required"
        );
        self.coords = Some(coords);
        self
    }

    /// Canonical grid coordinates, if the generator provided them.
    #[must_use]
    pub fn coords(&self) -> Option<&[(f64, f64)]> {
        self.coords.as_deref()
    }

    /// Human-readable device name (e.g. `"Falcon"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the device (derived devices — defect survivors, imports —
    /// stamp their provenance here).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Device family.
    #[must_use]
    pub fn class(&self) -> DeviceClass {
        self.class
    }

    /// Number of physical qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of couplings (= resonators).
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The normalized edge list; the index of an edge is its resonator id.
    #[must_use]
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Sorted neighbor list of qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn neighbors(&self, q: usize) -> &[usize] {
        &self.adjacency[q]
    }

    /// Degree of qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn degree(&self, q: usize) -> usize {
        self.adjacency[q].len()
    }

    /// Maximum degree over all qubits (0 for an empty device).
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Whether qubits `a` and `b` are directly coupled.
    #[must_use]
    pub fn are_coupled(&self, a: usize, b: usize) -> bool {
        a < self.num_qubits && self.adjacency[a].binary_search(&b).is_ok()
    }

    /// Index of the edge (resonator) between `a` and `b`, if coupled.
    #[must_use]
    pub fn edge_index(&self, a: usize, b: usize) -> Option<usize> {
        let e = (a.min(b), a.max(b));
        self.edges.iter().position(|&x| x == e)
    }

    /// BFS hop distances from `source` to every qubit (`usize::MAX` when
    /// unreachable).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    #[must_use]
    pub fn bfs_distances(&self, source: usize) -> Vec<usize> {
        assert!(source < self.num_qubits, "source out of range");
        let mut dist = vec![usize::MAX; self.num_qubits];
        dist[source] = 0;
        let mut queue = VecDeque::from([source]);
        while let Some(q) = queue.pop_front() {
            for &n in &self.adjacency[q] {
                if dist[n] == usize::MAX {
                    dist[n] = dist[q] + 1;
                    queue.push_back(n);
                }
            }
        }
        dist
    }

    /// Whether the device graph is connected (vacuously true when empty).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        if self.num_qubits == 0 {
            return true;
        }
        self.bfs_distances(0).iter().all(|&d| d != usize::MAX)
    }

    /// All-pairs hop-distance matrix (BFS from every vertex); O(V·E).
    #[must_use]
    pub fn distance_matrix(&self) -> Vec<Vec<usize>> {
        (0..self.num_qubits)
            .map(|q| self.bfs_distances(q))
            .collect()
    }

    /// Graph diameter (max finite hop distance); `None` if disconnected or
    /// empty.
    #[must_use]
    pub fn diameter(&self) -> Option<usize> {
        if self.num_qubits == 0 || !self.is_connected() {
            return None;
        }
        self.distance_matrix()
            .iter()
            .flat_map(|row| row.iter().copied())
            .max()
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {} qubits, {} couplings)",
            self.name,
            self.class,
            self.num_qubits,
            self.edges.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_normalizes_edges() {
        let t = Topology::from_edges("t", 4, [(1, 0), (0, 1), (2, 3)]).unwrap();
        assert_eq!(t.edges(), &[(0, 1), (2, 3)]);
        assert!(t.are_coupled(0, 1));
        assert!(t.are_coupled(1, 0));
        assert!(!t.are_coupled(0, 2));
        assert_eq!(t.edge_index(3, 2), Some(1));
        assert_eq!(t.edge_index(0, 3), None);
    }

    #[test]
    fn rejects_bad_edges() {
        assert!(matches!(
            Topology::from_edges("t", 2, [(0, 2)]),
            Err(TopologyError::QubitOutOfRange { .. })
        ));
        assert!(matches!(
            Topology::from_edges("t", 2, [(1, 1)]),
            Err(TopologyError::SelfLoop(1))
        ));
    }

    #[test]
    fn bfs_distances_on_a_path() {
        let t = Topology::from_edges("path", 4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(t.bfs_distances(0), vec![0, 1, 2, 3]);
        assert_eq!(t.diameter(), Some(3));
        assert!(t.is_connected());
    }

    #[test]
    fn disconnected_graph_detected() {
        let t = Topology::from_edges("two", 4, [(0, 1), (2, 3)]).unwrap();
        assert!(!t.is_connected());
        assert_eq!(t.diameter(), None);
        assert_eq!(t.bfs_distances(0)[2], usize::MAX);
    }

    #[test]
    fn degree_accounting() {
        let t = Topology::from_edges("star", 4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(t.degree(0), 3);
        assert_eq!(t.degree(1), 1);
        assert_eq!(t.max_degree(), 3);
        assert_eq!(t.neighbors(0), &[1, 2, 3]);
    }
}
