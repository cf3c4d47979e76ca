//! JSON device import/export — the calibration-data bridge.
//!
//! Vendors publish coupling maps and calibration snapshots as JSON;
//! [`Topology::from_json`] ingests a small, hand-writable schema and
//! [`Topology::to_json`] emits it back losslessly:
//!
//! ```json
//! {
//!   "name": "my-chip",
//!   "class": "heavy-hex",
//!   "qubits": 3,
//!   "couplers": [[0, 1], [1, 2]],
//!   "coords": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
//! }
//! ```
//!
//! `class` (default `"custom"`) and `coords` are optional on import;
//! export always writes every field it knows. The round trip
//! `Topology::from_json(&t.to_json())` reproduces `t` exactly — edge
//! order, class, coordinates, and all (floats use shortest-round-trip
//! formatting).

use serde::Value;

use crate::graph::{DeviceClass, Topology, TopologyError, MAX_DEVICE_QUBITS};

fn invalid(msg: impl Into<String>) -> TopologyError {
    TopologyError::Invalid(msg.into())
}

fn as_usize(v: &Value, what: &str) -> Result<usize, TopologyError> {
    match *v {
        Value::I64(n) if n >= 0 => Ok(n as usize),
        Value::U64(n) => usize::try_from(n).map_err(|_| invalid(format!("{what} overflows"))),
        _ => Err(invalid(format!("{what} must be a non-negative integer"))),
    }
}

fn as_f64(v: &Value, what: &str) -> Result<f64, TopologyError> {
    match *v {
        Value::F64(x) => Ok(x),
        Value::I64(n) => Ok(n as f64),
        Value::U64(n) => Ok(n as f64),
        _ => Err(invalid(format!("{what} must be a number"))),
    }
}

fn as_pair<'a>(v: &'a Value, what: &str) -> Result<&'a [Value], TopologyError> {
    match v.as_seq() {
        Some(pair) if pair.len() == 2 => Ok(pair),
        _ => Err(invalid(format!("{what} must be a two-element array"))),
    }
}

fn lookup<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

impl Topology {
    /// Parses a device from the import schema: an object with `name`
    /// (string), `qubits` (count), `couplers` (array of `[a, b]`
    /// pairs), optional `class` (a [`DeviceClass`] label, default
    /// `"custom"`), and optional `coords` (one `[x, y]` per qubit).
    ///
    /// # Errors
    ///
    /// [`TopologyError::Invalid`] on malformed JSON, schema violations,
    /// or `qubits` above [`MAX_DEVICE_QUBITS`]; the usual [`TopologyError`] construction errors on
    /// out-of-range or self-loop couplers.
    pub fn from_json(text: &str) -> Result<Topology, TopologyError> {
        let value: Value =
            serde_json::from_str(text).map_err(|e| invalid(format!("not valid JSON: {e}")))?;
        let map = value
            .as_map()
            .ok_or_else(|| invalid("top level must be a JSON object"))?;
        let name = lookup(map, "name")
            .and_then(Value::as_str)
            .ok_or_else(|| invalid("`name` must be a string"))?
            .to_string();
        let qubits = as_usize(
            lookup(map, "qubits").ok_or_else(|| invalid("missing `qubits`"))?,
            "`qubits`",
        )?;
        if qubits > MAX_DEVICE_QUBITS {
            return Err(invalid(format!(
                "`qubits` is {qubits}, above the {MAX_DEVICE_QUBITS}-qubit device limit"
            )));
        }
        let class = match lookup(map, "class") {
            None => DeviceClass::Custom,
            Some(v) => v
                .as_str()
                .ok_or_else(|| invalid("`class` must be a string"))?
                .parse::<DeviceClass>()
                .map_err(invalid)?,
        };
        let couplers = lookup(map, "couplers")
            .and_then(Value::as_seq)
            .ok_or_else(|| invalid("`couplers` must be an array of [a, b] pairs"))?;
        let mut edges = Vec::with_capacity(couplers.len());
        for c in couplers {
            let pair = as_pair(c, "each coupler")?;
            edges.push((
                as_usize(&pair[0], "coupler endpoint")?,
                as_usize(&pair[1], "coupler endpoint")?,
            ));
        }
        let mut topology = Topology::build(name, class, qubits, edges)?;
        if let Some(v) = lookup(map, "coords") {
            let list = v
                .as_seq()
                .ok_or_else(|| invalid("`coords` must be an array of [x, y] pairs"))?;
            if list.len() != qubits {
                return Err(invalid(format!(
                    "`coords` has {} entries for {qubits} qubits",
                    list.len()
                )));
            }
            let mut coords = Vec::with_capacity(list.len());
            for c in list {
                let pair = as_pair(c, "each coordinate")?;
                coords.push((
                    as_f64(&pair[0], "coordinate")?,
                    as_f64(&pair[1], "coordinate")?,
                ));
            }
            topology = topology.with_coords(coords);
        }
        Ok(topology)
    }

    /// Reads [`Topology::from_json`] from a file.
    ///
    /// # Errors
    ///
    /// [`TopologyError::Invalid`] when the file cannot be read, plus
    /// everything [`Topology::from_json`] reports.
    pub fn from_json_file(path: &str) -> Result<Topology, TopologyError> {
        let text =
            std::fs::read_to_string(path).map_err(|e| invalid(format!("reading {path}: {e}")))?;
        Topology::from_json(&text).map_err(|e| match e {
            TopologyError::Invalid(msg) => invalid(format!("{path}: {msg}")),
            other => other,
        })
    }

    /// Serializes this device to the import schema (pretty-printed;
    /// includes `class`, and `coords` when present). Guaranteed to
    /// round-trip through [`Topology::from_json`] identically.
    #[must_use]
    pub fn to_json(&self) -> String {
        let pair_seq = |(a, b): (f64, f64)| Value::Seq(vec![Value::F64(a), Value::F64(b)]);
        let mut fields = vec![
            ("name".to_string(), Value::Str(self.name().to_string())),
            ("class".to_string(), Value::Str(self.class().to_string())),
            ("qubits".to_string(), Value::U64(self.num_qubits() as u64)),
            (
                "couplers".to_string(),
                Value::Seq(
                    self.edges()
                        .iter()
                        .map(|&(a, b)| Value::Seq(vec![Value::U64(a as u64), Value::U64(b as u64)]))
                        .collect(),
                ),
            ),
        ];
        if let Some(coords) = self.coords() {
            fields.push((
                "coords".to_string(),
                Value::Seq(coords.iter().copied().map(pair_seq).collect()),
            ));
        }
        let mut out = serde_json::to_string_pretty(&Value::Map(fields))
            .expect("device JSON always serializes");
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_family_round_trips() {
        let devices = vec![
            Topology::grid(4, 3),
            Topology::falcon27(),
            Topology::eagle127(),
            Topology::heavy_hex(3),
            Topology::ring(9),
            Topology::ladder(5),
            Topology::aspen(1, 2),
            Topology::xtree(3, 2, 2),
            Topology::eagle127().with_yield(90, 11),
        ];
        for device in devices {
            let back = Topology::from_json(&device.to_json())
                .unwrap_or_else(|e| panic!("{}: {e}", device.name()));
            assert_eq!(back, device, "{} must round-trip", device.name());
        }
    }

    #[test]
    fn minimal_hand_written_import_works() {
        let t =
            Topology::from_json(r#"{"name": "line-3", "qubits": 3, "couplers": [[0, 1], [2, 1]]}"#)
                .unwrap();
        assert_eq!(t.name(), "line-3");
        assert_eq!(t.class(), DeviceClass::Custom);
        assert_eq!(t.edges(), &[(0, 1), (1, 2)]);
        assert!(t.coords().is_none());
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        for (doc, why) in [
            ("not json", "parse failure"),
            ("[1, 2]", "not an object"),
            (r#"{"qubits": 2, "couplers": []}"#, "missing name"),
            (r#"{"name": "x", "couplers": []}"#, "missing qubits"),
            (r#"{"name": "x", "qubits": 2}"#, "missing couplers"),
            (
                r#"{"name": "x", "qubits": 2, "couplers": [[0]]}"#,
                "bad coupler arity",
            ),
            (
                r#"{"name": "x", "class": "warp", "qubits": 2, "couplers": []}"#,
                "unknown class",
            ),
            (
                r#"{"name": "x", "qubits": 2, "couplers": [], "coords": [[0, 0]]}"#,
                "coord count mismatch",
            ),
            (
                r#"{"name": "x", "qubits": 99999999999, "couplers": []}"#,
                "qubit count above the device limit",
            ),
        ] {
            match Topology::from_json(doc) {
                Err(TopologyError::Invalid(_)) => {}
                other => panic!("{why}: expected Invalid, got {other:?}"),
            }
        }
        // Construction errors keep their own types.
        assert!(matches!(
            Topology::from_json(r#"{"name": "x", "qubits": 2, "couplers": [[0, 5]]}"#),
            Err(TopologyError::QubitOutOfRange { .. })
        ));
    }

    #[test]
    fn file_import_reports_the_path() {
        let err = Topology::from_json_file("/nonexistent/device.json").unwrap_err();
        match err {
            TopologyError::Invalid(msg) => assert!(msg.contains("/nonexistent/device.json")),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }
}
