//! Convergence telemetry: per-iteration / per-phase records emitted by
//! the pipeline stages into a pluggable [`TraceSink`].
//!
//! Records are `Copy` and sinks are pre-sizable, so tracing a
//! steady-state placement into a [`RingTraceSink`] allocates nothing.
//! [`JsonlTraceSink`] renders each record as one JSON object per line
//! (the schema is documented per variant and tested to stay parseable).

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// One telemetry record emitted by a pipeline stage.
///
/// JSONL schema (one object per line; a `"job"` field is prepended when
/// the sink carries a label):
///
/// | `type`            | fields |
/// |-------------------|--------|
/// | `place_iteration` | `iteration`, `overflow`, `wirelength`, `max_force`, `deposit_ns`, `poisson_ns`, `gather_ns` |
/// | `legal_phase`     | `phase`, `elapsed_ns`, `items` |
/// | `freq_phase`      | `phase`, `elapsed_ns`, `items` |
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceRecord {
    /// One global-placement solver iteration.
    PlaceIteration {
        /// Zero-based iteration index (contiguous within a run).
        iteration: u32,
        /// This iteration's capacity overflow: the fraction of instance
        /// area above bin capacity in the deposit its density gradient
        /// made.
        overflow: f64,
        /// Wirelength-proxy energy this iteration.
        wirelength: f64,
        /// Max-norm of the combined force (gradient) vector.
        max_force: f64,
        /// Wall time of the density deposit (`density_deposit` span), ns.
        deposit_ns: u64,
        /// Wall time of the Poisson field solve (`poisson_solve` span), ns.
        poisson_ns: u64,
        /// Wall time of the per-instance field gather (`field_gather`
        /// span), ns.
        gather_ns: u64,
    },
    /// One legalization phase (`qubits`, `segments`, `resonators`,
    /// `overlap_check`).
    LegalPhase {
        /// Phase name.
        phase: &'static str,
        /// Phase wall time (its `legalize_*` span), ns.
        elapsed_ns: u64,
        /// Items the phase processed (cells, segments, ...).
        items: u64,
    },
    /// One frequency-assignment phase (`qubits`, `resonators`).
    FreqPhase {
        /// Phase name.
        phase: &'static str,
        /// Phase wall time (its `freq_color_*` span), ns.
        elapsed_ns: u64,
        /// Items the phase colored.
        items: u64,
    },
}

/// Renders a float as a JSON-safe token (`null` for non-finite values,
/// which raw `{}` formatting would emit as invalid JSON).
fn json_f64(value: f64) -> JsonF64 {
    JsonF64(value)
}

struct JsonF64(f64);

impl std::fmt::Display for JsonF64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0.is_finite() {
            write!(f, "{:?}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

impl TraceRecord {
    /// The `type` tag this record serializes under.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceRecord::PlaceIteration { .. } => "place_iteration",
            TraceRecord::LegalPhase { .. } => "legal_phase",
            TraceRecord::FreqPhase { .. } => "freq_phase",
        }
    }

    /// Writes the record as one JSON line. `label`, when present, is
    /// prepended as a `"job"` string field (it must not contain
    /// characters needing JSON escaping beyond `"` and `\`, which are
    /// escaped here).
    pub fn write_jsonl<W: Write>(&self, writer: &mut W, label: Option<&str>) -> io::Result<()> {
        write!(writer, "{{\"type\":\"{}\"", self.kind())?;
        if let Some(label) = label {
            write!(writer, ",\"job\":\"")?;
            for c in label.chars() {
                match c {
                    '"' => write!(writer, "\\\"")?,
                    '\\' => write!(writer, "\\\\")?,
                    c if (c as u32) < 0x20 => write!(writer, "\\u{:04x}", c as u32)?,
                    c => write!(writer, "{c}")?,
                }
            }
            write!(writer, "\"")?;
        }
        match *self {
            TraceRecord::PlaceIteration {
                iteration,
                overflow,
                wirelength,
                max_force,
                deposit_ns,
                poisson_ns,
                gather_ns,
            } => write!(
                writer,
                ",\"iteration\":{iteration},\"overflow\":{},\"wirelength\":{},\"max_force\":{},\"deposit_ns\":{deposit_ns},\"poisson_ns\":{poisson_ns},\"gather_ns\":{gather_ns}}}",
                json_f64(overflow),
                json_f64(wirelength),
                json_f64(max_force),
            )?,
            TraceRecord::LegalPhase {
                phase,
                elapsed_ns,
                items,
            }
            | TraceRecord::FreqPhase {
                phase,
                elapsed_ns,
                items,
            } => write!(
                writer,
                ",\"phase\":\"{phase}\",\"elapsed_ns\":{elapsed_ns},\"items\":{items}}}"
            )?,
        }
        writeln!(writer)
    }
}

/// Destination for [`TraceRecord`]s. Implementations should be cheap:
/// the placer calls [`TraceSink::record`] once per solver iteration.
pub trait TraceSink {
    /// Accepts one record.
    fn record(&mut self, record: &TraceRecord);

    /// Whether records are actually consumed. Emitters may skip
    /// computing trace-only values (such as the placer's force norm)
    /// when this returns `false`; phase times come from span guards
    /// that run either way. Defaults to `true`.
    fn is_enabled(&self) -> bool {
        true
    }
}

/// A sink that discards everything — the default wiring for untraced
/// runs, so traced and untraced code paths are the same code.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTraceSink;

impl TraceSink for NullTraceSink {
    fn record(&mut self, _record: &TraceRecord) {}

    fn is_enabled(&self) -> bool {
        false
    }
}

/// A fixed-capacity in-memory ring of records. Pre-sized at
/// construction; recording never allocates, and once full the oldest
/// records are overwritten.
#[derive(Debug, Clone)]
pub struct RingTraceSink {
    buf: Vec<TraceRecord>,
    capacity: usize,
    next: usize,
    /// Records overwritten after the ring filled.
    dropped: u64,
}

impl RingTraceSink {
    /// A ring holding at most `capacity` records (min 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingTraceSink {
            buf: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            dropped: 0,
        }
    }

    /// Records currently held, oldest first.
    #[must_use]
    pub fn records(&self) -> Vec<TraceRecord> {
        if self.buf.len() < self.capacity {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.capacity);
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
            out
        }
    }

    /// How many records were overwritten because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of records currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Empties the ring without releasing its capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.next = 0;
        self.dropped = 0;
    }
}

impl TraceSink for RingTraceSink {
    fn record(&mut self, record: &TraceRecord) {
        if self.buf.len() < self.capacity {
            self.buf.push(*record);
            self.next = self.buf.len() % self.capacity;
        } else {
            self.buf[self.next] = *record;
            self.next = (self.next + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

/// A sink that renders each record as one JSON line into a writer.
/// I/O errors are stashed and surfaced by [`JsonlTraceSink::finish`].
#[derive(Debug)]
pub struct JsonlTraceSink<W: Write> {
    writer: W,
    label: Option<String>,
    error: Option<io::Error>,
}

impl JsonlTraceSink<BufWriter<File>> {
    /// Creates (truncating) `path` and writes records through a
    /// [`BufWriter`].
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlTraceSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlTraceSink<W> {
    /// Wraps `writer`.
    #[must_use]
    pub fn new(writer: W) -> Self {
        JsonlTraceSink {
            writer,
            label: None,
            error: None,
        }
    }

    /// Stamps every subsequent record with a `"job"` label (for traces
    /// that interleave several jobs).
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Replaces the `"job"` label for subsequent records.
    pub fn set_label(&mut self, label: Option<String>) {
        self.label = label;
    }

    /// Flushes and returns the first I/O error hit while recording or
    /// flushing, if any.
    pub fn finish(mut self) -> io::Result<()> {
        if let Some(err) = self.error.take() {
            return Err(err);
        }
        self.writer.flush()
    }
}

impl<W: Write> TraceSink for JsonlTraceSink<W> {
    fn record(&mut self, record: &TraceRecord) {
        if self.error.is_some() {
            return;
        }
        if let Err(err) = record.write_jsonl(&mut self.writer, self.label.as_deref()) {
            self.error = Some(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord::FreqPhase {
                phase: "qubits",
                elapsed_ns: 1200,
                items: 127,
            },
            TraceRecord::PlaceIteration {
                iteration: 0,
                overflow: 0.42,
                wirelength: 1234.5,
                max_force: 0.007,
                deposit_ns: 10,
                poisson_ns: 20,
                gather_ns: 30,
            },
            TraceRecord::LegalPhase {
                phase: "segments",
                elapsed_ns: 900,
                items: 64,
            },
        ]
    }

    #[test]
    fn jsonl_lines_parse_as_json() {
        let mut buf = Vec::new();
        let mut sink = JsonlTraceSink::new(&mut buf).with_label("eagle127/0");
        for record in sample_records() {
            sink.record(&record);
        }
        sink.finish().unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let value: serde_json::Value = serde_json::from_str(line).expect("valid JSON line");
            let map = value.as_map().expect("object per line");
            assert!(serde_json::Value::field(map, "type").is_ok());
            assert_eq!(
                serde_json::Value::field(map, "job").unwrap().as_str(),
                Some("eagle127/0")
            );
        }
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let record = TraceRecord::PlaceIteration {
            iteration: 3,
            overflow: f64::NAN,
            wirelength: f64::INFINITY,
            max_force: 1.0,
            deposit_ns: 0,
            poisson_ns: 0,
            gather_ns: 0,
        };
        let mut buf = Vec::new();
        record.write_jsonl(&mut buf, None).unwrap();
        let line = String::from_utf8(buf).unwrap();
        assert!(line.contains("\"overflow\":null"));
        assert!(line.contains("\"wirelength\":null"));
        let _: serde_json::Value = serde_json::from_str(line.trim()).expect("still valid JSON");
    }

    #[test]
    fn ring_sink_overwrites_oldest() {
        let mut ring = RingTraceSink::with_capacity(2);
        assert!(ring.is_empty());
        for record in sample_records() {
            ring.record(&record);
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 1);
        let records = ring.records();
        assert_eq!(records[0].kind(), "place_iteration");
        assert_eq!(records[1].kind(), "legal_phase");
        ring.clear();
        assert!(ring.records().is_empty());
    }

    #[test]
    fn label_escaping_stays_valid_json() {
        let record = TraceRecord::LegalPhase {
            phase: "qubits",
            elapsed_ns: 1,
            items: 1,
        };
        let mut buf = Vec::new();
        record
            .write_jsonl(&mut buf, Some("we\"ird\\lab\nel"))
            .unwrap();
        let line = String::from_utf8(buf).unwrap();
        let value: serde_json::Value = serde_json::from_str(line.trim()).unwrap();
        let map = value.as_map().unwrap();
        assert_eq!(
            serde_json::Value::field(map, "job").unwrap().as_str(),
            Some("we\"ird\\lab\nel")
        );
    }
}
