//! Structured estimation tracing as JSON-lines.
//!
//! A [`Tracer`] is a cheap clonable handle around an optional shared
//! [`TraceSink`]. Instrumented code calls [`Tracer::emit`] with the event
//! name and a closure that adds fields; when the tracer is disabled the
//! closure never runs, so tracing costs one branch — no formatting, no
//! allocation. Every emitted line is one JSON object carrying a versioned
//! `trace_version` field ([`TRACE_VERSION`]) and the event name, e.g.:
//!
//! ```text
//! {"trace_version":1,"event":"stopping_eval","samples":1024,"rhw":0.049,"rhw_bits":4587366580439587226,...}
//! ```
//!
//! Floating-point fields are written twice: human-readable (the codec's
//! number rule, [`Json::f64`]) and as exact IEEE-754 bit patterns
//! ([`EventBuilder::field_f64_bits`]) so a consumer can reconstruct the run
//! bit-for-bit without trusting decimal round-trips. Lines stream straight
//! into one buffer through the [`crate::json`] writer, so they escape and
//! format exactly like every other JSON document of the workspace.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::json::{self, Json};

/// Version of the trace event schema. Bump when a field changes meaning or
/// an event is renamed; consumers must check it before interpreting events.
pub const TRACE_VERSION: u32 = 1;

/// A destination for trace lines. Implementations must tolerate concurrent
/// `record` calls (sessions may emit from worker threads).
pub trait TraceSink: Send + Sync {
    /// Records one complete JSON line (no trailing newline).
    fn record(&self, line: &str);
}

/// Builds one trace event line. Obtained inside [`Tracer::emit`].
#[derive(Debug)]
pub struct EventBuilder {
    line: String,
}

impl EventBuilder {
    fn new(event: &str) -> Self {
        let mut builder = EventBuilder {
            line: String::with_capacity(96),
        };
        builder.field_u64("trace_version", u64::from(TRACE_VERSION));
        builder.field_str("event", event);
        builder
    }

    /// Appends `"name":value`, opening the object on the first field.
    fn field(&mut self, name: &str, value: &Json) -> &mut Self {
        self.line.push(if self.line.is_empty() { '{' } else { ',' });
        json::escape(&mut self.line, name);
        self.line.push(':');
        value.write(&mut self.line, None);
        self
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(&mut self, name: &str, value: u64) -> &mut Self {
        self.field(name, &Json::u64(value))
    }

    /// Adds a boolean field.
    pub fn field_bool(&mut self, name: &str, value: bool) -> &mut Self {
        self.field(name, &Json::Bool(value))
    }

    /// Adds a string field (JSON-escaped).
    pub fn field_str(&mut self, name: &str, value: &str) -> &mut Self {
        self.field(name, &Json::str(value))
    }

    /// Adds a floating-point field twice: `name` with the codec's shortest
    /// round-trip decimal ([`Json::f64`]), and `name_bits` with the exact
    /// IEEE-754 bit pattern as an unsigned integer. Non-finite values render
    /// as `null` in the decimal field (JSON has no NaN/Inf); the bits field
    /// is always exact.
    pub fn field_f64_bits(&mut self, name: &str, value: f64) -> &mut Self {
        self.field(name, &Json::f64(value));
        self.field_u64(&format!("{name}_bits"), value.to_bits())
    }

    fn finish(mut self) -> String {
        self.line.push('}');
        self.line
    }
}

/// A cheap clonable tracing handle: either a shared sink or disabled.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<dyn TraceSink>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.sink.is_some())
            .finish()
    }
}

impl Tracer {
    /// The disabled tracer: [`emit`](Self::emit) is one branch, the closure
    /// never runs.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A tracer recording into `sink`.
    pub fn to_sink(sink: Arc<dyn TraceSink>) -> Self {
        Tracer { sink: Some(sink) }
    }

    /// Whether events are recorded anywhere.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits one event named `event`; `fill` adds the fields. When the
    /// tracer is disabled, `fill` is never called.
    #[inline]
    pub fn emit<F>(&self, event: &str, fill: F)
    where
        F: FnOnce(&mut EventBuilder),
    {
        if let Some(sink) = &self.sink {
            let mut builder = EventBuilder::new(event);
            fill(&mut builder);
            sink.record(&builder.finish());
        }
    }
}

/// A sink appending each line to a buffered file — the CLI `--trace` sink.
/// Lines are flushed on drop; call [`flush`](Self::flush) to force them out
/// earlier.
#[derive(Debug)]
pub struct FileSink {
    writer: Mutex<BufWriter<File>>,
}

impl FileSink {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(FileSink {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Flushes buffered lines to the file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn flush(&self) -> std::io::Result<()> {
        self.writer.lock().expect("trace writer lock").flush()
    }
}

impl TraceSink for FileSink {
    fn record(&self, line: &str) {
        let mut writer = self.writer.lock().expect("trace writer lock");
        // Trace output is best-effort: an unwritable line must never fail
        // the estimation that produced it.
        let _ = writeln!(writer, "{line}");
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        if let Ok(mut writer) = self.writer.lock() {
            let _ = writer.flush();
        }
    }
}

/// A bounded in-memory sink — the `dipe-serve` per-job trace buffer served
/// by the `trace` RPC. When full, the *oldest* lines are dropped and a
/// counter remembers how many, so the consumer knows the buffer is a
/// suffix.
#[derive(Debug)]
pub struct BufferSink {
    inner: Mutex<BufferInner>,
    capacity: usize,
}

#[derive(Debug)]
struct BufferInner {
    lines: std::collections::VecDeque<String>,
    dropped: u64,
}

impl BufferSink {
    /// Creates a buffer retaining at most `capacity` lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "trace buffer capacity must be positive");
        BufferSink {
            inner: Mutex::new(BufferInner {
                lines: std::collections::VecDeque::with_capacity(capacity.min(1024)),
                dropped: 0,
            }),
            capacity,
        }
    }

    /// The retained lines, oldest first.
    pub fn lines(&self) -> Vec<String> {
        let inner = self.inner.lock().expect("trace buffer lock");
        inner.lines.iter().cloned().collect()
    }

    /// How many lines were evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("trace buffer lock").dropped
    }
}

impl TraceSink for BufferSink {
    fn record(&self, line: &str) {
        let mut inner = self.inner.lock().expect("trace buffer lock");
        if inner.lines.len() == self.capacity {
            inner.lines.pop_front();
            inner.dropped += 1;
        }
        inner.lines.push_back(line.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_never_runs_the_closure() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let mut ran = false;
        tracer.emit("x", |_| ran = true);
        assert!(!ran);
    }

    #[test]
    fn events_carry_the_version_and_every_field_kind() {
        let sink = Arc::new(BufferSink::bounded(8));
        let tracer = Tracer::to_sink(sink.clone());
        assert!(tracer.is_enabled());
        tracer.emit("stopping_eval", |e| {
            e.field_u64("samples", 1024)
                .field_bool("satisfied", false)
                .field_str("criterion", "CLT \"normal\"")
                .field_f64_bits("rhw", 0.049);
        });
        let lines = sink.lines();
        assert_eq!(lines.len(), 1);
        let line = &lines[0];
        assert!(line.starts_with("{\"trace_version\":1,\"event\":\"stopping_eval\""));
        assert!(line.contains("\"samples\":1024"));
        assert!(line.contains("\"satisfied\":false"));
        assert!(line.contains("\"criterion\":\"CLT \\\"normal\\\"\""));
        assert!(line.contains(&format!("\"rhw_bits\":{}", 0.049f64.to_bits())));
        assert!(line.ends_with('}'));
    }

    #[test]
    fn float_decimal_form_round_trips_exactly() {
        // The decimal field is the shortest text that parses back to the
        // identical bits — the property the bit-exact CI check leans on.
        let sink = Arc::new(BufferSink::bounded(8));
        let tracer = Tracer::to_sink(sink.clone());
        for v in [0.0, 1.5, 0.1, 1.0 / 3.0, 6.241509e-3, f64::MIN_POSITIVE] {
            tracer.emit("x", |e| {
                e.field_f64_bits("v", v);
            });
            let line = sink.lines().pop().unwrap();
            let event = Json::parse(&line).unwrap();
            let back = event.get("v").and_then(Json::as_f64).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{line}");
            assert_eq!(event.get("v"), Some(&Json::f64(v)), "{line}");
        }
    }

    #[test]
    fn non_finite_floats_render_null_but_keep_bits() {
        let sink = Arc::new(BufferSink::bounded(8));
        let tracer = Tracer::to_sink(sink.clone());
        tracer.emit("x", |e| {
            e.field_f64_bits("v", f64::NAN);
        });
        let line = &sink.lines()[0];
        assert!(line.contains("\"v\":null"));
        assert!(line.contains("\"v_bits\":"));
    }

    #[test]
    fn buffer_sink_drops_oldest_when_full() {
        let sink = BufferSink::bounded(2);
        sink.record("a");
        sink.record("b");
        sink.record("c");
        assert_eq!(sink.lines(), vec!["b".to_string(), "c".to_string()]);
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn file_sink_writes_one_line_per_event() {
        let dir = std::env::temp_dir().join(format!("telemetry_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        {
            let sink = Arc::new(FileSink::create(&path).unwrap());
            let tracer = Tracer::to_sink(sink.clone());
            tracer.emit("one", |e| {
                e.field_u64("n", 1);
            });
            tracer.emit("two", |e| {
                e.field_u64("n", 2);
            });
            sink.flush().unwrap();
        }
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\":\"one\""));
        assert!(lines[1].contains("\"event\":\"two\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
