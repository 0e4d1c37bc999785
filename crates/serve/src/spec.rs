//! Estimation job specifications.
//!
//! A [`JobSpec`] is the unit of work the server accepts: which circuit to
//! estimate (an ISCAS'89 benchmark name or an inline netlist source in any
//! of the text formats — `.bench`, `.blif` or ascii AIGER `.aag`), under
//! which input model and delay model, to which convergence target, from which
//! seed. It round-trips through the protocol's JSON form and is embedded
//! verbatim in checkpoint files so a resumed job is self-describing.
//!
//! The module also owns the cache-key derivation (see [`JobSpec::circuit_key`]
//! and [`JobSpec::warm_key`]): FNV-1a content hashes over exactly the fields
//! that determine the cached artifact, so two textually different submissions
//! with identical content share cache entries.

use dipe::input::InputModel;
use dipe::{DipeConfig, DipeError, MeasureMode};
use netlist::{iscas89, Circuit, DelayModel, NetlistError, NetlistFormat};

use telemetry::Json;

/// The circuit a job runs on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitRef {
    /// One of the generated ISCAS'89 benchmark profiles, by name (`s27`,
    /// `s298`, ...).
    Named(String),
    /// An inline netlist shipped with the job, in one of the text formats
    /// (JSON cannot carry binary AIGER).
    Inline {
        /// Display name of the circuit.
        name: String,
        /// The netlist source text.
        source: String,
        /// The format `source` is written in. Must satisfy
        /// [`NetlistFormat::is_text`].
        format: NetlistFormat,
    },
}

impl CircuitRef {
    /// The display name of the circuit.
    pub fn name(&self) -> &str {
        match self {
            CircuitRef::Named(name) => name,
            CircuitRef::Inline { name, .. } => name,
        }
    }

    /// Loads (parses or generates) the circuit.
    ///
    /// # Errors
    ///
    /// Propagates the loader's [`NetlistError`] for unknown benchmark names
    /// or malformed inline source.
    pub fn load(&self) -> Result<Circuit, NetlistError> {
        match self {
            CircuitRef::Named(name) => iscas89::load(name),
            CircuitRef::Inline {
                name,
                source,
                format,
            } => format.parse_str(source, name.clone()),
        }
    }

    /// The content the circuit cache keys on: the format id plus the full
    /// source for inline netlists, the (deterministically generated)
    /// benchmark name otherwise. The format id participates so identical
    /// bytes submitted under different formats can never collide onto one
    /// compiled artifact.
    fn key_material(&self) -> String {
        match self {
            CircuitRef::Named(name) => format!("iscas89\u{0}{name}"),
            CircuitRef::Inline { source, format, .. } => {
                format!("{}\u{0}{source}", format.id())
            }
        }
    }
}

/// A parsed input-model specification string.
///
/// The protocol keeps input models as compact strings (`uniform`,
/// `independent:<p>`, `temporal:<p>:<corr>`) rather than structured JSON —
/// the same philosophy as the delay-model ids — so they hash and log
/// trivially.
pub fn parse_input_model(spec: &str) -> Result<InputModel, String> {
    if spec == "uniform" {
        return Ok(InputModel::uniform());
    }
    if let Some(rest) = spec.strip_prefix("independent:") {
        let p: f64 = rest
            .parse()
            .map_err(|e| format!("input model independent:<p>: {e}"))?;
        return Ok(InputModel::independent(p));
    }
    if let Some(rest) = spec.strip_prefix("temporal:") {
        let parts: Vec<&str> = rest.split(':').collect();
        if parts.len() != 2 {
            return Err("input model temporal takes `temporal:<p>:<correlation>`".to_string());
        }
        let p: f64 = parts[0]
            .parse()
            .map_err(|e| format!("input model temporal:<p>:<corr>: {e}"))?;
        let correlation: f64 = parts[1]
            .parse()
            .map_err(|e| format!("input model temporal:<p>:<corr>: {e}"))?;
        return Ok(InputModel::TemporallyCorrelated {
            p_one: p,
            correlation,
        });
    }
    Err(format!(
        "input model must be uniform|independent:<p>|temporal:<p>:<corr>, got `{spec}`"
    ))
}

/// One estimation job as submitted over the protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The circuit to estimate.
    pub circuit: CircuitRef,
    /// Input-model specification string (see [`parse_input_model`]).
    pub input_model: String,
    /// Delay model of the measurement backend.
    pub delay_model: DelayModel,
    /// The configuration's lane-group measurement backend
    /// (`auto`/`event-driven`/`time-sliced`). Served jobs are scalar,
    /// sharded or remote runs, which measure every sample on the
    /// event-driven wheel and ignore it.
    pub measure_mode: MeasureMode,
    /// Convergence target: maximum relative CI half-width.
    pub relative_error: f64,
    /// Convergence target: confidence level.
    pub confidence: f64,
    /// RNG seed. The protocol has no implicit default — reproducibility is
    /// the point of a job record — but the field defaults to 1997 (the CLI's
    /// default) when omitted.
    pub seed: u64,
}

impl JobSpec {
    /// A spec for a named benchmark with all protocol defaults.
    pub fn named(circuit: &str) -> JobSpec {
        JobSpec {
            circuit: CircuitRef::Named(circuit.to_string()),
            input_model: "uniform".to_string(),
            delay_model: DelayModel::default(),
            measure_mode: MeasureMode::Auto,
            relative_error: 0.05,
            confidence: 0.99,
            seed: 1997,
        }
    }

    /// Sets the convergence target (builder style).
    pub fn with_accuracy(mut self, relative_error: f64, confidence: f64) -> JobSpec {
        self.relative_error = relative_error;
        self.confidence = confidence;
        self
    }

    /// Sets the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> JobSpec {
        self.seed = seed;
        self
    }

    /// The estimator configuration this job runs under.
    pub fn config(&self) -> DipeConfig {
        DipeConfig::default()
            .with_seed(self.seed)
            .with_accuracy(self.relative_error, self.confidence)
            .with_delay_model(self.delay_model)
            .with_measure_mode(self.measure_mode)
    }

    /// The parsed input model.
    ///
    /// # Errors
    ///
    /// Returns the human-readable parse failure for malformed spec strings.
    pub fn parsed_input_model(&self) -> Result<InputModel, String> {
        parse_input_model(&self.input_model)
    }

    /// Validates everything that can be checked without loading the circuit.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        self.parsed_input_model()?;
        self.config()
            .validate()
            .map_err(|e: DipeError| e.to_string())?;
        if self.circuit.name().is_empty() {
            return Err("circuit name must not be empty".to_string());
        }
        Ok(())
    }

    /// Cache key of the compiled-circuit tier: covers the netlist content and
    /// the delay model (a compiled program embeds its delay annotation).
    /// Deliberately excludes the measure mode: the compiled program is
    /// backend-independent, so one entry serves every measurement backend.
    pub fn circuit_key(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.update(self.circuit.key_material().as_bytes());
        h.update(b"\x00");
        h.update(self.delay_model.id().as_bytes());
        h.finish()
    }

    /// Cache key of the warm-checkpoint tier: the compiled key plus
    /// everything that shapes the simulation stream *before* sampling starts
    /// — input model, seed and measure mode. Deliberately excludes the
    /// convergence target: a warm checkpoint is taken before any
    /// accuracy-dependent decision, so one entry serves every accuracy
    /// requested for the same stream. The measure mode participates too,
    /// although served jobs ignore it: jobs that differ only in it get
    /// distinct entries of equal content.
    pub fn warm_key(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.update(&self.circuit_key().to_le_bytes());
        h.update(b"\x00");
        h.update(self.input_model.as_bytes());
        h.update(b"\x00");
        h.update(&self.seed.to_le_bytes());
        h.update(b"\x00");
        h.update(self.measure_mode.id().as_bytes());
        h.finish()
    }

    /// The protocol/JSON form of this spec (the `job` object of a `submit`
    /// request).
    pub fn to_json(&self) -> Json {
        let mut pairs = match &self.circuit {
            CircuitRef::Named(name) => vec![("circuit", Json::str(name.clone()))],
            CircuitRef::Inline {
                name,
                source,
                format,
            } => vec![
                ("name", Json::str(name.clone())),
                ("source", Json::str(source.clone())),
                ("format", Json::str(format.id())),
            ],
        };
        pairs.push(("input_model", Json::str(self.input_model.clone())));
        pairs.push(("delay_model", Json::str(self.delay_model.id())));
        pairs.push(("measure_mode", Json::str(self.measure_mode.id())));
        pairs.push(("relative_error", Json::f64(self.relative_error)));
        pairs.push(("confidence", Json::f64(self.confidence)));
        pairs.push(("seed", Json::u64(self.seed)));
        Json::obj(pairs)
    }

    /// Parses the `job` object of a `submit` request. Absent optional fields
    /// take the protocol defaults (uniform inputs, fanout delays, 5 % at
    /// 0.99, seed 1997, `.bench` format for inline sources).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending field.
    pub fn from_json(value: &Json) -> Result<JobSpec, String> {
        let circuit = match (value.get("circuit"), value.get("source")) {
            (Some(c), None) => {
                CircuitRef::Named(c.as_str().ok_or("`circuit` must be a string")?.to_string())
            }
            (None, Some(s)) => {
                let format = match value.get("format") {
                    None => NetlistFormat::Bench,
                    Some(v) => {
                        let id = v.as_str().ok_or("`format` must be a string")?;
                        let format = NetlistFormat::from_extension(id).ok_or_else(|| {
                            format!("`format` must be bench|blif|aag, got `{id}`")
                        })?;
                        if !format.is_text() {
                            return Err(format!(
                                "`format` {id} is binary; JSON can only carry the text formats \
                                 (bench, blif, aag)"
                            ));
                        }
                        format
                    }
                };
                CircuitRef::Inline {
                    name: value
                        .get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("inline")
                        .to_string(),
                    source: s.as_str().ok_or("`source` must be a string")?.to_string(),
                    format,
                }
            }
            (Some(_), Some(_)) => {
                return Err("give either `circuit` or `source`, not both".to_string())
            }
            (None, None) => return Err("a job needs a `circuit` name or a `source`".to_string()),
        };
        let mut spec = JobSpec {
            circuit,
            ..JobSpec::named("")
        };
        if let Some(v) = value.get("input_model") {
            spec.input_model = v
                .as_str()
                .ok_or("`input_model` must be a string")?
                .to_string();
        }
        if let Some(v) = value.get("delay_model") {
            let text = v.as_str().ok_or("`delay_model` must be a string")?;
            spec.delay_model = DelayModel::parse(text)?;
        }
        if let Some(v) = value.get("measure_mode") {
            let text = v.as_str().ok_or("`measure_mode` must be a string")?;
            spec.measure_mode = MeasureMode::parse(text).ok_or_else(|| {
                format!("`measure_mode` must be auto|event-driven|time-sliced, got `{text}`")
            })?;
        }
        if let Some(v) = value.get("relative_error") {
            spec.relative_error = v.as_f64().ok_or("`relative_error` must be a number")?;
        }
        if let Some(v) = value.get("confidence") {
            spec.confidence = v.as_f64().ok_or("`confidence` must be a number")?;
        }
        if let Some(v) = value.get("seed") {
            spec.seed = v.as_u64().ok_or("`seed` must be a non-negative integer")?;
        }
        spec.validate()?;
        Ok(spec)
    }
}

/// FNV-1a, 64-bit: the content hash behind the cache keys. Tiny, allocation
/// free, and plenty for cache bucketing (keys are compared for equality via
/// the hash only; a collision would merely serve a wrong cache entry for
/// deliberately crafted inputs, which a local estimation service does not
/// defend against).
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The FNV-1a offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let spec = JobSpec::named("s298")
            .with_seed(u64::MAX)
            .with_accuracy(0.1, 0.95);
        let parsed = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);
        // u64::MAX seed survives: numbers are raw text, not f64.
        assert_eq!(parsed.seed, u64::MAX);
    }

    #[test]
    fn inline_source_round_trips() {
        let spec = JobSpec {
            circuit: CircuitRef::Inline {
                name: "toggle".to_string(),
                source: "INPUT(a)\nOUTPUT(y)\nq = DFF(d)\nd = XOR(a, q)\ny = NOT(q)\n".to_string(),
                format: NetlistFormat::Bench,
            },
            ..JobSpec::named("x")
        };
        let parsed = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);
        assert!(parsed.circuit.load().is_ok());
    }

    #[test]
    fn inline_sources_parse_in_every_text_format() {
        for (format, source) in [
            (
                NetlistFormat::Bench,
                "INPUT(a)\nOUTPUT(y)\nq = DFF(y)\ny = NAND(a, q)\n",
            ),
            (
                NetlistFormat::Blif,
                ".model t\n.inputs a\n.outputs y\n.latch y q 0\n.names a q y\n0- 1\n-0 1\n.end\n",
            ),
            (
                NetlistFormat::AigerAscii,
                "aag 3 1 1 1 1\n2\n4 7\n6\n6 2 4\n",
            ),
        ] {
            let spec = JobSpec {
                circuit: CircuitRef::Inline {
                    name: "t".to_string(),
                    source: source.to_string(),
                    format,
                },
                ..JobSpec::named("x")
            };
            let parsed = JobSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(parsed, spec, "{format}");
            assert!(parsed.circuit.load().is_ok(), "{format}");
        }
    }

    #[test]
    fn inline_format_defaults_to_bench_and_rejects_binary() {
        let json = Json::parse(r#"{"source":"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"}"#).unwrap();
        let spec = JobSpec::from_json(&json).unwrap();
        assert!(matches!(
            spec.circuit,
            CircuitRef::Inline {
                format: NetlistFormat::Bench,
                ..
            }
        ));
        for bad in [
            r#"{"source":"x","format":"aig"}"#,
            r#"{"source":"x","format":"edif"}"#,
            r#"{"source":"x","format":7}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(
                JobSpec::from_json(&v).is_err(),
                "`{bad}` should be rejected"
            );
        }
    }

    #[test]
    fn circuit_key_separates_identical_bytes_in_different_formats() {
        // The same source text under two format ids must occupy two compiled
        // cache entries — the parsers would produce different circuits.
        let inline = |format| JobSpec {
            circuit: CircuitRef::Inline {
                name: "t".to_string(),
                source: "shared bytes".to_string(),
                format,
            },
            ..JobSpec::named("x")
        };
        assert_ne!(
            inline(NetlistFormat::Bench).circuit_key(),
            inline(NetlistFormat::Blif).circuit_key()
        );
        assert_ne!(
            inline(NetlistFormat::Blif).circuit_key(),
            inline(NetlistFormat::AigerAscii).circuit_key()
        );
    }

    #[test]
    fn defaults_apply_when_fields_are_absent() {
        let spec = JobSpec::from_json(&Json::parse(r#"{"circuit":"s27"}"#).unwrap()).unwrap();
        assert_eq!(spec, JobSpec::named("s27"));
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            r#"{}"#,
            r#"{"circuit":"s27","source":"x"}"#,
            r#"{"circuit":"s27","seed":-1}"#,
            r#"{"circuit":"s27","relative_error":0}"#,
            r#"{"circuit":"s27","confidence":1.5}"#,
            r#"{"circuit":"s27","delay_model":"warp"}"#,
            r#"{"circuit":"s27","input_model":"bursty"}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(
                JobSpec::from_json(&v).is_err(),
                "`{bad}` should be rejected"
            );
        }
    }

    #[test]
    fn circuit_key_tracks_content_and_delay_model() {
        let a = JobSpec::named("s27");
        let mut b = JobSpec::named("s27");
        assert_eq!(a.circuit_key(), b.circuit_key());
        // Accuracy and seed do not move the compiled key...
        b = b.with_seed(7).with_accuracy(0.2, 0.9);
        assert_eq!(a.circuit_key(), b.circuit_key());
        // ...but the netlist and the delay model do.
        assert_ne!(a.circuit_key(), JobSpec::named("s298").circuit_key());
        let mut c = JobSpec::named("s27");
        c.delay_model = DelayModel::Zero;
        assert_ne!(a.circuit_key(), c.circuit_key());
    }

    #[test]
    fn warm_key_ignores_accuracy_but_not_seed() {
        let a = JobSpec::named("s27");
        assert_eq!(
            a.warm_key(),
            JobSpec::named("s27").with_accuracy(0.2, 0.9).warm_key()
        );
        assert_ne!(a.warm_key(), JobSpec::named("s27").with_seed(2).warm_key());
        let mut other_inputs = JobSpec::named("s27");
        other_inputs.input_model = "independent:0.3".to_string();
        assert_ne!(a.warm_key(), other_inputs.warm_key());
    }

    #[test]
    fn measure_mode_round_trips_and_shapes_the_warm_key_only() {
        let mut spec = JobSpec::named("s27");
        spec.measure_mode = MeasureMode::TimeSliced;
        let parsed = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.config().measure_mode, MeasureMode::TimeSliced);
        // Absent field defaults to auto.
        let defaulted = JobSpec::from_json(&Json::parse(r#"{"circuit":"s27"}"#).unwrap()).unwrap();
        assert_eq!(defaulted.measure_mode, MeasureMode::Auto);
        // The compiled artifact is backend-independent; the warm checkpoint
        // is not.
        assert_eq!(spec.circuit_key(), JobSpec::named("s27").circuit_key());
        assert_ne!(spec.warm_key(), JobSpec::named("s27").warm_key());
        // Unknown modes are rejected at parse time.
        let bad = Json::parse(r#"{"circuit":"s27","measure_mode":"wheel"}"#).unwrap();
        assert!(JobSpec::from_json(&bad).is_err());
    }

    #[test]
    fn input_models_parse() {
        assert_eq!(parse_input_model("uniform").unwrap(), InputModel::uniform());
        assert_eq!(
            parse_input_model("independent:0.3").unwrap(),
            InputModel::independent(0.3)
        );
        assert!(matches!(
            parse_input_model("temporal:0.5:0.8").unwrap(),
            InputModel::TemporallyCorrelated { .. }
        ));
        assert!(parse_input_model("bursty").is_err());
        assert!(parse_input_model("temporal:0.5").is_err());
    }
}
