//! Checkpoint files: the on-disk JSON form of a [`SessionCheckpoint`].
//!
//! A checkpoint file is **self-contained**: it embeds the full [`JobSpec`]
//! (including inline netlist source, if any) next to the session state, so
//! `resume` needs nothing but the file — not even the original submission —
//! to reconstruct the identical run.
//!
//! Bit-exactness on disk follows the same rule as the wire protocol: every
//! `f64` that participates in the bit-for-bit contract is stored as its raw
//! IEEE-754 bits in a u64 JSON integer (`sample_bits`, `last_rhw_bits`, the
//! runs-test `z_bits`), and the hand-rolled [`Json`] number representation
//! keeps u64 integers lossless. `elapsed_seconds` — explicitly outside the
//! contract — is the one plain decimal float.
//!
//! The file format carries two version numbers: the envelope's `version`
//! (this module's layout) and the embedded session checkpoint's own
//! [`dipe::CHECKPOINT_VERSION`]. Load rejects unknown values of either
//! instead of misinterpreting state.

use std::path::Path;

use dipe::sampler::CycleCounts;
use dipe::{
    IndependenceSelection, InputStreamState, IntervalTrial, SamplerState, SessionCheckpoint,
};
use seqstats::{MomentAccumulatorState, PooledSampleState};
use telemetry::Json;

use crate::spec::JobSpec;

/// Version of the checkpoint *file* envelope (the embedded session state has
/// its own [`dipe::CHECKPOINT_VERSION`]).
pub const FILE_VERSION: u32 = 1;

/// Magic `format` string identifying checkpoint files.
pub const FILE_FORMAT: &str = "dipe-serve-checkpoint";

/// A checkpoint file's contents: the job it belongs to and the captured
/// session state.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointFile {
    /// The job specification the checkpointed session was running.
    pub job: JobSpec,
    /// The captured session state.
    pub checkpoint: SessionCheckpoint,
}

impl CheckpointFile {
    /// Serialises to the JSON document form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("format", Json::str(FILE_FORMAT)),
            ("version", Json::u64(u64::from(FILE_VERSION))),
            ("job", self.job.to_json()),
            ("checkpoint", checkpoint_to_json(&self.checkpoint)),
        ])
    }

    /// Parses the JSON document form.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for wrong formats, unknown versions
    /// or missing/mistyped fields.
    pub fn from_json(value: &Json) -> Result<CheckpointFile, String> {
        let format = value.get("format").and_then(Json::as_str).unwrap_or("");
        if format != FILE_FORMAT {
            return Err(format!(
                "not a checkpoint file (format {format:?}, expected {FILE_FORMAT:?})"
            ));
        }
        let version = value
            .get("version")
            .and_then(Json::as_u64)
            .ok_or("checkpoint file has no version")?;
        if version != u64::from(FILE_VERSION) {
            return Err(format!(
                "checkpoint file version {version} is not supported (this build reads {FILE_VERSION})"
            ));
        }
        let job = JobSpec::from_json(value.get("job").ok_or("checkpoint file has no job")?)
            .map_err(|e| format!("embedded job spec: {e}"))?;
        let checkpoint = checkpoint_from_json(
            value
                .get("checkpoint")
                .ok_or("checkpoint file has no checkpoint")?,
        )?;
        Ok(CheckpointFile { job, checkpoint })
    }

    /// Writes the file (pretty enough: one line — checkpoints are
    /// machine-read).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures as strings.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let mut text = self.to_json().to_line();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("failed to write {}: {e}", path.display()))
    }

    /// Reads and parses a checkpoint file.
    ///
    /// # Errors
    ///
    /// Propagates I/O and parse failures as strings.
    pub fn load(path: &Path) -> Result<CheckpointFile, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("failed to read {}: {e}", path.display()))?;
        let value = Json::parse(text.trim_end()).map_err(|e| format!("{}: {e}", path.display()))?;
        CheckpointFile::from_json(&value)
    }
}

fn checkpoint_to_json(cp: &SessionCheckpoint) -> Json {
    Json::obj(vec![
        ("version", Json::u64(u64::from(cp.version))),
        ("estimator", Json::str(cp.estimator.clone())),
        ("sampler", sampler_to_json(&cp.sampler)),
        ("selection", selection_to_json(&cp.selection)),
        ("sample_bits", u64_arr(&cp.sample.bits)),
        (
            "last_rhw_bits",
            cp.last_rhw_bits.map_or(Json::Null, Json::u64),
        ),
        ("elapsed_seconds", Json::f64(cp.elapsed_seconds)),
        (
            "accumulator",
            cp.accumulator
                .as_ref()
                .map_or(Json::Null, accumulator_to_json),
        ),
    ])
}

fn checkpoint_from_json(value: &Json) -> Result<SessionCheckpoint, String> {
    let version = req_u64(value, "version")?;
    let version = u32::try_from(version).map_err(|_| "checkpoint version out of range")?;
    let sampler = sampler_from_json(value.get("sampler").ok_or("checkpoint has no sampler")?)?;
    let selection = selection_from_json(
        value
            .get("selection")
            .ok_or("checkpoint has no selection")?,
    )?;
    let sample = PooledSampleState {
        bits: u64_array(value.get("sample_bits").ok_or("checkpoint has no sample")?)?,
    };
    let last_rhw_bits = match value.get("last_rhw_bits") {
        None | Some(Json::Null) => None,
        Some(v) => Some(v.as_u64().ok_or("last_rhw_bits must be a u64")?),
    };
    let elapsed_seconds = value
        .get("elapsed_seconds")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let accumulator = match value.get("accumulator") {
        None | Some(Json::Null) => None,
        Some(v) => Some(accumulator_from_json(v)?),
    };
    Ok(SessionCheckpoint {
        version,
        estimator: req_str(value, "estimator")?,
        sampler,
        selection,
        sample,
        last_rhw_bits,
        elapsed_seconds,
        accumulator,
    })
}

pub(crate) fn sampler_to_json(s: &SamplerState) -> Json {
    Json::obj(vec![
        ("rng_state", u64_arr(&s.input_stream.rng_state)),
        ("previous", bool_arr(&s.input_stream.previous)),
        ("has_previous", Json::Bool(s.input_stream.has_previous)),
        ("trace_cursor", Json::u64(s.input_stream.trace_cursor)),
        ("latch_state", bool_arr(&s.latch_state)),
        ("input_pattern", bool_arr(&s.input_pattern)),
        (
            "zero_delay_cycles",
            Json::u64(s.cycle_counts.zero_delay_cycles),
        ),
        ("measured_cycles", Json::u64(s.cycle_counts.measured_cycles)),
    ])
}

pub(crate) fn sampler_from_json(value: &Json) -> Result<SamplerState, String> {
    let rng = u64_array(value.get("rng_state").ok_or("sampler has no rng_state")?)?;
    let rng_state: [u64; 4] = rng
        .try_into()
        .map_err(|_| "rng_state must have exactly 4 words".to_string())?;
    Ok(SamplerState {
        input_stream: InputStreamState {
            rng_state,
            previous: bools(value.get("previous").ok_or("sampler has no previous")?)?,
            has_previous: value
                .get("has_previous")
                .and_then(Json::as_bool)
                .ok_or("sampler has no has_previous")?,
            trace_cursor: req_u64(value, "trace_cursor")?,
        },
        latch_state: bools(
            value
                .get("latch_state")
                .ok_or("sampler has no latch_state")?,
        )?,
        input_pattern: bools(
            value
                .get("input_pattern")
                .ok_or("sampler has no input_pattern")?,
        )?,
        cycle_counts: CycleCounts {
            zero_delay_cycles: req_u64(value, "zero_delay_cycles")?,
            measured_cycles: req_u64(value, "measured_cycles")?,
        },
    })
}

fn selection_to_json(sel: &IndependenceSelection) -> Json {
    Json::obj(vec![
        ("interval", Json::usize(sel.interval)),
        (
            "trials",
            Json::Arr(
                sel.trials
                    .iter()
                    .map(|t| {
                        Json::obj(vec![
                            ("interval", Json::usize(t.interval)),
                            ("z_bits", Json::u64(t.z.to_bits())),
                            ("runs", Json::usize(t.runs)),
                            ("accepted", Json::Bool(t.accepted)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn selection_from_json(value: &Json) -> Result<IndependenceSelection, String> {
    let trials = value
        .get("trials")
        .and_then(Json::as_arr)
        .ok_or("selection has no trials")?
        .iter()
        .map(|t| {
            Ok(IntervalTrial {
                interval: t
                    .get("interval")
                    .and_then(Json::as_usize)
                    .ok_or("trial has no interval")?,
                z: f64::from_bits(req_u64(t, "z_bits")?),
                runs: t
                    .get("runs")
                    .and_then(Json::as_usize)
                    .ok_or("trial has no runs")?,
                accepted: t
                    .get("accepted")
                    .and_then(Json::as_bool)
                    .ok_or("trial has no accepted")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(IndependenceSelection {
        interval: value
            .get("interval")
            .and_then(Json::as_usize)
            .ok_or("selection has no interval")?,
        trials,
    })
}

/// The exact integer accumulator sums, shared by checkpoints and shard blocks.
pub(crate) fn accumulator_to_json(acc: &MomentAccumulatorState) -> Json {
    Json::obj(vec![
        ("observations", Json::u64(acc.observations)),
        ("totals", u64_arr(&acc.totals)),
        ("totals_sq", u64_arr(&acc.totals_sq)),
        ("glitch_totals", u64_arr(&acc.glitch_totals)),
    ])
}

pub(crate) fn accumulator_from_json(value: &Json) -> Result<MomentAccumulatorState, String> {
    let state = MomentAccumulatorState {
        observations: req_u64(value, "observations")?,
        totals: u64_array(value.get("totals").ok_or("accumulator has no totals")?)?,
        totals_sq: u64_array(
            value
                .get("totals_sq")
                .ok_or("accumulator has no totals_sq")?,
        )?,
        glitch_totals: u64_array(
            value
                .get("glitch_totals")
                .ok_or("accumulator has no glitch_totals")?,
        )?,
    };
    state.validate()?;
    Ok(state)
}

fn bool_arr(values: &[bool]) -> Json {
    Json::Arr(values.iter().map(|&b| Json::Bool(b)).collect())
}

pub(crate) fn u64_arr(values: &[u64]) -> Json {
    Json::Arr(values.iter().copied().map(Json::u64).collect())
}

fn bools(value: &Json) -> Result<Vec<bool>, String> {
    value
        .as_arr()
        .ok_or("expected an array of booleans")?
        .iter()
        .map(|v| v.as_bool().ok_or("expected a boolean".to_string()))
        .collect()
}

pub(crate) fn u64_array(value: &Json) -> Result<Vec<u64>, String> {
    value
        .as_arr()
        .ok_or("expected an array of u64")?
        .iter()
        .map(|v| v.as_u64().ok_or("expected a u64".to_string()))
        .collect()
}

fn req_u64(value: &Json, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or mistyped `{key}`"))
}

fn req_str(value: &Json, key: &str) -> Result<String, String> {
    Ok(value
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or mistyped `{key}`"))?
        .to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dipe::input::InputModel;
    use dipe::{CycleBudget, DipeEstimator, PowerEstimator, Progress};

    /// Drives a real session to a mid-sampling checkpoint so the round-trip
    /// test covers genuinely representative state, not synthetic vectors.
    fn real_checkpoint() -> (JobSpec, SessionCheckpoint) {
        let spec = JobSpec::named("s27")
            .with_seed(99)
            .with_accuracy(0.08, 0.95);
        let circuit = spec.circuit.load().unwrap();
        let mut session = DipeEstimator::new()
            .start(&circuit, &spec.config(), &InputModel::uniform(), 0)
            .unwrap();
        loop {
            if let Some(cp) = session.checkpoint() {
                if !cp.is_warm() {
                    return (spec, cp);
                }
            }
            match session.step(CycleBudget::cycles(400)).unwrap() {
                Progress::Running { .. } => {}
                Progress::Done(_) => panic!("finished before a mid-sampling checkpoint"),
            }
        }
    }

    #[test]
    fn checkpoint_file_round_trips_bit_for_bit() {
        let (job, checkpoint) = real_checkpoint();
        let file = CheckpointFile { job, checkpoint };
        let line = file.to_json().to_line();
        let back = CheckpointFile::from_json(&Json::parse(&line).unwrap()).unwrap();
        // `SessionCheckpoint` stores every contract-relevant f64 as raw bits,
        // so PartialEq equality here IS bit-for-bit equality.
        assert_eq!(back.checkpoint, file.checkpoint);
        assert_eq!(back.job, file.job);
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let (job, checkpoint) = real_checkpoint();
        let file = CheckpointFile { job, checkpoint };
        let dir = std::env::temp_dir().join("dipe-serve-ckpt-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ckpt.json");
        file.save(&path).unwrap();
        let back = CheckpointFile::load(&path).unwrap();
        assert_eq!(back, file);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_foreign_and_future_files() {
        let (job, checkpoint) = real_checkpoint();
        let file = CheckpointFile { job, checkpoint };
        let mut doc = file.to_json();
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "version" {
                    *v = Json::u64(99);
                }
            }
        }
        assert!(CheckpointFile::from_json(&doc).is_err());
        assert!(CheckpointFile::from_json(&Json::parse(r#"{"format":"other"}"#).unwrap()).is_err());
        assert!(CheckpointFile::load(Path::new("/nonexistent/x.json")).is_err());
    }

    #[test]
    fn accumulator_state_round_trips() {
        let acc = MomentAccumulatorState {
            observations: u64::MAX,
            totals: vec![1, 2, u64::MAX],
            totals_sq: vec![4, 5, 6],
            glitch_totals: vec![0, 0, 1],
        };
        let back = accumulator_from_json(&accumulator_to_json(&acc)).unwrap();
        assert_eq!(back, acc);
    }
}
