//! Checkpointing: flat parameter vectors (v1) and full trainer state (v3),
//! each built in one `Writer` and parsed by one `Reader` over the file's
//! bytes — [`pipemare_telemetry::codec`], the encoding wire frames and
//! journal segments use too (it lives in telemetry, the lowest crate all
//! three depend on). No length read from a file is trusted, so a
//! truncated or corrupt file is a typed error, never an abort.
//!
//! - **v1** (`save_params`/`load_params`): magic + `u64` length +
//!   little-endian f32s — just the weights, for handing them from a
//!   warmup phase to a separate process.
//! - **v3** (`save_state`/`load_state`): a versioned header followed,
//!   stage by stage, by everything an *asynchronous* run needs to resume
//!   bit-identically — the stage's weight-version window (delayed reads
//!   look backwards, the latest vector alone is not enough), its
//!   optimizer moment buffers and step count, and its T2 EWMA velocity δ
//!   driving the discrepancy correction, each vector `u64`-counted. (v2
//!   stored one pipeline-deep window of whole parameter vectors; such
//!   files are refused as [`CheckpointError::UnsupportedVersion`].)

use std::path::Path;
use std::{fs, io};

use pipemare_comms::StageState;
use pipemare_telemetry::codec::{CodecError, Reader, Writer};

const MAGIC: &[u8; 8] = b"PIPEMARE";
const STATE_MAGIC: &[u8; 8] = b"PIPEMAR2";
const STATE_VERSION: u32 = 3;

/// Errors produced by checkpoint I/O.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a pipemare checkpoint.
    BadMagic,
    /// A params file whose length field disagrees with its size.
    BadLength {
        /// Parameters the header declared.
        declared: usize,
        /// Parameters actually present.
        actual: usize,
    },
    /// A state checkpoint written by an unknown format revision.
    UnsupportedVersion(u32),
    /// A file that ends early, holds trailing bytes, or whose fields do
    /// not decode.
    Corrupt(CodecError),
    /// A well-formed state checkpoint that does not fit the trainer it
    /// is restored into (another model, optimizer or pipeline).
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a pipemare checkpoint (bad magic)"),
            CheckpointError::BadLength { declared, actual } => {
                write!(f, "checkpoint declares {declared} params but contains {actual}")
            }
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "state checkpoint version {v} is not supported")
            }
            CheckpointError::Corrupt(e) => write!(f, "corrupt checkpoint: {e}"),
            CheckpointError::Mismatch(why) => write!(f, "checkpoint does not fit: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Corrupt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Corrupt(e)
    }
}

/// Writes a parameter vector to `path`.
///
/// # Errors
///
/// Returns an error on I/O failure.
pub fn save_params(path: &Path, params: &[f32]) -> Result<(), CheckpointError> {
    let mut w = Writer::new();
    w.put_bytes(MAGIC);
    w.put_long_f32s(params);
    Ok(fs::write(path, w.into_bytes())?)
}

/// Reads a parameter vector from `path`.
///
/// # Errors
///
/// Returns an error on I/O failure, bad magic, a header cut short, or a
/// length field that disagrees with the file's size.
pub fn load_params(path: &Path) -> Result<Vec<f32>, CheckpointError> {
    let bytes = fs::read(path)?;
    let mut r = Reader::new(&bytes);
    if r.get_bytes(MAGIC.len())? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let declared = r.get_u64()?;
    if declared.checked_mul(4) != Some(r.remaining() as u64) {
        let actual = r.remaining() / 4;
        return Err(CheckpointError::BadLength { declared: declared as usize, actual });
    }
    // The checked body is exactly one `u64`-counted run.
    Ok(Reader::new(&bytes[MAGIC.len()..]).get_long_f32s()?)
}

/// Everything a [`crate::PipelineTrainer`] needs to resume an
/// asynchronous run exactly where it stopped. Produced by
/// `PipelineTrainer::state` and consumed by `PipelineTrainer::restore`.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainerState {
    /// Optimizer steps completed.
    pub step: usize,
    /// Whether training had hit non-finite weights.
    pub diverged: bool,
    /// Each stage's window, δ and optimizer state, by stage.
    pub stages: Vec<StageState>,
}

/// Writes a full trainer-state checkpoint (format v3) to `path`.
///
/// # Errors
///
/// Returns an error on I/O failure.
pub fn save_state(path: &Path, state: &TrainerState) -> Result<(), CheckpointError> {
    let mut w = Writer::new();
    w.put_bytes(STATE_MAGIC);
    w.put_u32(STATE_VERSION);
    w.put_u64(state.step as u64);
    w.put_bool(state.diverged);
    w.put_u64(state.stages.len() as u64);
    for stage in &state.stages {
        w.put_u64(stage.opt_steps as u64);
        w.put_u64(stage.window.len() as u64);
        for (version, params) in &stage.window {
            w.put_u64(*version as u64);
            w.put_long_f32s(params);
        }
        w.put_long_f32s(&stage.delta);
        w.put_long_f32s(&stage.opt_m);
        w.put_long_f32s(&stage.opt_v);
    }
    Ok(fs::write(path, w.into_bytes())?)
}

/// Reads a trainer-state checkpoint from `path`.
///
/// # Errors
///
/// Returns an error on I/O failure, bad magic, a format version other
/// than the current one, or a corrupt body ([`CheckpointError::Corrupt`]:
/// truncated, trailing bytes, or a count the file cannot hold).
pub fn load_state(path: &Path) -> Result<TrainerState, CheckpointError> {
    let bytes = fs::read(path)?;
    let mut r = Reader::new(&bytes);
    if r.get_bytes(STATE_MAGIC.len())? != STATE_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = r.get_u32()?;
    if version != STATE_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let step = r.get_u64()? as usize;
    let diverged = r.get_u8()? != 0;
    let n_stages = r.get_u64()?;
    // Counts size nothing up front: each element read must be present.
    let mut stages = Vec::new();
    for _ in 0..n_stages {
        let opt_steps = r.get_u64()? as usize;
        let n_versions = r.get_u64()?;
        let mut window = Vec::new();
        for _ in 0..n_versions {
            let version = r.get_u64()? as usize;
            window.push((version, r.get_long_f32s()?));
        }
        let delta = r.get_long_f32s()?;
        let opt_m = r.get_long_f32s()?;
        let opt_v = r.get_long_f32s()?;
        stages.push(StageState { window, delta, opt_m, opt_v, opt_steps });
    }
    r.finish()?;
    Ok(TrainerState { step, diverged, stages })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("pipemare_ckpt_{name}_{}", std::process::id()))
    }

    #[test]
    fn roundtrip() {
        let path = tmp("roundtrip");
        let params: Vec<f32> = (0..100).map(|i| (i as f32).sin()).collect();
        save_params(&path, &params).unwrap();
        let loaded = load_params(&path).unwrap();
        assert_eq!(params, loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_roundtrip() {
        let path = tmp("empty");
        save_params(&path, &[]).unwrap();
        assert_eq!(load_params(&path).unwrap(), Vec::<f32>::new());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let path = tmp("badmagic");
        std::fs::write(&path, b"NOTMAGIC\0\0\0\0\0\0\0\0").unwrap();
        assert!(matches!(load_params(&path), Err(CheckpointError::BadMagic)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_truncation() {
        let path = tmp("trunc");
        let params = vec![1.0f32; 10];
        save_params(&path, &params).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(matches!(load_params(&path), Err(CheckpointError::BadLength { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn error_display_is_informative() {
        let e = CheckpointError::BadLength { declared: 10, actual: 9 };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("9"));
        assert!(CheckpointError::UnsupportedVersion(7).to_string().contains('7'));
    }

    fn sample_state() -> TrainerState {
        let stage = |first: f32, versions: std::ops::RangeInclusive<usize>| StageState {
            window: versions.map(|v| (v, vec![first + v as f32, 2.0])).collect(),
            delta: vec![0.25, -0.5],
            opt_m: vec![0.1, 0.2],
            opt_v: Vec::new(),
            opt_steps: 12,
        };
        TrainerState {
            step: 12,
            diverged: false,
            stages: vec![stage(1.0, 10..=12), stage(7.0, 12..=12)],
        }
    }

    #[test]
    fn state_roundtrip() {
        let path = tmp("state_roundtrip");
        let state = sample_state();
        save_state(&path, &state).unwrap();
        assert_eq!(load_state(&path).unwrap(), state);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn state_rejects_v1_file_and_vice_versa() {
        let path = tmp("state_cross");
        save_params(&path, &[1.0, 2.0]).unwrap();
        assert!(matches!(load_state(&path), Err(CheckpointError::BadMagic)));
        save_state(&path, &sample_state()).unwrap();
        assert!(matches!(load_params(&path), Err(CheckpointError::BadMagic)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn state_rejects_unknown_version() {
        let path = tmp("state_version");
        save_state(&path, &sample_state()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(load_state(&path), Err(CheckpointError::UnsupportedVersion(99))));
        // The previous layout (one pipeline-deep window of whole vectors)
        // is refused by its version, not misread.
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(load_state(&path), Err(CheckpointError::UnsupportedVersion(2))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn state_truncation_is_an_error() {
        let path = tmp("state_trunc");
        save_state(&path, &sample_state()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(load_state(&path), Err(CheckpointError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }
}
