//! Checkpointing: flat parameter vectors (v1) and full trainer state (v3).
//!
//! Two minimal binary formats with no external dependencies:
//!
//! - **v1** (`save_params`/`load_params`): magic + length + little-endian
//!   f32s — just the weights, for handing them from a warmup phase to a
//!   separate process.
//! - **v3** (`save_state`/`load_state`): a versioned header followed,
//!   stage by stage, by everything an *asynchronous* run needs to resume
//!   bit-identically — the stage's weight-version window (delayed reads
//!   look backwards, the latest vector alone is not enough), its
//!   optimizer moment buffers and step count, and its T2 EWMA velocity δ
//!   driving the discrepancy correction. (v2 stored one pipeline-deep
//!   window of whole parameter vectors; such files are refused as
//!   [`CheckpointError::UnsupportedVersion`].)

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

use pipemare_comms::StageState;

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
    /// The file is truncated or has trailing bytes.
    BadLength {
        /// Parameters the header declared.
        declared: usize,
        /// Parameters actually present.
        actual: usize,
    },
    /// A state checkpoint written by an unknown format revision.
    UnsupportedVersion(u32),
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
            CheckpointError::Mismatch(why) => write!(f, "checkpoint does not fit: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Writes a parameter vector to `path`.
///
/// # Errors
///
/// Returns an error on I/O failure.
pub fn save_params(path: &Path, params: &[f32]) -> Result<(), CheckpointError> {
    let mut f = File::create(path)?;
    f.write_all(MAGIC)?;
    f.write_all(&(params.len() as u64).to_le_bytes())?;
    let mut buf = Vec::with_capacity(params.len() * 4);
    for &p in params {
        buf.extend_from_slice(&p.to_le_bytes());
    }
    f.write_all(&buf)?;
    Ok(())
}

/// Reads a parameter vector from `path`.
///
/// # Errors
///
/// Returns an error on I/O failure, bad magic, or length mismatch.
pub fn load_params(path: &Path) -> Result<Vec<f32>, CheckpointError> {
    let mut f = File::open(path)?;
    let mut magic = [0u8; 8];
    f.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let mut len_bytes = [0u8; 8];
    f.read_exact(&mut len_bytes)?;
    let declared = u64::from_le_bytes(len_bytes) as usize;
    let mut rest = Vec::new();
    f.read_to_end(&mut rest)?;
    if rest.len() != declared * 4 {
        return Err(CheckpointError::BadLength { declared, actual: rest.len() / 4 });
    }
    let params =
        rest.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect();
    Ok(params)
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

fn write_vec(f: &mut File, v: &[f32]) -> io::Result<()> {
    f.write_all(&(v.len() as u64).to_le_bytes())?;
    let mut buf = Vec::with_capacity(v.len() * 4);
    for &x in v {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    f.write_all(&buf)
}

fn read_u64(f: &mut File) -> io::Result<u64> {
    let mut b = [0u8; 8];
    f.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_vec(f: &mut File) -> io::Result<Vec<f32>> {
    let len = read_u64(f)? as usize;
    let mut buf = vec![0u8; len * 4];
    f.read_exact(&mut buf)?;
    Ok(buf.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
}

/// Writes a full trainer-state checkpoint (format v3) to `path`.
///
/// # Errors
///
/// Returns an error on I/O failure.
pub fn save_state(path: &Path, state: &TrainerState) -> Result<(), CheckpointError> {
    let mut f = File::create(path)?;
    f.write_all(STATE_MAGIC)?;
    f.write_all(&STATE_VERSION.to_le_bytes())?;
    f.write_all(&(state.step as u64).to_le_bytes())?;
    f.write_all(&[state.diverged as u8])?;
    f.write_all(&(state.stages.len() as u64).to_le_bytes())?;
    for stage in &state.stages {
        f.write_all(&(stage.opt_steps as u64).to_le_bytes())?;
        f.write_all(&(stage.window.len() as u64).to_le_bytes())?;
        for (version, params) in &stage.window {
            f.write_all(&(*version as u64).to_le_bytes())?;
            write_vec(&mut f, params)?;
        }
        write_vec(&mut f, &stage.delta)?;
        write_vec(&mut f, &stage.opt_m)?;
        write_vec(&mut f, &stage.opt_v)?;
    }
    Ok(())
}

/// Reads a trainer-state checkpoint from `path`.
///
/// # Errors
///
/// Returns an error on I/O failure (including truncation), bad magic, or
/// a format version other than the current one.
pub fn load_state(path: &Path) -> Result<TrainerState, CheckpointError> {
    let mut f = File::open(path)?;
    let mut magic = [0u8; 8];
    f.read_exact(&mut magic)?;
    if &magic != STATE_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let mut ver = [0u8; 4];
    f.read_exact(&mut ver)?;
    let version = u32::from_le_bytes(ver);
    if version != STATE_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let step = read_u64(&mut f)? as usize;
    let mut flag = [0u8; 1];
    f.read_exact(&mut flag)?;
    let diverged = flag[0] != 0;
    let n_stages = read_u64(&mut f)? as usize;
    let mut stages = Vec::new();
    for _ in 0..n_stages {
        let opt_steps = read_u64(&mut f)? as usize;
        let n_versions = read_u64(&mut f)? as usize;
        let mut window = Vec::new();
        for _ in 0..n_versions {
            let version = read_u64(&mut f)? as usize;
            window.push((version, read_vec(&mut f)?));
        }
        let delta = read_vec(&mut f)?;
        let opt_m = read_vec(&mut f)?;
        let opt_v = read_vec(&mut f)?;
        stages.push(StageState { window, delta, opt_m, opt_v, opt_steps });
    }
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
        assert!(matches!(load_state(&path), Err(CheckpointError::Io(_))));
        std::fs::remove_file(&path).ok();
    }
}
