//! Typed error taxonomy for the comms subsystem.
//!
//! Two layers: [`CodecError`] (defined with the byte codec in
//! [`pipemare_telemetry::codec`], re-exported here) covers everything
//! that can go wrong while decoding bytes (truncation, corruption,
//! oversized frames) and is guaranteed panic-free; [`CommsError`] adds
//! transport failures, handshake/protocol violations, and the
//! orchestrator-side [`CommsError::WorkerLost`] wrapper that pins a
//! failure to a stage id and the last step that stage acknowledged.

use std::fmt;

pub use pipemare_telemetry::codec::CodecError;
use pipemare_telemetry::Lapped;

/// A transport- or protocol-level failure.
#[derive(Debug)]
pub enum CommsError {
    /// Underlying socket I/O failure.
    Io(std::io::Error),
    /// The peer sent bytes that don't decode.
    Codec(CodecError),
    /// A receive exceeded the configured timeout.
    Timeout,
    /// The peer closed the connection.
    Closed,
    /// Version/shape validation failed during the hello exchange.
    Handshake(String),
    /// A structurally valid message arrived at the wrong point in the
    /// protocol (wrong type, stale step, unknown stage, ...).
    Protocol(String),
    /// The peer reported an error of its own ([`crate::protocol::Message::Error`]).
    Remote {
        /// Stage id the remote reported (or `u32::MAX` if unknown).
        stage: u32,
        /// Human-readable description from the peer.
        message: String,
    },
    /// Orchestrator-side wrapper: communication with one stage worker
    /// failed. Carries the stage id and the last step that worker
    /// acknowledged, so a mid-run crash is diagnosable.
    WorkerLost {
        /// The stage whose link failed.
        stage: u32,
        /// Last step the worker acked (None if it never acked one).
        last_acked_step: Option<u64>,
        /// The underlying failure.
        cause: Box<CommsError>,
    },
    /// The requested configuration cannot run distributed (e.g. Hogwild
    /// delay sampling, which is driver-local randomness).
    Unsupported(String),
    /// A flush found that this process's flight recorder overwrote
    /// events before they were shipped: more was recorded between two
    /// flushes than a ring holds.
    Telemetry(Lapped),
}

impl fmt::Display for CommsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommsError::Io(e) => write!(f, "i/o error: {e}"),
            CommsError::Codec(e) => write!(f, "codec error: {e}"),
            CommsError::Timeout => write!(f, "receive timed out"),
            CommsError::Closed => write!(f, "connection closed by peer"),
            CommsError::Handshake(m) => write!(f, "handshake failed: {m}"),
            CommsError::Protocol(m) => write!(f, "protocol violation: {m}"),
            CommsError::Remote { stage, message } => {
                write!(f, "remote error from stage {stage}: {message}")
            }
            CommsError::WorkerLost { stage, last_acked_step, cause } => match last_acked_step {
                Some(step) => {
                    write!(f, "stage {stage} worker lost after acked step {step}: {cause}")
                }
                None => write!(f, "stage {stage} worker lost before acking any step: {cause}"),
            },
            CommsError::Unsupported(m) => write!(f, "unsupported for distributed runs: {m}"),
            CommsError::Telemetry(e) => write!(f, "telemetry lost: {e}"),
        }
    }
}

impl std::error::Error for CommsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CommsError::Io(e) => Some(e),
            CommsError::Codec(e) => Some(e),
            CommsError::WorkerLost { cause, .. } => Some(cause.as_ref()),
            CommsError::Telemetry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for CommsError {
    fn from(e: CodecError) -> Self {
        CommsError::Codec(e)
    }
}

impl From<std::io::Error> for CommsError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => CommsError::Timeout,
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe => CommsError::Closed,
            _ => CommsError::Io(e),
        }
    }
}

impl CommsError {
    /// Whether this is a connection-level loss (closed/timeout/io), as
    /// opposed to a protocol or codec problem.
    pub fn is_connection_loss(&self) -> bool {
        matches!(self, CommsError::Io(_) | CommsError::Timeout | CommsError::Closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_kinds_map_to_typed_variants() {
        let timeout: CommsError = std::io::Error::new(std::io::ErrorKind::TimedOut, "slow").into();
        assert!(matches!(timeout, CommsError::Timeout));
        let closed: CommsError =
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof").into();
        assert!(matches!(closed, CommsError::Closed));
        let other: CommsError =
            std::io::Error::new(std::io::ErrorKind::PermissionDenied, "no").into();
        assert!(matches!(other, CommsError::Io(_)));
    }

    #[test]
    fn worker_lost_display_names_stage_and_step() {
        let e = CommsError::WorkerLost {
            stage: 2,
            last_acked_step: Some(17),
            cause: Box::new(CommsError::Closed),
        };
        let s = e.to_string();
        assert!(s.contains("stage 2"), "{s}");
        assert!(s.contains("step 17"), "{s}");
    }
}
