//! Typed recovery errors: every corruption carries the offending file
//! and, where meaningful, the byte offset — the stringly
//! `io::Error::new(InvalidData, ...)` messages the early recovery code
//! used told a caller *that* a checkpoint or frame was corrupt, but
//! not *which* file or *where*, which is exactly what a repro needs.
//!
//! [`RecoveryError`] converts losslessly into [`io::Error`] (the typed
//! value rides along as the error's source and can be recovered with
//! `get_ref` + downcast), so the existing `io::Result` surfaces —
//! `MvccHeap::recover`, `Env::resume_wal`, the sim — keep compiling
//! while anything that wants the structure can take it apart. The
//! runtime surfaces it to transaction code as `ExecError::Recovery`.

use std::io;
use std::path::PathBuf;

/// Why a recovery attempt (or a checkpoint/log read feeding one)
/// failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryError {
    /// The directory holds no checkpoint that validates. A durable
    /// store writes a genesis checkpoint when the log is attached, so
    /// this means the directory never held a durable store (or every
    /// checkpoint was destroyed).
    NoCheckpoint {
        /// The log directory searched.
        dir: PathBuf,
    },
    /// A checkpoint file failed validation (bad magic, checksum
    /// mismatch, undecodable body). Recovery falls back to the next
    /// older checkpoint; this surfaces only when the failure was
    /// injected or an I/O error interrupted the read itself.
    CorruptCheckpoint {
        /// The offending checkpoint file.
        file: PathBuf,
        /// What failed to validate.
        what: String,
    },
    /// A log frame failed validation mid-stream in a context where a
    /// torn tail is not acceptable (the log *header* is wrong, not a
    /// trailing frame).
    CorruptLog {
        /// The offending log file.
        file: PathBuf,
        /// Byte offset of the frame that failed.
        offset: u64,
        /// What failed to validate.
        what: String,
    },
    /// Streaming replay popped a record whose timestamp sorts below one
    /// already applied: the log's out-of-order distance exceeded the
    /// reorder window, so a bounded-memory replay cannot order it.
    /// (How the writer draws its timestamps bounds the distance, not
    /// the size of a group-commit batch — see [`crate::recover`],
    /// step 3; this surfaces only for a log written by something that
    /// draws timestamps further ahead than the window.)
    ReorderWindowExceeded {
        /// The log file being replayed.
        file: PathBuf,
        /// Byte offset (past the frame) of the unorderable record.
        offset: u64,
        /// The reorder window that proved too small.
        window: usize,
        /// The record's replay timestamp.
        ts: u64,
        /// The highest timestamp already applied.
        applied: u64,
    },
    /// An I/O operation on a recovery input failed (including injected
    /// `finecc_chaos` faults at the recovery sites).
    Io {
        /// The file (or directory) the operation touched.
        file: PathBuf,
        /// The underlying error, stringified (keeps the type `Clone`).
        source: String,
    },
}

impl RecoveryError {
    /// The file (or directory) the error is about.
    pub fn file(&self) -> &std::path::Path {
        match self {
            RecoveryError::NoCheckpoint { dir } => dir,
            RecoveryError::CorruptCheckpoint { file, .. }
            | RecoveryError::CorruptLog { file, .. }
            | RecoveryError::ReorderWindowExceeded { file, .. }
            | RecoveryError::Io { file, .. } => file,
        }
    }

    /// The byte offset of the offence, where one exists.
    pub fn offset(&self) -> Option<u64> {
        match self {
            RecoveryError::CorruptLog { offset, .. }
            | RecoveryError::ReorderWindowExceeded { offset, .. } => Some(*offset),
            _ => None,
        }
    }

    /// The `io::ErrorKind` this error maps to.
    pub fn io_kind(&self) -> io::ErrorKind {
        match self {
            RecoveryError::NoCheckpoint { .. } => io::ErrorKind::NotFound,
            RecoveryError::CorruptCheckpoint { .. }
            | RecoveryError::CorruptLog { .. }
            | RecoveryError::ReorderWindowExceeded { .. } => io::ErrorKind::InvalidData,
            RecoveryError::Io { .. } => io::ErrorKind::Other,
        }
    }

    pub(crate) fn io(file: impl Into<PathBuf>, e: io::Error) -> RecoveryError {
        RecoveryError::Io {
            file: file.into(),
            source: e.to_string(),
        }
    }
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::NoCheckpoint { dir } => write!(
                f,
                "no usable checkpoint in {} (a durable store writes a genesis checkpoint when \
                 the log is attached)",
                dir.display()
            ),
            RecoveryError::CorruptCheckpoint { file, what } => {
                write!(f, "corrupt checkpoint {}: {what}", file.display())
            }
            RecoveryError::CorruptLog { file, offset, what } => {
                write!(
                    f,
                    "corrupt log {} at offset {offset}: {what}",
                    file.display()
                )
            }
            RecoveryError::ReorderWindowExceeded {
                file,
                offset,
                window,
                ts,
                applied,
            } => write!(
                f,
                "reorder window {window} exceeded replaying {} at offset {offset}: \
                 record ts {ts} after ts {applied} was applied",
                file.display()
            ),
            RecoveryError::Io { file, source } => {
                write!(f, "recovery i/o on {}: {source}", file.display())
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<RecoveryError> for io::Error {
    fn from(e: RecoveryError) -> io::Error {
        io::Error::new(e.io_kind(), e)
    }
}

/// Recovers the typed error from an [`io::Error`] produced by the
/// `From` conversion above (the round trip `ExecError` mapping uses).
pub fn as_recovery_error(e: &io::Error) -> Option<&RecoveryError> {
    e.get_ref().and_then(|s| s.downcast_ref::<RecoveryError>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_round_trip_preserves_the_typed_error() {
        let e = RecoveryError::CorruptLog {
            file: PathBuf::from("/tmp/wal.log"),
            offset: 42,
            what: "checksum".into(),
        };
        let io_err: io::Error = e.clone().into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
        let back = as_recovery_error(&io_err).expect("typed error rides along");
        assert_eq!(back, &e);
        assert_eq!(back.offset(), Some(42));
        assert_eq!(back.file(), std::path::Path::new("/tmp/wal.log"));
    }

    #[test]
    fn kinds_and_display() {
        let nf = RecoveryError::NoCheckpoint {
            dir: PathBuf::from("/d"),
        };
        assert_eq!(nf.io_kind(), io::ErrorKind::NotFound);
        assert!(nf.to_string().contains("genesis checkpoint"));
        let re = RecoveryError::ReorderWindowExceeded {
            file: PathBuf::from("/d/wal.log"),
            offset: 9,
            window: 4,
            ts: 2,
            applied: 7,
        };
        assert_eq!(re.offset(), Some(9));
        assert!(re.to_string().contains("reorder window 4"));
    }
}
