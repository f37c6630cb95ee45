//! The binary log-record format.
//!
//! A log file is a magic header followed by a sequence of *frames*:
//!
//! ```text
//! [body_len: u32 LE] [checksum: u32 LE] [body: body_len bytes]
//! ```
//!
//! The checksum is FNV-1a/64 of the body, folded to 32 bits, so a torn
//! final frame — short body, garbage length, bit rot — is detected and
//! replay stops cleanly at the last intact record. The body starts with
//! a kind tag:
//!
//! * **Commit** — one committed transaction: commit timestamp, writer
//!   id, and the access-vector *Write* projection as a list of
//!   [`FieldImage`] after-images. This is the paper's recovery remark
//!   turned into the redo format: the record body is *per-field*, not
//!   per-page or per-object, so the log carries exactly what the
//!   transaction's write projection touched.
//! * **Skip** — a commit timestamp drawn from the clock but refused by
//!   SSI validation after the draw. Nothing was flipped at it; recovery
//!   must still account for it so the restored clock never reuses the
//!   hole and the restored watermark prefix stays dense.
//! * **Create** / **Delete** — extent events (object birth/death bypass
//!   the version chains; see the ROADMAP's versioned-extents item).
//!   They carry the publication watermark observed at the event
//!   (`as_of`) purely to order them against commit records at replay.
//!
//! Values are encoded tag-prefixed; strings are length-prefixed UTF-8.

use crate::error::RecoveryError;
use finecc_model::{ClassId, FieldId, Oid, TxnId, Value};
use finecc_store::FieldImage;
use std::io::{self, BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening every log file.
pub const LOG_MAGIC: &[u8; 8] = b"FCWAL01\0";

const KIND_COMMIT: u8 = 1;
const KIND_SKIP: u8 = 2;
const KIND_CREATE: u8 = 3;
const KIND_DELETE: u8 = 4;

const TAG_NIL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_BOOL: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_REF: u8 = 5;

/// One decoded log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogRecord {
    /// A committed transaction's redo images.
    Commit {
        /// The commit timestamp (mvcc) or commit sequence (lock
        /// schemes) that serializes this transaction.
        ts: u64,
        /// The committing transaction.
        txn: TxnId,
        /// After-images of every field the transaction wrote — the
        /// *Write* part of its access-vector projection.
        writes: Vec<FieldImage>,
    },
    /// A drawn-but-refused commit timestamp (SSI validation failure
    /// after the clock draw). Keeps the recovered clock/watermark free
    /// of reusable holes.
    Skip {
        /// The refused timestamp.
        ts: u64,
    },
    /// An object was created.
    Create {
        /// Publication watermark observed at creation (replay ordering
        /// against commit records only).
        as_of: u64,
        /// The new object's identifier.
        oid: Oid,
        /// Its proper class.
        class: ClassId,
    },
    /// An object was deleted.
    Delete {
        /// Publication watermark observed at deletion.
        as_of: u64,
        /// The deleted object.
        oid: Oid,
    },
}

impl LogRecord {
    /// The replay ordering key: commit records sort by their commit
    /// timestamp, extent records by the watermark they observed.
    pub fn order_ts(&self) -> u64 {
        match self {
            LogRecord::Commit { ts, .. } | LogRecord::Skip { ts } => *ts,
            LogRecord::Create { as_of, .. } | LogRecord::Delete { as_of, .. } => *as_of,
        }
    }
}

/// FNV-1a/64 folded to 32 bits.
pub(crate) fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    ((h >> 32) ^ h) as u32
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Nil => out.push(TAG_NIL),
        Value::Int(i) => {
            out.push(TAG_INT);
            put_u64(out, *i as u64);
        }
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            put_u64(out, f.to_bits());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
        Value::Ref(o) => {
            out.push(TAG_REF);
            put_u64(out, o.raw());
        }
    }
}

/// A bounds-checked little-endian cursor over a decoded body.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt record: {what}"),
    )
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    pub(crate) fn u8(&mut self) -> io::Result<u8> {
        let b = *self.bytes.get(self.pos).ok_or_else(|| corrupt("u8"))?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn u32(&mut self) -> io::Result<u32> {
        let end = self.pos.checked_add(4).ok_or_else(|| corrupt("u32"))?;
        let s = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| corrupt("u32"))?;
        self.pos = end;
        Ok(u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> io::Result<u64> {
        let end = self.pos.checked_add(8).ok_or_else(|| corrupt("u64"))?;
        let s = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| corrupt("u64"))?;
        self.pos = end;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    pub(crate) fn str(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        let end = self.pos.checked_add(len).ok_or_else(|| corrupt("string"))?;
        let s = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| corrupt("string"))?;
        self.pos = end;
        String::from_utf8(s.to_vec()).map_err(|_| corrupt("utf8"))
    }

    pub(crate) fn value(&mut self) -> io::Result<Value> {
        Ok(match self.u8()? {
            TAG_NIL => Value::Nil,
            TAG_INT => Value::Int(self.u64()? as i64),
            TAG_BOOL => Value::Bool(self.u8()? != 0),
            TAG_FLOAT => Value::Float(f64::from_bits(self.u64()?)),
            TAG_STR => Value::Str(Arc::from(self.str()?.as_str())),
            TAG_REF => Value::Ref(Oid(self.u64()?)),
            _ => return Err(corrupt("value tag")),
        })
    }
}

/// Appends one frame — `[len][checksum][body]` — to `out`, the body
/// encoded in place by `body`: the 8-byte header is reserved first and
/// patched once the body's length and checksum are known, so a frame is
/// written exactly once, straight into whatever buffer it is bound for
/// (the log's staging buffer on the commit path).
fn put_framed(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    body(out);
    let (len, sum) = {
        let body = &out[start + 8..];
        (body.len() as u32, checksum(body))
    };
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&sum.to_le_bytes());
}

/// Appends a commit record's frame, encoded from the borrowed
/// write projection (no owned [`LogRecord`] is built).
pub(crate) fn put_commit_frame(out: &mut Vec<u8>, ts: u64, txn: TxnId, writes: &[FieldImage]) {
    put_framed(out, |out| {
        out.push(KIND_COMMIT);
        put_u64(out, ts);
        put_u64(out, txn.raw());
        put_u32(out, writes.len() as u32);
        for w in writes {
            put_u64(out, w.oid.raw());
            put_u32(out, w.field.raw());
            put_value(out, &w.value);
        }
    });
}

/// Appends a record's frame to `out`.
pub(crate) fn put_frame(out: &mut Vec<u8>, rec: &LogRecord) {
    match rec {
        LogRecord::Commit { ts, txn, writes } => put_commit_frame(out, *ts, *txn, writes),
        LogRecord::Skip { ts } => put_framed(out, |out| {
            out.push(KIND_SKIP);
            put_u64(out, *ts);
        }),
        LogRecord::Create { as_of, oid, class } => put_framed(out, |out| {
            out.push(KIND_CREATE);
            put_u64(out, *as_of);
            put_u64(out, oid.raw());
            put_u32(out, class.raw());
        }),
        LogRecord::Delete { as_of, oid } => put_framed(out, |out| {
            out.push(KIND_DELETE);
            put_u64(out, *as_of);
            put_u64(out, oid.raw());
        }),
    }
}

/// Exact length of the frame [`put_commit_frame`] appends for `writes`
/// — what the log's back-pressure check needs *before* the commit
/// timestamp is drawn and the frame encoded.
pub(crate) fn commit_frame_len(writes: &[FieldImage]) -> usize {
    let value_len = |v: &Value| match v {
        Value::Nil => 1,
        Value::Bool(_) => 2,
        Value::Int(_) | Value::Float(_) | Value::Ref(_) => 9,
        Value::Str(s) => 5 + s.len(),
    };
    8 + 21
        + writes
            .iter()
            .map(|w| 12 + value_len(&w.value))
            .sum::<usize>()
}

/// Exact length of the frame [`put_frame`] appends for `rec`.
pub(crate) fn frame_len(rec: &LogRecord) -> usize {
    match rec {
        LogRecord::Commit { writes, .. } => commit_frame_len(writes),
        LogRecord::Skip { .. } => 8 + 9,
        LogRecord::Create { .. } => 8 + 21,
        LogRecord::Delete { .. } => 8 + 17,
    }
}

/// One record's frame as an owned buffer (tests; the append path and
/// the truncation rewrite encode in place).
#[cfg(test)]
pub(crate) fn encode_frame(rec: &LogRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(frame_len(rec));
    put_frame(&mut out, rec);
    out
}

/// Decodes one record body.
pub(crate) fn decode_body(body: &[u8]) -> io::Result<LogRecord> {
    let mut c = Cursor::new(body);
    let rec = match c.u8()? {
        KIND_COMMIT => {
            let ts = c.u64()?;
            let txn = TxnId(c.u64()?);
            let n = c.u32()? as usize;
            let mut writes = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let oid = Oid(c.u64()?);
                let field = FieldId(c.u32()?);
                let value = c.value()?;
                writes.push(FieldImage { oid, field, value });
            }
            LogRecord::Commit { ts, txn, writes }
        }
        KIND_SKIP => LogRecord::Skip { ts: c.u64()? },
        KIND_CREATE => LogRecord::Create {
            as_of: c.u64()?,
            oid: Oid(c.u64()?),
            class: ClassId(c.u32()?),
        },
        KIND_DELETE => LogRecord::Delete {
            as_of: c.u64()?,
            oid: Oid(c.u64()?),
        },
        _ => return Err(corrupt("record kind")),
    };
    if !c.is_empty() {
        return Err(corrupt("trailing bytes in body"));
    }
    Ok(rec)
}

/// Reads one frame from `r`, which holds `remaining` bytes: the length
/// header, the body's bounds, its checksum and its decoding —
/// [`FrameStream`]'s frame check. Returns the frame's length and its
/// record, or `None` for a torn or corrupt frame (the caller stops
/// there); an error is `r`'s own. A length that runs past `remaining`
/// is caught before any body is allocated.
fn read_frame(r: &mut impl Read, remaining: u64) -> io::Result<Option<(u64, LogRecord)>> {
    if remaining < 8 {
        return Ok(None);
    }
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    let [l0, l1, l2, l3, s0, s1, s2, s3] = header;
    let len = u64::from(u32::from_le_bytes([l0, l1, l2, l3]));
    if remaining - 8 < len {
        return Ok(None);
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    if checksum(&body) != u32::from_le_bytes([s0, s1, s2, s3]) {
        return Ok(None);
    }
    Ok(decode_body(&body).ok().map(|rec| (8 + len, rec)))
}

/// Streams the intact records of a log *file*, one frame at a time —
/// the one log reader. Recovery iterates it instead of slurping the
/// file: resident memory is one frame body plus the replay reorder
/// window, O(window) rather than O(log). As an [`Iterator`] it yields
/// the same items [`FrameStream::next_record`] returns.
///
/// A short, bit-rotten, or undecodable frame ends the stream cleanly
/// ([`FrameStream::tail_torn`] reports it); only a bad *header* (wrong
/// magic) or a real I/O error is an error. The file length is captured
/// at open, so a corrupt frame length can never drive an allocation
/// past the bytes actually on disk.
pub struct FrameStream {
    reader: BufReader<std::fs::File>,
    path: PathBuf,
    /// File length at open (bounds every body allocation).
    len: u64,
    /// Byte offset just past the last intact frame.
    pos: u64,
    torn: bool,
}

impl FrameStream {
    /// Opens a log file and validates its magic header.
    pub fn open(path: &Path) -> Result<FrameStream, RecoveryError> {
        let file = std::fs::File::open(path).map_err(|e| RecoveryError::io(path, e))?;
        let len = file
            .metadata()
            .map_err(|e| RecoveryError::io(path, e))?
            .len();
        let mut reader = BufReader::new(file);
        let mut magic = [0u8; 8];
        let header_ok = len >= LOG_MAGIC.len() as u64
            && match reader.read_exact(&mut magic) {
                Ok(()) => &magic == LOG_MAGIC,
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => false,
                Err(e) => return Err(RecoveryError::io(path, e)),
            };
        if !header_ok {
            return Err(RecoveryError::CorruptLog {
                file: path.to_path_buf(),
                offset: 0,
                what: "bad log magic".into(),
            });
        }
        Ok(FrameStream {
            reader,
            path: path.to_path_buf(),
            len,
            pos: LOG_MAGIC.len() as u64,
            torn: false,
        })
    }

    /// The next intact record and the offset just past its frame, or
    /// `None` at a clean end of file *or* a torn tail (distinguish with
    /// [`FrameStream::tail_torn`]). Errors are real I/O failures only.
    pub fn next_record(&mut self) -> Result<Option<(u64, LogRecord)>, RecoveryError> {
        if self.torn || self.pos >= self.len {
            return Ok(None);
        }
        let frame = read_frame(&mut self.reader, self.len - self.pos)
            .map_err(|e| RecoveryError::io(&self.path, e))?;
        match frame {
            Some((len, rec)) => {
                self.pos += len;
                Ok(Some((self.pos, rec)))
            }
            None => {
                self.torn = true;
                Ok(None)
            }
        }
    }

    /// The file being streamed.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Byte offset just past the last intact frame returned so far.
    pub fn offset(&self) -> u64 {
        self.pos
    }

    /// `true` if the stream ended on a torn/corrupt frame rather than a
    /// clean end of file.
    pub fn tail_torn(&self) -> bool {
        self.torn
    }
}

impl Iterator for FrameStream {
    type Item = Result<(u64, LogRecord), RecoveryError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord::Create {
                as_of: 0,
                oid: Oid(1),
                class: ClassId(0),
            },
            LogRecord::Commit {
                ts: 1,
                txn: TxnId(7),
                writes: vec![
                    FieldImage {
                        oid: Oid(1),
                        field: FieldId(0),
                        value: Value::Int(-3),
                    },
                    FieldImage {
                        oid: Oid(1),
                        field: FieldId(1),
                        value: Value::str("héllo\nworld"),
                    },
                ],
            },
            LogRecord::Skip { ts: 2 },
            LogRecord::Commit {
                ts: 3,
                txn: TxnId(9),
                writes: vec![FieldImage {
                    oid: Oid(1),
                    field: FieldId(2),
                    value: Value::Float(f64::NAN),
                }],
            },
            LogRecord::Delete {
                as_of: 3,
                oid: Oid(1),
            },
        ]
    }

    fn log_bytes(records: &[LogRecord]) -> Vec<u8> {
        let mut bytes = LOG_MAGIC.to_vec();
        for r in records {
            bytes.extend_from_slice(&encode_frame(r));
        }
        bytes
    }

    /// A fresh file path under a per-test temporary directory.
    fn log_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("finecc-record-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    /// Writes `bytes` to `path` and streams them back: every intact
    /// frame with its end offset, and the stream once it stopped.
    fn stream(path: &Path, bytes: &[u8]) -> (Vec<(u64, LogRecord)>, FrameStream) {
        std::fs::write(path, bytes).unwrap();
        let mut stream = FrameStream::open(path).unwrap();
        let frames = stream.by_ref().map(Result::unwrap).collect();
        (frames, stream)
    }

    #[test]
    fn roundtrip_all_kinds_and_values() {
        let records = sample_records();
        let path = log_path("roundtrip");
        let (frames, stream) = stream(&path, &log_bytes(&records));
        let decoded: Vec<LogRecord> = frames.into_iter().map(|(_, r)| r).collect();
        assert_eq!(decoded, records);
        assert!(!stream.tail_torn());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_tail_stops_cleanly_at_every_cut() {
        let records = sample_records();
        let bytes = log_bytes(&records);
        // The frame boundaries, from the encoder alone.
        let mut ends = vec![LOG_MAGIC.len() as u64];
        for r in &records {
            ends.push(ends[ends.len() - 1] + encode_frame(r).len() as u64);
        }
        let path = log_path("cuts");
        // Cutting anywhere yields exactly the records whose frames end
        // at or before the cut; the tail is torn iff the cut falls
        // inside a frame.
        for cut in LOG_MAGIC.len()..=bytes.len() {
            let (frames, stream) = stream(&path, &bytes[..cut]);
            let fit = ends.iter().filter(|&&end| end <= cut as u64).count() - 1;
            let want: Vec<(u64, LogRecord)> = ends[1..=fit]
                .iter()
                .copied()
                .zip(records[..fit].iter().cloned())
                .collect();
            assert_eq!(frames, want, "cut at {cut}");
            assert_eq!(
                stream.tail_torn(),
                !ends.contains(&(cut as u64)),
                "cut at {cut}"
            );
            assert_eq!(stream.offset(), ends[fit], "cut at {cut}");
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn bitrot_is_detected() {
        let records = sample_records();
        let mut bytes = log_bytes(&records);
        // Flip one byte inside the second frame's body.
        let first_end = LOG_MAGIC.len() + encode_frame(&records[0]).len();
        bytes[first_end + 12] ^= 0x40;
        let path = log_path("bitrot");
        let (frames, stream) = stream(&path, &bytes);
        assert_eq!(frames.len(), 1, "only the intact prefix survives");
        assert!(stream.tail_torn());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn bad_magic_is_rejected() {
        // Bad magic is an error, not a torn tail; so is a file too short
        // to hold the magic.
        let path = log_path("magic");
        for bytes in [&b"NOTALOG\0rest"[..], b"FC", b""] {
            std::fs::write(&path, bytes).unwrap();
            let Err(err) = FrameStream::open(&path) else {
                panic!("bad magic accepted: {bytes:?}")
            };
            assert_eq!(err.offset(), Some(0));
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
