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

/// Iterates the intact records of a log byte stream, stopping cleanly
/// at the first torn or corrupt frame. Each item carries the byte
/// offset just *past* its frame — the crash-point tests truncate the
/// log at every such boundary.
pub struct LogReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// `true` once a torn/corrupt frame ended the iteration with bytes
    /// left over.
    torn: bool,
}

impl<'a> LogReader<'a> {
    /// A reader over a full log file image (header included). Returns
    /// `None` if the magic does not match.
    pub fn new(bytes: &'a [u8]) -> Option<LogReader<'a>> {
        if bytes.len() < LOG_MAGIC.len() || &bytes[..LOG_MAGIC.len()] != LOG_MAGIC {
            return None;
        }
        Some(LogReader {
            bytes,
            pos: LOG_MAGIC.len(),
            torn: false,
        })
    }

    /// Reads a whole log file into memory and returns a reader-owning
    /// buffer. Recovery streams frames through [`FrameStream`] instead;
    /// this stays for tests and tools that want the raw image (the
    /// crash-point matrix cuts it at every byte).
    pub fn read_file(path: &std::path::Path) -> io::Result<Vec<u8>> {
        let mut f = std::fs::File::open(path)?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)?;
        Ok(buf)
    }

    /// Byte offset of the last intact frame boundary seen so far.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// `true` if iteration stopped on a torn/corrupt frame rather than
    /// a clean end of file.
    pub fn tail_torn(&self) -> bool {
        self.torn
    }
}

impl Iterator for LogReader<'_> {
    type Item = (usize, LogRecord);

    fn next(&mut self) -> Option<(usize, LogRecord)> {
        if self.torn || self.pos >= self.bytes.len() {
            return None;
        }
        let remaining = &self.bytes[self.pos..];
        if remaining.len() < 8 {
            self.torn = true;
            return None;
        }
        let len = u32::from_le_bytes(remaining[0..4].try_into().expect("4 bytes")) as usize;
        let sum = u32::from_le_bytes(remaining[4..8].try_into().expect("4 bytes"));
        let Some(body) = remaining.get(8..8 + len) else {
            self.torn = true;
            return None;
        };
        if checksum(body) != sum {
            self.torn = true;
            return None;
        }
        match decode_body(body) {
            Ok(rec) => {
                self.pos += 8 + len;
                Some((self.pos, rec))
            }
            Err(_) => {
                self.torn = true;
                None
            }
        }
    }
}

/// Streams the intact records of a log *file*, one frame at a time —
/// the bounded-memory counterpart of [`LogReader`]. Recovery iterates
/// this instead of slurping the file: resident memory is one frame
/// body plus the replay reorder window, O(window) rather than O(log).
///
/// Torn-tail semantics match [`LogReader`]: a short, bit-rotten, or
/// undecodable frame ends the stream cleanly ([`FrameStream::tail_torn`]
/// reports it); only a bad *header* (wrong magic) or a real I/O error
/// is an error. The file length is captured at open, so a corrupt
/// frame length can never drive an allocation past the bytes actually
/// on disk.
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
        if self.len - self.pos < 8 {
            self.torn = true;
            return Ok(None);
        }
        let mut header = [0u8; 8];
        self.reader
            .read_exact(&mut header)
            .map_err(|e| RecoveryError::io(&self.path, e))?;
        let body_len = u64::from(u32::from_le_bytes(
            header[0..4].try_into().expect("4 bytes"),
        ));
        let sum = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if self.len - self.pos - 8 < body_len {
            self.torn = true;
            return Ok(None);
        }
        let mut body = vec![0u8; body_len as usize];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| RecoveryError::io(&self.path, e))?;
        if checksum(&body) != sum {
            self.torn = true;
            return Ok(None);
        }
        match decode_body(&body) {
            Ok(rec) => {
                self.pos += 8 + body_len;
                Ok(Some((self.pos, rec)))
            }
            Err(_) => {
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

    #[test]
    fn roundtrip_all_kinds_and_values() {
        let records = sample_records();
        let bytes = log_bytes(&records);
        let reader = LogReader::new(&bytes).unwrap();
        let decoded: Vec<LogRecord> = reader.map(|(_, r)| r).collect();
        assert_eq!(decoded, records);
    }

    #[test]
    fn torn_tail_stops_cleanly_at_every_cut() {
        let records = sample_records();
        let bytes = log_bytes(&records);
        let mut boundaries: Vec<usize> = vec![LOG_MAGIC.len()];
        boundaries.extend(LogReader::new(&bytes).unwrap().map(|(off, _)| off));
        // Cutting anywhere yields exactly the records whose frames fit.
        for cut in LOG_MAGIC.len()..=bytes.len() {
            let mut reader = LogReader::new(&bytes[..cut]).unwrap();
            let got: Vec<LogRecord> = reader.by_ref().map(|(_, r)| r).collect();
            // The start boundary is not a frame end: subtract it.
            let expect = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(got.len(), expect, "cut at {cut}");
            assert_eq!(
                reader.tail_torn(),
                cut != bytes.len() && !boundaries.contains(&cut)
            );
        }
    }

    #[test]
    fn bitrot_is_detected() {
        let records = sample_records();
        let mut bytes = log_bytes(&records);
        // Flip one byte inside the second frame's body.
        let first_end = LogReader::new(&bytes).unwrap().next().unwrap().0;
        bytes[first_end + 12] ^= 0x40;
        let mut reader = LogReader::new(&bytes).unwrap();
        let got: Vec<LogRecord> = reader.by_ref().map(|(_, r)| r).collect();
        assert_eq!(got.len(), 1, "only the intact prefix survives");
        assert!(reader.tail_torn());
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(LogReader::new(b"NOTALOG\0rest").is_none());
        assert!(LogReader::new(b"").is_none());
    }

    #[test]
    fn frame_stream_matches_log_reader_at_every_cut() {
        let records = sample_records();
        let bytes = log_bytes(&records);
        let dir = std::env::temp_dir().join(format!("finecc-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        for cut in LOG_MAGIC.len()..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let mut reader = LogReader::new(&bytes[..cut]).unwrap();
            let want: Vec<(usize, LogRecord)> = reader.by_ref().collect();
            let mut stream = FrameStream::open(&path).unwrap();
            let mut got = Vec::new();
            while let Some((off, rec)) = stream.next_record().unwrap() {
                got.push((off as usize, rec));
            }
            assert_eq!(got, want, "cut at {cut}");
            assert_eq!(stream.tail_torn(), reader.tail_torn(), "cut at {cut}");
            assert_eq!(stream.offset() as usize, reader.offset(), "cut at {cut}");
        }
        // Bad magic is an error, not a torn tail.
        std::fs::write(&path, b"NOTALOG\0rest").unwrap();
        let Err(err) = FrameStream::open(&path) else {
            panic!("bad magic accepted")
        };
        assert_eq!(err.offset(), Some(0));
        // So is a file too short to hold the magic.
        std::fs::write(&path, b"FC").unwrap();
        assert!(FrameStream::open(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
