//! Checkpoint files: a consistent base image the log replays on top of.
//!
//! A checkpoint persists everything the log alone cannot reconstruct:
//! the **schema** (serialized structurally — classes in declaration
//! order with parents, fields and method signatures — and rebuilt
//! through `SchemaBuilder`, whose id assignment is deterministic, so
//! the recovered `ClassId`/`FieldId` spaces are bit-identical to the
//! original and every OID/field reference in the log resolves), the
//! **OID allocator**, and one **instance image** per live object with
//! its field values as of the checkpoint timestamp.
//!
//! The MVCC heap produces these images *fuzzily*: it pins a snapshot
//! and reads every field through the multi-version read path, so
//! writers keep committing while the checkpoint streams out —
//! the version chains are what make a consistent cut possible without
//! stopping anyone. Lock schemes, which have no time travel, checkpoint
//! only at quiescent points (in practice: the genesis checkpoint
//! written when durability is attached).
//!
//! Files are named `checkpoint-<ts>.ckpt` (zero-padded so lexical order
//! is numeric order), written to a temp file and renamed into place —
//! a checkpoint is either entirely present or absent — and carry a
//! checksum; recovery uses the newest file that validates.

use crate::error::RecoveryError;
use crate::record::{checksum, put_str, put_u32, put_u64, put_value, Cursor};
use finecc_chaos::{FaultKind, Site};
use finecc_model::{ClassId, FieldType, Oid, Schema, SchemaBuilder, Value};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every checkpoint file.
pub const CKPT_MAGIC: &[u8; 8] = b"FCCKPT1\0";

const TY_INT: u8 = 0;
const TY_BOOL: u8 = 1;
const TY_FLOAT: u8 = 2;
const TY_STR: u8 = 3;
const TY_REF: u8 = 4;

/// One checkpointed object: its identity, proper class, and field
/// values (in the class's `all_fields` order) as of the checkpoint
/// timestamp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstanceImage {
    /// The object.
    pub oid: Oid,
    /// Its proper class.
    pub class: ClassId,
    /// One value per visible field, in `ClassInfo::all_fields` order.
    pub values: Vec<Value>,
}

/// What a checkpoint writer hands to [`crate::Wal::write_checkpoint`].
pub struct CheckpointData<'a> {
    /// The snapshot timestamp the instance images reflect.
    pub ckpt_ts: u64,
    /// First log timestamp recovery must replay on top of this image
    /// (`ckpt_ts + 1` for the MVCC heap; the commit-sequence floor for
    /// lock schemes).
    pub replay_from: u64,
    /// The OID allocator's next value.
    pub next_oid: u64,
    /// The schema to serialize.
    pub schema: &'a Schema,
    /// The live instances at `ckpt_ts`.
    pub instances: Vec<InstanceImage>,
}

/// A decoded checkpoint.
pub struct CheckpointImage {
    /// The snapshot timestamp the images reflect.
    pub ckpt_ts: u64,
    /// First log timestamp to replay.
    pub replay_from: u64,
    /// The OID allocator's next value.
    pub next_oid: u64,
    /// The rebuilt schema (ids identical to the original's).
    pub schema: Schema,
    /// The instance images.
    pub instances: Vec<InstanceImage>,
}

fn encode_schema(out: &mut Vec<u8>, schema: &Schema) {
    put_u32(out, schema.class_count() as u32);
    for ci in schema.classes() {
        put_str(out, &ci.name);
        put_u32(out, ci.parents.len() as u32);
        for &p in &ci.parents {
            put_str(out, &schema.class(p).name);
        }
        put_u32(out, ci.own_fields.len() as u32);
        for &f in &ci.own_fields {
            let fi = schema.field(f);
            put_str(out, &fi.name);
            match fi.ty {
                FieldType::Int => out.push(TY_INT),
                FieldType::Bool => out.push(TY_BOOL),
                FieldType::Float => out.push(TY_FLOAT),
                FieldType::Str => out.push(TY_STR),
                FieldType::Ref(c) => {
                    out.push(TY_REF);
                    put_str(out, &schema.class(c).name);
                }
            }
        }
        put_u32(out, ci.own_methods.len() as u32);
        for &m in &ci.own_methods {
            let mi = schema.method(m);
            put_str(out, &mi.sig.name);
            put_u32(out, mi.sig.params.len() as u32);
            for p in &mi.sig.params {
                put_str(out, p);
            }
        }
    }
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt checkpoint: {what}"),
    )
}

fn decode_schema(c: &mut Cursor<'_>) -> io::Result<Schema> {
    let n = c.u32()? as usize;
    let mut b = SchemaBuilder::new();
    for _ in 0..n {
        let name = c.str()?;
        let n_parents = c.u32()? as usize;
        let mut parents = Vec::with_capacity(n_parents);
        for _ in 0..n_parents {
            parents.push(c.str()?);
        }
        let n_fields = c.u32()? as usize;
        let mut fields: Vec<(String, Option<FieldType>, Option<String>)> =
            Vec::with_capacity(n_fields);
        for _ in 0..n_fields {
            let fname = c.str()?;
            match c.u8()? {
                TY_INT => fields.push((fname, Some(FieldType::Int), None)),
                TY_BOOL => fields.push((fname, Some(FieldType::Bool), None)),
                TY_FLOAT => fields.push((fname, Some(FieldType::Float), None)),
                TY_STR => fields.push((fname, Some(FieldType::Str), None)),
                TY_REF => {
                    let target = c.str()?;
                    fields.push((fname, None, Some(target)));
                }
                _ => return Err(corrupt("field type tag")),
            }
        }
        let n_methods = c.u32()? as usize;
        let mut methods = Vec::with_capacity(n_methods);
        for _ in 0..n_methods {
            let mname = c.str()?;
            let n_params = c.u32()? as usize;
            let mut params = Vec::with_capacity(n_params);
            for _ in 0..n_params {
                params.push(c.str()?);
            }
            methods.push((mname, params));
        }
        let decl = b.class(&name);
        for p in &parents {
            decl.inherits(p);
        }
        for (fname, ty, ref_target) in &fields {
            match (ty, ref_target) {
                (Some(ty), _) => {
                    decl.field(fname, *ty);
                }
                (None, Some(target)) => {
                    decl.ref_field(fname, target);
                }
                (None, None) => unreachable!("field has a type or a ref target"),
            }
        }
        for (mname, params) in &methods {
            let param_refs: Vec<&str> = params.iter().map(String::as_str).collect();
            decl.method(mname, &param_refs);
        }
    }
    b.finish()
        .map_err(|e| corrupt(&format!("schema rebuild: {e}")))
}

fn encode(data: &CheckpointData<'_>) -> Vec<u8> {
    let mut body = Vec::with_capacity(4096);
    put_u64(&mut body, data.ckpt_ts);
    put_u64(&mut body, data.replay_from);
    put_u64(&mut body, data.next_oid);
    encode_schema(&mut body, data.schema);
    put_u64(&mut body, data.instances.len() as u64);
    for inst in &data.instances {
        put_u64(&mut body, inst.oid.raw());
        put_u32(&mut body, inst.class.raw());
        put_u32(&mut body, inst.values.len() as u32);
        for v in &inst.values {
            put_value(&mut body, v);
        }
    }
    let mut out = Vec::with_capacity(body.len() + 20);
    out.extend_from_slice(CKPT_MAGIC);
    put_u64(&mut out, body.len() as u64);
    put_u32(&mut out, checksum(&body));
    out.extend_from_slice(&body);
    out
}

fn decode(bytes: &[u8]) -> io::Result<CheckpointImage> {
    if bytes.len() < CKPT_MAGIC.len() + 12 || &bytes[..CKPT_MAGIC.len()] != CKPT_MAGIC {
        return Err(corrupt("magic"));
    }
    let mut header = Cursor::new(&bytes[CKPT_MAGIC.len()..]);
    let len = header.u64()? as usize;
    let sum = header.u32()?;
    let body = bytes
        .get(CKPT_MAGIC.len() + 12..CKPT_MAGIC.len() + 12 + len)
        .ok_or_else(|| corrupt("short body"))?;
    if checksum(body) != sum {
        return Err(corrupt("checksum"));
    }
    let mut c = Cursor::new(body);
    let ckpt_ts = c.u64()?;
    let replay_from = c.u64()?;
    let next_oid = c.u64()?;
    let schema = decode_schema(&mut c)?;
    let n = c.u64()? as usize;
    let mut instances = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let oid = Oid(c.u64()?);
        let class = ClassId(c.u32()?);
        let n_values = c.u32()? as usize;
        let mut values = Vec::with_capacity(n_values.min(1024));
        for _ in 0..n_values {
            values.push(c.value()?);
        }
        instances.push(InstanceImage { oid, class, values });
    }
    if !c.is_empty() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(CheckpointImage {
        ckpt_ts,
        replay_from,
        next_oid,
        schema,
        instances,
    })
}

/// The checkpoint file name for a timestamp (zero-padded: lexical order
/// is numeric order).
pub fn file_name(ts: u64) -> String {
    format!("checkpoint-{ts:020}.ckpt")
}

/// The failure injected at `site` (an I/O error or a crash, which has
/// recorded itself), file context attached.
fn injected(file: &Path, site: Site, kind: FaultKind) -> RecoveryError {
    RecoveryError::Io {
        file: file.to_path_buf(),
        source: format!("injected: {} at {}", kind.name(), site.name()),
    }
}

/// Probes the fault plane at `site`: a failure armed there comes back
/// as the error a real one at that stage returns.
pub(crate) fn probe(site: Site, file: &Path) -> Result<(), RecoveryError> {
    finecc_chaos::fault_at(site).map_or(Ok(()), |kind| Err(injected(file, site, kind)))
}

/// Writes a checkpoint atomically (temp file, fsync, rename, directory
/// fsync — the rename itself must be persisted, or a power loss could
/// erase the checkpoint dirent after commits were acked against it).
/// Returns the final path.
///
/// Every pipeline stage carries a `finecc_chaos` fault probe
/// ([`Site::CHECKPOINT`]): an injected
/// error or crash leaves the directory exactly as a real failure at
/// that stage would — a half-written temp file after `ckpt_tmp_write`,
/// a complete-but-unrenamed temp after `ckpt_fsync`/`ckpt_rename`, and
/// a lost dirent (the renamed file removed again) after a crash at
/// `ckpt_dir_fsync`. A failed `write` never ran retention or
/// truncation, so the previous checkpoint and the full log are still
/// in place and recovery is unaffected.
pub fn write(dir: &Path, data: &CheckpointData<'_>) -> io::Result<PathBuf> {
    let path = dir.join(file_name(data.ckpt_ts));
    let tmp = dir.join(format!("{}.tmp", file_name(data.ckpt_ts)));
    probe(Site::CkptEncode, &path)?;
    let bytes = encode(data);
    {
        let mut f = std::fs::File::create(&tmp).map_err(|e| RecoveryError::io(&tmp, e))?;
        if let Some(kind) = finecc_chaos::fault_at(Site::CkptTmpWrite) {
            // A realistic partial write: half the image reaches the temp
            // file and stays there (the stale-tmp cleanup on the next
            // `Wal::open` removes it).
            let _ = f.write_all(&bytes[..bytes.len() / 2]);
            return Err(injected(&tmp, Site::CkptTmpWrite, kind).into());
        }
        f.write_all(&bytes)
            .map_err(|e| RecoveryError::io(&tmp, e))?;
        probe(Site::CkptFsync, &tmp)?;
        f.sync_data().map_err(|e| RecoveryError::io(&tmp, e))?;
    }
    probe(Site::CkptRename, &path)?;
    std::fs::rename(&tmp, &path).map_err(|e| RecoveryError::io(&path, e))?;
    if let Some(kind) = finecc_chaos::fault_at(Site::CkptDirFsync) {
        if kind == FaultKind::Crash {
            // The power cut the directory fsync exists to defend
            // against: the rename reached the page cache but not the
            // disk, so after the "reboot" the dirent is gone.
            let _ = std::fs::remove_file(&path);
        }
        return Err(injected(&path, Site::CkptDirFsync, kind).into());
    }
    crate::log::fsync_dir(dir).map_err(|e| RecoveryError::io(dir, e))?;
    Ok(path)
}

/// Removes all but the newest `keep` checkpoints (at least one is
/// always kept). Returns how many files were removed. Callers sequence
/// this strictly *after* [`write()`] returns — i.e. after the newer
/// checkpoint's rename is directory-fsynced — so a crash anywhere in
/// between still leaves a durable checkpoint on disk.
pub fn retain(dir: &Path, keep: usize) -> io::Result<u64> {
    let all = list(dir)?;
    let keep = keep.max(1);
    if all.len() <= keep {
        return Ok(0);
    }
    let mut removed = 0;
    for (_, path) in &all[..all.len() - keep] {
        std::fs::remove_file(path).map_err(|e| RecoveryError::io(path, e))?;
        removed += 1;
    }
    crate::log::fsync_dir(dir)?;
    Ok(removed)
}

/// Deletes stale `checkpoint-*.ckpt.tmp` files — a crash between the
/// temp-file create and the rename leaves one behind forever otherwise.
/// Runs on every [`crate::Wal::open`]. Returns how many were removed.
pub fn remove_stale_tmp(dir: &Path) -> io::Result<u64> {
    let mut removed = 0;
    if !dir.exists() {
        return Ok(0);
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("checkpoint-") && name.ends_with(".ckpt.tmp") {
            std::fs::remove_file(entry.path())?;
            removed += 1;
        }
    }
    if removed > 0 {
        crate::log::fsync_dir(dir)?;
    }
    Ok(removed)
}

/// Lists checkpoint files in a directory, ascending by timestamp.
pub fn list(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(ts) = name
            .strip_prefix("checkpoint-")
            .and_then(|s| s.strip_suffix(".ckpt"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        out.push((ts, entry.path()));
    }
    out.sort_unstable_by_key(|&(ts, _)| ts);
    Ok(out)
}

/// Loads the newest checkpoint that validates (a torn or corrupt
/// newest file falls back to the one before it). `None` if the
/// directory holds no checkpoint at all; if checkpoints exist but
/// *none* validates, the newest one's corruption is the error.
///
/// Each candidate read carries a fault probe at
/// [`Site::RecoverCkptDecode`],
/// so chaos scenarios can fail or crash recovery before it has a base
/// image.
pub fn read_latest(dir: &Path) -> Result<Option<CheckpointImage>, RecoveryError> {
    let mut first_corrupt: Option<RecoveryError> = None;
    for (_, path) in list(dir)
        .map_err(|e| RecoveryError::io(dir, e))?
        .into_iter()
        .rev()
    {
        probe(Site::RecoverCkptDecode, &path)?;
        let mut bytes = Vec::new();
        std::fs::File::open(&path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| RecoveryError::io(&path, e))?;
        match decode(&bytes) {
            Ok(img) => return Ok(Some(img)),
            Err(e) => {
                first_corrupt.get_or_insert(RecoveryError::CorruptCheckpoint {
                    file: path,
                    what: e.to_string(),
                });
                continue;
            }
        }
    }
    match first_corrupt {
        Some(e) => Err(e),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use finecc_model::FieldId;

    fn sample_schema() -> Schema {
        let mut b = SchemaBuilder::new();
        b.class("base")
            .field("x", FieldType::Int)
            .ref_field("link", "sub")
            .method("m1", &["p1"]);
        b.class("sub")
            .inherits("base")
            .field("s", FieldType::Str)
            .field("f", FieldType::Float)
            .method("m1", &["p1"])
            .method("m2", &[]);
        b.class("other").field("b", FieldType::Bool);
        b.finish().unwrap()
    }

    #[test]
    fn schema_rebuild_preserves_ids() {
        let schema = sample_schema();
        let mut body = Vec::new();
        encode_schema(&mut body, &schema);
        let rebuilt = decode_schema(&mut Cursor::new(&body)).unwrap();
        assert_eq!(rebuilt.class_count(), schema.class_count());
        assert_eq!(rebuilt.field_count(), schema.field_count());
        assert_eq!(rebuilt.method_count(), schema.method_count());
        for ci in schema.classes() {
            let rid = rebuilt.class_by_name(&ci.name).unwrap();
            assert_eq!(rid, ci.id, "class ids deterministic");
            assert_eq!(rebuilt.class(rid).all_fields, ci.all_fields);
            for &f in &ci.own_fields {
                let fi = schema.field(f);
                assert_eq!(rebuilt.resolve_field(rid, &fi.name), Some(f));
                assert_eq!(rebuilt.field(f).ty, fi.ty);
            }
        }
    }

    #[test]
    fn checkpoint_roundtrip_atomic_write() {
        let schema = sample_schema();
        let sub = schema.class_by_name("sub").unwrap();
        let data = CheckpointData {
            ckpt_ts: 17,
            replay_from: 18,
            next_oid: 42,
            schema: &schema,
            instances: vec![InstanceImage {
                oid: Oid(3),
                class: sub,
                values: vec![
                    Value::Int(1),
                    Value::Ref(Oid(3)),
                    Value::str("hey"),
                    Value::Float(2.5),
                ],
            }],
        };
        let dir = std::env::temp_dir().join(format!("finecc-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = write(&dir, &data).unwrap();
        assert!(path.ends_with(file_name(17)));
        assert!(
            std::fs::read_dir(&dir).unwrap().count() == 1,
            "no temp left"
        );
        let img = read_latest(&dir).unwrap().unwrap();
        assert_eq!(img.ckpt_ts, 17);
        assert_eq!(img.replay_from, 18);
        assert_eq!(img.next_oid, 42);
        assert_eq!(img.instances, data.instances);
        assert_eq!(
            img.schema.resolve_field(sub, "s"),
            schema.resolve_field(sub, "s")
        );
        // A corrupt newer checkpoint falls back to the intact one.
        std::fs::write(dir.join(file_name(99)), b"garbage").unwrap();
        let img = read_latest(&dir).unwrap().unwrap();
        assert_eq!(img.ckpt_ts, 17);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn field_id_stability_matters_for_log_replay() {
        // The property recovery rests on: a FieldId recorded in the log
        // resolves to the same declared field after rebuild.
        let schema = sample_schema();
        let mut body = Vec::new();
        encode_schema(&mut body, &schema);
        let rebuilt = decode_schema(&mut Cursor::new(&body)).unwrap();
        let base = schema.class_by_name("base").unwrap();
        let x: FieldId = schema.resolve_field(base, "x").unwrap();
        assert_eq!(rebuilt.field(x).name, "x");
    }
}
