//! Property tests over the append pipeline (staging buffer, paced
//! flusher, LSN acks): random scripts of appends from one to four
//! threads at both durability levels, interleaved with `sync`,
//! `truncate_below` and reopen, must leave a log that holds every
//! acked record exactly once, each thread's records in its program
//! order, every frame intact, and `log_bytes` equal to what the file
//! grew by; with write and fsync faults injected into the flusher the
//! on-disk log must be exactly the acked prefix and exactly the
//! waiters of a failed batch must have seen an error; and appends
//! nobody waits on must not wake the flusher.

use finecc_chaos::{ChaosConfig, FaultKind, FaultPlan, FaultSpec, Site};
use finecc_model::{ClassId, FieldId, Oid, TxnId, Value};
use finecc_store::FieldImage;
use finecc_wal::{DurabilityLevel, FrameStream, Wal, WalConfig};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("finecc-wal-props-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One step of a thread's script.
#[derive(Clone, Debug)]
enum Op {
    /// A commit record of `writes` field images (one of each value
    /// kind in turn), the strings `pad` bytes long.
    Commit {
        writes: usize,
        pad: usize,
    },
    Skip,
    Create,
    Delete,
    Sync,
    /// `truncate_below` at the timestamp `back` draws behind the
    /// newest.
    Truncate {
        back: u64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..4, 0usize..3000).prop_map(|(writes, pad)| Op::Commit { writes, pad }),
        (0usize..4, 0usize..40).prop_map(|(writes, pad)| Op::Commit { writes, pad }),
        (0usize..2, 0usize..40).prop_map(|(writes, pad)| Op::Commit { writes, pad }),
        (0u8..1).prop_map(|_| Op::Skip),
        (0u8..1).prop_map(|_| Op::Create),
        (0u8..1).prop_map(|_| Op::Delete),
        (0u8..1).prop_map(|_| Op::Sync),
        (0u64..30).prop_map(|back| Op::Truncate { back }),
    ]
}

/// Phases of one to four concurrent thread scripts; the log is closed
/// and reopened between phases.
fn script_strategy() -> impl Strategy<Value = Vec<Vec<Vec<Op>>>> {
    let thread = proptest::collection::vec(op_strategy(), 0..40);
    let phase = proptest::collection::vec(thread, 1..5);
    proptest::collection::vec(phase, 1..4)
}

fn writes(n: usize, pad: usize, ts: u64) -> Vec<FieldImage> {
    (0..n)
        .map(|i| FieldImage {
            oid: Oid(ts),
            field: FieldId(i as u32),
            value: match (ts as usize + i) % 6 {
                0 => Value::Nil,
                1 => Value::Int(-(ts as i64)),
                2 => Value::Bool(i % 2 == 0),
                3 => Value::Float(ts as f64 / 3.0),
                4 => Value::str("s".repeat(pad)),
                _ => Value::Ref(Oid(ts + 1)),
            },
        })
        .collect()
}

/// The intact records' `order_ts` (every record of these tests draws a
/// unique one) in file order, and whether the file ends in a torn
/// frame.
fn read_log(dir: &Path) -> (Vec<u64>, bool) {
    let mut stream = FrameStream::open(&Wal::log_path(dir)).unwrap();
    let seen = stream
        .by_ref()
        .map(|frame| frame.unwrap().1.order_ts())
        .collect();
    (seen, stream.tail_torn())
}

fn log_len(dir: &Path) -> i64 {
    std::fs::metadata(Wal::log_path(dir)).map_or(0, |m| m.len()) as i64
}

/// Runs `op` for thread `t`; returns the timestamp of the record it
/// appended, if it appended one.
fn run_op(wal: &Wal, t: usize, op: &Op, next_ts: &AtomicU64, floor: &AtomicU64) -> Option<u64> {
    let draw = || next_ts.fetch_add(1, Ordering::Relaxed);
    match op {
        Op::Commit { writes: n, pad } => {
            let ts = draw();
            wal.append_commit(ts, TxnId(t as u64), &writes(*n, *pad, ts))
                .unwrap();
            Some(ts)
        }
        Op::Skip => {
            let ts = draw();
            wal.append_skip(ts).unwrap();
            Some(ts)
        }
        Op::Create => {
            let ts = draw();
            wal.append_create(ts, Oid(ts), ClassId(t as u32)).unwrap();
            Some(ts)
        }
        Op::Delete => {
            let ts = draw();
            wal.append_delete(ts, Oid(ts)).unwrap();
            Some(ts)
        }
        Op::Sync => {
            wal.sync().unwrap();
            None
        }
        Op::Truncate { back } => {
            let at = next_ts.load(Ordering::Relaxed).saturating_sub(*back);
            floor.fetch_max(at, Ordering::Relaxed);
            wal.truncate_below(at).unwrap();
            None
        }
    }
}

fn check_script(level: DurabilityLevel, phases: &[Vec<Vec<Op>>]) -> Result<(), TestCaseError> {
    let dir = tmpdir(&format!("script-{}", level.name()));
    let next_ts = AtomicU64::new(1);
    let floor = AtomicU64::new(0);
    // Every record appended so far, by owning thread slot, in program
    // order.
    let mut appended: Vec<Vec<u64>> = vec![Vec::new(); 4];
    for phase in phases {
        let len_before = log_len(&dir);
        let wal = Wal::open(
            &dir,
            WalConfig {
                level,
                ..WalConfig::default()
            },
        )
        .unwrap();
        // A fresh log starts with its 8-byte magic.
        let len_before = len_before.max(8);
        let per_thread: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = phase
                .iter()
                .enumerate()
                .map(|(t, ops)| {
                    let (wal, next_ts, floor) = (&wal, &next_ts, &floor);
                    s.spawn(move || {
                        ops.iter()
                            .filter_map(|op| run_op(wal, t, op, next_ts, floor))
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (t, ts) in per_thread.into_iter().enumerate() {
            appended[t].extend(ts);
        }
        // The counters are read before the drop that would flush the
        // tail; drain first so they cover it.
        wal.sync().unwrap();
        let stats = wal.stats().snapshot();
        drop(wal);
        prop_assert_eq!(stats.append_failures, 0);
        prop_assert_eq!(stats.queue_depth, 0);
        prop_assert_eq!(
            stats.log_bytes as i64 - stats.truncated_bytes as i64,
            log_len(&dir) - len_before
        );
        let (seen, torn) = read_log(&dir);
        prop_assert!(!torn, "torn frame in a cleanly closed log");
        let position: HashMap<u64, usize> = seen.iter().copied().zip(0..).collect();
        prop_assert_eq!(position.len(), seen.len(), "a record appears twice");
        let floor = floor.load(Ordering::Relaxed);
        for thread in &appended {
            // Truncation may have removed what lies below the highest
            // floor; everything else is there, in program order.
            let mut kept = Vec::new();
            for ts in thread {
                match position.get(ts) {
                    Some(&at) => kept.push(at),
                    None => prop_assert!(*ts < floor, "record {} lost", ts),
                }
            }
            prop_assert!(kept.windows(2).all(|w| w[0] < w[1]), "program order broken");
        }
        let known: HashSet<u64> = appended.iter().flatten().copied().collect();
        prop_assert!(seen.iter().all(|ts| known.contains(ts)));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// A fault script: how many threads append how many commits each, and
/// where the flusher's fault plane strikes.
#[derive(Clone, Debug)]
struct FaultScript {
    level: DurabilityLevel,
    threads: usize,
    appends: usize,
    faults: Vec<FaultSpec>,
}

fn fault_script_strategy() -> impl Strategy<Value = FaultScript> {
    let fault = (0u8..2, 0u64..6, 0u8..3).prop_map(|(site, nth, kind)| {
        FaultSpec::once(
            [Site::WalFlushWrite, Site::WalFlushFsync][site as usize],
            nth,
            // Two in three faults are transient, so most scripts see
            // the log carry on after a failed batch.
            [FaultKind::IoError, FaultKind::IoError, FaultKind::Crash][kind as usize],
        )
    });
    (
        0u8..2,
        1usize..5,
        1usize..40,
        proptest::collection::vec(fault, 1..4),
    )
        .prop_map(|(level, threads, appends, faults)| FaultScript {
            level: [DurabilityLevel::Wal, DurabilityLevel::WalSync][level as usize],
            threads,
            appends,
            faults,
        })
}

fn check_faults(script: &FaultScript) -> Result<(), TestCaseError> {
    let dir = tmpdir("faults");
    let handle = finecc_chaos::install(ChaosConfig {
        faults: FaultPlan::of(script.faults.clone()),
        ..ChaosConfig::default()
    });
    // Opened on the installing thread: the flusher probes through the
    // token captured here.
    let wal = Wal::open(
        &dir,
        WalConfig {
            level: script.level,
            ..WalConfig::default()
        },
    )
    .unwrap();
    // Per thread: each append's timestamp and whether it was acked; a
    // thread ends its script with a `sync`, whose verdict is kept too.
    let results: Vec<(Vec<(u64, bool)>, bool)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..script.threads)
            .map(|t| {
                let wal = &wal;
                s.spawn(move || {
                    let appends = (0..script.appends)
                        .map(|i| {
                            let ts = (1 + t * script.appends + i) as u64;
                            let acked = wal
                                .append_commit(ts, TxnId(t as u64), &writes(2, 16, ts))
                                .is_ok();
                            (ts, acked)
                        })
                        .collect();
                    (appends, wal.sync().is_ok())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let stats = wal.stats().snapshot();
    let crashed = finecc_chaos::crashed();
    drop(wal);
    drop(handle);

    let (seen, torn) = read_log(&dir);
    prop_assert!(!torn || crashed, "only a crash tears the tail");
    let on_disk: HashSet<u64> = seen.iter().copied().collect();
    prop_assert_eq!(on_disk.len(), seen.len(), "a record appears twice");
    let acked: HashSet<u64> = results
        .iter()
        .flat_map(|(appends, _)| appends.iter().filter(|(_, ok)| *ok).map(|(ts, _)| *ts))
        .collect();
    let refused = script.threads * script.appends - acked.len();
    if script.level == DurabilityLevel::WalSync {
        // Every commit waits for its batch: the disk holds exactly
        // what was acked, and without a crash exactly the records of
        // failed batches were refused (a poisoned log also refuses up
        // front, which `append_failures` does not count).
        prop_assert_eq!(&on_disk, &acked);
        if crashed {
            prop_assert!(refused as u64 >= stats.append_failures);
        } else {
            prop_assert_eq!(refused as u64, stats.append_failures);
        }
    } else {
        // Nothing waits on a commit: a record is refused only by a
        // poisoned log, and the disk holds the acked records minus the
        // failed batches'.
        prop_assert!(refused == 0 || crashed);
        prop_assert!(on_disk.is_subset(&acked));
        let kept = acked.len() as u64 - stats.append_failures;
        if crashed {
            // A poisoned log drops what was staged but not yet written
            // without counting it.
            prop_assert!(on_disk.len() as u64 <= kept);
        } else {
            prop_assert_eq!(on_disk.len() as u64, kept);
        }
        // A `sync` that succeeded was not in a failed batch, so at
        // least one batch after the last failure made it.
        if !crashed && results.iter().all(|(_, synced)| *synced) {
            prop_assert!(stats.log_fsyncs >= 1);
        }
    }
    for (appends, _) in &results {
        let order: Vec<usize> = appends
            .iter()
            .filter_map(|(ts, _)| seen.iter().position(|s| s == ts))
            .collect();
        prop_assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "program order broken"
        );
    }
    // The next open truncates whatever the crash tore and resumes.
    let wal = Wal::open(&dir, WalConfig::default()).unwrap();
    wal.append_skip(u64::MAX).unwrap();
    drop(wal);
    let (resumed, torn) = read_log(&dir);
    prop_assert!(!torn);
    prop_assert_eq!(resumed.len(), seen.len() + 1);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn scripts_keep_every_acked_record_once_in_program_order(phases in script_strategy()) {
        for level in [DurabilityLevel::Wal, DurabilityLevel::WalSync] {
            check_script(level, &phases)?;
        }
    }

    #[test]
    fn flusher_faults_leave_exactly_the_acked_prefix(script in fault_script_strategy()) {
        check_faults(&script)?;
    }
}

/// The per-record poke must not come back unnoticed: 100,000 commits
/// nobody waits on wake the flusher for fewer than one in a hundred —
/// only out of an idle sleep or on a full staging buffer; the tick does
/// the rest.
#[test]
fn async_appends_leave_the_flusher_to_its_tick() {
    let dir = tmpdir("wakes");
    let wal = Wal::open(
        &dir,
        WalConfig {
            level: DurabilityLevel::Wal,
            ..WalConfig::default()
        },
    )
    .unwrap();
    let image = writes(1, 0, 1);
    for ts in 1..=100_000u64 {
        wal.append_commit(ts, TxnId(ts), &image).unwrap();
    }
    wal.sync().unwrap();
    let s = wal.stats().snapshot();
    assert_eq!(s.appends, 100_000);
    assert_eq!(s.group_commit_records, 100_000);
    assert!(s.flusher_wakes < 1_000, "{} wakes", s.flusher_wakes);
    assert!(s.group_commit_batches < 10_000, "{s:?}");
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}
