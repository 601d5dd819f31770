//! The WAL recovery property, fuzzed: **replaying any byte prefix of a valid
//! segment recovers exactly a committed-batch prefix — never a partial batch,
//! never a reordered op**, and no mutation of a log directory makes recovery
//! panic or invent a batch. This is the invariant every crash point (real
//! `kill -9`, injected torn write, failed fsync) reduces to, so it is tested
//! directly over hundreds of randomized prefixes, bit-flips, fault-injected
//! logs and mutated directories.

use std::path::{Path, PathBuf};
use wcoj_storage::wal::{crc32, replay_bytes_from};
use wcoj_storage::{
    gc_checkpoint, recover_dir, write_checkpoint, DirRecovery, FaultPlan, SegmentedWal,
    StorageError, WalOp,
};

/// SplitMix64 (Steele et al. 2014) — local copy so the storage crate's tests
/// stay dependency-free.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// A fresh (absent) log directory.
fn temp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("wcoj-walrec-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// Recover `dir` and open its writer under `fault`.
fn open(dir: &Path, segment_bytes: u64, fault: FaultPlan) -> (DirRecovery, SegmentedWal) {
    let rec = recover_dir(dir).unwrap();
    let w = SegmentedWal::open(dir, &rec, segment_bytes, fault).unwrap();
    (rec, w)
}

/// One durable batch through the log's only write path.
fn append_synced(w: &mut SegmentedWal, ops: &[WalOp]) -> Result<u64, StorageError> {
    let seq = w.commit_batch_unsynced(ops)?;
    w.sync()?;
    w.maybe_rotate()?;
    Ok(seq)
}

fn random_batch(rng: &mut SplitMix64) -> Vec<WalOp> {
    (0..1 + rng.below(6))
        .map(|_| match rng.below(4) {
            0 => WalOp::Insert {
                relation: "E".into(),
                tuple: vec![rng.below(100), rng.below(100)],
            },
            1 => WalOp::Delete {
                relation: "edge_rel".into(),
                tuple: vec![rng.below(100), rng.below(100), rng.below(100)],
            },
            2 => WalOp::Seal {
                relation: "E".into(),
            },
            _ => WalOp::Compact {
                relation: "E".into(),
            },
        })
        .collect()
}

/// Write a valid one-segment log of `batches` variable-size batches and
/// return `wal.000001`'s bytes plus the oracle batch list.
fn build_log(seed: u64, batches: usize) -> (Vec<u8>, Vec<Vec<WalOp>>) {
    let dir = temp_dir(&format!("build-{seed}"));
    let (_, mut w) = open(&dir, u64::MAX, FaultPlan::default());
    let mut rng = SplitMix64(seed);
    let oracle: Vec<Vec<WalOp>> = (0..batches).map(|_| random_batch(&mut rng)).collect();
    for ops in &oracle {
        append_synced(&mut w, ops).unwrap();
    }
    drop(w);
    let bytes = std::fs::read(dir.join("wal.000001")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    (bytes, oracle)
}

/// Assert the core property for one byte image: the recovered batches are a
/// complete prefix of `oracle`, and re-replaying the durable prefix is a
/// fixpoint.
fn assert_committed_prefix(bytes: &[u8], oracle: &[Vec<WalOp>], what: &str) {
    let replayed = replay_bytes_from(bytes, 1);
    let k = replayed.batches.len();
    assert!(k <= oracle.len(), "{what}: more batches than ever written");
    assert_eq!(
        replayed.batches[..],
        oracle[..k],
        "{what}: recovered batches are not the committed prefix"
    );
    assert!(
        replayed.valid_bytes <= bytes.len() as u64,
        "{what}: durable prefix exceeds the image"
    );
    // idempotence: replaying the durable prefix recovers the same batches
    // cleanly (no torn tail the second time)
    let again = replay_bytes_from(&bytes[..replayed.valid_bytes as usize], 1);
    assert_eq!(again.batches, replayed.batches, "{what}: not a fixpoint");
    assert!(!again.torn(), "{what}: durable prefix still torn");
}

#[test]
fn every_byte_prefix_recovers_exactly_a_committed_batch_prefix() {
    let (bytes, oracle) = build_log(0xA11CE, 40);
    // 128 random crash points plus both endpoints and every boundary ±1 of
    // the first few records — over 130 distinct prefixes
    let mut rng = SplitMix64(0xBEEF);
    let mut cuts: Vec<usize> = (0..128)
        .map(|_| rng.below(bytes.len() as u64 + 1) as usize)
        .collect();
    cuts.extend([0, 1, 7, 8, 9, bytes.len() - 1, bytes.len()]);
    for cut in cuts {
        assert_committed_prefix(&bytes[..cut], &oracle, &format!("prefix {cut}"));
    }
}

#[test]
fn random_bit_flips_still_recover_a_committed_prefix() {
    let (bytes, oracle) = build_log(0xF00D, 30);
    let mut rng = SplitMix64(0xD00F);
    for i in 0..48 {
        let mut mutated = bytes.clone();
        let at = rng.below(bytes.len() as u64) as usize;
        mutated[at] ^= 1 << rng.below(8);
        // a flip can invalidate any record at-or-after `at`; everything
        // before it must still replay as a committed prefix. (A flipped
        // *length* field can make a later commit marker parse as garbage, a
        // flipped payload fails the CRC — either way replay must stop at a
        // batch boundary at or before the flip.)
        let replayed = replay_bytes_from(&mutated, 1);
        let k = replayed.batches.len();
        assert!(k <= oracle.len());
        assert_eq!(
            replayed.batches[..],
            oracle[..k],
            "flip #{i} at byte {at}: surviving batches diverge"
        );
    }
}

#[test]
fn torn_write_faults_at_random_offsets_recover_like_byte_prefixes() {
    let mut rng = SplitMix64(0x7EA4);
    for round in 0..24 {
        let dir = temp_dir(&format!("torn-{round}"));
        let fault = FaultPlan {
            torn_write_at: Some(16 + rng.below(900)),
            ..FaultPlan::default()
        };
        // small segments, so the absolute byte ruler crosses rotations
        let (_, mut w) = open(&dir, 256, fault);
        let mut oracle = Vec::new();
        for _ in 0..40 {
            let ops: Vec<WalOp> = (0..1 + rng.below(4))
                .map(|_| WalOp::Insert {
                    relation: "E".into(),
                    tuple: vec![rng.below(64), rng.below(64)],
                })
                .collect();
            if append_synced(&mut w, &ops).is_err() {
                break; // the injected tear fired inside this batch's write
            }
            oracle.push(ops);
        }
        assert!(w.is_poisoned(), "round {round}: the tear never fired");
        drop(w);

        // the torn batch was never acknowledged and cannot have a marker:
        // recovery yields exactly the acknowledged batches, the log is the
        // durable prefix, and a fresh writer resumes contiguously
        let (rec, mut w) = open(&dir, 256, FaultPlan::default());
        assert_eq!(rec.tail, oracle, "round {round}: not the committed prefix");
        let k = oracle.len() as u64;
        let seal = WalOp::Seal {
            relation: "E".into(),
        };
        assert_eq!(append_synced(&mut w, &[seal]).unwrap(), k + 1);
        drop(w);
        let clean = recover_dir(&dir).unwrap();
        assert_eq!(clean.committed, k + 1);
        assert!(!clean.torn);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn failed_fsyncs_never_surface_a_partial_batch() {
    let mut rng = SplitMix64(0x5EED);
    for round in 0..12 {
        let dir = temp_dir(&format!("fsync-{round}"));
        let fault = FaultPlan {
            fail_fsync_at: Some(1 + rng.below(8)),
            ..FaultPlan::default()
        };
        let (_, mut w) = open(&dir, 128, fault);
        let mut acked = Vec::new();
        for _ in 0..10 {
            let ops = vec![WalOp::Insert {
                relation: "E".into(),
                tuple: vec![rng.below(64), rng.below(64)],
            }];
            match append_synced(&mut w, &ops) {
                Ok(_) => acked.push(ops),
                Err(_) => break, // this batch's durability was never acked
            }
        }
        assert!(w.is_poisoned());
        drop(w);

        // every *acknowledged* batch must survive; the unacked one may or may
        // not (its bytes can have reached the disk) — but nothing partial and
        // nothing beyond it
        let rec = recover_dir(&dir).unwrap();
        let k = rec.tail.len();
        assert!(k >= acked.len(), "round {round}: an acked batch vanished");
        assert!(k <= acked.len() + 1, "round {round}: phantom batches");
        assert_eq!(rec.tail[..acked.len()], acked[..]);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Append an op frame with no commit marker behind it to `segment` — the
/// bytes a crash mid-batch leaves.
fn splice_uncommitted(segment: &Path, op: &WalOp) {
    let payload = op.encode().unwrap();
    let mut bytes = std::fs::read(segment).unwrap();
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    std::fs::write(segment, bytes).unwrap();
}

/// The files of `dir` whose name starts with `prefix`, by name.
fn files(dir: &Path, prefix: &str) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_str().unwrap();
            name.starts_with(prefix)
        })
        .collect();
    out.sort();
    out
}

/// No mutation of a log directory makes recovery panic or invent a batch:
/// whatever survives is a contiguous run of the oracle's batches after the
/// checkpoint it chose, and the directory recovery leaves behind takes one
/// more batch and recovers contiguously again.
#[test]
fn mutated_directories_recover_a_contiguous_oracle_prefix_or_a_typed_error() {
    const BATCHES: usize = 48;
    let template = temp_dir("mutate-template");
    let mut rng = SplitMix64(0xD1A);
    let oracle: Vec<Vec<WalOp>> = (0..BATCHES).map(|_| random_batch(&mut rng)).collect();
    let (_, mut w) = open(&template, 192, FaultPlan::default());
    for (i, ops) in oracle.iter().enumerate() {
        let seq = append_synced(&mut w, ops).unwrap();
        // two checkpoints; only the first is followed by GC, so the chain
        // keeps segments on both sides of the newer one
        if i == 15 || i == 31 {
            let state = vec![("E".to_string(), seq.to_le_bytes().to_vec())];
            write_checkpoint(&template, seq, &state, &FaultPlan::default()).unwrap();
        }
        if i == 15 {
            gc_checkpoint(&template, seq).unwrap();
        }
    }
    drop(w);
    splice_uncommitted(
        files(&template, "wal.").last().unwrap(),
        &WalOp::Seal {
            relation: "E".into(),
        },
    );
    assert!(files(&template, "wal.").len() >= 5, "a multi-segment chain");
    assert_eq!(files(&template, "ckpt.").len(), 2);

    let scratch = temp_dir("mutate-scratch");
    for round in 0..200 {
        std::fs::remove_dir_all(&scratch).ok();
        std::fs::create_dir_all(&scratch).unwrap();
        for file in files(&template, "") {
            std::fs::copy(&file, scratch.join(file.file_name().unwrap())).unwrap();
        }
        let segments = files(&scratch, "wal.");
        let all = files(&scratch, "");
        let victim = &all[rng.below(all.len() as u64) as usize];
        let len = std::fs::metadata(victim).unwrap().len();
        let what = match rng.below(5) {
            0 => {
                let keep = rng.below(len + 1);
                let f = std::fs::OpenOptions::new().write(true).open(victim);
                f.unwrap().set_len(keep).unwrap();
                format!("truncate {victim:?} to {keep}")
            }
            1 if len > 0 => {
                let mut bytes = std::fs::read(victim).unwrap();
                let at = rng.below(len) as usize;
                bytes[at] ^= 1 << rng.below(8);
                std::fs::write(victim, bytes).unwrap();
                format!("flip a bit of byte {at} in {victim:?}")
            }
            2 => {
                let mut bytes = std::fs::read(victim).unwrap();
                bytes.extend((0..1 + rng.below(40)).map(|_| rng.next() as u8));
                std::fs::write(victim, bytes).unwrap();
                format!("extend {victim:?}")
            }
            3 => {
                let name = victim.file_name().unwrap().to_str().unwrap();
                let prefix = &name[..name.find('.').unwrap() + 1];
                let stray = [0, 1, 3, rng.below(BATCHES as u64 + 8), u64::MAX];
                let to = format!("{prefix}{:06}", stray[rng.below(5) as usize]);
                std::fs::rename(victim, scratch.join(&to)).unwrap();
                format!("rename {victim:?} to {to}")
            }
            _ => {
                let middle = &segments[1 + rng.below(segments.len() as u64 - 2) as usize];
                std::fs::remove_file(middle).unwrap();
                format!("delete middle segment {middle:?}")
            }
        };
        let what = format!("round {round}: {what}");

        // a typed error is an acceptable answer; a panic is not
        let Ok(rec) = recover_dir(&scratch) else {
            continue;
        };
        let ckpt = rec.checkpoint_seq() as usize;
        assert!(
            rec.committed as usize <= BATCHES,
            "{what}: invented batches"
        );
        assert_eq!(rec.committed as usize, ckpt + rec.tail.len(), "{what}");
        assert_eq!(
            rec.tail[..],
            oracle[ckpt..rec.committed as usize],
            "{what}: the tail is not the oracle's batches after the checkpoint"
        );
        if let Some(c) = &rec.checkpoint {
            let state = vec![("E".to_string(), c.seq.to_le_bytes().to_vec())];
            assert_eq!(c.relations, state, "{what}: checkpoint state");
        }

        // recovery left a directory the writer can resume in
        let extra = vec![WalOp::Insert {
            relation: "E".into(),
            tuple: vec![round, round],
        }];
        let mut w = SegmentedWal::open(&scratch, &rec, 192, FaultPlan::default()).unwrap();
        assert_eq!(
            append_synced(&mut w, &extra).unwrap(),
            rec.committed + 1,
            "{what}"
        );
        drop(w);
        let again = recover_dir(&scratch).unwrap();
        assert_eq!(
            again.committed,
            rec.committed + 1,
            "{what}: second recovery"
        );
        assert_eq!(again.checkpoint_seq(), rec.checkpoint_seq(), "{what}");
        assert_eq!(again.tail.last(), Some(&extra), "{what}");
        assert_eq!(again.tail[..rec.tail.len()], rec.tail[..], "{what}");
    }
    std::fs::remove_dir_all(&template).ok();
    std::fs::remove_dir_all(&scratch).ok();
}
