//! Write-ahead logging for delta relations — the **record format**: ops,
//! framing, checksums, the pure replay scan, and the fault plan. The log
//! itself (the directory of segments, its one writer, checkpoints, recovery)
//! is [`segmented`].
//!
//! A [`DeltaRelation`](crate::DeltaRelation)'s append buffer lives only in
//! memory, so a crash mid-ingest silently loses every operation since the last
//! materialization. The classical fix: every mutation
//! (`insert`/`delete`/`seal`) is encoded as a [`WalOp`] and appended
//! to a per-database log **before** it is applied in memory, and batches are
//! bounded by an explicit commit marker. The format is deliberately boring:
//!
//! ```text
//! record   := [payload_len: u32 LE] [crc32(payload): u32 LE] [payload]
//! payload  := op_tag: u8, op-specific fields (names length-prefixed, values u64 LE)
//! batch    := record*  commit-record(seq)
//! ```
//!
//! * **Torn tails are expected, not fatal.** [`replay_bytes_from`] scans
//!   records until the first incomplete, over-long, checksum-failing, or
//!   undecodable record and returns exactly the batches whose commit marker
//!   was complete before that point — any byte prefix of a valid segment
//!   recovers the committed-batch prefix and never a partial batch
//!   (property-tested in `tests/wal_recovery.rs`).
//! * **Commit sequence numbers are contiguous** (1, 2, 3, …). A gap or
//!   repetition means the log was spliced rather than torn, and the scan stops
//!   there exactly like a torn tail rather than guessing.
//! * **Fault injection is first-class.** A [`FaultPlan`] — built by tests, or
//!   parsed by a binary from its `--fault` flag — deterministically fails the
//!   Nth fsync or tears a write at byte k, leaving the on-disk state exactly
//!   as a crash at that point would. The crash-recovery test suite and the CI
//!   chaos legs drive recovery through these hooks.
//!
//! The replay output is storage-agnostic (`Vec<Vec<WalOp>>`); applying it to a
//! catalog (`wcoj_query::Database`) lives with the service layer, which owns
//! both sides.

use crate::error::StorageError;
use crate::Value;

pub mod segmented;

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) lookup table,
/// generated at compile time — no dependency, no runtime init.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the per-record checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Records larger than this are treated as corruption: no legitimate op comes
/// close (the bound exists so a torn length field cannot ask replay to buffer
/// gigabytes).
const MAX_RECORD_BYTES: u32 = 1 << 26;

/// One logged mutation of a delta-backed relation, plus the batch commit
/// marker. The op carries everything replay needs to re-drive the public
/// `Database` mutation API; schemas are not logged — recovery starts from the
/// same catalog the writer started from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// `insert_delta(relation, tuple)`.
    Insert {
        /// Target relation name.
        relation: String,
        /// The inserted tuple.
        tuple: Vec<Value>,
    },
    /// `delete(relation, tuple)` (a tombstone append).
    Delete {
        /// Target relation name.
        relation: String,
        /// The deleted tuple.
        tuple: Vec<Value>,
    },
    /// `seal(relation)` — buffer merged into the relation's sorted run.
    Seal {
        /// Target relation name.
        relation: String,
    },
    /// Batch commit marker: everything since the previous marker is durable as
    /// one atomic unit. `seq` numbers batches contiguously from 1.
    Commit {
        /// 1-based contiguous batch sequence number.
        seq: u64,
    },
}

const TAG_INSERT: u8 = 0;
const TAG_DELETE: u8 = 1;
const TAG_SEAL: u8 = 2;
/// The tag of a full compaction, which logs no longer write: it merged every
/// run into one, which is what a seal does now, so it decodes as a seal.
const TAG_COMPACT: u8 = 3;
const TAG_COMMIT: u8 = 4;

/// `len` as the `u16` the record and checkpoint formats store a relation
/// name's byte length and a tuple's arity in; a longer one is refused, so an
/// encoder fails before it writes a byte instead of wrapping the field.
pub fn log_len(what: &'static str, len: usize) -> Result<u16, StorageError> {
    u16::try_from(len).map_err(|_| StorageError::TooLongForLog { what, len })
}

pub(crate) fn put_name(buf: &mut Vec<u8>, name: &str) -> Result<(), StorageError> {
    let bytes = name.as_bytes();
    buf.extend_from_slice(&log_len("relation name", bytes.len())?.to_le_bytes());
    buf.extend_from_slice(bytes);
    Ok(())
}

fn put_tuple(buf: &mut Vec<u8>, tuple: &[Value]) -> Result<(), StorageError> {
    buf.extend_from_slice(&log_len("tuple", tuple.len())?.to_le_bytes());
    for &v in tuple {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    Ok(())
}

/// A bounds-checked little-endian reader over one record or checkpoint
/// payload.
pub(crate) struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        PayloadReader { bytes, pos: 0 }
    }

    fn truncated(&self, n: usize) -> String {
        format!(
            "payload truncated: wanted {n} bytes at {}, have {}",
            self.pos,
            self.bytes.len() - self.pos
        )
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let taken = self.bytes[self.pos..]
            .get(..n)
            .ok_or_else(|| self.truncated(n))?;
        self.pos += n;
        Ok(taken)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let taken = self.bytes[self.pos..]
            .first_chunk()
            .ok_or_else(|| self.truncated(N))?;
        self.pos += N;
        Ok(*taken)
    }

    fn u16(&mut self) -> Result<u16, String> {
        self.array().map(u16::from_le_bytes)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        self.array().map(u64::from_le_bytes)
    }

    pub(crate) fn name(&mut self) -> Result<String, String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "relation name is not UTF-8".to_string())
    }

    fn tuple(&mut self) -> Result<Vec<Value>, String> {
        let arity = self.u16()? as usize;
        let mut tuple = Vec::with_capacity(arity);
        for _ in 0..arity {
            tuple.push(self.u64()?);
        }
        Ok(tuple)
    }

    /// The bytes not yet consumed.
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }

    pub(crate) fn done(&self) -> Result<(), String> {
        if self.pos != self.bytes.len() {
            return Err(format!(
                "trailing garbage: {} bytes",
                self.bytes.len() - self.pos
            ));
        }
        Ok(())
    }
}

impl WalOp {
    /// Encode the op as one record payload (tag + fields, no framing).
    /// Fails with [`StorageError::TooLongForLog`] on a relation name over
    /// 65 535 bytes or a tuple over 65 535 values.
    pub fn encode(&self) -> Result<Vec<u8>, StorageError> {
        let mut buf = Vec::with_capacity(32);
        match self {
            WalOp::Insert { relation, tuple } => {
                buf.push(TAG_INSERT);
                put_name(&mut buf, relation)?;
                put_tuple(&mut buf, tuple)?;
            }
            WalOp::Delete { relation, tuple } => {
                buf.push(TAG_DELETE);
                put_name(&mut buf, relation)?;
                put_tuple(&mut buf, tuple)?;
            }
            WalOp::Seal { relation } => {
                buf.push(TAG_SEAL);
                put_name(&mut buf, relation)?;
            }
            WalOp::Commit { seq } => {
                buf.push(TAG_COMMIT);
                buf.extend_from_slice(&seq.to_le_bytes());
            }
        }
        Ok(buf)
    }

    /// Decode one record payload. The error is a human-readable reason;
    /// [`replay_bytes_from`] treats any failure as a torn tail.
    pub fn decode(payload: &[u8]) -> Result<WalOp, String> {
        let mut r = PayloadReader::new(payload);
        let [tag] = r.array()?;
        let op = match tag {
            TAG_INSERT => WalOp::Insert {
                relation: r.name()?,
                tuple: r.tuple()?,
            },
            TAG_DELETE => WalOp::Delete {
                relation: r.name()?,
                tuple: r.tuple()?,
            },
            TAG_SEAL | TAG_COMPACT => WalOp::Seal {
                relation: r.name()?,
            },
            TAG_COMMIT => WalOp::Commit { seq: r.u64()? },
            other => return Err(format!("unknown op tag {other}")),
        };
        r.done()?;
        Ok(op)
    }

    /// The relation the op targets (`None` for commit markers).
    pub fn relation(&self) -> Option<&str> {
        match self {
            WalOp::Insert { relation, .. }
            | WalOp::Delete { relation, .. }
            | WalOp::Seal { relation } => Some(relation),
            WalOp::Commit { .. } => None,
        }
    }
}

/// Deterministic fault injection for the durability path, built directly by
/// tests or [parsed](FaultPlan::parse) from comma-separated directives (the
/// crash harness's `--fault` flag):
///
/// * `fsync_fail:N` — the Nth fsync (1-based) fails and poisons the writer;
/// * `torn:K` — the write that would carry the log past absolute byte offset
///   `K` stops at `K` (a torn write) and poisons the writer (the offset counts
///   across the surviving segments, oldest first);
/// * `ckpt_torn:K` — a checkpoint file write stops after `K` bytes, as a
///   crash mid-checkpoint would leave it (see [`segmented::write_checkpoint`]);
/// * `seal_delay:MS` — the service layer sleeps `MS` milliseconds before
///   applying a seal (widens the writer/reader race window in chaos tests).
///
/// Poisoning mirrors the only safe interpretation of a real fsync/write
/// failure: the log's durable tail is unknown, so every later append fails
/// until recovery truncates and reopens the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Fail the Nth fsync (1-based), then poison the writer.
    pub fail_fsync_at: Option<u64>,
    /// Tear the write crossing absolute byte offset `K`, then poison.
    pub torn_write_at: Option<u64>,
    /// Tear a checkpoint file write at byte `K` of the checkpoint file.
    pub ckpt_torn_at: Option<u64>,
    /// Milliseconds the service sleeps before applying a seal op.
    pub seal_delay_ms: Option<u64>,
}

impl FaultPlan {
    /// Parse a directive string (e.g. `"fsync_fail:2,torn:96"`).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for directive in spec.split(',') {
            let directive = directive.trim();
            if directive.is_empty() {
                continue;
            }
            let (key, value) = directive
                .split_once(':')
                .ok_or_else(|| format!("fault directive `{directive}` is missing `:value`"))?;
            let value: u64 = value
                .parse()
                .map_err(|_| format!("fault directive `{directive}` needs an integer value"))?;
            match key {
                "fsync_fail" => plan.fail_fsync_at = Some(value),
                "torn" => plan.torn_write_at = Some(value),
                "ckpt_torn" => plan.ckpt_torn_at = Some(value),
                "seal_delay" => plan.seal_delay_ms = Some(value),
                other => return Err(format!("unknown fault directive `{other}`")),
            }
        }
        Ok(plan)
    }
}

/// Append one length-prefixed, CRC-guarded frame for `op` to `buf`.
pub(crate) fn frame_into(buf: &mut Vec<u8>, op: &WalOp) -> Result<(), StorageError> {
    let payload = op.encode()?;
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(&payload).to_le_bytes());
    buf.extend_from_slice(&payload);
    Ok(())
}

/// What [`replay_bytes_from`] found in one segment's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReplay {
    /// The committed batches, in commit order; each batch's ops in log order.
    pub batches: Vec<Vec<WalOp>>,
    /// Byte offset just past the last commit marker — the durable prefix.
    pub valid_bytes: u64,
    /// Total image size; `valid_bytes < file_bytes` means a tail was dropped.
    pub file_bytes: u64,
    /// Why the tail (if any) was dropped: human-readable, `None` for a clean
    /// log that ends exactly on a commit marker.
    pub tail_reason: Option<String>,
}

impl WalReplay {
    /// Whether a torn/uncommitted tail was dropped.
    pub fn torn(&self) -> bool {
        self.valid_bytes < self.file_bytes
    }
}

/// Scan the committed batches out of one segment's bytes: `first_seq` is the
/// sequence its first commit marker must carry (the number in the segment's
/// file name), and every later marker continues from there. Pure — recovery
/// and the byte-level property tests share it.
pub fn replay_bytes_from(bytes: &[u8], first_seq: u64) -> WalReplay {
    let file_bytes = bytes.len() as u64;
    let mut batches = Vec::new();
    let mut pending: Vec<WalOp> = Vec::new();
    let mut valid_bytes = 0u64;
    let mut pos = 0usize;
    let mut tail_reason = None;
    loop {
        if pos == bytes.len() {
            if !pending.is_empty() {
                tail_reason = Some(format!("{} uncommitted trailing ops", pending.len()));
            }
            break;
        }
        let at = pos as u64;
        let Some(&[l0, l1, l2, l3, c0, c1, c2, c3]) = bytes[pos..].first_chunk() else {
            tail_reason = Some(format!("truncated record header at byte {at}"));
            break;
        };
        let len = u32::from_le_bytes([l0, l1, l2, l3]);
        let crc = u32::from_le_bytes([c0, c1, c2, c3]);
        if len > MAX_RECORD_BYTES {
            tail_reason = Some(format!("implausible record length {len} at byte {at}"));
            break;
        }
        if bytes.len() - pos - 8 < len as usize {
            tail_reason = Some(format!("truncated record body at byte {at}"));
            break;
        }
        let payload = &bytes[pos + 8..pos + 8 + len as usize];
        if crc32(payload) != crc {
            tail_reason = Some(format!("checksum mismatch at byte {at}"));
            break;
        }
        let op = match WalOp::decode(payload) {
            Ok(op) => op,
            Err(reason) => {
                tail_reason = Some(format!("undecodable record at byte {at}: {reason}"));
                break;
            }
        };
        pos += 8 + len as usize;
        match op {
            WalOp::Commit { seq } => {
                if first_seq.checked_add(batches.len() as u64) != Some(seq) {
                    tail_reason = Some(format!(
                        "commit sequence jumped to {seq} after {} batches at byte {at}",
                        batches.len()
                    ));
                    break;
                }
                batches.push(std::mem::take(&mut pending));
                valid_bytes = pos as u64;
            }
            op => pending.push(op),
        }
    }
    WalReplay {
        batches,
        valid_bytes,
        file_bytes,
        tail_reason,
    }
}

#[cfg(test)]
mod tests {
    use super::segmented::{recover_dir, write_checkpoint, DirRecovery, SegmentedWal};
    use super::*;
    use crate::error::StorageError;
    use std::path::{Path, PathBuf};

    fn temp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "wcoj-wal-{tag}-{}-{}",
            std::process::id(),
            crate::cache::next_stamp()
        ));
        p
    }

    fn ins(rel: &str, t: &[Value]) -> WalOp {
        WalOp::Insert {
            relation: rel.into(),
            tuple: t.to_vec(),
        }
    }

    /// Recover `dir` and open its writer (no rotation) under `fault`.
    fn open(dir: &Path, fault: FaultPlan) -> (DirRecovery, SegmentedWal) {
        let rec = recover_dir(dir).unwrap();
        let w = SegmentedWal::open(dir, &rec, u64::MAX, fault).unwrap();
        (rec, w)
    }

    /// One durable batch: the whole write path.
    fn append_synced(w: &mut SegmentedWal, ops: &[WalOp]) -> Result<u64, StorageError> {
        let seq = w.commit_batch_unsynced(ops)?;
        w.sync()?;
        Ok(seq)
    }

    /// The scan of the log's first segment.
    fn replay_first_segment(dir: &Path) -> WalReplay {
        replay_bytes_from(&std::fs::read(dir.join("wal.000001")).unwrap(), 1)
    }

    #[test]
    fn crc32_known_answer() {
        // the canonical IEEE CRC-32 check value
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn ops_roundtrip_through_encode_decode() {
        let ops = [
            ins("E", &[1, 2]),
            WalOp::Delete {
                relation: "edge_rel".into(),
                tuple: vec![7, 8, 9],
            },
            WalOp::Seal {
                relation: "E".into(),
            },
            WalOp::Commit { seq: 42 },
        ];
        for op in &ops {
            assert_eq!(&WalOp::decode(&op.encode().unwrap()).unwrap(), op);
        }
        // a compaction record, as logs once wrote it, replays as a seal
        let mut compact = ops[2].encode().unwrap();
        assert_eq!(compact[0], TAG_SEAL);
        compact[0] = TAG_COMPACT;
        assert_eq!(WalOp::decode(&compact).unwrap(), ops[2]);
        assert!(WalOp::decode(&[99]).is_err(), "unknown tag");
        assert!(WalOp::decode(&[]).is_err(), "empty payload");
        let mut trailing = ops[2].encode().unwrap();
        trailing.push(0);
        assert!(WalOp::decode(&trailing).is_err(), "trailing garbage");
    }

    #[test]
    fn lengths_over_u16_are_refused_before_a_byte_is_written() {
        let dir = temp_dir("too-long");
        let (_, mut w) = open(&dir, FaultPlan::default());
        append_synced(&mut w, &[ins("E", &[1, 2])]).unwrap();
        let long_name = "n".repeat(70_000);
        let wide = vec![7; 70_000];
        let refused = [
            (ins(&long_name, &[1, 2]), "relation name"),
            (ins("E", &wide), "tuple"),
            (
                WalOp::Seal {
                    relation: long_name.clone(),
                },
                "relation name",
            ),
        ];
        let (bytes, committed) = (w.total_bytes(), w.committed());
        for (op, what) in &refused {
            let expected = StorageError::TooLongForLog { what, len: 70_000 };
            assert_eq!(op.encode(), Err(expected.clone()));
            // behind a good op in the same batch: still nothing is written
            let batch = [ins("E", &[3, 4]), op.clone()];
            assert_eq!(w.commit_batch_unsynced(&batch), Err(expected));
            assert!(!w.is_poisoned(), "{what}");
            assert_eq!((w.total_bytes(), w.committed()), (bytes, committed));
        }
        // the largest lengths that fit still round-trip
        let widest = WalOp::Delete {
            relation: "n".repeat(u16::MAX as usize),
            tuple: vec![9; u16::MAX as usize],
        };
        assert_eq!(WalOp::decode(&widest.encode().unwrap()).unwrap(), widest);
        assert_eq!(append_synced(&mut w, &[ins("E", &[5, 6])]).unwrap(), 2);
        let replayed = replay_first_segment(&dir);
        assert_eq!(replayed.batches.len(), 2);
        assert!(!replayed.torn());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_then_replay_roundtrips_batches() {
        let dir = temp_dir("roundtrip");
        let (_, mut w) = open(&dir, FaultPlan::default());
        let first = [ins("E", &[1, 2]), ins("E", &[3, 4])];
        assert_eq!(append_synced(&mut w, &first).unwrap(), 1);
        let seal = WalOp::Seal {
            relation: "E".into(),
        };
        assert_eq!(append_synced(&mut w, &[seal]).unwrap(), 2);
        // empty batch: no marker, sequence unchanged
        assert_eq!(append_synced(&mut w, &[]).unwrap(), 2);
        // a commit marker is the writer's to place, never the caller's
        assert!(w
            .commit_batch_unsynced(&[WalOp::Commit { seq: 3 }])
            .is_err());

        let replayed = replay_first_segment(&dir);
        assert_eq!(replayed.batches.len(), 2);
        assert_eq!(replayed.batches[0], first);
        assert!(!replayed.torn());
        assert_eq!(replayed.tail_reason, None);
        assert_eq!(replayed.batches[1].len(), 1);
        assert_eq!(replayed.file_bytes, w.total_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncommitted_tail_is_dropped_and_recover_truncates() {
        let dir = temp_dir("tail");
        let (_, mut w) = open(&dir, FaultPlan::default());
        append_synced(&mut w, &[ins("E", &[1, 2])]).unwrap();
        let durable = w.total_bytes();
        drop(w);
        // a crash mid-batch: the op frame is on disk, its marker is not
        let segment = dir.join("wal.000001");
        let mut bytes = std::fs::read(&segment).unwrap();
        frame_into(&mut bytes, &ins("E", &[5, 6])).unwrap();
        std::fs::write(&segment, &bytes).unwrap();

        let (rec, mut w) = open(&dir, FaultPlan::default());
        assert_eq!(rec.tail, vec![vec![ins("E", &[1, 2])]]);
        assert!(rec.torn);
        assert!(rec.tail_reason.unwrap().contains("uncommitted"));
        // after recovery the segment ends exactly on the commit marker and
        // the writer resumes with a contiguous sequence
        assert_eq!(std::fs::metadata(&segment).unwrap().len(), durable);
        assert_eq!(append_synced(&mut w, &[ins("E", &[7, 8])]).unwrap(), 2);
        let replayed = replay_first_segment(&dir);
        assert_eq!(replayed.batches.len(), 2);
        assert!(!replayed.torn());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_byte_truncates_from_there() {
        let dir = temp_dir("corrupt");
        let (_, mut w) = open(&dir, FaultPlan::default());
        for i in 0..4u64 {
            append_synced(&mut w, &[ins("E", &[i, i + 1])]).unwrap();
        }
        let clean = replay_first_segment(&dir);
        assert_eq!(clean.batches.len(), 4);
        let mut bytes = std::fs::read(dir.join("wal.000001")).unwrap();
        // flip a byte inside batch 3's record
        let target = (clean.valid_bytes / 2) as usize;
        bytes[target] ^= 0xFF;
        let replayed = replay_bytes_from(&bytes, 1);
        assert!(replayed.batches.len() < 4);
        assert!(replayed.torn() || replayed.tail_reason.is_some());
        // the surviving batches are a strict prefix of the clean ones
        assert_eq!(
            replayed.batches[..],
            clean.batches[..replayed.batches.len()]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_fsync_failure_poisons_the_writer() {
        let dir = temp_dir("fsync-fault");
        let (_, mut w) = open(&dir, FaultPlan::parse("fsync_fail:2").unwrap());
        assert_eq!(append_synced(&mut w, &[ins("E", &[1, 2])]).unwrap(), 1);
        let err = append_synced(&mut w, &[ins("E", &[3, 4])]).unwrap_err();
        assert!(matches!(err, StorageError::FaultInjected(_)), "{err}");
        assert!(w.is_poisoned());
        assert!(
            w.commit_batch_unsynced(&[ins("E", &[5, 6])]).is_err(),
            "poisoned writer"
        );
        assert!(w.sync().is_err(), "poisoned writer");
        // batch 2's marker reached the file but its durability was never
        // acknowledged; replay may surface it or not — what recovery must
        // guarantee is that batch 1 survives and nothing partial appears
        let rec = recover_dir(&dir).unwrap();
        assert!(!rec.tail.is_empty());
        assert_eq!(rec.tail[0], vec![ins("E", &[1, 2])]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_torn_write_truncates_mid_record() {
        let dir = temp_dir("torn-fault");
        let (_, mut w) = open(&dir, FaultPlan::default());
        append_synced(&mut w, &[ins("E", &[1, 2])]).unwrap();
        let cut = w.total_bytes() + 5; // mid-way through the next record
        drop(w);
        let (_, mut w) = open(
            &dir,
            FaultPlan {
                torn_write_at: Some(cut),
                ..FaultPlan::default()
            },
        );
        let err = w.commit_batch_unsynced(&[ins("E", &[3, 4])]).unwrap_err();
        assert!(matches!(err, StorageError::FaultInjected(_)), "{err}");
        assert!(w.is_poisoned());
        let segment = dir.join("wal.000001");
        assert_eq!(std::fs::metadata(&segment).unwrap().len(), cut);
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.committed, 1);
        assert!(rec.torn);
        assert_eq!(std::fs::metadata(&segment).unwrap().len(), rec.wal_bytes);
        assert_eq!(rec.wal_bytes, cut - 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_plan_parses_and_rejects() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        let plan = FaultPlan::parse("fsync_fail:3, torn:128, seal_delay:50, ckpt_torn:9").unwrap();
        assert_eq!(plan.fail_fsync_at, Some(3));
        assert_eq!(plan.torn_write_at, Some(128));
        assert_eq!(plan.seal_delay_ms, Some(50));
        assert_eq!(plan.ckpt_torn_at, Some(9));
        assert_ne!(plan, FaultPlan::default());
        assert!(FaultPlan::parse("fsync_fail").is_err());
        assert!(FaultPlan::parse("fsync_fail:x").is_err());
        assert!(FaultPlan::parse("explode:1").is_err());
    }

    #[test]
    fn group_of_unsynced_commits_closes_with_one_sync() {
        let dir = temp_dir("group");
        // the fsync ruler is the witness: were a batch append a barrier of
        // its own, the armed 2nd fsync would fire inside the first group
        let (_, mut w) = open(&dir, FaultPlan::parse("fsync_fail:2").unwrap());
        for i in 0..3u64 {
            let seq = w.commit_batch_unsynced(&[ins("E", &[i, i + 1])]).unwrap();
            assert_eq!(seq, i + 1);
        }
        w.sync().unwrap(); // three batches, one durability barrier
        let replayed = replay_first_segment(&dir);
        assert_eq!(replayed.batches.len(), 3);
        assert!(!replayed.torn());
        // a failed group sync poisons the writer: the unacked markers can
        // never be followed by later appends
        w.commit_batch_unsynced(&[ins("E", &[9, 9])]).unwrap();
        assert!(w.sync().is_err());
        assert!(w.is_poisoned());
        assert!(w.commit_batch_unsynced(&[ins("E", &[10, 10])]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_from_offset_sequence() {
        let dir = temp_dir("from-seq");
        // a checkpoint covering 1..=4 with no segment behind it: the writer
        // starts a segment whose first batch is global seq 5
        std::fs::create_dir_all(&dir).unwrap();
        write_checkpoint(&dir, 4, &[], &FaultPlan::default()).unwrap();
        let (rec, mut w) = open(&dir, FaultPlan::default());
        assert_eq!((rec.committed, rec.last_segment), (4, None));
        assert_eq!(append_synced(&mut w, &[ins("E", &[1, 2])]).unwrap(), 5);
        assert_eq!(append_synced(&mut w, &[ins("E", &[3, 4])]).unwrap(), 6);
        let bytes = std::fs::read(dir.join("wal.000005")).unwrap();
        let replayed = replay_bytes_from(&bytes, 5);
        assert_eq!(replayed.batches.len(), 2);
        assert!(!replayed.torn());
        // scanning with the wrong base sequence reads as a splice, not data
        let wrong = replay_bytes_from(&bytes, 1);
        assert!(wrong.batches.is_empty());
        assert!(wrong.tail_reason.unwrap().contains("jumped"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
