//! The write-ahead log: a directory of rotated segments plus checkpoints, its
//! one writer, and recovery bounded by the tail after the newest checkpoint.
//!
//! A log that is only ever appended to replays its **entire history** at
//! startup, so recovery time grows without bound as the service runs. This
//! module applies the classical fix (ARIES-style fuzzy checkpoints over a
//! rotated log):
//!
//! * **Segments.** The log is a directory of files `wal.000001`, `wal.000047`,
//!   … — each named by the global sequence number of the *first* batch it
//!   holds (sequences start at 1, so a file numbered 0 is not a segment).
//!   [`SegmentedWal`] is the only writer: a batch is one buffered `write`
//!   ([`SegmentedWal::commit_batch_unsynced`]), a group of batches becomes
//!   durable with one `fdatasync` ([`SegmentedWal::sync`]), and the writer
//!   rotates to a fresh segment once the current file crosses its size
//!   threshold ([`DEFAULT_SEGMENT_BYTES`] unless the caller says otherwise),
//!   always between synced batches: records never straddle segments, and
//!   every segment's commit markers continue the global sequence exactly
//!   where its predecessor stopped ([`replay_bytes_from`] verifies this per
//!   segment).
//! * **Checkpoints.** [`write_checkpoint`] persists an opaque per-relation
//!   state blob (the service serializes each delta relation from an MVCC
//!   snapshot, so the writer is never stalled) as `ckpt.000047`, named by the
//!   last batch sequence the state covers, CRC-guarded and written before any
//!   segment older than it is deleted. [`gc_checkpoint`] then removes
//!   checkpoints and segments the newest checkpoint fully covers — recovery
//!   replays only the tail after the checkpoint, so its cost is bounded by
//!   the tail length, not total history.
//! * **Recovery.** [`recover_dir`] picks the newest CRC-valid checkpoint
//!   (a torn or corrupt one — e.g. via the `ckpt_torn` [`FaultPlan`]
//!   directive — is discarded and recovery falls back to the previous
//!   checkpoint plus a longer tail), then replays segments in sequence order,
//!   skipping batches the checkpoint covers, truncating a torn tail off the
//!   last segment so the writer resumes on a marker boundary, and cutting
//!   (with the reason surfaced) at any gap the checkpoint does not cover.
//!
//! The crash-ordering discipline: a batch is acknowledged only after its
//! commit marker is fsynced; a checkpoint's file *and* directory entry are
//! fsynced before any segment it covers is deleted; so at every kill point
//! the union of (newest durable checkpoint, surviving segments) reconstructs
//! exactly the acknowledged prefix. After any I/O failure — real or injected
//! — the writer is **poisoned**: the durable tail is unknown, so every later
//! call fails until the directory is recovered and reopened.

use super::{crc32, frame_into, put_name, replay_bytes_from, FaultPlan, PayloadReader, WalOp};
use crate::error::StorageError;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Default segment-rotation threshold (bytes).
pub const DEFAULT_SEGMENT_BYTES: u64 = 64 << 20;

/// `wal.{first_seq:06}` — segments sort by name iff they sort by sequence
/// (within six digits; parsing is numeric, so wider numbers stay correct).
fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("wal.{first_seq:06}"))
}

/// `ckpt.{covered_seq:06}`.
fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("ckpt.{seq:06}"))
}

fn parse_numbered(name: &str, prefix: &str) -> Option<u64> {
    let digits = name.strip_prefix(prefix)?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Fsync the directory itself so created/deleted entries survive a crash
/// (file-content fsyncs do not cover the containing directory on Linux).
fn sync_dir(dir: &Path) -> Result<(), StorageError> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// List `(number, path)` for every `prefix`-numbered file in `dir`, sorted by
/// number ascending. Unrelated names are ignored.
fn list_numbered(dir: &Path, prefix: &str) -> Result<Vec<(u64, PathBuf)>, StorageError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(n) = entry
            .file_name()
            .to_str()
            .and_then(|s| parse_numbered(s, prefix))
        {
            out.push((n, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(n, _)| n);
    Ok(out)
}

/// The segment files of `dir`, oldest first. Sequences start at 1, so a file
/// numbered 0 is a stray, not a segment: no batch could ever live in it.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StorageError> {
    let mut segments = list_numbered(dir, "wal.")?;
    segments.retain(|&(start, _)| start > 0);
    Ok(segments)
}

const CKPT_MAGIC: &[u8; 8] = b"WCOJCKPT";
const CKPT_VERSION: u32 = 1;

/// A decoded, CRC-verified checkpoint: the catalog state covering every batch
/// with sequence ≤ [`Checkpoint::seq`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Last batch sequence the state covers (recovery replays only `seq+1…`).
    pub seq: u64,
    /// Per-relation opaque state blobs, as handed to [`write_checkpoint`]
    /// (the service layer owns the encoding — see
    /// `DeltaRelation::encode_state`).
    pub relations: Vec<(String, Vec<u8>)>,
}

/// Serialize a checkpoint file's bytes (magic, version, covered seq, CRC'd
/// payload of per-relation blobs). Fails on a name [`super::log_len`] refuses.
fn encode_checkpoint(seq: u64, relations: &[(String, Vec<u8>)]) -> Result<Vec<u8>, StorageError> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&(relations.len() as u32).to_le_bytes());
    for (name, state) in relations {
        put_name(&mut payload, name)?;
        payload.extend_from_slice(&(state.len() as u64).to_le_bytes());
        payload.extend_from_slice(state);
    }
    let mut bytes = Vec::with_capacity(32 + payload.len());
    bytes.extend_from_slice(CKPT_MAGIC);
    bytes.extend_from_slice(&CKPT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&seq.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    Ok(bytes)
}

/// Decode + verify one checkpoint file's bytes. The error is the reason the
/// file is unusable — recovery treats any failure as "this checkpoint never
/// finished" and falls back to the previous one.
fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, String> {
    let mut header = PayloadReader::new(bytes);
    if header.take(CKPT_MAGIC.len())? != CKPT_MAGIC {
        return Err("bad magic".into());
    }
    let version = header.u32()?;
    if version != CKPT_VERSION {
        return Err(format!("unknown version {version}"));
    }
    let seq = header.u64()?;
    let payload_len = header.u64()?;
    let crc = header.u32()?;
    let payload = header.rest();
    if payload.len() as u64 != payload_len {
        return Err(format!(
            "payload truncated: declared {payload_len}, have {}",
            payload.len()
        ));
    }
    if crc32(payload) != crc {
        return Err("payload checksum mismatch".into());
    }
    let mut r = PayloadReader::new(payload);
    let mut relations = Vec::new();
    for _ in 0..r.u32()? {
        let name = r.name()?;
        let state_len = usize::try_from(r.u64()?).map_err(|_| "state length overflows")?;
        relations.push((name, r.take(state_len)?.to_vec()));
    }
    r.done()?;
    Ok(Checkpoint { seq, relations })
}

/// Write checkpoint `ckpt.{seq}` into `dir` and make it durable (file fsync,
/// then directory fsync — only after both may covered segments be deleted;
/// [`gc_checkpoint`] is a separate call so the service controls that order).
/// Returns the file's size in bytes. A relation name the format cannot hold
/// fails with [`StorageError::TooLongForLog`] before the file is created.
///
/// Honors the `ckpt_torn:K` fault: the write stops after `K` bytes and the
/// file is **not** fsynced — exactly the disk state a crash mid-checkpoint
/// would leave — and the call fails with [`StorageError::FaultInjected`].
/// Recovery then discards the torn file and falls back.
pub fn write_checkpoint(
    dir: &Path,
    seq: u64,
    relations: &[(String, Vec<u8>)],
    fault: &FaultPlan,
) -> Result<u64, StorageError> {
    let bytes = encode_checkpoint(seq, relations)?;
    let path = checkpoint_path(dir, seq);
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&path)?;
    if let Some(k) = fault.ckpt_torn_at {
        let keep = (k as usize).min(bytes.len());
        file.write_all(&bytes[..keep])?;
        // the torn file must be observable after the "crash": flush content,
        // and the entry itself, without acknowledging the checkpoint
        file.sync_data()?;
        sync_dir(dir)?;
        return Err(StorageError::FaultInjected(format!(
            "checkpoint write torn at byte {k}"
        )));
    }
    file.write_all(&bytes)?;
    file.sync_data()?;
    sync_dir(dir)?;
    Ok(bytes.len() as u64)
}

/// What [`gc_checkpoint`] removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Segment files deleted (fully covered by the checkpoint).
    pub segments_deleted: u64,
    /// Older checkpoint files deleted.
    pub checkpoints_deleted: u64,
    /// Total bytes freed (segments + checkpoints).
    pub bytes_freed: u64,
    /// Bytes freed from segment files alone (for the live-log-size gauge;
    /// checkpoint bytes are not part of the replayable log).
    pub segment_bytes_freed: u64,
}

/// Delete everything the durable checkpoint at `keep_seq` makes redundant:
/// older checkpoint files, and every segment whose batches are all ≤
/// `keep_seq` **and** whose successor segment exists (the newest segment is
/// never deleted — it is the append target and the proof the sequence
/// reaches `keep_seq`). Call only after [`write_checkpoint`] returned `Ok`.
pub fn gc_checkpoint(dir: &Path, keep_seq: u64) -> Result<GcReport, StorageError> {
    let mut report = GcReport::default();
    for (seq, path) in list_numbered(dir, "ckpt.")? {
        if seq < keep_seq {
            report.bytes_freed += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            fs::remove_file(&path)?;
            report.checkpoints_deleted += 1;
        }
    }
    let segments = list_segments(dir)?;
    for window in segments.windows(2) {
        let (_, ref path) = window[0];
        let (next_start, _) = window[1];
        // every batch in this segment is < next_start; covered iff all ≤ keep_seq
        if next_start <= keep_seq + 1 {
            let len = fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            report.bytes_freed += len;
            report.segment_bytes_freed += len;
            fs::remove_file(path)?;
            report.segments_deleted += 1;
        }
    }
    if report.segments_deleted + report.checkpoints_deleted > 0 {
        sync_dir(dir)?;
    }
    Ok(report)
}

/// What [`recover_dir`] reconstructed from a log directory.
#[derive(Debug, Clone)]
pub struct DirRecovery {
    /// The newest CRC-valid checkpoint, if any (its state covers every batch
    /// with sequence ≤ `checkpoint.seq`).
    pub checkpoint: Option<Checkpoint>,
    /// Committed batches **after** the checkpoint, in sequence order — the
    /// replay tail. The first entry is batch `checkpoint_seq() + 1`.
    pub tail: Vec<Vec<WalOp>>,
    /// The last durable batch sequence (checkpoint + tail).
    pub committed: u64,
    /// Whether anything was dropped: a torn segment tail, a torn checkpoint,
    /// or a sequence gap that had to be cut.
    pub torn: bool,
    /// Why the tail (if any) was dropped; `None` for a clean log.
    pub tail_reason: Option<String>,
    /// Segment files surviving recovery.
    pub segments: usize,
    /// On-disk segment bytes after recovery truncated/deleted what it had to.
    pub wal_bytes: u64,
    /// The segment [`SegmentedWal::open`] should append to (`None` when a
    /// fresh segment must be created — empty dir, or the checkpoint is ahead
    /// of every surviving segment).
    pub last_segment: Option<PathBuf>,
    /// Bytes in surviving segments *before* the append target — the base of
    /// the absolute torn-write fault ruler.
    pub bytes_before_last: u64,
}

impl DirRecovery {
    /// The sequence the newest valid checkpoint covers (0 = none).
    pub fn checkpoint_seq(&self) -> u64 {
        self.checkpoint.as_ref().map(|c| c.seq).unwrap_or(0)
    }
}

/// Recover a segmented log directory: pick the newest valid checkpoint
/// (deleting torn/corrupt checkpoint files), replay the segment chain for the
/// batches after it, truncate a torn tail, and cut (deleting later segments)
/// at any gap or mid-chain corruption the checkpoint does not cover. A
/// missing or empty directory recovers as empty. See the
/// [module docs](self) for the invariants.
pub fn recover_dir(dir: &Path) -> Result<DirRecovery, StorageError> {
    fs::create_dir_all(dir)?;
    // 1. newest usable checkpoint wins; unusable ones are deleted so a
    //    retried checkpoint at the same sequence starts clean. The header's
    //    sequence is outside the payload CRC, so it must also match the name.
    let mut checkpoint = None;
    let mut tail_reason = None;
    for (named, path) in list_numbered(dir, "ckpt.")?.into_iter().rev() {
        let decoded = decode_checkpoint(&fs::read(&path)?).and_then(|c| {
            if c.seq == named {
                Ok(c)
            } else {
                Err(format!("covers sequence {}, not the one it names", c.seq))
            }
        });
        match decoded {
            Ok(c) => {
                checkpoint = Some(c);
                break;
            }
            Err(reason) => {
                tail_reason.get_or_insert(format!(
                    "discarded checkpoint {}: {reason}",
                    path.file_name().and_then(|n| n.to_str()).unwrap_or("?")
                ));
                fs::remove_file(&path)?;
            }
        }
    }
    let ckpt_seq = checkpoint.as_ref().map(|c| c.seq).unwrap_or(0);

    // 2. replay the segment chain; `reached` = the highest sequence whose
    //    state we can reconstruct (checkpoint-seeded, advanced per segment)
    struct Survivor {
        path: PathBuf,
        /// Last batch sequence committed in the segment (`start - 1` if none).
        end: u64,
        /// Bytes up to the segment's last commit marker.
        valid_bytes: u64,
        /// Bytes on disk.
        size: u64,
    }
    let segments = list_segments(dir)?;
    let mut reached = ckpt_seq;
    let mut tail: Vec<Vec<WalOp>> = Vec::new();
    let mut surviving: Vec<Survivor> = Vec::new();
    for (i, (start, path)) in segments.iter().enumerate() {
        // `list_segments` yields no 0, so `start - 1` cannot underflow
        if start - 1 > reached {
            // batches reached+1..start-1 exist nowhere: cut here, dropping
            // this segment and everything after it
            tail_reason.get_or_insert(format!(
                "sequence gap: segment {start} follows reconstructible prefix {reached}"
            ));
            for (_, path) in &segments[i..] {
                fs::remove_file(path)?;
            }
            sync_dir(dir)?;
            break;
        }
        let rep = replay_bytes_from(&fs::read(path)?, *start);
        let end = start - 1 + rep.batches.len() as u64;
        if rep.torn() {
            // in a middle segment whatever follows is only usable if the
            // checkpoint already covers the missing part — the gap check on
            // the next iteration decides
            tail_reason.get_or_insert(rep.tail_reason.unwrap_or_default());
        }
        // batches the checkpoint (or an earlier segment) already covers are
        // skipped, so the tail stays contiguous from the checkpoint
        tail.extend(
            (*start..)
                .zip(rep.batches)
                .filter(|&(seq, _)| seq > reached)
                .map(|(_, batch)| batch),
        );
        reached = reached.max(end);
        surviving.push(Survivor {
            path: path.clone(),
            end,
            valid_bytes: rep.valid_bytes,
            size: rep.file_bytes,
        });
    }
    // the last survivor is where appends could resume: drop its torn tail so
    // the writer starts on a marker boundary (earlier segments stay intact)
    if let Some(last) = surviving.last_mut() {
        if last.size > last.valid_bytes {
            let f = OpenOptions::new().write(true).open(&last.path)?;
            f.set_len(last.valid_bytes)?;
            f.sync_data()?;
            last.size = last.valid_bytes;
        }
    }

    // 3. the append target: the last surviving segment, but only if the
    //    global sequence actually ends inside it — when the checkpoint is
    //    ahead of every segment, appending would splice a sequence jump, so
    //    a fresh segment must be started instead
    let wal_bytes: u64 = surviving.iter().map(|s| s.size).sum();
    let (last_segment, bytes_before_last) = match surviving.last() {
        Some(last) if last.end == reached => (Some(last.path.clone()), wal_bytes - last.size),
        _ => (None, wal_bytes),
    };
    Ok(DirRecovery {
        checkpoint,
        tail,
        committed: reached,
        torn: tail_reason.is_some(),
        tail_reason,
        segments: surviving.len(),
        wal_bytes,
        last_segment,
        bytes_before_last,
    })
}

/// The log's one writer: appends length-prefixed, checksummed [`WalOp`]
/// records to the newest segment and rotates between synced batches, so every
/// segment ends on a commit marker except (after a crash) the newest. The
/// byte and fsync rulers the [`FaultPlan`] is measured against are absolute —
/// they run across rotations, from the oldest surviving segment and from
/// [`SegmentedWal::open`] respectively.
#[derive(Debug)]
pub struct SegmentedWal {
    dir: PathBuf,
    /// The newest segment, positioned at its end.
    file: File,
    segment_bytes: u64,
    fault: FaultPlan,
    /// Bytes in the surviving segments before the current one (monotonic —
    /// GC does not rewind it).
    bytes_completed: u64,
    /// Bytes handed to the OS in the current segment.
    segment_offset: u64,
    /// Fsyncs attempted since open.
    fsyncs: u64,
    /// Batches committed; the next commit marker carries `committed + 1`.
    committed: u64,
    poisoned: bool,
    /// Segments completed (rotated out) since the last checkpoint — the
    /// service's checkpoint trigger.
    segments_since_checkpoint: u64,
}

/// Open `path` for appending (creating it if absent); returns the file
/// positioned at its end, and that offset.
fn open_segment(path: &Path) -> Result<(File, u64), StorageError> {
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(path)?;
    let offset = file.seek(SeekFrom::End(0))?;
    Ok((file, offset))
}

/// The sequence after `committed`; a log cannot run past `u64::MAX` batches
/// (reachable only through a forged checkpoint or file name).
fn next_seq(committed: u64) -> Result<u64, StorageError> {
    committed
        .checked_add(1)
        .ok_or_else(|| StorageError::Io("wal batch sequence exhausted".into()))
}

impl SegmentedWal {
    /// Open the log for appending after [`recover_dir`]: resume the last
    /// surviving segment, or start a fresh one when recovery said so. Creates
    /// the directory (and first segment) for a brand-new log.
    pub fn open(
        dir: impl AsRef<Path>,
        recovery: &DirRecovery,
        segment_bytes: u64,
        fault: FaultPlan,
    ) -> Result<SegmentedWal, StorageError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let seg_path = match &recovery.last_segment {
            Some(p) => p.clone(),
            None => segment_path(&dir, next_seq(recovery.committed)?),
        };
        let (file, segment_offset) = open_segment(&seg_path)?;
        sync_dir(&dir)?;
        Ok(SegmentedWal {
            dir,
            file,
            segment_bytes: segment_bytes.max(1),
            fault,
            bytes_completed: recovery.bytes_before_last,
            segment_offset,
            fsyncs: 0,
            committed: recovery.committed,
            poisoned: false,
            segments_since_checkpoint: 0,
        })
    }

    /// Batches committed (global sequence).
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Whether a prior failure poisoned the writer (recover the directory and
    /// reopen to resume).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Bytes written across all segments since open (plus what open
    /// retained). Monotonic: checkpoint GC does not rewind it.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_completed + self.segment_offset
    }

    /// Segments completed since the last [`SegmentedWal::checkpoint_taken`].
    pub fn segments_since_checkpoint(&self) -> u64 {
        self.segments_since_checkpoint
    }

    /// Reset the checkpoint trigger counter (the service calls this after a
    /// checkpoint is durably written).
    pub fn checkpoint_taken(&mut self) {
        self.segments_since_checkpoint = 0;
    }

    fn check_poisoned(&self) -> Result<(), StorageError> {
        if self.poisoned {
            return Err(StorageError::Io(
                "wal writer is poisoned by an earlier failure; recover the log first".into(),
            ));
        }
        Ok(())
    }

    /// Write `bytes` through the torn-write fault filter, poisoning on any
    /// short or failed write.
    fn write_all(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        if let Some(k) = self.fault.torn_write_at {
            let written = self.total_bytes();
            if written + bytes.len() as u64 > k {
                let keep = k.saturating_sub(written) as usize;
                let res = self.file.write_all(&bytes[..keep]).and_then(|_| {
                    // a torn write is only observable once it reaches the disk
                    self.file.sync_data()
                });
                self.poisoned = true;
                res?;
                self.segment_offset += keep as u64;
                return Err(StorageError::FaultInjected(format!(
                    "torn write at byte {k}"
                )));
            }
        }
        if let Err(e) = self.file.write_all(bytes) {
            self.poisoned = true;
            return Err(e.into());
        }
        self.segment_offset += bytes.len() as u64;
        Ok(())
    }

    /// Append a whole batch — every op frame plus its commit marker — with a
    /// **single buffered write**, unsynced: the group-commit half-step. A
    /// leader appends one batch per coalesced member, then makes the whole
    /// group durable with a single [`SegmentedWal::sync`]; with the fsync
    /// amortized across the group, one `write(2)` per batch (not per record)
    /// is what keeps the leader's serial CPU off the ingest path. The
    /// returned sequence number is provisional until that sync succeeds; a
    /// sync failure poisons the writer, so the unacknowledged markers can
    /// never be followed by later appends. An empty batch is a no-op (no
    /// marker written) and returns the current committed count. An op the
    /// record format cannot hold ([`StorageError::TooLongForLog`]) fails the
    /// batch before any byte is written: the writer is not poisoned and the
    /// committed count does not move.
    pub fn commit_batch_unsynced(&mut self, ops: &[WalOp]) -> Result<u64, StorageError> {
        self.check_poisoned()?;
        if ops.is_empty() {
            return Ok(self.committed);
        }
        let seq = next_seq(self.committed)?;
        let mut framed = Vec::with_capacity(ops.len() * 48 + 32);
        for op in ops {
            if matches!(op, WalOp::Commit { .. }) {
                return Err(StorageError::Io(
                    "commit markers are written by the batch append, not passed to it".into(),
                ));
            }
            frame_into(&mut framed, op)?;
        }
        frame_into(&mut framed, &WalOp::Commit { seq })?;
        self.write_all(&framed)?;
        self.committed = seq;
        Ok(seq)
    }

    /// Fsync the current segment — the durability barrier closing a group of
    /// [`SegmentedWal::commit_batch_unsynced`] appends. Honors the
    /// `fsync_fail` fault and poisons the writer on failure.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.check_poisoned()?;
        self.fsyncs += 1;
        if self.fault.fail_fsync_at == Some(self.fsyncs) {
            self.poisoned = true;
            return Err(StorageError::FaultInjected(format!(
                "fsync {} failed",
                self.fsyncs
            )));
        }
        if let Err(e) = self.file.sync_data() {
            self.poisoned = true;
            return Err(e.into());
        }
        Ok(())
    }

    /// Rotate to a fresh segment if the current one has crossed the size
    /// threshold. Only legal on a healthy, fully-synced writer — the caller
    /// invokes this right after a successful [`SegmentedWal::sync`]. Returns
    /// whether a rotation happened. On failure to create the next segment the
    /// current one stays in place (appends continue into the oversized
    /// segment; correctness is unaffected).
    pub fn maybe_rotate(&mut self) -> Result<bool, StorageError> {
        if self.poisoned || self.segment_offset < self.segment_bytes {
            return Ok(false);
        }
        let (file, offset) = open_segment(&segment_path(&self.dir, next_seq(self.committed)?))?;
        sync_dir(&self.dir)?;
        self.file = file;
        self.bytes_completed += self.segment_offset;
        self.segment_offset = offset;
        self.segments_since_checkpoint += 1;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn temp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "wcoj-segwal-{tag}-{}-{}",
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

    fn open_fresh(dir: &Path, segment_bytes: u64) -> SegmentedWal {
        let rec = recover_dir(dir).unwrap();
        SegmentedWal::open(dir, &rec, segment_bytes, FaultPlan::default()).unwrap()
    }

    /// One durable batch: append, sync, rotate if due.
    fn append_synced(w: &mut SegmentedWal, ops: &[WalOp]) -> Result<u64, StorageError> {
        let seq = w.commit_batch_unsynced(ops)?;
        w.sync()?;
        w.maybe_rotate()?;
        Ok(seq)
    }

    fn commit_n(w: &mut SegmentedWal, n: u64, base: u64) {
        for i in 0..n {
            append_synced(w, &[ins("E", &[base + i, base + i + 1])]).unwrap();
        }
    }

    #[test]
    fn rotation_splits_batches_across_segments_and_recovery_rejoins() {
        let dir = temp_dir("rotate");
        let mut w = open_fresh(&dir, 64); // tiny: rotate nearly every batch
        commit_n(&mut w, 12, 0);
        assert!(w.segments_since_checkpoint() >= 3, "rotations happened");
        drop(w);
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.committed, 12);
        assert_eq!(rec.tail.len(), 12, "no checkpoint: the tail is everything");
        assert!(!rec.torn);
        assert!(rec.segments >= 3, "recovery sees the rotated chain");
        assert_eq!(rec.tail[0], vec![ins("E", &[0, 1])]);
        assert_eq!(rec.tail[11], vec![ins("E", &[11, 12])]);
        // append resumes the global sequence
        let mut w = SegmentedWal::open(&dir, &rec, 64, FaultPlan::default()).unwrap();
        assert_eq!(append_synced(&mut w, &[ins("E", &[99, 100])]).unwrap(), 13);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_bounds_the_tail_and_gc_deletes_covered_segments() {
        let dir = temp_dir("ckpt");
        let mut w = open_fresh(&dir, 64);
        commit_n(&mut w, 10, 0);
        // checkpoint covering the first 10 batches (opaque state blob)
        let state = vec![("E".to_string(), vec![1u8, 2, 3])];
        write_checkpoint(&dir, 10, &state, &FaultPlan::default()).unwrap();
        let gc = gc_checkpoint(&dir, 10).unwrap();
        assert!(gc.segments_deleted > 0, "covered segments are deleted");
        w.checkpoint_taken();
        commit_n(&mut w, 3, 100);
        drop(w);
        let rec = recover_dir(&dir).unwrap();
        let ckpt = rec.checkpoint.as_ref().expect("checkpoint survives");
        assert_eq!(ckpt.seq, 10);
        assert_eq!(ckpt.relations, state);
        assert_eq!(rec.committed, 13);
        assert_eq!(rec.tail.len(), 3, "only the post-checkpoint tail replays");
        assert_eq!(rec.tail[0], vec![ins("E", &[100, 101])]);
        assert!(!rec.torn);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_checkpoint_falls_back_to_previous_plus_longer_tail() {
        let dir = temp_dir("torn-ckpt");
        let mut w = open_fresh(&dir, 64);
        commit_n(&mut w, 4, 0);
        let old = vec![("E".to_string(), b"old-state".to_vec())];
        write_checkpoint(&dir, 4, &old, &FaultPlan::default()).unwrap();
        gc_checkpoint(&dir, 4).unwrap();
        commit_n(&mut w, 4, 50);
        // the newer checkpoint tears mid-write: recovery must not trust it
        let newer = vec![("E".to_string(), b"new-state".to_vec())];
        let fault = FaultPlan::parse("ckpt_torn:20").unwrap();
        let err = write_checkpoint(&dir, 8, &newer, &fault).unwrap_err();
        assert!(matches!(err, StorageError::FaultInjected(_)), "{err}");
        drop(w);
        let rec = recover_dir(&dir).unwrap();
        let ckpt = rec.checkpoint.as_ref().expect("previous checkpoint");
        assert_eq!(ckpt.seq, 4, "fell back past the torn checkpoint");
        assert_eq!(ckpt.relations, old);
        assert_eq!(rec.committed, 8);
        assert_eq!(rec.tail.len(), 4, "longer tail compensates");
        assert!(rec.torn, "the discarded checkpoint is reported");
        assert!(rec.tail_reason.as_ref().unwrap().contains("checkpoint"));
        assert!(
            !checkpoint_path(&dir, 8).exists(),
            "the torn file was removed so a retry starts clean"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_with_zero_tail_recovers_to_checkpoint_state() {
        let dir = temp_dir("zero-tail");
        let mut w = open_fresh(&dir, 1 << 20); // no rotation
        commit_n(&mut w, 5, 0);
        let state = vec![("E".to_string(), b"s".to_vec())];
        write_checkpoint(&dir, 5, &state, &FaultPlan::default()).unwrap();
        gc_checkpoint(&dir, 5).unwrap();
        drop(w);
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.checkpoint.as_ref().unwrap().seq, 5);
        assert_eq!(rec.committed, 5);
        assert!(rec.tail.is_empty(), "nothing after the checkpoint");
        assert!(!rec.torn);
        // appends continue at 6
        let mut w = SegmentedWal::open(&dir, &rec, 1 << 20, FaultPlan::default()).unwrap();
        assert_eq!(append_synced(&mut w, &[ins("E", &[7, 8])]).unwrap(), 6);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn commit_exactly_at_segment_boundary_rotates_cleanly() {
        let dir = temp_dir("boundary");
        let mut w = open_fresh(&dir, 1 << 20);
        w.commit_batch_unsynced(&[ins("E", &[1, 2])]).unwrap();
        w.sync().unwrap();
        // arm the threshold to exactly the current offset: the *next*
        // maybe_rotate must fire, and the batch boundary is preserved
        let exact = w.total_bytes();
        let mut w2 = {
            drop(w);
            let rec = recover_dir(&dir).unwrap();
            SegmentedWal::open(&dir, &rec, exact, FaultPlan::default()).unwrap()
        };
        assert!(w2.maybe_rotate().unwrap(), "offset == threshold rotates");
        assert_eq!(w2.commit_batch_unsynced(&[ins("E", &[3, 4])]).unwrap(), 2);
        w2.sync().unwrap();
        drop(w2);
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.committed, 2);
        assert_eq!(rec.segments, 2);
        assert_eq!(rec.tail.len(), 2);
        assert!(!rec.torn);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_in_last_segment_truncates_like_single_file() {
        let dir = temp_dir("torn-tail");
        let mut w = open_fresh(&dir, 64);
        commit_n(&mut w, 5, 0);
        drop(w);
        // a crash mid-batch: an op frame reached the newest segment, its
        // commit marker never did
        let (_, newest) = list_segments(&dir).unwrap().pop().unwrap();
        let mut frame = Vec::new();
        frame_into(&mut frame, &ins("E", &[77, 78])).unwrap();
        let mut file = OpenOptions::new().append(true).open(newest).unwrap();
        file.write_all(&frame).unwrap();
        drop(file);
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.committed, 5);
        assert!(rec.torn);
        assert!(rec.tail_reason.as_ref().unwrap().contains("uncommitted"));
        // the truncation leaves the last segment on a marker boundary
        let rec2 = recover_dir(&dir).unwrap();
        assert!(!rec2.torn, "second recovery is clean");
        assert_eq!(rec2.committed, 5);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sequence_gap_cuts_and_reports() {
        let dir = temp_dir("gap");
        let mut w = open_fresh(&dir, 64);
        commit_n(&mut w, 9, 0);
        drop(w);
        // delete a middle segment: the chain past it is unusable
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 3, "need a middle segment to delete");
        let (victim_start, victim) = segments[1].clone();
        fs::remove_file(&victim).unwrap();
        let rec = recover_dir(&dir).unwrap();
        assert!(rec.torn);
        assert!(rec.tail_reason.as_ref().unwrap().contains("gap"));
        assert_eq!(rec.committed, victim_start - 1, "prefix before the gap");
        assert_eq!(rec.tail.len(), rec.committed as usize);
        // later segments were cut; a fresh recovery is clean
        let rec2 = recover_dir(&dir).unwrap();
        assert!(!rec2.torn);
        assert_eq!(rec2.committed, victim_start - 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_checkpoint_must_cover_the_sequence_it_names() {
        // the header's sequence is outside the payload CRC: a flipped bit
        // there (or a renamed file) must not move the recovery point
        let dir = temp_dir("ckpt-name");
        let mut w = open_fresh(&dir, 1 << 20);
        commit_n(&mut w, 6, 0);
        drop(w);
        write_checkpoint(&dir, 4, &[], &FaultPlan::default()).unwrap();
        let mut forged = fs::read(checkpoint_path(&dir, 4)).unwrap();
        forged[12] ^= 0x40; // seq 4 -> 68, CRC still valid
        assert_eq!(decode_checkpoint(&forged).unwrap().seq, 68);
        fs::write(checkpoint_path(&dir, 4), &forged).unwrap();
        write_checkpoint(&dir, 5, &[], &FaultPlan::default()).unwrap();
        fs::rename(checkpoint_path(&dir, 5), checkpoint_path(&dir, 9)).unwrap();
        write_checkpoint(&dir, 2, &[], &FaultPlan::default()).unwrap();
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.checkpoint_seq(), 2, "the one honest checkpoint");
        assert_eq!((rec.committed, rec.tail.len()), (6, 4));
        assert!(rec.tail_reason.unwrap().contains("ckpt.000009"));
        assert!(!checkpoint_path(&dir, 9).exists() && !checkpoint_path(&dir, 4).exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_file_numbered_zero_is_not_a_segment() {
        // sequences start at 1: `wal.000000` can hold no batch, and used to
        // make recovery compute `0 - 1` for its last sequence
        let dir = temp_dir("stray-zero");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("wal.000000"), b"").unwrap();
        let rec = recover_dir(&dir).unwrap();
        assert_eq!((rec.committed, rec.segments, rec.torn), (0, 0, false));
        assert_eq!(rec.last_segment, None, "the stray is not the append target");
        let mut w = SegmentedWal::open(&dir, &rec, 64, FaultPlan::default()).unwrap();
        commit_n(&mut w, 4, 0);
        drop(w);
        // beside a real chain, with bytes in it, under its short spelling
        fs::write(dir.join("wal.0"), b"not a log").unwrap();
        let rec = recover_dir(&dir).unwrap();
        assert_eq!((rec.committed, rec.tail.len(), rec.torn), (4, 4, false));
        assert_eq!(rec.segments, list_segments(&dir).unwrap().len());
        gc_checkpoint(&dir, 4).unwrap();
        assert!(
            dir.join("wal.0").exists(),
            "GC leaves what is not a segment"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn absolute_fault_rulers_span_rotations() {
        let dir = temp_dir("fault-ruler");
        let rec = recover_dir(&dir).unwrap();
        // 3rd fsync fails, even though rotation replaces the segment file
        let fault = FaultPlan::parse("fsync_fail:3").unwrap();
        let mut w = SegmentedWal::open(&dir, &rec, 32, fault).unwrap();
        append_synced(&mut w, &[ins("E", &[1, 2])]).unwrap();
        append_synced(&mut w, &[ins("E", &[3, 4])]).unwrap();
        assert_eq!(list_segments(&dir).unwrap().len(), 3, "two rotations");
        let err = append_synced(&mut w, &[ins("E", &[5, 6])]).unwrap_err();
        assert!(matches!(err, StorageError::FaultInjected(_)), "{err}");
        assert!(w.is_poisoned());
        // the unacked batch's marker bytes may survive in the OS cache: the
        // log running ahead of acknowledgement is the allowed direction
        // (memory ahead of the log is not), so recovery may see 2 or 3
        let rec = recover_dir(&dir).unwrap();
        assert!((2..=3).contains(&rec.committed), "got {}", rec.committed);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_roundtrip_and_corruption_detection() {
        let rels = vec![
            ("E".to_string(), vec![0u8; 100]),
            ("R".to_string(), b"abc".to_vec()),
        ];
        let bytes = encode_checkpoint(42, &rels).unwrap();
        let ckpt = decode_checkpoint(&bytes).unwrap();
        assert_eq!(ckpt.seq, 42);
        assert_eq!(ckpt.relations, rels);
        // any single-byte flip in the payload is caught
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(decode_checkpoint(&bad).is_err());
        // truncation at every prefix is caught
        for cut in 0..bytes.len() {
            assert!(
                decode_checkpoint(&bytes[..cut]).is_err(),
                "prefix {cut} must not decode"
            );
        }
        assert!(decode_checkpoint(b"NOTMAGIC________________________").is_err());
    }

    #[test]
    fn a_checkpoint_name_over_u16_is_refused_and_no_file_is_created() {
        let dir = temp_dir("ckpt-long-name");
        let mut w = open_fresh(&dir, 64);
        commit_n(&mut w, 4, 0);
        let relations = vec![
            ("E".to_string(), b"state".to_vec()),
            ("n".repeat(70_000), b"state".to_vec()),
        ];
        let err = write_checkpoint(&dir, 4, &relations, &FaultPlan::default()).unwrap_err();
        assert_eq!(
            err,
            StorageError::TooLongForLog {
                what: "relation name",
                len: 70_000
            }
        );
        assert!(!checkpoint_path(&dir, 4).exists(), "no file is created");
        // so GC has nothing to trust and the segments it would cover stay
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(
            (rec.checkpoint_seq(), rec.tail.len(), rec.torn),
            (0, 4, false)
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_dir_recovers_empty_and_open_creates_it() {
        let dir = temp_dir("fresh");
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.committed, 0);
        assert!(rec.tail.is_empty());
        assert!(rec.checkpoint.is_none());
        assert!(!rec.torn);
        let mut w = SegmentedWal::open(&dir, &rec, 1 << 20, FaultPlan::default()).unwrap();
        assert_eq!(append_synced(&mut w, &[ins("E", &[1, 2])]).unwrap(), 1);
        fs::remove_dir_all(&dir).ok();
    }
}
