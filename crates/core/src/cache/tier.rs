//! The disk tier: per-shard append-only slab files plus the
//! promotion/demotion bookkeeping that turns the RAM store into the hot
//! tier of a two-level cache.
//!
//! # Why a tier
//!
//! The paper's cache-efficiency results are bounded by a RAM-resident
//! store; at SkyServer scale the long tail of sky regions cannot fit in
//! memory. The observation that makes a disk tier cheap here is that
//! PR 2's columnar form already splits every entry into exactly the two
//! halves a tiered store wants:
//!
//! - a small **skeleton** (coordinate columns, row spans, XML header,
//!   micro-index) that classification and contained-hit row selection
//!   need, and
//! - a large **row slab** (the pre-serialized XML bytes of every row)
//!   that serving needs but classification never touches.
//!
//! Demotion therefore writes the entry once to an append-only slab file
//! and keeps the skeleton resident: the residual-key groups, R-tree
//! descriptions, and micro-indexes never leave RAM, so `classify` works
//! unchanged over both tiers, and a demoted exact/contained hit is
//! served by splicing row bytes straight out of an `mmap` of the slab —
//! zero copies until the response buffer is assembled.
//!
//! # Segment format
//!
//! ```text
//! file   := magic "FPSLAB01" · version u32 LE · segment*
//! segment:= len u32 LE · crc32 u32 LE · payload      (snapshot framing)
//! payload:= xml_len u32 LE · entry XML · row slab bytes
//! ```
//!
//! The entry XML is the same `<CacheEntry>` document the lifecycle
//! snapshots use (`cache/persist.rs`), so a segment alone is enough to
//! rebuild the full entry on promotion or warm restart; the row slab
//! sits at a known offset behind it so the serve path can slice rows
//! without parsing anything.
//!
//! # Crash safety
//!
//! Appends are only ever at the tail, so a crash mid-spill leaves at
//! most one torn segment, which the front-recoverable [`SlabFile::replay`]
//! detects by CRC and counts (`slab_corrupt_segments`) instead of
//! failing. Compaction writes the surviving segments to a `.tmp` file,
//! fsyncs, and renames over the slab — a crash at any point leaves
//! either the old file or the new one, never a mix. In-flight readers
//! keep serving from their `Arc`'d mapping of the pre-compaction inode.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fp_geometry::{HyperRect, Region};
use fp_mmap::Mmap;
use fp_skyserver::ColumnarRows;

use crate::lifecycle::snapshot::crc32;

/// Leading magic bytes of every slab file.
pub const SLAB_MAGIC: &[u8; 8] = b"FPSLAB01";
/// Current slab format version; bumped on layout changes.
pub const SLAB_VERSION: u32 = 1;

const HEADER_LEN: u64 = 8 + 4;
const FRAME_LEN: u64 = 4 + 4;

/// Which tier file operation a fault applies to. The classes mirror the
/// distinct failure surfaces a real filesystem exposes: tail appends,
/// metadata snapshot writes, compaction staging, the compaction commit
/// rename, and durability barriers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// Slab segment appends (demotion spills and meta-pass spills).
    Append,
    /// `.fpmeta` warm-restart metadata snapshot writes.
    MetaWrite,
    /// Compaction staging: creating and filling the `.tmp` file.
    CompactWrite,
    /// Compaction commit: the rename of the `.tmp` over the slab. A
    /// fault here models a crash after the staging write completed but
    /// before the commit — the classic torn-rename crash point.
    CompactRename,
    /// Durability barriers (`sync_all` during compaction staging).
    Fsync,
}

const IO_OPS: usize = 5;

impl IoOp {
    fn idx(self) -> usize {
        match self {
            IoOp::Append => 0,
            IoOp::MetaWrite => 1,
            IoOp::CompactWrite => 2,
            IoOp::CompactRename => 3,
            IoOp::Fsync => 4,
        }
    }
}

/// The fault an armed operation suffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// Generic I/O error (errno `EIO`).
    Eio,
    /// Out of space (errno `ENOSPC`).
    Enospc,
    /// A torn write: the first `n` bytes land on disk, then the write
    /// fails — what a crash or short `write(2)` mid-append leaves
    /// behind. Non-write operations treat this as `Eio`.
    Torn(usize),
}

impl IoFault {
    fn to_error(self) -> io::Error {
        match self {
            // Real errnos so callers can't tell injected faults from
            // the filesystem's own: EIO = 5, ENOSPC = 28.
            IoFault::Eio | IoFault::Torn(_) => io::Error::from_raw_os_error(5),
            IoFault::Enospc => io::Error::from_raw_os_error(28),
        }
    }
}

#[derive(Debug, Default)]
struct SlabIoState {
    /// Sticky fault per operation class (`None` = healthy).
    sticky: [Option<IoFault>; IO_OPS],
    /// Total faults actually delivered to an operation.
    injected: usize,
}

/// The storage fault-injection seam every tier file operation consults.
///
/// A `SlabIo` is a cheaply cloneable handle to shared fault state; the
/// default handle is a pass-through (no locks are even taken unless a
/// fault has ever been armed — the hot path stays one relaxed atomic
/// load). Torture harnesses clone the handle into [`TierConfig`] and
/// arm faults mid-run: `inject` makes an operation class fail stickily
/// until `heal`/`heal_all`.
#[derive(Debug, Clone, Default)]
pub struct SlabIo {
    state: Arc<SlabIoShared>,
}

#[derive(Debug, Default)]
struct SlabIoShared {
    /// Fast-path gate: set while any fault is armed.
    armed: std::sync::atomic::AtomicBool,
    state: Mutex<SlabIoState>,
}

impl PartialEq for SlabIo {
    fn eq(&self, other: &SlabIo) -> bool {
        Arc::ptr_eq(&self.state, &other.state)
    }
}

impl SlabIo {
    /// A pass-through seam (no faults armed).
    pub fn healthy() -> SlabIo {
        SlabIo::default()
    }

    /// Arms a sticky fault: every subsequent `op` fails with `fault`
    /// until healed.
    pub fn inject(&self, op: IoOp, fault: IoFault) {
        let mut s = self.state.state.lock().unwrap_or_else(|e| e.into_inner());
        s.sticky[op.idx()] = Some(fault);
        self.state
            .armed
            .store(true, std::sync::atomic::Ordering::Release);
    }

    /// Heals one operation class.
    pub fn heal(&self, op: IoOp) {
        let mut s = self.state.state.lock().unwrap_or_else(|e| e.into_inner());
        s.sticky[op.idx()] = None;
        if s.sticky.iter().all(Option::is_none) {
            self.state
                .armed
                .store(false, std::sync::atomic::Ordering::Release);
        }
    }

    /// Heals every operation class.
    pub fn heal_all(&self) {
        let mut s = self.state.state.lock().unwrap_or_else(|e| e.into_inner());
        s.sticky = [None; IO_OPS];
        self.state
            .armed
            .store(false, std::sync::atomic::Ordering::Release);
    }

    /// Total faults delivered so far (for harness assertions).
    pub fn faults_injected(&self) -> usize {
        self.state
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .injected
    }

    /// The fault armed for a write-class `op`, if any (and counts it
    /// delivered). Write paths call this so a [`IoFault::Torn`] can
    /// land its partial bytes before failing.
    fn write_fault(&self, op: IoOp) -> Option<IoFault> {
        if !self.state.armed.load(std::sync::atomic::Ordering::Acquire) {
            return None;
        }
        let mut s = self.state.state.lock().unwrap_or_else(|e| e.into_inner());
        let fault = s.sticky[op.idx()];
        if fault.is_some() {
            s.injected += 1;
        }
        fault
    }

    /// Fails `op` if a fault is armed for it (non-write operations:
    /// renames, fsyncs, whole-file meta writes).
    fn check(&self, op: IoOp) -> io::Result<()> {
        match self.write_fault(op) {
            Some(fault) => Err(fault.to_error()),
            None => Ok(()),
        }
    }

    /// Fails if a `MetaWrite` fault is armed — consulted by the store's
    /// `.fpmeta` snapshot writer, which goes through the lifecycle
    /// snapshot helper rather than the slab file.
    pub(crate) fn meta_write_check(&self) -> io::Result<()> {
        self.check(IoOp::MetaWrite)
    }
}

/// Configuration for the disk tier.
#[derive(Debug, Clone, PartialEq)]
pub struct TierConfig {
    /// Directory holding the per-shard `slab_<i>.fpslab` files and the
    /// `shard_<i>.fpmeta` warm-restart metadata snapshots.
    pub dir: PathBuf,
    /// Compact a shard's slab when at least this fraction of its
    /// payload bytes belong to removed entries (dead ÷ (live + dead)).
    pub compact_ratio: f64,
    /// The storage fault-injection seam every file operation of this
    /// tier consults; pass-through unless a harness armed it.
    pub io: SlabIo,
}

impl TierConfig {
    /// A tier rooted at `dir` with the default compaction trigger
    /// (half the file dead).
    pub fn new(dir: impl Into<PathBuf>) -> TierConfig {
        TierConfig {
            dir: dir.into(),
            compact_ratio: 0.5,
            io: SlabIo::healthy(),
        }
    }

    /// Overrides the dead-byte fraction that triggers compaction.
    pub fn with_compact_ratio(mut self, ratio: f64) -> TierConfig {
        self.compact_ratio = ratio.clamp(0.01, 1.0);
        self
    }

    /// Shares a fault-injection seam with the tier (torture harnesses
    /// keep a clone to arm faults mid-run).
    pub fn with_io(mut self, io: SlabIo) -> TierConfig {
        self.io = io;
        self
    }

    /// Path of shard `i`'s slab file.
    pub fn slab_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("slab_{shard}.fpslab"))
    }

    /// Path of shard `i`'s metadata snapshot.
    pub fn meta_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard_{shard}.fpmeta"))
    }
}

/// Location of one segment's payload inside a slab file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegRef {
    /// Byte offset of the payload (just past the len/crc frame).
    pub off: u64,
    /// Payload length in bytes.
    pub len: u32,
}

/// Builds a segment payload from an entry's XML document and its raw
/// row-slab bytes.
pub fn encode_payload(xml: &[u8], row_slab: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(4 + xml.len() + row_slab.len());
    payload.extend_from_slice(&(xml.len() as u32).to_le_bytes());
    payload.extend_from_slice(xml);
    payload.extend_from_slice(row_slab);
    payload
}

#[derive(Debug, Clone)]
enum SliceSrc {
    /// A window into a shared mapping of the slab file. Holding the
    /// `Arc` keeps the mapping (and, across compaction renames, the old
    /// inode) alive for as long as any reader needs it.
    Mapped {
        map: Arc<Mmap>,
        off: usize,
        len: usize,
    },
    /// Fallback when mapping fails (e.g. a filesystem without mmap):
    /// the payload is read into an owned buffer instead.
    Owned(Vec<u8>),
}

/// A zero-copy view of one segment's payload, safe to carry outside the
/// shard lock: the bytes live in the page cache (or an owned buffer),
/// not in the store.
#[derive(Debug, Clone)]
pub struct SlabSlice {
    src: SliceSrc,
    xml_len: usize,
}

impl SlabSlice {
    fn new(src: SliceSrc) -> Option<SlabSlice> {
        let bytes = match &src {
            SliceSrc::Mapped { map, off, len } => &map.as_slice()[*off..*off + *len],
            SliceSrc::Owned(buf) => &buf[..],
        };
        if bytes.len() < 4 {
            return None;
        }
        let xml_len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
        if 4 + xml_len > bytes.len() {
            return None;
        }
        Some(SlabSlice { src, xml_len })
    }

    /// The whole segment payload.
    pub fn payload(&self) -> &[u8] {
        match &self.src {
            SliceSrc::Mapped { map, off, len } => &map.as_slice()[*off..*off + *len],
            SliceSrc::Owned(buf) => buf,
        }
    }

    /// The entry's `<CacheEntry>` XML document.
    pub fn xml(&self) -> &[u8] {
        &self.payload()[4..4 + self.xml_len]
    }

    /// The entry's raw row-slab bytes (pre-serialized XML rows), ready
    /// for `ColumnarRows::{full_document_with, assemble_document_with}`.
    pub fn row_slab(&self) -> &[u8] {
        &self.payload()[4 + self.xml_len..]
    }
}

/// One shard's append-only slab file plus its read-side mapping.
#[derive(Debug)]
pub struct SlabFile {
    path: PathBuf,
    file: File,
    /// Current file length (we track it ourselves; the file is only
    /// ever appended through this handle).
    len: u64,
    map: Option<Arc<Mmap>>,
    live_bytes: u64,
    dead_bytes: u64,
    corrupt_segments: usize,
    io: SlabIo,
}

impl SlabFile {
    /// Opens (or creates) a slab file, validating the header. A file
    /// shorter than the header is re-initialized (counted as corrupt if
    /// non-empty); a wrong magic or version is an error — the caller
    /// should treat the file as not ours and run untiered rather than
    /// overwrite it.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<SlabFile> {
        Self::open_with(path, SlabIo::healthy())
    }

    /// [`SlabFile::open`] with a fault-injection seam. Also sweeps up a
    /// stale compaction `.tmp` left by a crash between the staging
    /// write and the commit rename — the original slab is authoritative
    /// and recovers by bare replay.
    pub fn open_with(path: impl Into<PathBuf>, io: SlabIo) -> io::Result<SlabFile> {
        let path = path.into();
        let _ = std::fs::remove_file(path.with_extension("fpslab.tmp"));
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        let mut len = file.metadata()?.len();
        let mut corrupt_segments = 0;
        if len < HEADER_LEN {
            if len > 0 {
                corrupt_segments += 1; // torn header from a mid-create crash
                file.set_len(0)?;
            }
            file.write_all(SLAB_MAGIC)?;
            file.write_all(&SLAB_VERSION.to_le_bytes())?;
            file.sync_data()?;
            len = HEADER_LEN;
        } else {
            let mut head = [0u8; HEADER_LEN as usize];
            file.seek(SeekFrom::Start(0))?;
            file.read_exact(&mut head)?;
            let version = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
            if &head[..8] != SLAB_MAGIC || version != SLAB_VERSION {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "not a slab file (bad magic or version)",
                ));
            }
        }
        Ok(SlabFile {
            path,
            file,
            len,
            map: None,
            live_bytes: 0,
            dead_bytes: 0,
            corrupt_segments,
            io,
        })
    }

    /// Appends one framed segment and returns where its payload landed.
    ///
    /// A failed append never leaves torn bytes behind: whatever prefix
    /// of the frame landed before the error is truncated away, so the
    /// tail stays on a valid frame boundary and later appends (or the
    /// next replay) see a clean stream.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<SegRef> {
        let len = u32::try_from(payload.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "segment too large"))?;
        let mut frame = Vec::with_capacity(FRAME_LEN as usize + payload.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        if let Err(e) = self.write_frame(&frame) {
            let _ = self.file.set_len(self.len);
            return Err(e);
        }
        let seg = SegRef {
            off: self.len + FRAME_LEN,
            len,
        };
        self.len += frame.len() as u64;
        self.live_bytes += u64::from(len);
        Ok(seg)
    }

    /// One frame write through the fault seam: a [`IoFault::Torn`]
    /// lands its partial prefix before failing, exactly what a crash
    /// mid-`write(2)` leaves on disk.
    fn write_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        match self.io.write_fault(IoOp::Append) {
            None => self.file.write_all(frame),
            Some(IoFault::Torn(n)) => {
                let n = n.min(frame.len());
                self.file.write_all(&frame[..n])?;
                Err(IoFault::Eio.to_error())
            }
            Some(fault) => Err(fault.to_error()),
        }
    }

    /// A zero-copy view of `seg`'s payload, remapping if the current
    /// mapping is too short (the file has grown since). Returns `None`
    /// if the ref is out of bounds or the payload framing is invalid.
    pub fn slice(&mut self, seg: SegRef) -> Option<SlabSlice> {
        let end = seg.off.checked_add(u64::from(seg.len))?;
        if end > self.len {
            return None;
        }
        let need = end as usize;
        if self.map.as_ref().map_or(0, |m| m.len()) < need {
            match Mmap::map(&self.file, self.len as usize) {
                Ok(map) => self.map = Some(Arc::new(map)),
                Err(_) => {
                    // No mapping available; fall back to an owned read.
                    let mut buf = vec![0u8; seg.len as usize];
                    self.read_exact_at(&mut buf, seg.off).ok()?;
                    return SlabSlice::new(SliceSrc::Owned(buf));
                }
            }
        }
        let map = Arc::clone(self.map.as_ref().expect("mapped above"));
        SlabSlice::new(SliceSrc::Mapped {
            map,
            off: seg.off as usize,
            len: seg.len as usize,
        })
    }

    fn read_exact_at(&self, buf: &mut [u8], off: u64) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, off)
    }

    /// Reads and CRC-verifies one segment's payload (used by recovery
    /// and compaction, where trusting the page cache isn't enough).
    pub fn read_segment(&self, seg: SegRef) -> io::Result<Vec<u8>> {
        let mut head = [0u8; FRAME_LEN as usize];
        self.read_exact_at(&mut head, seg.off - FRAME_LEN)?;
        let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes"));
        let want_crc = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
        if len != seg.len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "segment length mismatch",
            ));
        }
        let mut payload = vec![0u8; len as usize];
        self.read_exact_at(&mut payload, seg.off)?;
        if crc32(&payload) != want_crc {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "segment crc mismatch",
            ));
        }
        Ok(payload)
    }

    /// Front-recoverable scan of the whole file: yields every intact
    /// segment in append order, counts damaged ones (bad CRC keeps the
    /// stream aligned and is skipped; a torn tail — whether the crash
    /// cut the *payload* or the 8-byte *length/CRC frame header* itself
    /// — stops the scan), and resets the live/dead accounting to
    /// "everything intact is live".
    ///
    /// A torn tail is also **healed**: the file is truncated back to
    /// the last intact frame boundary, so segments appended after
    /// recovery land on a valid boundary instead of being orphaned
    /// behind the tear (where the *next* replay's scan would stop
    /// before ever reaching them).
    pub fn replay(&mut self) -> Vec<(SegRef, Vec<u8>)> {
        let data = match std::fs::read(&self.path) {
            Ok(data) => data,
            Err(_) => return Vec::new(),
        };
        let mut out = Vec::new();
        let mut live = 0u64;
        let mut pos = HEADER_LEN as usize;
        let mut torn_at = None;
        while pos < data.len() {
            if pos + FRAME_LEN as usize > data.len() {
                // Truncated frame header: the crash cut the length/CRC
                // fields themselves.
                self.corrupt_segments += 1;
                torn_at = Some(pos);
                break;
            }
            let len = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes"));
            let want_crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().expect("4 bytes"));
            let start = pos + FRAME_LEN as usize;
            let Some(end) = start.checked_add(len as usize) else {
                self.corrupt_segments += 1;
                torn_at = Some(pos);
                break;
            };
            if end > data.len() {
                self.corrupt_segments += 1; // torn payload (crash mid-spill)
                torn_at = Some(pos);
                break;
            }
            let payload = &data[start..end];
            if crc32(payload) == want_crc {
                live += u64::from(len);
                out.push((
                    SegRef {
                        off: start as u64,
                        len,
                    },
                    payload.to_vec(),
                ));
            } else {
                self.corrupt_segments += 1; // damaged payload; stream stays aligned
            }
            pos = end;
        }
        if let Some(tear) = torn_at {
            // Heal: drop the torn bytes so future appends extend a
            // valid stream. Best-effort — if the truncate fails the
            // file is no worse than before. The mapping is dropped
            // because it may cover the truncated range.
            if self.file.set_len(tear as u64).is_ok() {
                self.len = tear as u64;
                self.map = None;
            }
        }
        self.live_bytes = live;
        self.dead_bytes = 0;
        out
    }

    /// Marks a segment's payload bytes dead (its entry was removed or
    /// superseded); compaction reclaims them.
    pub fn mark_dead(&mut self, seg: SegRef) {
        let len = u64::from(seg.len);
        self.live_bytes = self.live_bytes.saturating_sub(len);
        self.dead_bytes += len;
    }

    /// Whether the dead-byte fraction has crossed the compaction
    /// trigger.
    pub fn needs_compact(&self, ratio: f64) -> bool {
        let total = self.live_bytes + self.dead_bytes;
        self.dead_bytes > 0 && total > 0 && self.dead_bytes as f64 >= ratio * total as f64
    }

    /// Rewrites the slab keeping only `live` segments, atomically
    /// (stage to `.tmp`, fsync, rename). Returns the relocated refs and
    /// how many live segments had to be dropped as unreadable. On any
    /// I/O error the old file is left untouched and the old refs remain
    /// valid.
    pub fn compact(&mut self, live: &[(u64, SegRef)]) -> io::Result<(Vec<(u64, SegRef)>, usize)> {
        let mut out = Vec::with_capacity(HEADER_LEN as usize);
        out.extend_from_slice(SLAB_MAGIC);
        out.extend_from_slice(&SLAB_VERSION.to_le_bytes());
        let mut new_refs = Vec::with_capacity(live.len());
        let mut dropped = 0;
        let mut live_bytes = 0u64;
        for &(id, seg) in live {
            match self.read_segment(seg) {
                Ok(payload) => {
                    let off = (out.len() + FRAME_LEN as usize) as u64;
                    out.extend_from_slice(&seg.len.to_le_bytes());
                    out.extend_from_slice(&crc32(&payload).to_le_bytes());
                    out.extend_from_slice(&payload);
                    live_bytes += u64::from(seg.len);
                    new_refs.push((id, SegRef { off, len: seg.len }));
                }
                Err(_) => dropped += 1, // unreadable live segment: entry is lost
            }
        }
        let tmp = self.path.with_extension("fpslab.tmp");
        {
            self.io.check(IoOp::CompactWrite)?;
            let mut file = File::create(&tmp)?;
            file.write_all(&out)?;
            self.io.check(IoOp::Fsync)?;
            file.sync_all()?;
        }
        // The torn-rename crash point: with a `CompactRename` fault the
        // staged `.tmp` is complete on disk but the commit never
        // happens — the old slab stays authoritative, exactly like a
        // crash here would leave things.
        self.io.check(IoOp::CompactRename)?;
        std::fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&self.path)?;
        self.len = out.len() as u64;
        // Old mappings stay alive through their Arcs (readers mid-serve
        // keep the pre-compaction inode pinned); new slices remap.
        self.map = None;
        self.live_bytes = live_bytes;
        self.dead_bytes = 0;
        self.corrupt_segments += dropped;
        Ok((new_refs, dropped))
    }

    /// Total file size in bytes (header + frames + payloads).
    pub fn bytes(&self) -> u64 {
        self.len
    }

    /// Payload bytes belonging to live entries.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Payload bytes belonging to removed entries, reclaimable by
    /// compaction.
    pub fn dead_bytes(&self) -> u64 {
        self.dead_bytes
    }

    /// Segments found damaged (bad CRC, torn tail) or dropped during
    /// compaction — counted, never fatal.
    pub fn corrupt_segments(&self) -> usize {
        self.corrupt_segments
    }

    /// Records a segment found damaged by a reader (e.g. a promotion
    /// parse failure).
    pub fn note_corrupt(&mut self) {
        self.corrupt_segments += 1;
    }

    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// A demoted entry: everything classification and contained-row
/// selection need stays resident; the row bytes live in the slab.
#[derive(Debug, Clone)]
pub struct DemotedEntry {
    /// Store-assigned id (unchanged across demote/promote).
    pub id: u64,
    /// Residual group key (shared with the store's maps).
    pub residual_key: Arc<str>,
    /// The query's spatial region.
    pub region: Region,
    /// `region.bounding_rect()`, kept for description-index removal.
    pub bbox: HyperRect,
    /// The columnar skeleton: coordinate columns, spans, header, and
    /// micro-index with an empty row slab. Row selection runs on this;
    /// the selected spans are then spliced from the mmap'd slab.
    pub skeleton: Arc<ColumnarRows>,
    /// Row count (classification's smallest-containing preference).
    pub rows: usize,
    /// Serialized XML size of the full result (cost accounting).
    pub bytes: usize,
    /// Whether the result may have been clipped by a `TOP` limit.
    pub truncated: bool,
    /// The exact normalized SQL (shared with the store's exact map).
    pub exact_sql: Arc<str>,
    /// Data-release epoch the entry was cached under.
    pub epoch: u64,
    /// When the entry was inserted (TTL anchor).
    pub inserted_at: Option<Instant>,
    /// When the entry stops being fresh.
    pub expires_at: Option<Instant>,
}

/// Per-shard tier state: the slab file plus which entries live on disk
/// and where. Owned by `CacheStore`, which drives demotion from its
/// budget loop and promotion from the runtime's background parse.
#[derive(Debug)]
pub struct EvictionManager {
    pub(crate) compact_ratio: f64,
    /// Where this shard's warm-restart metadata snapshot lives.
    pub(crate) meta_path: PathBuf,
    pub(crate) slab: SlabFile,
    /// Entries currently resident only on disk, by id.
    pub(crate) demoted: HashMap<u64, DemotedEntry>,
    /// Slab segment for every entry that has ever been spilled —
    /// resident entries keep theirs so re-demotion is free (entries are
    /// immutable, so the bytes never go stale).
    pub(crate) refs: HashMap<u64, SegRef>,
    pub(crate) demotions: usize,
    pub(crate) promotions: usize,
    pub(crate) compactions: usize,
    /// The fault seam, shared with the slab (consulted directly for
    /// `.fpmeta` writes, which bypass the slab file).
    pub(crate) io: SlabIo,
    /// `true` while the tier is in eviction-only degraded mode: slab
    /// appends have been failing (EIO/ENOSPC), so demotion is skipped —
    /// entries fall back to plain eviction, which is never
    /// client-visible — until a periodic re-probe append succeeds.
    pub(crate) degraded: bool,
    /// Demote attempts skipped since the last degraded-mode re-probe.
    pub(crate) skipped_since_probe: usize,
    /// Times the tier entered degraded mode (monotone).
    pub(crate) degrade_events: usize,
    /// Times a re-probe append succeeded and the tier left degraded
    /// mode (monotone).
    pub(crate) recoveries: usize,
    /// Slab I/O errors observed (appends and compactions; injected or
    /// real).
    pub(crate) io_errors: usize,
}

/// How many demote attempts degraded mode skips between re-probe
/// appends. Attempt-counted rather than timed so torture replays stay
/// deterministic under a virtual clock.
pub(crate) const DEGRADED_REPROBE_AFTER: usize = 8;

impl EvictionManager {
    /// Opens shard `i`'s slab under the tier directory (creating both
    /// as needed).
    pub fn open(config: &TierConfig, shard: usize) -> io::Result<EvictionManager> {
        std::fs::create_dir_all(&config.dir)?;
        let slab = SlabFile::open_with(config.slab_path(shard), config.io.clone())?;
        Ok(EvictionManager {
            compact_ratio: config.compact_ratio,
            meta_path: config.meta_path(shard),
            slab,
            demoted: HashMap::new(),
            refs: HashMap::new(),
            demotions: 0,
            promotions: 0,
            compactions: 0,
            io: config.io.clone(),
            degraded: false,
            skipped_since_probe: 0,
            degrade_events: 0,
            recoveries: 0,
            io_errors: 0,
        })
    }

    /// Whether a slab append should be attempted right now. Healthy:
    /// always. Degraded: skip (the caller evicts instead), except every
    /// [`DEGRADED_REPROBE_AFTER`]th attempt, which goes through as the
    /// re-probe that detects the disk recovering.
    pub(crate) fn admit_append(&mut self) -> bool {
        if !self.degraded {
            return true;
        }
        self.skipped_since_probe += 1;
        if self.skipped_since_probe >= DEGRADED_REPROBE_AFTER {
            self.skipped_since_probe = 0;
            return true;
        }
        false
    }

    /// Records a successful slab append; a success while degraded is
    /// the re-probe landing, so the tier resumes demotion.
    pub(crate) fn note_append_ok(&mut self) {
        if self.degraded {
            self.degraded = false;
            self.skipped_since_probe = 0;
            self.recoveries += 1;
        }
    }

    /// Records a failed slab append and enters eviction-only degraded
    /// mode. Never client-visible: the caller falls back to eviction
    /// and the entry is simply refetched from origin on its next miss.
    pub(crate) fn note_append_err(&mut self) {
        self.io_errors += 1;
        if !self.degraded {
            self.degraded = true;
            self.skipped_since_probe = 0;
            self.degrade_events += 1;
        }
    }

    /// Compacts the slab if the dead-byte trigger has fired. Returns
    /// the ids whose segments turned out unreadable (the store must
    /// drop those entries); empty when nothing happened.
    pub(crate) fn maybe_compact(&mut self) -> Vec<u64> {
        if !self.slab.needs_compact(self.compact_ratio) {
            return Vec::new();
        }
        // Id (= insertion) order, so the rewritten slab replays the
        // same way whatever the map's iteration order.
        let mut live: Vec<(u64, SegRef)> = self.refs.iter().map(|(&id, &seg)| (id, seg)).collect();
        live.sort_unstable_by_key(|&(id, _)| id);
        match self.slab.compact(&live) {
            Ok((new_refs, _dropped)) => {
                let relocated: HashMap<u64, SegRef> = new_refs.into_iter().collect();
                let lost: Vec<u64> = self
                    .refs
                    .keys()
                    .filter(|id| !relocated.contains_key(id))
                    .copied()
                    .collect();
                self.refs = relocated;
                self.compactions += 1;
                lost
            }
            // Compaction failure is not fatal: the old file and refs
            // stay valid; we'll retry at the next trigger.
            Err(_) => {
                self.io_errors += 1;
                Vec::new()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fp_tier_test_{}_{}", std::process::id(), name));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn payload(i: u8, rows: usize) -> Vec<u8> {
        let xml = format!("<CacheEntry n=\"{i}\"/>");
        let slab: Vec<u8> = (0..rows).map(|r| (r as u8).wrapping_mul(i)).collect();
        encode_payload(xml.as_bytes(), &slab)
    }

    #[test]
    fn append_then_slice_round_trips_via_mmap() {
        let dir = temp_dir("roundtrip");
        let mut slab = SlabFile::open(dir.join("slab_0.fpslab")).unwrap();
        let p1 = payload(1, 300);
        let p2 = payload(2, 4500);
        let s1 = slab.append(&p1).unwrap();
        let s2 = slab.append(&p2).unwrap();

        let v1 = slab.slice(s1).unwrap();
        let v2 = slab.slice(s2).unwrap();
        assert_eq!(v1.payload(), &p1[..]);
        assert_eq!(v2.payload(), &p2[..]);
        assert_eq!(v1.xml(), b"<CacheEntry n=\"1\"/>");
        assert_eq!(v2.row_slab().len(), 4500);
        // CRC-verified reads agree with the mapped view.
        assert_eq!(slab.read_segment(s2).unwrap(), p2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn slice_remaps_after_growth() {
        let dir = temp_dir("growth");
        let mut slab = SlabFile::open(dir.join("slab_0.fpslab")).unwrap();
        let s1 = slab.append(&payload(1, 100)).unwrap();
        let _early = slab.slice(s1).unwrap(); // maps the short prefix
        let p2 = payload(2, 5000);
        let s2 = slab.append(&p2).unwrap();
        let late = slab.slice(s2).unwrap(); // must remap to cover s2
        assert_eq!(late.payload(), &p2[..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_skips_bad_crc_and_stops_at_torn_tail() {
        let dir = temp_dir("replay");
        let path = dir.join("slab_0.fpslab");
        // Three good segments plus one that will be torn; then flip a
        // byte in the middle one and truncate the tail.
        let mut slab = SlabFile::open(&path).unwrap();
        let p1 = payload(1, 64);
        let a = slab.append(&p1).unwrap();
        let mid = slab.append(&payload(2, 64)).unwrap();
        let p3 = payload(3, 64);
        let c = slab.append(&p3).unwrap();
        slab.append(&payload(4, 64)).unwrap(); // will be torn
        let file_len = slab.bytes();
        drop(slab);

        let mut raw = std::fs::read(&path).unwrap();
        raw[mid.off as usize + 2] ^= 0xFF; // damage segment 2's payload
        raw.truncate(file_len as usize - 10); // tear the last segment
        std::fs::write(&path, &raw).unwrap();

        let mut slab = SlabFile::open(&path).unwrap();
        let kept = slab.replay();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].0, a);
        assert_eq!(kept[0].1, p1);
        assert_eq!(kept[1].0, c);
        assert_eq!(kept[1].1, p3);
        assert_eq!(slab.corrupt_segments(), 2); // bad crc + torn tail
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_heals_a_tail_torn_inside_the_frame_header() {
        let dir = temp_dir("torn_header");
        let path = dir.join("slab_0.fpslab");
        let mut slab = SlabFile::open(&path).unwrap();
        let p1 = payload(1, 64);
        let a = slab.append(&p1).unwrap();
        slab.append(&payload(2, 64)).unwrap();
        drop(slab);

        // Tear *inside the 8-byte length/CRC frame header* of segment 2
        // (not its payload): only 3 header bytes survive the crash.
        let second_frame = a.off + u64::from(a.len);
        let mut raw = std::fs::read(&path).unwrap();
        raw.truncate(second_frame as usize + 3);
        std::fs::write(&path, &raw).unwrap();

        let mut slab = SlabFile::open(&path).unwrap();
        let kept = slab.replay();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].1, p1);
        assert_eq!(slab.corrupt_segments(), 1); // counted, not an error
                                                // Healed: the partial header is gone, so a post-recovery append
                                                // starts on a valid frame boundary...
        assert_eq!(slab.bytes(), second_frame);
        let p3 = payload(3, 64);
        let s3 = slab.append(&p3).unwrap();
        assert_eq!(slab.read_segment(s3).unwrap(), p3);
        drop(slab);

        // ...and the *next* replay recovers it instead of stopping at
        // the (formerly orphaning) tear.
        let mut slab = SlabFile::open(&path).unwrap();
        let kept = slab.replay();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].1, p1);
        assert_eq!(kept[1].1, p3);
        assert_eq!(slab.corrupt_segments(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_keeps_live_segments_and_resets_dead_bytes() {
        let dir = temp_dir("compact");
        let mut slab = SlabFile::open(dir.join("slab_0.fpslab")).unwrap();
        let p1 = payload(1, 2000);
        let p2 = payload(2, 2000);
        let p3 = payload(3, 2000);
        let s1 = slab.append(&p1).unwrap();
        let s2 = slab.append(&p2).unwrap();
        let s3 = slab.append(&p3).unwrap();
        let before = slab.bytes();

        // Readers holding slices across compaction keep working.
        let pinned = slab.slice(s1).unwrap();

        slab.mark_dead(s2);
        assert!(!slab.needs_compact(0.5));
        slab.mark_dead(s1);
        assert!(slab.needs_compact(0.5));

        let (new_refs, dropped) = slab.compact(&[(3, s3)]).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(new_refs.len(), 1);
        assert!(slab.bytes() < before);
        assert_eq!(slab.dead_bytes(), 0);
        let v3 = slab.slice(new_refs[0].1).unwrap();
        assert_eq!(v3.payload(), &p3[..]);
        // The pre-compaction mapping still serves the old bytes.
        assert_eq!(pinned.payload(), &p1[..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_append_faults_fail_with_real_errnos_and_leave_no_tail() {
        let dir = temp_dir("io_faults");
        let path = dir.join("slab_0.fpslab");
        let io = SlabIo::healthy();
        let mut slab = SlabFile::open_with(&path, io.clone()).unwrap();
        let p1 = payload(1, 128);
        let s1 = slab.append(&p1).unwrap();
        let clean_len = slab.bytes();

        io.inject(IoOp::Append, IoFault::Enospc);
        let err = slab.append(&payload(2, 128)).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28));
        assert_eq!(slab.bytes(), clean_len, "ENOSPC left bytes behind");

        // A torn write lands partial bytes; the self-heal truncates
        // them back off so the on-disk stream stays frame-aligned.
        io.inject(IoOp::Append, IoFault::Torn(5));
        let err = slab.append(&payload(3, 128)).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(5));
        assert_eq!(slab.bytes(), clean_len);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        assert_eq!(io.faults_injected(), 2);

        // Healed: appends work again and nothing was corrupted.
        io.heal_all();
        let p4 = payload(4, 128);
        let s4 = slab.append(&p4).unwrap();
        assert_eq!(slab.read_segment(s1).unwrap(), p1);
        assert_eq!(slab.read_segment(s4).unwrap(), p4);
        drop(slab);
        let mut slab = SlabFile::open_with(&path, SlabIo::healthy()).unwrap();
        assert_eq!(slab.replay().len(), 2);
        assert_eq!(slab.corrupt_segments(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Satellite: the torn-rename crash point. A fault between the
    /// staging write and the rename leaves a *complete* `.tmp` next to
    /// the untouched slab — recovery must sweep the tmp, replay the
    /// bare slab with zero entry loss, and count zero corruption (a
    /// failed compaction is not damage, and must not double-count).
    #[test]
    fn torn_rename_crash_point_loses_nothing_and_counts_nothing() {
        let dir = temp_dir("torn_rename");
        let path = dir.join("slab_0.fpslab");
        let io = SlabIo::healthy();
        let mut slab = SlabFile::open_with(&path, io.clone()).unwrap();
        let p1 = payload(1, 900);
        let p2 = payload(2, 900);
        let p3 = payload(3, 900);
        let s1 = slab.append(&p1).unwrap();
        let s2 = slab.append(&p2).unwrap();
        let s3 = slab.append(&p3).unwrap();
        slab.mark_dead(s1);
        slab.mark_dead(s2);

        io.inject(IoOp::CompactRename, IoFault::Eio);
        let err = slab.compact(&[(3, s3)]).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(5));
        let tmp = path.with_extension("fpslab.tmp");
        assert!(tmp.exists(), "staging completed before the crash point");
        // The old slab stays authoritative: the old ref still reads.
        assert_eq!(slab.read_segment(s3).unwrap(), p3);
        assert_eq!(
            slab.corrupt_segments(),
            0,
            "a failed compaction is not corruption"
        );

        // "Crash" and restart: reopen sweeps the stale tmp; the bare
        // replay recovers every intact segment.
        drop(slab);
        let mut slab = SlabFile::open_with(&path, SlabIo::healthy()).unwrap();
        assert!(!tmp.exists(), "stale staging file swept at open");
        let kept = slab.replay();
        assert_eq!(kept.len(), 3, "entry loss across the crash point");
        assert_eq!(kept[2].1, p3);
        assert_eq!(slab.corrupt_segments(), 0, "double-counted corruption");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_staging_and_fsync_faults_leave_the_old_slab_authoritative() {
        let dir = temp_dir("compact_faults");
        let io = SlabIo::healthy();
        let mut slab = SlabFile::open_with(dir.join("slab_0.fpslab"), io.clone()).unwrap();
        let p = payload(7, 600);
        let s = slab.append(&p).unwrap();

        for fault_op in [IoOp::CompactWrite, IoOp::Fsync] {
            io.inject(fault_op, IoFault::Enospc);
            let err = slab.compact(&[(7, s)]).unwrap_err();
            assert_eq!(err.raw_os_error(), Some(28));
            assert_eq!(slab.read_segment(s).unwrap(), p, "{fault_op:?}");
            io.heal_all();
        }
        // Healed, the same compaction goes through.
        let (new_refs, dropped) = slab.compact(&[(7, s)]).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(slab.read_segment(new_refs[0].1).unwrap(), p);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The eviction-only degraded mode: after an append failure the
    /// tier stops attempting appends except for a periodic re-probe,
    /// and one successful re-probe restores full service. Counters
    /// record one degrade event per outage, not per skipped append.
    #[test]
    fn degraded_tier_reprobes_periodically_and_recovers() {
        let dir = temp_dir("degrade");
        let cfg = TierConfig::new(&dir);
        let mut tier = EvictionManager::open(&cfg, 0).unwrap();
        assert!(tier.admit_append(), "healthy tier admits every append");

        tier.note_append_err();
        assert_eq!(tier.degrade_events, 1);
        let admitted: Vec<bool> = (0..DEGRADED_REPROBE_AFTER)
            .map(|_| tier.admit_append())
            .collect();
        assert!(
            admitted[..DEGRADED_REPROBE_AFTER - 1].iter().all(|a| !a),
            "degraded tier must skip appends"
        );
        assert!(
            admitted[DEGRADED_REPROBE_AFTER - 1],
            "every {DEGRADED_REPROBE_AFTER}th attempt re-probes the disk"
        );

        // The re-probe fails: still one outage, not a new degrade event.
        tier.note_append_err();
        assert_eq!(tier.degrade_events, 1);
        assert_eq!(tier.io_errors, 2);

        // Next re-probe succeeds: demotion resumes immediately.
        for _ in 0..DEGRADED_REPROBE_AFTER - 1 {
            assert!(!tier.admit_append());
        }
        assert!(tier.admit_append());
        tier.note_append_ok();
        assert_eq!(tier.recoveries, 1);
        assert!(tier.admit_append(), "recovered tier admits every append");
        assert!(tier.admit_append());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_validates_header_and_rejects_foreign_files() {
        let dir = temp_dir("header");
        let path = dir.join("slab_0.fpslab");
        {
            let mut slab = SlabFile::open(&path).unwrap();
            slab.append(&payload(1, 16)).unwrap();
        }
        // Clean reopen: header accepted, replay finds the segment.
        let mut slab = SlabFile::open(&path).unwrap();
        assert_eq!(slab.replay().len(), 1);
        drop(slab);

        let foreign = dir.join("foreign.fpslab");
        std::fs::write(&foreign, b"NOTASLAB....plus some trailing junk").unwrap();
        assert!(SlabFile::open(&foreign).is_err());

        // A torn header (crash during create) is reinitialized and
        // counted, not fatal.
        let torn = dir.join("torn.fpslab");
        std::fs::write(&torn, b"FPSL").unwrap();
        let slab = SlabFile::open(&torn).unwrap();
        assert_eq!(slab.corrupt_segments(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
