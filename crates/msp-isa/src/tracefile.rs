//! Persistent, block-compressed trace files.
//!
//! A trace file is the on-disk form of a [`Trace`]: the same committed-path
//! record stream, architectural checkpoints and end state, but delta/varint
//! bit-packed and LZ-compressed so a multi-million-instruction workload costs
//! a few bytes per record instead of `size_of::<ExecutedInst>()`. Files are
//! written once (append-only) and then read either wholesale
//! ([`TraceReader::read_trace`]) or incrementally through a [`TraceCursor`],
//! which decodes one block at a time into a small reusable window — the path
//! that lets a simulation iterate a trace far larger than RAM.
//!
//! # Format (version 3)
//!
//! All integers are little-endian; `varint` is LEB128 with 7 payload bits per
//! byte.
//!
//! ```text
//! header   (32 B)  magic "MSPTRACE", version u32, block_records u32,
//!                  program fingerprint u64, checkpoint_interval u64
//! blocks   (...)   one LZ-compressed chunk per `block_records` records
//! ckpts    (...)   one LZ-compressed chunk per architectural checkpoint
//! end      (...)   one LZ-compressed chunk holding the end state
//! bbvs     (...)   one LZ-compressed chunk holding every per-interval
//!                  basic-block vector
//! index    (...)   record_count u64, complete u8, block entries,
//!                  checkpoint entries, end entry, bbv entry
//!                  (offsets, lengths, per-chunk FNV-1a checksums of the
//!                  *uncompressed* bytes)
//! footer   (24 B)  index_offset u64, file checksum u64, magic "MSPTREOF"
//! ```
//!
//! Only the current version is read: a file of any other version fails
//! [`TraceReader::open`] with [`TraceFileError::Version`]. A trace store is a
//! cache, so it captures such a trace again.
//!
//! The file checksum is FNV-1a over every byte up to (not including) the
//! checksum field itself, so any single flipped byte anywhere in the file is
//! guaranteed to be rejected at [`TraceReader::open`] time: FNV-1a's XOR and
//! odd-prime multiply are both bijections modulo 2^64, so a substituted byte
//! always changes the final hash.
//!
//! Records do not store their instruction: the decoder re-fetches it from the
//! [`Program`], whose identity is pinned by a stable [`program_fingerprint`]
//! in the header. Within a block, a record stores only what the timing model
//! reads and cannot derive from the instruction and the running PC chain: a
//! taken byte for a conditional branch, a varint target for an indirect jump
//! or return, and a zigzag delta-coded effective address for a load or
//! store. Every other record costs no bytes at all. Result values are not
//! stored; checkpoints and the end state carry the architectural state.

use crate::exec::{execute_step, ExecutedInst};
use crate::inst::{BranchCond, Opcode};
use crate::memory::{Memory, PAGE_SIZE};
use crate::program::Program;
use crate::reg::{NUM_FP_REGS, NUM_INT_REGS};
use crate::state::ArchState;
use crate::trace::{BbvAccumulator, BbvSignature, Trace};
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Version written into every new trace file header, and the only one the
/// reader accepts. Version 2 added the basic-block-vector chunk; version 3
/// dropped result values from the records.
pub const TRACE_FORMAT_VERSION: u32 = 3;

/// Default number of records per compressed block.
///
/// At 8192 records a decoded block is ~576 KiB of `ExecutedInst`, and the
/// cursor's four-slot window comfortably covers the timing simulator's
/// bounded lookbehind while keeping per-block decode latency small.
pub const DEFAULT_BLOCK_RECORDS: u32 = 8192;

const MAGIC: &[u8; 8] = b"MSPTRACE";
const TRAILER: &[u8; 8] = b"MSPTREOF";
const HEADER_LEN: usize = 32;
const FOOTER_LEN: usize = 24;
/// Decoded blocks kept by a [`TraceCursor`] (LRU). Four slots of
/// [`DEFAULT_BLOCK_RECORDS`] records cover the simulator's maximum rollback
/// window with room to spare.
const CURSOR_SLOTS: usize = 4;

use crate::wire::{fnv1a, put_varint, unzigzag, zigzag, Reader, WireError, FNV_OFFSET};

/// Error reading or validating a trace file.
#[derive(Debug)]
pub enum TraceFileError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// The file is structurally invalid or fails a checksum.
    Corrupt(String),
    /// The file was written by an unsupported format version.
    Version {
        /// Version found in the file header.
        found: u32,
    },
    /// The file was captured from a different program.
    ProgramMismatch {
        /// Fingerprint stored in the file header.
        file: u64,
        /// Fingerprint of the program supplied by the caller.
        program: u64,
    },
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "trace file i/o error: {e}"),
            TraceFileError::Corrupt(msg) => write!(f, "corrupt trace file: {msg}"),
            TraceFileError::Version { found } => write!(
                f,
                "unsupported trace file version {found} (supported: {TRACE_FORMAT_VERSION})"
            ),
            TraceFileError::ProgramMismatch { file, program } => write!(
                f,
                "trace file was captured from a different program \
                 (file fingerprint {file:#018x}, program fingerprint {program:#018x})"
            ),
        }
    }
}

impl Error for TraceFileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceFileError {
    fn from(e: io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

impl From<WireError> for TraceFileError {
    fn from(e: WireError) -> Self {
        corrupt(e.to_string())
    }
}

fn corrupt(msg: impl Into<String>) -> TraceFileError {
    TraceFileError::Corrupt(msg.into())
}

/// Summary of a trace file, available without decoding any payload
/// (see [`read_trace_meta`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFileMeta {
    /// Format version from the header.
    pub version: u32,
    /// Stable fingerprint of the program the trace was captured from.
    pub fingerprint: u64,
    /// Records per compressed block.
    pub block_records: u32,
    /// Committed instructions between checkpoints (`0` = none).
    pub checkpoint_interval: u64,
    /// Total records in the file.
    pub record_count: u64,
    /// Architectural checkpoints stored in the file.
    pub checkpoint_count: u32,
    /// Whether the program finished within the stored records.
    pub complete: bool,
    /// Total file size in bytes.
    pub file_bytes: u64,
}

// ---------------------------------------------------------------------------
// program fingerprint
// ---------------------------------------------------------------------------

fn opcode_code(op: Opcode) -> u8 {
    match op {
        Opcode::Add => 0,
        Opcode::Sub => 1,
        Opcode::And => 2,
        Opcode::Or => 3,
        Opcode::Xor => 4,
        Opcode::Sll => 5,
        Opcode::Srl => 6,
        Opcode::Slt => 7,
        Opcode::AddI => 8,
        Opcode::AndI => 9,
        Opcode::OrI => 10,
        Opcode::XorI => 11,
        Opcode::SllI => 12,
        Opcode::SrlI => 13,
        Opcode::SltI => 14,
        Opcode::Mul => 15,
        Opcode::Div => 16,
        Opcode::FAdd => 17,
        Opcode::FSub => 18,
        Opcode::FMul => 19,
        Opcode::FDiv => 20,
        Opcode::FCmpLt => 21,
        Opcode::CvtIntFp => 22,
        Opcode::CvtFpInt => 23,
        Opcode::Load => 24,
        Opcode::Store => 25,
        Opcode::Branch(BranchCond::Eq) => 26,
        Opcode::Branch(BranchCond::Ne) => 27,
        Opcode::Branch(BranchCond::Lt) => 28,
        Opcode::Branch(BranchCond::Ge) => 29,
        Opcode::Branch(BranchCond::Ltu) => 30,
        Opcode::Branch(BranchCond::Geu) => 31,
        Opcode::Jump => 32,
        Opcode::JumpIndirect => 33,
        Opcode::Call => 34,
        Opcode::Ret => 35,
        Opcode::Nop => 36,
        Opcode::Halt => 37,
    }
}

/// A stable 64-bit fingerprint of a program's text segment and initial data.
///
/// Unlike hashing with `std::hash`, the byte encoding here is explicit and
/// versioned by the trace format, so fingerprints are reproducible across
/// processes, platforms and Rust releases — they key the persistent trace
/// store and pin a trace file to the program it was captured from. The
/// program *name* is deliberately excluded: renaming a workload does not
/// invalidate its traces.
pub fn program_fingerprint(program: &Program) -> u64 {
    let mut buf = Vec::with_capacity(32 + program.len() * 24);
    buf.extend_from_slice(b"MSPPROG1");
    buf.extend_from_slice(&program.entry().to_le_bytes());
    buf.extend_from_slice(&(program.len() as u64).to_le_bytes());
    let reg_code = |r: Option<crate::reg::ArchReg>| r.map_or(255u8, |r| r.flat_index() as u8);
    for (_, inst) in program.iter() {
        buf.push(opcode_code(inst.opcode()));
        buf.push(reg_code(inst.dest()));
        buf.push(reg_code(inst.src1()));
        buf.push(reg_code(inst.src2()));
        buf.extend_from_slice(&(inst.imm() as u64).to_le_bytes());
        match inst.target() {
            Some(t) => {
                buf.push(1);
                buf.extend_from_slice(&t.to_le_bytes());
            }
            None => buf.push(0),
        }
        buf.push(inst.width().bytes() as u8);
    }
    buf.extend_from_slice(&(program.initial_data().len() as u64).to_le_bytes());
    for &(addr, value) in program.initial_data() {
        buf.extend_from_slice(&addr.to_le_bytes());
        buf.extend_from_slice(&value.to_le_bytes());
    }
    fnv1a(FNV_OFFSET, &buf)
}

// ---------------------------------------------------------------------------
// record codec
// ---------------------------------------------------------------------------
//
// Everything not written here is derived at decode time: the instruction from
// `program.fetch(pc)`, the PC from the previous record's `next_pc` (the first
// PC of each block lives in the index), and `taken`/`halted` from the opcode.

fn encode_record(buf: &mut Vec<u8>, prev_mem: &mut u64, rec: &ExecutedInst) {
    match rec.inst.opcode() {
        Opcode::Branch(_) => buf.push(u8::from(rec.taken)),
        Opcode::JumpIndirect | Opcode::Ret => put_varint(buf, rec.next_pc),
        _ => {}
    }
    if let Some(addr) = rec.mem_addr {
        put_varint(buf, zigzag(addr.wrapping_sub(*prev_mem) as i64));
        *prev_mem = addr;
    }
}

fn decode_record(
    program: &Program,
    bytes: &mut Reader<'_>,
    pc: u64,
    prev_mem: &mut u64,
) -> Result<ExecutedInst, TraceFileError> {
    let inst = program
        .fetch(pc)
        .ok_or_else(|| corrupt(format!("record pc {pc:#x} is outside the text segment")))?;
    let fallthrough = pc.wrapping_add(4);
    let mut taken = false;
    let mut halted = false;
    let next_pc = match inst.opcode() {
        Opcode::Branch(_) => {
            taken = match bytes.u8()? {
                0 => false,
                1 => true,
                v => return Err(corrupt(format!("invalid branch-taken byte {v}"))),
            };
            if taken {
                inst.target().expect("conditional branches carry a target")
            } else {
                fallthrough
            }
        }
        Opcode::Jump | Opcode::Call => {
            taken = true;
            inst.target().expect("jumps and calls carry a target")
        }
        Opcode::JumpIndirect | Opcode::Ret => {
            taken = true;
            bytes.varint()?
        }
        Opcode::Halt => {
            halted = true;
            pc
        }
        _ => fallthrough,
    };
    let mem_addr = if inst.is_mem() {
        let addr = prev_mem.wrapping_add(unzigzag(bytes.varint()?) as u64);
        *prev_mem = addr;
        Some(addr)
    } else {
        None
    };
    Ok(ExecutedInst {
        pc,
        inst,
        next_pc,
        taken,
        mem_addr,
        halted,
    })
}

fn decode_block(
    program: &Program,
    raw: &[u8],
    first_pc: u64,
    records: u32,
    out: &mut Vec<ExecutedInst>,
) -> Result<(), TraceFileError> {
    let mut bytes = Reader::new(raw);
    let mut pc = first_pc;
    let mut prev_mem = 0u64;
    out.reserve(records as usize);
    for _ in 0..records {
        let rec = decode_record(program, &mut bytes, pc, &mut prev_mem)?;
        pc = rec.next_pc;
        out.push(rec);
    }
    Ok(bytes.expect_end()?)
}

// ---------------------------------------------------------------------------
// architectural-state codec
// ---------------------------------------------------------------------------

fn encode_state(buf: &mut Vec<u8>, state: &ArchState) {
    put_varint(buf, state.pc());
    buf.push(u8::from(state.is_halted()));
    put_varint(buf, state.retired());
    for &r in state.int_regs() {
        put_varint(buf, r);
    }
    for &f in state.fp_regs() {
        put_varint(buf, f.to_bits().swap_bytes());
    }
    let pages = state.memory().pages_sorted();
    put_varint(buf, pages.len() as u64);
    let mut prev = 0u64;
    for (index, payload) in pages {
        put_varint(buf, index - prev);
        prev = index;
        buf.extend_from_slice(&payload[..]);
    }
}

fn decode_state(bytes: &mut Reader<'_>) -> Result<ArchState, TraceFileError> {
    let pc = bytes.varint()?;
    let halted = match bytes.u8()? {
        0 => false,
        1 => true,
        v => return Err(corrupt(format!("invalid halted byte {v}"))),
    };
    let retired = bytes.varint()?;
    let mut int_regs = [0u64; NUM_INT_REGS];
    for r in int_regs.iter_mut() {
        *r = bytes.varint()?;
    }
    let mut fp_regs = [0f64; NUM_FP_REGS];
    for r in fp_regs.iter_mut() {
        *r = f64::from_bits(bytes.varint()?.swap_bytes());
    }
    let page_count = bytes.varint()?;
    let mut memory = Memory::new();
    let mut prev = 0u64;
    for _ in 0..page_count {
        prev = prev
            .checked_add(bytes.varint()?)
            .ok_or_else(|| corrupt("page index overflows 64 bits"))?;
        let payload: &[u8; PAGE_SIZE] = bytes
            .take(PAGE_SIZE)?
            .try_into()
            .expect("take() returns exactly PAGE_SIZE bytes");
        memory.load_page(prev, payload);
    }
    Ok(ArchState::from_raw_parts(
        int_regs, fp_regs, pc, memory, halted, retired,
    ))
}

// ---------------------------------------------------------------------------
// basic-block-vector codec
// ---------------------------------------------------------------------------
//
// All BBVs live in one chunk: varint signature count, then per signature a
// varint pair count followed by delta-coded block-start PCs (the pairs are
// sorted by PC, so deltas are small) interleaved with varint instruction
// counts.

fn encode_bbvs(buf: &mut Vec<u8>, bbvs: &[BbvSignature]) {
    put_varint(buf, bbvs.len() as u64);
    for bbv in bbvs {
        put_varint(buf, bbv.weights().len() as u64);
        let mut prev = 0u64;
        for &(pc, count) in bbv.weights() {
            put_varint(buf, pc.wrapping_sub(prev));
            prev = pc;
            put_varint(buf, count);
        }
    }
}

fn decode_bbvs(bytes: &mut Reader<'_>) -> Result<Vec<BbvSignature>, TraceFileError> {
    let count = bytes.varint()?;
    let mut bbvs = Vec::with_capacity(count.min(1 << 20) as usize);
    for _ in 0..count {
        let pairs = bytes.varint()?;
        let mut weights = Vec::with_capacity(pairs.min(1 << 20) as usize);
        let mut prev = 0u64;
        for _ in 0..pairs {
            let delta = bytes.varint()?;
            if !weights.is_empty() && delta == 0 {
                return Err(corrupt("BBV block PCs are not strictly increasing"));
            }
            let pc = prev
                .checked_add(delta)
                .ok_or_else(|| corrupt("BBV block PC overflows 64 bits"))?;
            prev = pc;
            weights.push((pc, bytes.varint()?));
        }
        bbvs.push(BbvSignature::from_sorted_weights(weights));
    }
    Ok(bbvs)
}

// ---------------------------------------------------------------------------
// writer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct BlockEntry {
    offset: u64,
    comp_len: u32,
    raw_len: u32,
    records: u32,
    first_pc: u64,
    checksum: u64,
}

#[derive(Debug, Clone, Copy)]
struct ChunkEntry {
    offset: u64,
    comp_len: u32,
    raw_len: u32,
    checksum: u64,
}

/// Buffered file writer that maintains the running FNV-1a file checksum.
struct HashingFile {
    inner: BufWriter<File>,
    hash: u64,
    len: u64,
}

impl HashingFile {
    fn create(path: &Path) -> io::Result<Self> {
        Ok(HashingFile {
            inner: BufWriter::new(File::create(path)?),
            hash: FNV_OFFSET,
            len: 0,
        })
    }

    /// Writes bytes covered by the file checksum.
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.hash = fnv1a(self.hash, bytes);
        self.len += bytes.len() as u64;
        self.inner.write_all(bytes)
    }

    /// Writes bytes excluded from the file checksum (the checksum itself and
    /// the trailer magic).
    fn put_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.len += bytes.len() as u64;
        self.inner.write_all(bytes)
    }
}

struct PendingChunk {
    comp: Vec<u8>,
    raw_len: u32,
    checksum: u64,
}

/// Incremental trace-file writer.
///
/// Records are appended one at a time and flushed as compressed blocks;
/// checkpoints may be added at any point before [`TraceWriter::finish`]
/// (their compressed chunks are buffered in memory — compressed states are
/// small — and written after the record blocks). Nothing but the current
/// block and the buffered checkpoint chunks is held in memory, so a capture
/// can stream a trace arbitrarily larger than RAM straight to disk.
pub struct TraceWriter {
    out: HashingFile,
    block_records: u32,
    record_count: u64,
    blocks: Vec<BlockEntry>,
    block_buf: Vec<u8>,
    pending: u32,
    block_first_pc: u64,
    prev_mem_addr: u64,
    checkpoint_chunks: Vec<PendingChunk>,
    bbvs: Vec<BbvSignature>,
    state_buf: Vec<u8>,
    scratch: Vec<u8>,
}

impl TraceWriter {
    /// Creates a trace file at `path` for traces of `program`, with
    /// [`DEFAULT_BLOCK_RECORDS`] records per block.
    pub fn create(
        path: impl AsRef<Path>,
        program: &Program,
        checkpoint_interval: u64,
    ) -> io::Result<TraceWriter> {
        TraceWriter::with_block_records(path, program, checkpoint_interval, DEFAULT_BLOCK_RECORDS)
    }

    /// [`TraceWriter::create`] with an explicit block size (tests use small
    /// blocks to exercise multi-block files cheaply).
    ///
    /// # Panics
    ///
    /// Panics if `block_records` is zero.
    pub fn with_block_records(
        path: impl AsRef<Path>,
        program: &Program,
        checkpoint_interval: u64,
        block_records: u32,
    ) -> io::Result<TraceWriter> {
        assert!(block_records > 0, "block size must be positive");
        let mut out = HashingFile::create(path.as_ref())?;
        out.put(MAGIC)?;
        out.put(&TRACE_FORMAT_VERSION.to_le_bytes())?;
        out.put(&block_records.to_le_bytes())?;
        out.put(&program_fingerprint(program).to_le_bytes())?;
        out.put(&checkpoint_interval.to_le_bytes())?;
        Ok(TraceWriter {
            out,
            block_records,
            record_count: 0,
            blocks: Vec::new(),
            block_buf: Vec::new(),
            pending: 0,
            block_first_pc: 0,
            prev_mem_addr: 0,
            checkpoint_chunks: Vec::new(),
            bbvs: Vec::new(),
            state_buf: Vec::new(),
            scratch: Vec::new(),
        })
    }

    /// Number of records appended so far.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Appends one committed-path record.
    pub fn append(&mut self, rec: &ExecutedInst) -> io::Result<()> {
        if self.pending == 0 {
            self.block_first_pc = rec.pc;
            self.prev_mem_addr = 0;
            self.block_buf.clear();
        }
        encode_record(&mut self.block_buf, &mut self.prev_mem_addr, rec);
        self.pending += 1;
        self.record_count += 1;
        if self.pending == self.block_records {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Buffers the architectural checkpoint positioned before the *next*
    /// appended record. Checkpoint order must follow record order, exactly as
    /// [`crate::TraceBuilder`] produces it.
    pub fn add_checkpoint(&mut self, state: &ArchState) {
        self.state_buf.clear();
        encode_state(&mut self.state_buf, state);
        let mut comp = Vec::new();
        lz::compress_into(&self.state_buf, &mut comp);
        self.checkpoint_chunks.push(PendingChunk {
            comp,
            raw_len: self.state_buf.len() as u32,
            checksum: fnv1a(FNV_OFFSET, &self.state_buf),
        });
    }

    /// Buffers the basic-block vector of the *next* interval of appended
    /// records. BBV order must follow interval order, exactly as
    /// [`crate::BbvAccumulator`] emits them.
    pub fn add_bbv(&mut self, bbv: &BbvSignature) {
        self.bbvs.push(bbv.clone());
    }

    fn flush_block(&mut self) -> io::Result<()> {
        if self.pending == 0 {
            return Ok(());
        }
        self.scratch.clear();
        lz::compress_into(&self.block_buf, &mut self.scratch);
        let entry = BlockEntry {
            offset: self.out.len,
            comp_len: self.scratch.len() as u32,
            raw_len: self.block_buf.len() as u32,
            records: self.pending,
            first_pc: self.block_first_pc,
            checksum: fnv1a(FNV_OFFSET, &self.block_buf),
        };
        self.out.put(&self.scratch)?;
        self.blocks.push(entry);
        self.pending = 0;
        self.block_buf.clear();
        Ok(())
    }

    fn write_state_chunk(&mut self, state: &ArchState) -> io::Result<ChunkEntry> {
        self.state_buf.clear();
        encode_state(&mut self.state_buf, state);
        self.scratch.clear();
        lz::compress_into(&self.state_buf, &mut self.scratch);
        let entry = ChunkEntry {
            offset: self.out.len,
            comp_len: self.scratch.len() as u32,
            raw_len: self.state_buf.len() as u32,
            checksum: fnv1a(FNV_OFFSET, &self.state_buf),
        };
        self.out.put(&self.scratch)?;
        Ok(entry)
    }

    /// Writes the end state, index and footer, consuming the writer.
    ///
    /// `end_state` must be the functional state immediately after the last
    /// appended record, and `complete` whether the program finished within
    /// them — the same invariants [`Trace`] maintains.
    pub fn finish(mut self, end_state: &ArchState, complete: bool) -> io::Result<()> {
        self.flush_block()?;
        let mut checkpoints = Vec::with_capacity(self.checkpoint_chunks.len());
        for pending in std::mem::take(&mut self.checkpoint_chunks) {
            let entry = ChunkEntry {
                offset: self.out.len,
                comp_len: pending.comp.len() as u32,
                raw_len: pending.raw_len,
                checksum: pending.checksum,
            };
            self.out.put(&pending.comp)?;
            checkpoints.push(entry);
        }
        let end = self.write_state_chunk(end_state)?;
        self.state_buf.clear();
        encode_bbvs(&mut self.state_buf, &self.bbvs);
        self.scratch.clear();
        lz::compress_into(&self.state_buf, &mut self.scratch);
        let bbv_entry = ChunkEntry {
            offset: self.out.len,
            comp_len: self.scratch.len() as u32,
            raw_len: self.state_buf.len() as u32,
            checksum: fnv1a(FNV_OFFSET, &self.state_buf),
        };
        self.out.put(&self.scratch)?;

        let put_chunk = |index: &mut Vec<u8>, c: &ChunkEntry| {
            index.extend_from_slice(&c.offset.to_le_bytes());
            index.extend_from_slice(&c.comp_len.to_le_bytes());
            index.extend_from_slice(&c.raw_len.to_le_bytes());
            index.extend_from_slice(&c.checksum.to_le_bytes());
        };
        let mut index = Vec::new();
        index.extend_from_slice(&self.record_count.to_le_bytes());
        index.push(u8::from(complete));
        index.extend_from_slice(&(self.blocks.len() as u32).to_le_bytes());
        for b in &self.blocks {
            index.extend_from_slice(&b.offset.to_le_bytes());
            index.extend_from_slice(&b.comp_len.to_le_bytes());
            index.extend_from_slice(&b.raw_len.to_le_bytes());
            index.extend_from_slice(&b.records.to_le_bytes());
            index.extend_from_slice(&b.first_pc.to_le_bytes());
            index.extend_from_slice(&b.checksum.to_le_bytes());
        }
        index.extend_from_slice(&(checkpoints.len() as u32).to_le_bytes());
        for c in &checkpoints {
            put_chunk(&mut index, c);
        }
        put_chunk(&mut index, &end);
        put_chunk(&mut index, &bbv_entry);

        let index_offset = self.out.len;
        self.out.put(&index)?;
        self.out.put(&index_offset.to_le_bytes())?;
        let checksum = self.out.hash;
        self.out.put_raw(&checksum.to_le_bytes())?;
        self.out.put_raw(TRAILER)?;
        self.out.inner.flush()
    }
}

// ---------------------------------------------------------------------------
// reader
// ---------------------------------------------------------------------------

/// Reads a compressed chunk at `offset`, verifies its length and checksum,
/// and leaves the uncompressed payload in `raw`. A free function (not a
/// method) so callers can borrow disjoint fields of a cursor.
fn read_chunk(
    file: &mut File,
    entry: &ChunkEntry,
    comp: &mut Vec<u8>,
    raw: &mut Vec<u8>,
) -> Result<(), TraceFileError> {
    file.seek(SeekFrom::Start(entry.offset))?;
    comp.clear();
    comp.resize(entry.comp_len as usize, 0);
    file.read_exact(comp)?;
    raw.clear();
    lz::decompress_into(comp, raw)
        .map_err(|e| corrupt(format!("chunk at offset {}: {e}", entry.offset)))?;
    if raw.len() != entry.raw_len as usize {
        return Err(corrupt(format!(
            "chunk at offset {} decompressed to {} bytes, expected {}",
            entry.offset,
            raw.len(),
            entry.raw_len
        )));
    }
    if fnv1a(FNV_OFFSET, raw) != entry.checksum {
        return Err(corrupt(format!(
            "chunk at offset {} fails its checksum",
            entry.offset
        )));
    }
    Ok(())
}

/// Reads the chunk at `entry` and decodes its payload with `decode`, which
/// must consume all of it: the checkpoint, end-state and BBV chunks.
fn read_chunk_as<T>(
    file: &mut File,
    entry: &ChunkEntry,
    comp: &mut Vec<u8>,
    raw: &mut Vec<u8>,
    decode: impl FnOnce(&mut Reader<'_>) -> Result<T, TraceFileError>,
) -> Result<T, TraceFileError> {
    read_chunk(file, entry, comp, raw)?;
    let mut bytes = Reader::new(raw);
    let value = decode(&mut bytes)?;
    bytes.expect_end()?;
    Ok(value)
}

impl BlockEntry {
    fn chunk(&self) -> ChunkEntry {
        ChunkEntry {
            offset: self.offset,
            comp_len: self.comp_len,
            raw_len: self.raw_len,
            checksum: self.checksum,
        }
    }
}

/// A verified handle on a trace file: the parsed header and index, with the
/// whole file checksummed at open time.
///
/// A reader decodes no payload by itself — use [`TraceReader::read_trace`] to
/// materialise the full [`Trace`], or [`TraceReader::cursor`] to stream it
/// block by block.
#[derive(Debug)]
pub struct TraceReader {
    path: PathBuf,
    meta: TraceFileMeta,
    blocks: Vec<BlockEntry>,
    checkpoints: Vec<ChunkEntry>,
    end: ChunkEntry,
    bbv: ChunkEntry,
}

impl TraceReader {
    /// Opens and fully verifies the trace file at `path`, checking that it
    /// was captured from `program`.
    pub fn open(path: impl AsRef<Path>, program: &Program) -> Result<TraceReader, TraceFileError> {
        let reader = TraceReader::open_unchecked(path)?;
        reader.check_program(program)?;
        Ok(reader)
    }

    /// [`TraceReader::open`] without the program-fingerprint check, for
    /// tooling that inspects files without knowing their workload (`msp-lab
    /// trace ls`). The file checksum and index are still fully verified.
    pub fn open_unchecked(path: impl AsRef<Path>) -> Result<TraceReader, TraceFileError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let len = file.metadata()?.len();
        if len < (HEADER_LEN + FOOTER_LEN) as u64 {
            return Err(corrupt(format!("file is only {len} bytes")));
        }

        let mut header = [0u8; HEADER_LEN];
        file.read_exact(&mut header)?;
        if &header[0..8] != MAGIC {
            return Err(corrupt("bad header magic"));
        }
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if version != TRACE_FORMAT_VERSION {
            return Err(TraceFileError::Version { found: version });
        }
        let block_records = u32::from_le_bytes(header[12..16].try_into().unwrap());
        let fingerprint = u64::from_le_bytes(header[16..24].try_into().unwrap());
        let checkpoint_interval = u64::from_le_bytes(header[24..32].try_into().unwrap());
        if block_records == 0 {
            return Err(corrupt("zero block size"));
        }

        // One streamed pass over [0 .. len-16] — everything but the stored
        // checksum and trailer — so corruption anywhere is caught up front.
        let mut hash = fnv1a(FNV_OFFSET, &header);
        let mut remaining = len - 16 - HEADER_LEN as u64;
        let mut buf = vec![0u8; 64 * 1024];
        while remaining > 0 {
            let n = buf.len().min(remaining as usize);
            file.read_exact(&mut buf[..n])?;
            hash = fnv1a(hash, &buf[..n]);
            remaining -= n as u64;
        }
        let mut tail = [0u8; 16];
        file.read_exact(&mut tail)?;
        if &tail[8..16] != TRAILER {
            return Err(corrupt("bad trailer magic"));
        }
        let stored = u64::from_le_bytes(tail[0..8].try_into().unwrap());
        if stored != hash {
            return Err(corrupt(format!(
                "file checksum mismatch (stored {stored:#018x}, computed {hash:#018x})"
            )));
        }

        file.seek(SeekFrom::Start(len - FOOTER_LEN as u64))?;
        let mut offset_bytes = [0u8; 8];
        file.read_exact(&mut offset_bytes)?;
        let index_offset = u64::from_le_bytes(offset_bytes);
        if index_offset < HEADER_LEN as u64 || index_offset > len - FOOTER_LEN as u64 {
            return Err(corrupt(format!(
                "index offset {index_offset} out of bounds"
            )));
        }
        file.seek(SeekFrom::Start(index_offset))?;
        let mut index = vec![0u8; (len - FOOTER_LEN as u64 - index_offset) as usize];
        file.read_exact(&mut index)?;

        let mut bytes = Reader::new(&index);
        let record_count = bytes.u64()?;
        let complete = match bytes.u8()? {
            0 => false,
            1 => true,
            v => return Err(corrupt(format!("invalid complete byte {v}"))),
        };
        let block_count = bytes.u32()?;
        let mut blocks = Vec::with_capacity(block_count as usize);
        for _ in 0..block_count {
            blocks.push(BlockEntry {
                offset: bytes.u64()?,
                comp_len: bytes.u32()?,
                raw_len: bytes.u32()?,
                records: bytes.u32()?,
                first_pc: bytes.u64()?,
                checksum: bytes.u64()?,
            });
        }
        let read_chunk_entry = |bytes: &mut Reader<'_>| -> Result<ChunkEntry, TraceFileError> {
            Ok(ChunkEntry {
                offset: bytes.u64()?,
                comp_len: bytes.u32()?,
                raw_len: bytes.u32()?,
                checksum: bytes.u64()?,
            })
        };
        let checkpoint_count = bytes.u32()?;
        let mut checkpoints = Vec::with_capacity(checkpoint_count as usize);
        for _ in 0..checkpoint_count {
            checkpoints.push(read_chunk_entry(&mut bytes)?);
        }
        let end = read_chunk_entry(&mut bytes)?;
        let bbv = read_chunk_entry(&mut bytes)?;
        bytes.expect_end()?;

        if blocks.iter().map(|b| u64::from(b.records)).sum::<u64>() != record_count {
            return Err(corrupt("block record counts disagree with the index"));
        }
        for (offset, comp_len) in blocks.iter().map(|b| (b.offset, b.comp_len)).chain(
            checkpoints
                .iter()
                .chain([&end, &bbv])
                .map(|c| (c.offset, c.comp_len)),
        ) {
            if offset < HEADER_LEN as u64 || offset + u64::from(comp_len) > index_offset {
                return Err(corrupt(format!("chunk at offset {offset} out of bounds")));
            }
        }

        Ok(TraceReader {
            path,
            meta: TraceFileMeta {
                version,
                fingerprint,
                block_records,
                checkpoint_interval,
                record_count,
                checkpoint_count,
                complete,
                file_bytes: len,
            },
            blocks,
            checkpoints,
            end,
            bbv,
        })
    }

    /// The file's summary metadata.
    pub fn meta(&self) -> &TraceFileMeta {
        &self.meta
    }

    /// The path the reader was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether the file was captured from `program`.
    pub fn matches_program(&self, program: &Program) -> bool {
        self.meta.fingerprint == program_fingerprint(program)
    }

    fn check_program(&self, program: &Program) -> Result<(), TraceFileError> {
        let fp = program_fingerprint(program);
        if fp != self.meta.fingerprint {
            return Err(TraceFileError::ProgramMismatch {
                file: self.meta.fingerprint,
                program: fp,
            });
        }
        Ok(())
    }

    /// Whether the file stores a checkpoint positioned before record `index`.
    pub fn has_checkpoint_at(&self, index: u64) -> bool {
        self.meta.checkpoint_interval != 0
            && index.is_multiple_of(self.meta.checkpoint_interval)
            && (index / self.meta.checkpoint_interval) < u64::from(self.meta.checkpoint_count)
    }

    /// Decodes the whole file into an in-memory [`Trace`], bit-identical to
    /// the trace it was written from.
    pub fn read_trace(&self, program: &Program) -> Result<Trace, TraceFileError> {
        self.check_program(program)?;
        let mut file = File::open(&self.path)?;
        let mut comp = Vec::new();
        let mut raw = Vec::new();
        let mut records = Vec::with_capacity(self.meta.record_count as usize);
        for b in &self.blocks {
            read_chunk(&mut file, &b.chunk(), &mut comp, &mut raw)?;
            decode_block(program, &raw, b.first_pc, b.records, &mut records)?;
        }
        let checkpoints = self
            .checkpoints
            .iter()
            .map(|c| read_chunk_as(&mut file, c, &mut comp, &mut raw, decode_state))
            .collect::<Result<Vec<_>, _>>()?;
        let end_state = read_chunk_as(&mut file, &self.end, &mut comp, &mut raw, decode_state)?;
        Ok(Trace::from_parts(
            records,
            end_state,
            self.meta.complete,
            self.meta.checkpoint_interval,
            checkpoints,
            self.read_bbvs()?,
        ))
    }

    /// Decodes the per-interval basic-block vectors stored in the file,
    /// without decoding any record.
    pub fn read_bbvs(&self) -> Result<Vec<BbvSignature>, TraceFileError> {
        let mut file = File::open(&self.path)?;
        read_chunk_as(
            &mut file,
            &self.bbv,
            &mut Vec::new(),
            &mut Vec::new(),
            decode_bbvs,
        )
    }

    /// Opens a streaming [`TraceCursor`] over this file. The reader is shared
    /// (`Arc`) so many cursors can stream the same file concurrently, each
    /// with its own file handle and decode window.
    pub fn cursor(self: &Arc<Self>) -> io::Result<TraceCursor> {
        Ok(TraceCursor {
            file: File::open(&self.path)?,
            reader: Arc::clone(self),
            slots: Vec::new(),
            clock: 0,
            comp_buf: Vec::new(),
            raw_buf: Vec::new(),
            end_state: None,
        })
    }
}

/// Reads and verifies only the metadata of a trace file (no program needed).
pub fn read_trace_meta(path: impl AsRef<Path>) -> Result<TraceFileMeta, TraceFileError> {
    TraceReader::open_unchecked(path).map(|r| r.meta.clone())
}

// ---------------------------------------------------------------------------
// cursor
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct CursorSlot {
    block: u32,
    last_used: u64,
    records: Vec<ExecutedInst>,
}

/// Streaming, random-access view of a trace file.
///
/// A cursor decodes one block at a time into a small LRU window of reusable
/// buffers, so iterating a trace costs a bounded amount of memory regardless
/// of the trace's length. Lookups inside the window are slice accesses;
/// crossing into a new block seeks, decompresses and decodes it (evicting the
/// least-recently-used slot). Sequential consumers with bounded lookbehind —
/// the timing simulator — never thrash.
///
/// The cursor does not hold the [`Program`]; the caller passes it to each
/// lookup (the Oracle already owns it), which keeps the type free of
/// lifetimes. The file was exhaustively verified when the [`TraceReader`] was
/// opened, so a chunk failing to decode mid-stream means the file changed on
/// disk underneath the cursor — that is external interference, and the cursor
/// panics rather than propagating an error through every simulator step.
#[derive(Debug)]
pub struct TraceCursor {
    reader: Arc<TraceReader>,
    file: File,
    slots: Vec<CursorSlot>,
    clock: u64,
    comp_buf: Vec<u8>,
    raw_buf: Vec<u8>,
    end_state: Option<ArchState>,
}

impl TraceCursor {
    /// Total records in the underlying file.
    pub fn len(&self) -> u64 {
        self.reader.meta.record_count
    }

    /// Whether the underlying file holds no records.
    pub fn is_empty(&self) -> bool {
        self.reader.meta.record_count == 0
    }

    /// Whether the program finished within the stored records.
    pub fn is_complete(&self) -> bool {
        self.reader.meta.complete
    }

    /// Committed instructions between stored checkpoints (`0` = none).
    pub fn checkpoint_interval(&self) -> u64 {
        self.reader.meta.checkpoint_interval
    }

    /// The shared reader this cursor streams from.
    pub fn reader(&self) -> &Arc<TraceReader> {
        &self.reader
    }

    /// The record at dynamic index `index`, decoding its block if it is not
    /// already in the window. Returns `None` past the end of the file.
    pub fn get(&mut self, program: &Program, index: u64) -> Option<&ExecutedInst> {
        if index >= self.reader.meta.record_count {
            return None;
        }
        let block_records = u64::from(self.reader.meta.block_records);
        let slot = self.slot_for(program, (index / block_records) as u32);
        Some(&self.slots[slot].records[(index % block_records) as usize])
    }

    /// The functional state immediately after the last record, decoded
    /// lazily on first use.
    pub fn end_state(&mut self) -> &ArchState {
        if self.end_state.is_none() {
            let end = self.reader.end;
            self.end_state = Some(self.read_state(&end));
        }
        self.end_state.as_ref().unwrap()
    }

    /// Decodes the checkpoint positioned before record `index`, with the same
    /// `None` conditions as [`Trace::checkpoint_at`]. Returns an owned state:
    /// checkpoints are not cached, a resume clones the state anyway.
    pub fn checkpoint_at(&mut self, index: u64) -> Option<ArchState> {
        let interval = self.reader.meta.checkpoint_interval;
        if interval == 0 || !index.is_multiple_of(interval) {
            return None;
        }
        let entry = *self.reader.checkpoints.get((index / interval) as usize)?;
        Some(self.read_state(&entry))
    }

    /// Reads one of the file's state chunks (a checkpoint or the end state).
    fn read_state(&mut self, entry: &ChunkEntry) -> ArchState {
        read_chunk_as(
            &mut self.file,
            entry,
            &mut self.comp_buf,
            &mut self.raw_buf,
            decode_state,
        )
        .unwrap_or_else(|e| self.modified_while_in_use(e))
    }

    /// The file was verified when the reader opened it, so a chunk that no
    /// longer reads back means it changed on disk underneath the cursor.
    fn modified_while_in_use(&self, e: TraceFileError) -> ! {
        panic!(
            "trace file {} was modified while in use: {e}",
            self.reader.path.display()
        )
    }

    fn slot_for(&mut self, program: &Program, block: u32) -> usize {
        self.clock += 1;
        if let Some(i) = self.slots.iter().position(|s| s.block == block) {
            self.slots[i].last_used = self.clock;
            return i;
        }
        let i = if self.slots.len() < CURSOR_SLOTS {
            self.slots.push(CursorSlot {
                block,
                last_used: self.clock,
                records: Vec::new(),
            });
            self.slots.len() - 1
        } else {
            let i = (0..self.slots.len())
                .min_by_key(|&i| self.slots[i].last_used)
                .unwrap();
            self.slots[i].block = block;
            self.slots[i].last_used = self.clock;
            self.slots[i].records.clear();
            i
        };
        let entry = self.reader.blocks[block as usize];
        read_chunk(
            &mut self.file,
            &entry.chunk(),
            &mut self.comp_buf,
            &mut self.raw_buf,
        )
        .and_then(|()| {
            decode_block(
                program,
                &self.raw_buf,
                entry.first_pc,
                entry.records,
                &mut self.slots[i].records,
            )
        })
        .unwrap_or_else(|e| self.modified_while_in_use(e));
        i
    }
}

impl Clone for TraceCursor {
    /// Cloning opens a fresh file handle with an empty decode window.
    ///
    /// # Panics
    ///
    /// Panics if the file can no longer be opened (it was verified openable
    /// when the reader was created, so failure means it was removed or made
    /// unreadable underneath us).
    fn clone(&self) -> Self {
        self.reader
            .cursor()
            .unwrap_or_else(|e| panic!("reopening trace file {}: {e}", self.reader.path.display()))
    }
}

// ---------------------------------------------------------------------------
// convenience entry points
// ---------------------------------------------------------------------------

/// Serialises an in-memory [`Trace`] of `program` to a trace file at `path`.
pub fn write_trace_to_path(
    path: impl AsRef<Path>,
    program: &Program,
    trace: &Trace,
) -> io::Result<()> {
    let mut writer = TraceWriter::create(path, program, trace.checkpoint_interval())?;
    for state in trace.checkpoints() {
        writer.add_checkpoint(state);
    }
    for bbv in trace.bbvs() {
        writer.add_bbv(bbv);
    }
    for rec in trace.records() {
        writer.append(rec)?;
    }
    writer.finish(trace.end_state(), trace.is_complete())
}

/// Captures the trace of `program` directly to a file at `path`, never
/// materialising more than one block in memory — the path for budgets whose
/// in-memory [`Trace`] would not fit in RAM.
///
/// Semantics match [`Trace::capture_with_checkpoints`] exactly (with
/// `checkpoint_interval == 0` meaning no checkpoints, like
/// [`Trace::capture`]): stop after `max_instructions` records or at program
/// completion, checkpoints positioned before the record at each interval
/// multiple.
pub fn capture_trace_to_path(
    path: impl AsRef<Path>,
    program: &Program,
    max_instructions: u64,
    checkpoint_interval: u64,
) -> io::Result<()> {
    let mut writer = TraceWriter::create(path, program, checkpoint_interval)?;
    let mut state = ArchState::new(program);
    let mut checkpoints = 0u64;
    let mut complete = false;
    // BBV profiling mirrors `TraceBuilder`: enabled exactly when
    // checkpointing is, sharing its interval.
    let mut bbv = (checkpoint_interval > 0).then(|| BbvAccumulator::new(checkpoint_interval));
    while writer.record_count() < max_instructions {
        // Mirrors `TraceBuilder::step`: the snapshot is taken before the
        // step and committed only if the step produced its record.
        let snapshot = (checkpoint_interval > 0
            && writer.record_count() == checkpoints * checkpoint_interval)
            .then(|| state.clone());
        match execute_step(&mut state, program) {
            Ok(rec) => {
                if let Some(snapshot) = snapshot {
                    writer.add_checkpoint(&snapshot);
                    checkpoints += 1;
                }
                if let Some(bbv) = bbv.as_mut() {
                    bbv.observe(&rec);
                }
                let halted = rec.halted;
                writer.append(&rec)?;
                if halted {
                    complete = true;
                    break;
                }
            }
            Err(_) => {
                complete = true;
                break;
            }
        }
    }
    if let Some(bbv) = bbv {
        for sig in bbv.finish() {
            writer.add_bbv(&sig);
        }
    }
    writer.finish(&state, complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Instruction;
    use crate::reg::ArchReg;
    use crate::TEXT_BASE;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Self-deleting temp file path (no tempfile crate in the workspace).
    struct TempFile(PathBuf);

    impl TempFile {
        fn new(tag: &str) -> Self {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            TempFile(std::env::temp_dir().join(format!(
                "msp-isa-tracefile-{}-{tag}-{n}.msptrace",
                std::process::id()
            )))
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn counted_loop(n: i64) -> Program {
        let r = ArchReg::int;
        Program::new(vec![
            Instruction::li(r(1), n),
            Instruction::addi(r(1), r(1), -1),
            Instruction::bne(r(1), ArchReg::ZERO, TEXT_BASE + 4),
            Instruction::halt(),
        ])
    }

    /// A kernel covering every record shape the codec special-cases: fp
    /// loads/stores and arithmetic, calls and returns, indirect jumps,
    /// taken and not-taken branches, and narrow memory widths.
    fn full_coverage_kernel() -> Program {
        let r = ArchReg::int;
        let f = ArchReg::fp;
        let mut insts = vec![
            Instruction::li(r(1), 6),                                  //  0 loop counter
            Instruction::li(r(2), 0x8000),                             //  1 data base
            Instruction::load(f(1), r(2), 0),                          //  2 loop top
            Instruction::load(f(2), r(2), 8),                          //  3
            Instruction::fadd(f(3), f(1), f(2)),                       //  4
            Instruction::fmul(f(4), f(3), f(2)),                       //  5
            Instruction::store(f(4), r(2), 16),                        //  6 fp store
            Instruction::fcmplt(r(3), f(1), f(2)),                     //  7
            Instruction::cvt_fp_int(r(4), f(4)),                       //  8
            Instruction::cvt_int_fp(f(5), r(4)),                       //  9
            Instruction::store_w(r(4), r(2), 24, crate::MemWidth::B2), // 10
            Instruction::load_w(r(5), r(2), 24, crate::MemWidth::B2),  // 11
            Instruction::call(r(31), TEXT_BASE + 4 * 18),              // 12 -> subroutine
            Instruction::beq(r(1), ArchReg::ZERO, TEXT_BASE + 4 * 16), // 13 never taken
            Instruction::addi(r(1), r(1), -1),                         // 14
            Instruction::bne(r(1), ArchReg::ZERO, TEXT_BASE + 4 * 2),  // 15 loop
            Instruction::jump(TEXT_BASE + 4 * 17),                     // 16
            Instruction::halt(),                                       // 17
            Instruction::div(r(6), r(4), r(1)),                        // 18 subroutine
            Instruction::ret(r(31)),                                   // 19
        ];
        // Exercise the indirect-jump encoding once, off the hot loop.
        insts[13] = Instruction::beq(r(1), r(1), TEXT_BASE + 4 * 20);
        insts.push(Instruction::li(r(7), 4 * 14));
        insts.push(Instruction::addi(r(7), r(7), TEXT_BASE as i64));
        insts.push(Instruction::jump_indirect(r(7)));
        let mut p = Program::new(insts);
        p.add_data(0x8000, 1.5f64.to_bits());
        p.add_data(0x8008, 2.25f64.to_bits());
        p
    }

    /// Duplicated from `trace.rs` tests (test modules cannot share helpers):
    /// a terminating, branchy synthetic kernel from raw proptest entropy.
    fn random_kernel(ops: &[(u8, u8, u8)], iterations: u8) -> Program {
        let r = ArchReg::int;
        let mut insts = vec![
            Instruction::li(r(1), i64::from(iterations.max(1))),
            Instruction::li(r(2), 0x8000),
        ];
        for &(op, reg, imm) in ops {
            let imm = i64::from(imm);
            let dst = r(3 + usize::from(reg % 6));
            let src = r(3 + usize::from((reg / 7) % 6));
            insts.push(match op % 6 {
                0 => Instruction::addi(dst, src, imm % 64),
                1 => Instruction::add(dst, src, r(2)),
                2 => Instruction::mul(dst, src, src),
                3 => Instruction::load(dst, r(2), (imm % 8) * 8),
                4 => Instruction::store(src, r(2), (imm % 8) * 8),
                _ => Instruction::xor(dst, src, r(1)),
            });
        }
        insts.push(Instruction::addi(r(1), r(1), -1));
        let loop_top = TEXT_BASE + 8;
        insts.push(Instruction::bne(r(1), ArchReg::ZERO, loop_top));
        insts.push(Instruction::halt());
        Program::new(insts)
    }

    fn assert_traces_identical(a: &Trace, b: &Trace) {
        assert_eq!(a.records(), b.records());
        assert_eq!(a.end_state(), b.end_state());
        assert_eq!(a.is_complete(), b.is_complete());
        assert_eq!(a.checkpoint_interval(), b.checkpoint_interval());
        assert_eq!(a.checkpoint_count(), b.checkpoint_count());
        assert_eq!(a.bbvs(), b.bbvs());
        let interval = a.checkpoint_interval().max(1);
        for i in 0..a.checkpoint_count() as u64 {
            assert_eq!(
                a.checkpoint_at(i * interval),
                b.checkpoint_at(i * interval),
                "checkpoint {i}"
            );
        }
    }

    #[test]
    fn varint_roundtrip() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut bytes = Reader::new(&buf);
        for &v in &values {
            assert_eq!(bytes.varint().unwrap(), v);
        }
        bytes.expect_end().unwrap();
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 4096, -4096] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes stay small: that is the whole point.
        assert!(zigzag(-1) < 2);
        assert!(zigzag(8) < 17);
    }

    #[test]
    fn fnv_single_byte_substitution_changes_hash() {
        let base = b"the quick brown fox jumps over the lazy dog".to_vec();
        let reference = fnv1a(FNV_OFFSET, &base);
        for i in 0..base.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut copy = base.clone();
                copy[i] ^= flip;
                assert_ne!(
                    fnv1a(FNV_OFFSET, &copy),
                    reference,
                    "substituting byte {i} must change the hash"
                );
            }
        }
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let p = counted_loop(5);
        assert_eq!(program_fingerprint(&p), program_fingerprint(&p));
        // Pinned constant: the fingerprint keys the persistent store, so an
        // accidental encoding change must fail loudly here rather than
        // silently orphaning every stored trace.
        assert_eq!(program_fingerprint(&counted_loop(1)), 0x5e28_4171_88ad_f7ce);
        assert_ne!(
            program_fingerprint(&counted_loop(5)),
            program_fingerprint(&counted_loop(6))
        );
        let mut with_data = counted_loop(5);
        with_data.add_data(0x8000, 1);
        assert_ne!(program_fingerprint(&p), program_fingerprint(&with_data));
        // The name is excluded.
        let renamed = Program::with_name(
            "renamed",
            vec![
                Instruction::li(ArchReg::int(1), 5),
                Instruction::addi(ArchReg::int(1), ArchReg::int(1), -1),
                Instruction::bne(ArchReg::int(1), ArchReg::ZERO, TEXT_BASE + 4),
                Instruction::halt(),
            ],
        );
        assert_eq!(program_fingerprint(&p), program_fingerprint(&renamed));
    }

    #[test]
    fn round_trip_counted_loop_with_checkpoints() {
        let p = counted_loop(100);
        let trace = Trace::capture_with_checkpoints(&p, 1_000, 32);
        let tmp = TempFile::new("roundtrip");
        write_trace_to_path(tmp.path(), &p, &trace).unwrap();
        let reader = TraceReader::open(tmp.path(), &p).unwrap();
        assert_eq!(reader.meta().record_count, trace.len());
        assert_eq!(reader.meta().complete, trace.is_complete());
        assert_eq!(reader.meta().checkpoint_interval, 32);
        assert_eq!(
            reader.meta().checkpoint_count as usize,
            trace.checkpoint_count()
        );
        assert!(reader.has_checkpoint_at(32));
        assert!(!reader.has_checkpoint_at(33));
        let decoded = reader.read_trace(&p).unwrap();
        assert_traces_identical(&trace, &decoded);
    }

    #[test]
    fn round_trip_full_coverage_kernel() {
        let p = full_coverage_kernel();
        let trace = Trace::capture_with_checkpoints(&p, 10_000, 16);
        assert!(trace.is_complete(), "kernel must terminate");
        assert!(
            trace.records().iter().any(|r| r.inst.is_indirect()),
            "kernel must exercise indirect flow"
        );
        let tmp = TempFile::new("coverage");
        write_trace_to_path(tmp.path(), &p, &trace).unwrap();
        let decoded = TraceReader::open(tmp.path(), &p)
            .unwrap()
            .read_trace(&p)
            .unwrap();
        assert_traces_identical(&trace, &decoded);
    }

    #[test]
    fn round_trip_empty_and_incomplete_traces() {
        let p = counted_loop(1_000);
        for (tag, trace) in [
            ("empty", Trace::empty(&p)),
            ("budget", Trace::capture_with_checkpoints(&p, 100, 32)),
        ] {
            assert!(!trace.is_complete());
            let tmp = TempFile::new(tag);
            write_trace_to_path(tmp.path(), &p, &trace).unwrap();
            let decoded = TraceReader::open(tmp.path(), &p)
                .unwrap()
                .read_trace(&p)
                .unwrap();
            assert_traces_identical(&trace, &decoded);
        }
    }

    #[test]
    fn streaming_capture_matches_in_memory_capture() {
        let p = full_coverage_kernel();
        for (tag, budget, interval) in [
            ("halted", 100_000u64, 16u64),
            ("budget", 37, 8),
            ("plain", 37, 0),
            ("zero", 0, 4),
        ] {
            let reference = if interval == 0 {
                Trace::capture(&p, budget)
            } else {
                Trace::capture_with_checkpoints(&p, budget, interval)
            };
            let tmp = TempFile::new(tag);
            capture_trace_to_path(tmp.path(), &p, budget, interval).unwrap();
            let decoded = TraceReader::open(tmp.path(), &p)
                .unwrap()
                .read_trace(&p)
                .unwrap();
            assert_traces_identical(&reference, &decoded);
        }
    }

    #[test]
    fn stored_bbvs_round_trip_and_match_the_capture() {
        let p = full_coverage_kernel();
        let trace = Trace::capture_with_checkpoints(&p, 10_000, 16);
        assert!(!trace.bbvs().is_empty());
        let tmp = TempFile::new("bbvs");
        write_trace_to_path(tmp.path(), &p, &trace).unwrap();
        let reader = TraceReader::open(tmp.path(), &p).unwrap();
        assert_eq!(reader.meta().version, TRACE_FORMAT_VERSION);
        let stored = reader.read_bbvs().unwrap();
        assert_eq!(stored.as_slice(), trace.bbvs());
    }

    #[test]
    fn unsupported_future_version_is_rejected() {
        let p = counted_loop(3);
        let trace = Trace::capture(&p, 100);
        let tmp = TempFile::new("future");
        write_trace_to_path(tmp.path(), &p, &trace).unwrap();
        let original = std::fs::read(tmp.path()).unwrap();
        // A newer file, and a version-2 file, whose records interleave result
        // values a version-3 decoder cannot skip.
        for version in [TRACE_FORMAT_VERSION + 1, 2] {
            let mut bytes = original.clone();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            // Refresh the file checksum so only the version field is at fault.
            let hash = fnv1a(FNV_OFFSET, &bytes[..bytes.len() - 16]);
            let checksum_at = bytes.len() - 16;
            bytes[checksum_at..checksum_at + 8].copy_from_slice(&hash.to_le_bytes());
            let victim = TempFile::new("future-victim");
            std::fs::write(victim.path(), &bytes).unwrap();
            assert!(matches!(
                TraceReader::open_unchecked(victim.path()),
                Err(TraceFileError::Version { found }) if found == version
            ));
        }
    }

    #[test]
    fn a_record_stores_only_its_outcome_and_address() {
        // What each record costs before LZ: nothing for an ALU op, the taken
        // byte for a conditional branch, the target varint for an indirect
        // transfer and only the address-delta varint for a load or store.
        let p = full_coverage_kernel();
        let trace = Trace::capture(&p, 10_000);
        let (mut buf, mut prev_mem) = (Vec::new(), 0u64);
        let (mut alu, mut branches, mut loads, mut stores) = (0, 0, 0, 0);
        for rec in trace.records() {
            let mut expected = Vec::new();
            if let Some(addr) = rec.mem_addr {
                put_varint(&mut expected, zigzag(addr.wrapping_sub(prev_mem) as i64));
                if rec.inst.is_store() {
                    stores += 1;
                } else {
                    loads += 1;
                }
            } else if rec.inst.is_conditional_branch() {
                expected.push(u8::from(rec.taken));
                branches += 1;
            } else if rec.inst.is_indirect() {
                put_varint(&mut expected, rec.next_pc);
            } else if !rec.inst.is_control() && rec.inst.dest().is_some() {
                alu += 1;
            }
            buf.clear();
            encode_record(&mut buf, &mut prev_mem, rec);
            assert_eq!(buf, expected, "record {:?}", rec.inst);
        }
        assert!(alu > 0 && branches > 0 && loads > 0 && stores > 0);
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let p = counted_loop(3);
        let trace = Trace::capture_with_checkpoints(&p, 100, 4);
        let tmp = TempFile::new("flip");
        write_trace_to_path(tmp.path(), &p, &trace).unwrap();
        let original = std::fs::read(tmp.path()).unwrap();
        assert!(TraceReader::open(tmp.path(), &p).is_ok());
        let victim = TempFile::new("flip-victim");
        for i in 0..original.len() {
            let mut copy = original.clone();
            copy[i] ^= 0x40;
            std::fs::write(victim.path(), &copy).unwrap();
            assert!(
                TraceReader::open_unchecked(victim.path()).is_err(),
                "flipping byte {i} of {} must be detected",
                original.len()
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let p = counted_loop(10);
        let trace = Trace::capture(&p, 100);
        let tmp = TempFile::new("trunc");
        write_trace_to_path(tmp.path(), &p, &trace).unwrap();
        let original = std::fs::read(tmp.path()).unwrap();
        let victim = TempFile::new("trunc-victim");
        for keep in [0, 1, 8, 31, 32, original.len() / 2, original.len() - 1] {
            std::fs::write(victim.path(), &original[..keep]).unwrap();
            assert!(
                TraceReader::open_unchecked(victim.path()).is_err(),
                "truncation to {keep} bytes must be detected"
            );
        }
    }

    #[test]
    fn program_mismatch_is_detected() {
        let p = counted_loop(5);
        let other = counted_loop(6);
        let trace = Trace::capture(&p, 100);
        let tmp = TempFile::new("mismatch");
        write_trace_to_path(tmp.path(), &p, &trace).unwrap();
        let err = TraceReader::open(tmp.path(), &other).unwrap_err();
        assert!(matches!(err, TraceFileError::ProgramMismatch { .. }));
        let reader = TraceReader::open_unchecked(tmp.path()).unwrap();
        assert!(reader.matches_program(&p));
        assert!(!reader.matches_program(&other));
        assert!(matches!(
            reader.read_trace(&other),
            Err(TraceFileError::ProgramMismatch { .. })
        ));
    }

    #[test]
    fn cursor_matches_materialised_trace() {
        let p = full_coverage_kernel();
        let trace = Trace::capture_with_checkpoints(&p, 10_000, 10);
        let tmp = TempFile::new("cursor");
        {
            let mut writer = TraceWriter::with_block_records(tmp.path(), &p, 10, 16).unwrap();
            for state in trace.checkpoints() {
                writer.add_checkpoint(state);
            }
            for rec in trace.records() {
                writer.append(rec).unwrap();
            }
            writer
                .finish(trace.end_state(), trace.is_complete())
                .unwrap();
        }
        let reader = Arc::new(TraceReader::open(tmp.path(), &p).unwrap());
        assert!(
            reader.meta().record_count > 64,
            "need several blocks to exercise the window"
        );
        let mut cursor = reader.cursor().unwrap();
        assert_eq!(cursor.len(), trace.len());
        assert_eq!(cursor.is_complete(), trace.is_complete());
        assert_eq!(cursor.checkpoint_interval(), 10);

        // Sequential scan, then a deterministic pseudo-random access pattern
        // that hops across blocks (forcing evictions), then lookbehind.
        for i in 0..trace.len() {
            assert_eq!(cursor.get(&p, i), trace.get(i), "sequential index {i}");
        }
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x % (trace.len() + 8);
            assert_eq!(cursor.get(&p, i), trace.get(i), "random index {i}");
        }
        assert!(cursor.get(&p, trace.len()).is_none());
        assert_eq!(cursor.end_state(), trace.end_state());
        for k in (0..trace.len()).step_by(10) {
            assert_eq!(
                cursor.checkpoint_at(k).as_ref(),
                trace.checkpoint_at(k),
                "checkpoint {k}"
            );
        }
        assert!(cursor.checkpoint_at(5).is_none());

        // A clone starts cold but reads the same data.
        let mut clone = cursor.clone();
        assert_eq!(clone.get(&p, 0), trace.get(0));
        assert_eq!(clone.end_state(), trace.end_state());
    }

    #[test]
    fn on_disk_size_is_a_fraction_of_the_footprint() {
        let p = counted_loop(20_000);
        let trace = Trace::capture_with_checkpoints(&p, 60_002, 10_000);
        let tmp = TempFile::new("ratio");
        write_trace_to_path(tmp.path(), &p, &trace).unwrap();
        let meta = read_trace_meta(tmp.path()).unwrap();
        assert_eq!(meta.record_count, trace.len());
        assert!(
            meta.file_bytes as usize * 8 <= trace.footprint_bytes(),
            "on-disk size {} must be at most 1/8 of the in-memory footprint {}",
            meta.file_bytes,
            trace.footprint_bytes()
        );
    }

    #[test]
    fn meta_reports_header_fields() {
        let p = counted_loop(4);
        let tmp = TempFile::new("meta");
        capture_trace_to_path(tmp.path(), &p, 1_000, 4).unwrap();
        let meta = read_trace_meta(tmp.path()).unwrap();
        assert_eq!(meta.version, TRACE_FORMAT_VERSION);
        assert_eq!(meta.fingerprint, program_fingerprint(&p));
        assert_eq!(meta.block_records, DEFAULT_BLOCK_RECORDS);
        assert_eq!(meta.checkpoint_interval, 4);
        assert_eq!(meta.record_count, 10); // li + 4*(addi+bne) + halt
        assert!(meta.complete);
        assert_eq!(
            meta.file_bytes,
            std::fs::metadata(tmp.path()).unwrap().len()
        );
    }

    #[test]
    fn error_display_is_informative() {
        assert!(corrupt("boom").to_string().contains("boom"));
        assert!(TraceFileError::Version { found: 9 }
            .to_string()
            .contains('9'));
        assert!(TraceFileError::ProgramMismatch {
            file: 1,
            program: 2
        }
        .to_string()
        .contains("different program"));
        let io_err = TraceFileError::from(io::Error::new(io::ErrorKind::NotFound, "nope"));
        assert!(io_err.to_string().contains("nope"));
        assert!(io_err.source().is_some());
    }

    proptest! {
        /// Trace -> TraceWriter -> TraceReader -> Trace is bit-identity on
        /// random kernels: records, checkpoints, completeness and end state
        /// all survive the round trip, across block boundaries.
        #[test]
        fn round_trip_is_bit_identical(
            ops in proptest::collection::vec((0u8..8, 0u8..64, 0u8..64), 1..24),
            iterations in 1u8..40,
            budget in 1u64..600,
            interval in 4u64..48,
        ) {
            // The vendored proptest supports at most four parameters; derive
            // the block size from the other entropy so block boundaries still
            // land everywhere relative to the records.
            let block_records = 3 + (budget * 7 + interval) as u32 % 61;
            let program = random_kernel(&ops, iterations);
            let trace = Trace::capture_with_checkpoints(&program, budget, interval);
            let tmp = TempFile::new("prop");
            {
                let mut writer = TraceWriter::with_block_records(
                    tmp.path(), &program, interval, block_records,
                ).unwrap();
                for state in trace.checkpoints() {
                    writer.add_checkpoint(state);
                }
                for rec in trace.records() {
                    writer.append(rec).unwrap();
                }
                writer.finish(trace.end_state(), trace.is_complete()).unwrap();
            }
            let reader = TraceReader::open(tmp.path(), &program).unwrap();
            let decoded = reader.read_trace(&program).unwrap();
            prop_assert_eq!(trace.records(), decoded.records());
            prop_assert_eq!(trace.end_state(), decoded.end_state());
            prop_assert_eq!(trace.is_complete(), decoded.is_complete());
            prop_assert_eq!(trace.checkpoint_count(), decoded.checkpoint_count());
            let mut index = 0u64;
            while trace.checkpoint_at(index).is_some() {
                prop_assert_eq!(trace.checkpoint_at(index), decoded.checkpoint_at(index));
                index += interval;
            }
        }
    }
}
