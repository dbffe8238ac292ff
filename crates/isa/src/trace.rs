//! Retired-instruction traces and derived oracle information.
//!
//! The functional interpreter emits a [`Trace`]: the exact sequence of
//! retired instructions with their branch outcomes and memory addresses.
//! The timing simulator replays this trace (trace-driven simulation, see
//! DESIGN.md §3) and uses two derived oracles:
//!
//! * [`Dataflow`] — for every trace entry, the index of the producing entry
//!   for each register source and (for loads) the producing store, and
//! * [`PcIndex`] — for every static `Pc`, the sorted list of dynamic
//!   occurrences (a CSR over dense PCs), supporting the Task Spawn
//!   Unit's "is the spawn target reached soon?" check (paper §3.2).
//!
//! The trace and both oracles stay resident for every simulation over
//! them, so they are stored as flat columns (see [`Trace`]).

use crate::inst::{Inst, InstClass, Reg};
use crate::program::{Pc, Program};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A structural defect detected in a [`Trace`] by [`Trace::validate`] and
/// friends. A well-formed trace (anything the interpreter emits) never
/// produces one; these surface corruption — bit flips, truncation, bogus
/// PCs — as typed errors instead of downstream misbehavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// `entries[index].next_pc` does not match `entries[index + 1].pc`.
    Discontinuity {
        /// Index of the earlier entry of the broken pair.
        index: usize,
        /// Its recorded successor.
        next_pc: Pc,
        /// The actual `pc` of the following entry.
        actual: Pc,
    },
    /// A load or store entry carries no effective address.
    MissingMemAddr {
        /// The offending entry.
        index: usize,
    },
    /// A non-memory entry carries an effective address.
    UnexpectedMemAddr {
        /// The offending entry.
        index: usize,
    },
    /// A non-control-transfer entry is marked taken.
    TakenNonControl {
        /// The offending entry.
        index: usize,
    },
    /// An unconditional control transfer is marked not-taken.
    NotTakenUnconditional {
        /// The offending entry.
        index: usize,
    },
    /// A `halt` retired before the final entry.
    HaltNotLast {
        /// The offending entry.
        index: usize,
    },
    /// The trace does not end in a `halt` (truncated execution).
    Truncated {
        /// `pc` of the final entry.
        last_pc: Pc,
    },
    /// An entry's `pc` lies outside the program text.
    PcOutOfProgram {
        /// The offending entry.
        index: usize,
        /// Its out-of-range `pc`.
        pc: Pc,
    },
    /// An entry's recorded instruction differs from the program text at
    /// its `pc`.
    InstMismatch {
        /// The offending entry.
        index: usize,
        /// The entry's `pc`.
        pc: Pc,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Discontinuity {
                index,
                next_pc,
                actual,
            } => write!(
                f,
                "trace discontinuity at entry {index}: next_pc {next_pc} but successor is {actual}"
            ),
            TraceError::MissingMemAddr { index } => {
                write!(f, "memory entry {index} has no effective address")
            }
            TraceError::UnexpectedMemAddr { index } => {
                write!(f, "non-memory entry {index} carries an effective address")
            }
            TraceError::TakenNonControl { index } => {
                write!(f, "non-control entry {index} is marked taken")
            }
            TraceError::NotTakenUnconditional { index } => {
                write!(
                    f,
                    "unconditional transfer at entry {index} marked not-taken"
                )
            }
            TraceError::HaltNotLast { index } => {
                write!(f, "halt retired at entry {index} before the trace end")
            }
            TraceError::Truncated { last_pc } => {
                write!(
                    f,
                    "trace is truncated: final entry at {last_pc} is not halt"
                )
            }
            TraceError::PcOutOfProgram { index, pc } => {
                write!(f, "entry {index}: pc {pc} outside the program text")
            }
            TraceError::InstMismatch { index, pc } => {
                write!(f, "entry {index}: instruction differs from program at {pc}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// One retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Static program counter.
    pub pc: Pc,
    /// The instruction itself (carried for convenient decoding).
    pub inst: Inst,
    /// For conditional branches: whether the branch was taken.
    pub taken: bool,
    /// The `Pc` of the next retired instruction (the actual successor).
    pub next_pc: Pc,
    /// Effective byte address for loads and stores.
    pub mem_addr: Option<u64>,
}

impl TraceEntry {
    /// Coarse class of the retired instruction.
    pub fn class(&self) -> InstClass {
        self.inst.class()
    }

    /// True if control left the fall-through path at this entry.
    pub fn redirected(&self) -> bool {
        self.next_pc != self.pc.next()
    }
}

/// PCs below this bound are indexed densely — by [`Pc::index`] — in the
/// trace's instruction table and in [`PcIndex`]. Program text never
/// reaches it; a corrupted trace's PCs beyond it fall back to sparse
/// storage, so one bogus PC cannot allocate a table the size of the
/// address space.
const DENSE_PCS: usize = 1 << 20;

/// [`Trace`] flag bits (one byte per entry).
const TAKEN: u8 = 1 << 0;
const HAS_MEM: u8 = 1 << 1;

fn flags_of(e: &TraceEntry) -> u8 {
    (if e.taken { TAKEN } else { 0 }) | if e.mem_addr.is_some() { HAS_MEM } else { 0 }
}

/// A retired-instruction trace, stored as columns.
///
/// Per entry, the trace keeps only what a well-formed execution cannot
/// derive: the `pc` (4 bytes), the effective address (8 bytes, `0` on
/// non-memory entries) and a flag byte (taken, has-address). The
/// instruction comes from a per-PC table filled on first sight, and
/// `next_pc` is the following entry's `pc`. Entries that disagree —
/// an instruction that differs from the table's at its PC, or a
/// `next_pc` that is not the successor's `pc` — are kept as sparse
/// exceptions, so any sequence of [`TraceEntry`]s round-trips exactly
/// and [`Trace::validate`] still sees every corruption.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pc: Vec<u32>,
    mem_addr: Vec<u64>,
    flags: Vec<u8>,
    /// The instruction at each dense PC, as first recorded.
    insts: Vec<Option<Inst>>,
    /// Entries whose instruction is not `insts[pc]` (or whose PC is not
    /// dense).
    inst_exceptions: BTreeMap<u32, Inst>,
    /// Entries other than the last whose `next_pc` is not the following
    /// entry's `pc`.
    next_exceptions: BTreeMap<u32, Pc>,
    /// `next_pc` of the last entry.
    last_next: Pc,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Appends an entry.
    pub fn push(&mut self, e: TraceEntry) {
        let i = self.pc.len() as u32;
        if i > 0 && self.last_next != e.pc {
            self.next_exceptions.insert(i - 1, self.last_next);
        }
        self.last_next = e.next_pc;
        self.pc.push(e.pc.index() as u32);
        self.mem_addr.push(e.mem_addr.unwrap_or(0));
        self.flags.push(flags_of(&e));
        if !self.table_holds(e.pc, e.inst) {
            self.inst_exceptions.insert(i, e.inst);
        }
    }

    /// Replaces the entry at `idx` — a fault-injection hook. Any entry is
    /// representable, so a replacement can break every invariant
    /// [`Trace::validate`] and friends check; consumers are expected to
    /// re-validate after corrupting. The other entries read back
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set_entry(&mut self, idx: usize, e: TraceEntry) {
        // The predecessor's `next_pc` is implied by this entry's `pc`:
        // pin it before the `pc` changes.
        let prev_next = idx.checked_sub(1).map(|p| self.next_pc(p));
        self.pc[idx] = e.pc.index() as u32;
        self.mem_addr[idx] = e.mem_addr.unwrap_or(0);
        self.flags[idx] = flags_of(&e);
        if self.table_holds(e.pc, e.inst) {
            self.inst_exceptions.remove(&(idx as u32));
        } else {
            self.inst_exceptions.insert(idx as u32, e.inst);
        }
        if let Some(next) = prev_next {
            self.set_next_pc(idx - 1, next);
        }
        self.set_next_pc(idx, e.next_pc);
    }

    /// Fills the table slot of `pc` with `inst` if it is empty; true when
    /// the table then holds `inst` there.
    fn table_holds(&mut self, pc: Pc, inst: Inst) -> bool {
        let p = pc.index();
        if p >= DENSE_PCS {
            return false;
        }
        if p >= self.insts.len() {
            self.insts.resize(p + 1, None);
        }
        *self.insts[p].get_or_insert(inst) == inst
    }

    fn set_next_pc(&mut self, i: usize, next: Pc) {
        if i + 1 == self.len() {
            self.last_next = next;
        } else if next == Pc::new(self.pc[i + 1]) {
            self.next_exceptions.remove(&(i as u32));
        } else {
            self.next_exceptions.insert(i as u32, next);
        }
    }

    /// Number of retired instructions.
    pub fn len(&self) -> usize {
        self.pc.len()
    }

    /// True if no instructions were retired.
    pub fn is_empty(&self) -> bool {
        self.pc.is_empty()
    }

    /// Drops every entry past the first `len` — the truncation
    /// fault-injection operator ([`Trace::validate_complete`] flags the
    /// result when the new tail is not a halt).
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        self.last_next = len
            .checked_sub(1)
            .map_or(Pc::default(), |l| self.next_pc(l));
        self.pc.truncate(len);
        self.mem_addr.truncate(len);
        self.flags.truncate(len);
        self.inst_exceptions.retain(|&i, _| (i as usize) < len);
        self.next_exceptions.retain(|&i, _| (i as usize) + 1 < len);
    }

    /// Releases spare column capacity (the interpreter calls this once a
    /// trace is complete).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.pc.shrink_to_fit();
        self.mem_addr.shrink_to_fit();
        self.flags.shrink_to_fit();
        self.insts.shrink_to_fit();
    }

    /// The entry at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn entry(&self, idx: usize) -> TraceEntry {
        let flags = self.flags[idx];
        TraceEntry {
            pc: Pc::new(self.pc[idx]),
            inst: self.inst(idx),
            taken: flags & TAKEN != 0,
            next_pc: self.next_pc(idx),
            mem_addr: (flags & HAS_MEM != 0).then_some(self.mem_addr[idx]),
        }
    }

    #[inline]
    fn inst(&self, idx: usize) -> Inst {
        if let Some(&inst) = self.inst_exceptions.get(&(idx as u32)) {
            return inst;
        }
        self.insts[self.pc[idx] as usize].expect("every recorded dense pc has a table entry")
    }

    #[inline]
    fn next_pc(&self, idx: usize) -> Pc {
        if let Some(&next) = self.next_exceptions.get(&(idx as u32)) {
            return next;
        }
        match self.pc.get(idx + 1) {
            Some(&pc) => Pc::new(pc),
            None => self.last_next,
        }
    }

    /// The `pc` column: every entry's static PC word index
    /// (`byte address == word * 4`).
    pub fn pcs(&self) -> &[u32] {
        &self.pc
    }

    /// The effective-address column: every entry's load or store address,
    /// `0` on entries without one.
    pub fn mem_addrs(&self) -> &[u64] {
        &self.mem_addr
    }

    /// Iterates over entries in retirement order.
    pub fn iter(&self) -> TraceIter<'_> {
        TraceIter {
            trace: self,
            range: 0..self.len(),
        }
    }

    /// Heap bytes held by the columns, the instruction table and the
    /// exceptions.
    pub fn heap_bytes(&self) -> usize {
        let exception = size_of::<u32>() + size_of::<Inst>();
        self.pc.capacity() * size_of::<u32>()
            + self.mem_addr.capacity() * size_of::<u64>()
            + self.flags.capacity()
            + self.insts.capacity() * size_of::<Option<Inst>>()
            + (self.inst_exceptions.len() + self.next_exceptions.len()) * exception
    }

    /// Computes the dataflow oracle for this trace.
    pub fn dataflow(&self) -> Dataflow {
        Dataflow::compute(self)
    }

    /// Builds the per-`Pc` occurrence index for this trace.
    pub fn pc_index(&self) -> PcIndex {
        PcIndex::build(self)
    }

    /// Counts retired conditional branches.
    pub fn cond_branches(&self) -> usize {
        self.iter()
            .filter(|e| e.class() == InstClass::CondBranch)
            .count()
    }

    /// Checks the structural invariants every interpreter-emitted trace
    /// upholds: retirement-order continuity (`next_pc` chains into the
    /// following entry), effective addresses exactly on memory entries,
    /// taken flags only on control transfers (and always on unconditional
    /// ones), and `halt` nowhere but the final entry.
    ///
    /// Returns the first defect found. Corrupted traces (bit flips, bogus
    /// PCs) fail here instead of silently skewing a simulation.
    pub fn validate(&self) -> Result<(), TraceError> {
        // Every `next_pc` exception is a discontinuity, so the first one
        // is the first break in the chain.
        let first_break = self.next_exceptions.first_key_value();
        for (i, &flags) in self.flags.iter().enumerate() {
            let class = self.inst(i).class();
            let (taken, has_mem) = (flags & TAKEN != 0, flags & HAS_MEM != 0);
            let is_mem = matches!(class, InstClass::Load | InstClass::Store);
            if is_mem && !has_mem {
                return Err(TraceError::MissingMemAddr { index: i });
            }
            if !is_mem && has_mem {
                return Err(TraceError::UnexpectedMemAddr { index: i });
            }
            let is_control = matches!(
                class,
                InstClass::CondBranch
                    | InstClass::Jump
                    | InstClass::IndirectJump
                    | InstClass::Call
                    | InstClass::Ret
            );
            if taken && !is_control {
                return Err(TraceError::TakenNonControl { index: i });
            }
            if !taken && is_control && class != InstClass::CondBranch {
                return Err(TraceError::NotTakenUnconditional { index: i });
            }
            if class == InstClass::Halt && i + 1 != self.len() {
                return Err(TraceError::HaltNotLast { index: i });
            }
            if let Some((&at, &next_pc)) = first_break.filter(|(&at, _)| at as usize == i) {
                return Err(TraceError::Discontinuity {
                    index: at as usize,
                    next_pc,
                    actual: Pc::new(self.pc[i + 1]),
                });
            }
        }
        Ok(())
    }

    /// [`Trace::validate`], additionally requiring a complete execution:
    /// a non-empty trace must end in `halt`. Use this when the trace is
    /// supposed to cover a whole run (windowed traces are legitimately
    /// truncated and should use `validate`).
    pub fn validate_complete(&self) -> Result<(), TraceError> {
        self.validate()?;
        if let Some(last) = self.len().checked_sub(1).map(|l| self.entry(l)) {
            if last.class() != InstClass::Halt {
                return Err(TraceError::Truncated { last_pc: last.pc });
            }
        }
        Ok(())
    }

    /// [`Trace::validate`], additionally checking every entry against the
    /// program text: the `pc` must lie inside `program` and the recorded
    /// instruction must match what the program holds there. Catches
    /// corruption that structural checks alone cannot (a bogus `pc` on a
    /// self-consistent prefix).
    pub fn validate_against(&self, program: &Program) -> Result<(), TraceError> {
        self.validate()?;
        for (i, e) in self.iter().enumerate() {
            match program.get(e.pc) {
                None => return Err(TraceError::PcOutOfProgram { index: i, pc: e.pc }),
                Some(inst) if inst != e.inst => {
                    return Err(TraceError::InstMismatch { index: i, pc: e.pc })
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

/// Entry-wise equality: two traces are equal when they hold the same
/// entries, however their columns came to be laid out.
impl PartialEq for Trace {
    fn eq(&self, other: &Trace) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Trace {}

/// Iterator over a [`Trace`]'s entries, by value ([`Trace::iter`]).
#[derive(Debug, Clone)]
pub struct TraceIter<'a> {
    trace: &'a Trace,
    range: std::ops::Range<usize>,
}

impl Iterator for TraceIter<'_> {
    type Item = TraceEntry;

    #[inline]
    fn next(&mut self) -> Option<TraceEntry> {
        self.range.next().map(|i| self.trace.entry(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl DoubleEndedIterator for TraceIter<'_> {
    fn next_back(&mut self) -> Option<TraceEntry> {
        self.range.next_back().map(|i| self.trace.entry(i))
    }
}

impl ExactSizeIterator for TraceIter<'_> {}

impl<'a> IntoIterator for &'a Trace {
    type Item = TraceEntry;
    type IntoIter = TraceIter<'a>;
    fn into_iter(self) -> TraceIter<'a> {
        self.iter()
    }
}

impl FromIterator<TraceEntry> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEntry>>(iter: I) -> Trace {
        let mut trace = Trace::new();
        for e in iter {
            trace.push(e);
        }
        trace
    }
}

/// "No producer" in a [`Dataflow`] slot.
const NO_PRODUCER: u32 = u32::MAX;

fn producer(slot: u32) -> Option<u32> {
    (slot != NO_PRODUCER).then_some(slot)
}

/// Per-entry producer information derived from a [`Trace`].
///
/// `reg_producers(i)[s]` is the trace index of the instruction that
/// produced the value read by source slot `s` of entry `i` (`None` if the
/// value predates the trace or the slot is unused / reads `r0`).
/// `mem_producer(i)` is, for a load, the index of the most recent prior
/// store to the same word (`None` if the location predates the trace).
/// Stored as one `[reg0, reg1, mem]` row of `u32`s per entry, with
/// `u32::MAX` for "none".
#[derive(Debug, Clone)]
pub struct Dataflow {
    producers: Vec<[u32; 3]>,
}

impl Dataflow {
    /// Computes producers with a single forward pass.
    pub fn compute(trace: &Trace) -> Dataflow {
        let mut producers = vec![[NO_PRODUCER; 3]; trace.len()];
        let mut last_writer = [NO_PRODUCER; Reg::COUNT];
        let mut last_store: HashMap<u64, u32> = HashMap::new();

        for (i, row) in producers.iter_mut().enumerate() {
            let inst = trace.inst(i);
            for (s, src) in inst.srcs().into_iter().enumerate() {
                if let Some(r) = src {
                    if r != Reg::R0 {
                        row[s] = last_writer[r.index()];
                    }
                }
            }
            if trace.flags[i] & HAS_MEM != 0 {
                let word = crate::Memory::align(trace.mem_addr[i]);
                match inst.class() {
                    InstClass::Load => {
                        row[2] = last_store.get(&word).copied().unwrap_or(NO_PRODUCER);
                    }
                    InstClass::Store => {
                        last_store.insert(word, i as u32);
                    }
                    _ => {}
                }
            }
            if let Some(d) = inst.dst() {
                last_writer[d.index()] = i as u32;
            }
        }
        Dataflow { producers }
    }

    /// Register producers for entry `i` (one per source slot).
    #[inline]
    pub fn reg_producers(&self, i: usize) -> [Option<u32>; 2] {
        let [a, b, _] = self.producers[i];
        [producer(a), producer(b)]
    }

    /// Producing store for the load at entry `i`, if any.
    #[inline]
    pub fn mem_producer(&self, i: usize) -> Option<u32> {
        producer(self.producers[i][2])
    }

    /// All producers of entry `i` (registers plus memory), deduplicated.
    pub fn producers(&self, i: usize) -> impl Iterator<Item = u32> + '_ {
        let mut v: Vec<u32> = self.producers[i].into_iter().filter_map(producer).collect();
        v.sort_unstable();
        v.dedup();
        v.into_iter()
    }

    /// Number of entries covered.
    pub fn len(&self) -> usize {
        self.producers.len()
    }

    /// True if the trace was empty.
    pub fn is_empty(&self) -> bool {
        self.producers.is_empty()
    }

    /// Heap bytes held by the producer rows.
    pub fn heap_bytes(&self) -> usize {
        self.producers.capacity() * size_of::<[u32; 3]>()
    }
}

/// Sorted dynamic occurrences of each static `Pc` in a trace.
///
/// CSR over dense PCs: the occurrences of PC `p` are
/// `occurrences[offsets[p]..offsets[p + 1]]`, in trace order. PCs at or
/// beyond the dense bound (only a corrupted trace has them) are kept as
/// sorted `(pc, index)` pairs instead.
#[derive(Debug, Clone, Default)]
pub struct PcIndex {
    offsets: Vec<u32>,
    occurrences: Vec<u32>,
    sparse: Vec<(u32, u32)>,
    distinct: usize,
}

impl PcIndex {
    /// Builds the index with a counting pass and a placement pass over
    /// the trace's `pc` column.
    pub fn build(trace: &Trace) -> PcIndex {
        let pcs = trace.pcs();
        let dense = |p: u32| (p as usize) < DENSE_PCS;
        let width = pcs
            .iter()
            .filter(|&&p| dense(p))
            .max()
            .map_or(0, |&p| p as usize + 1);
        let mut offsets = vec![0u32; width + 1];
        let mut sparse = Vec::new();
        for (i, &p) in pcs.iter().enumerate() {
            if dense(p) {
                offsets[p as usize + 1] += 1;
            } else {
                sparse.push((p, i as u32));
            }
        }
        sparse.sort_unstable();
        let mut distinct = offsets.iter().filter(|&&c| c > 0).count();
        distinct += sparse
            .iter()
            .enumerate()
            .filter(|&(k, e)| k == 0 || sparse[k - 1].0 != e.0)
            .count();
        for p in 0..width {
            offsets[p + 1] += offsets[p];
        }
        let mut cursor = offsets.clone();
        let mut occurrences = vec![0u32; offsets[width] as usize];
        for (i, &p) in pcs.iter().enumerate() {
            if dense(p) {
                let c = &mut cursor[p as usize];
                occurrences[*c as usize] = i as u32;
                *c += 1;
            }
        }
        PcIndex {
            offsets,
            occurrences,
            sparse,
            distinct,
        }
    }

    /// The occurrences of a dense `pc` (empty if it never occurs), or
    /// `None` for a PC beyond the dense bound.
    fn dense(&self, pc: Pc) -> Option<&[u32]> {
        let p = pc.index();
        if p >= DENSE_PCS {
            return None;
        }
        Some(match (self.offsets.get(p), self.offsets.get(p + 1)) {
            (Some(&lo), Some(&hi)) => &self.occurrences[lo as usize..hi as usize],
            _ => &[],
        })
    }

    /// The first dynamic occurrence of `pc` at trace index `from` or later.
    pub fn next_at_or_after(&self, pc: Pc, from: u32) -> Option<u32> {
        match self.dense(pc) {
            Some(occ) => occ.get(occ.partition_point(|&x| x < from)).copied(),
            None => {
                let key = (pc.index() as u32, from);
                let at = self.sparse.partition_point(|&e| e < key);
                self.sparse.get(at).filter(|e| e.0 == key.0).map(|e| e.1)
            }
        }
    }

    /// Total dynamic occurrences of `pc`.
    pub fn count(&self, pc: Pc) -> usize {
        match self.dense(pc) {
            Some(occ) => occ.len(),
            None => {
                let p = pc.index() as u32;
                self.sparse.iter().filter(|e| e.0 == p).count()
            }
        }
    }

    /// Number of distinct static PCs that appear in the trace.
    pub fn distinct_pcs(&self) -> usize {
        self.distinct
    }

    /// Heap bytes held by the index.
    pub fn heap_bytes(&self) -> usize {
        (self.offsets.capacity() + self.occurrences.capacity()) * size_of::<u32>()
            + self.sparse.capacity() * size_of::<(u32, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Cond};

    fn entry(pc: u32, inst: Inst, next: u32) -> TraceEntry {
        TraceEntry {
            pc: Pc::new(pc),
            inst,
            taken: false,
            next_pc: Pc::new(next),
            mem_addr: None,
        }
    }

    #[test]
    fn redirected_detection() {
        let e = entry(0, Inst::Nop, 1);
        assert!(!e.redirected());
        let e = entry(0, Inst::Jmp { target: Pc::new(5) }, 5);
        assert!(e.redirected());
    }

    /// A halting program with a load and a store, plus its program text.
    fn mem_program_trace() -> (Program, Trace) {
        let mut b = crate::builder::ProgramBuilder::new();
        b.begin_function("main");
        let base = b.alloc_data(&[7]);
        b.li(Reg::R1, base as i64);
        b.load(Reg::R2, Reg::R1, 0);
        b.alui(AluOp::Add, Reg::R2, Reg::R2, 1);
        b.store(Reg::R2, Reg::R1, 0);
        b.halt();
        b.end_function();
        let p = b.build().expect("valid program");
        let r = crate::interp::execute_window(&p, 100).expect("executes");
        assert!(r.halted);
        (p, r.trace)
    }

    #[test]
    fn interpreter_traces_validate_cleanly() {
        let (p, t) = mem_program_trace();
        t.validate().unwrap();
        t.validate_complete().unwrap();
        t.validate_against(&p).unwrap();
        Trace::new().validate_complete().unwrap();
    }

    /// A copy of `t` with entry `i` rewritten by `f`.
    fn with(t: &Trace, i: usize, f: impl FnOnce(&mut TraceEntry)) -> Trace {
        let mut t = t.clone();
        let mut e = t.entry(i);
        f(&mut e);
        t.set_entry(i, e);
        t
    }

    #[test]
    fn validate_flags_each_corruption_class() {
        let (p, clean) = mem_program_trace();

        // Discontinuity: rewrite an entry's next_pc off the chain.
        let t = with(&clean, 0, |e| e.next_pc = Pc::new(4));
        assert!(matches!(
            t.validate(),
            Err(TraceError::Discontinuity { index: 0, .. })
        ));

        // Missing effective address on a load.
        let t = with(&clean, 1, |e| e.mem_addr = None);
        assert!(matches!(
            t.validate(),
            Err(TraceError::MissingMemAddr { index: 1 })
        ));

        // Bogus effective address on an ALU op.
        let t = with(&clean, 2, |e| e.mem_addr = Some(0xdead));
        assert!(matches!(
            t.validate(),
            Err(TraceError::UnexpectedMemAddr { index: 2 })
        ));

        // Taken flag flipped on a non-branch.
        let t = with(&clean, 0, |e| e.taken = true);
        assert!(matches!(
            t.validate(),
            Err(TraceError::TakenNonControl { index: 0 })
        ));

        // Truncation: drop the final halt.
        let mut t = clean.clone();
        t.truncate(t.len() - 1);
        t.validate().unwrap();
        assert!(matches!(
            t.validate_complete(),
            Err(TraceError::Truncated { .. })
        ));

        // Bogus pc beyond the program text (self-consistent prefix, so
        // only the program cross-check can catch it).
        let t = with(&clean, 0, |e| e.pc = Pc::new(1000));
        assert!(matches!(
            t.validate_against(&p),
            Err(TraceError::PcOutOfProgram { index: 0, .. })
        ));

        // Instruction bit flip: the text at this pc disagrees.
        let t = with(&clean, 2, |e| e.inst = Inst::Nop);
        assert!(matches!(
            t.validate_against(&p),
            Err(TraceError::InstMismatch { index: 2, .. })
        ));
    }

    #[test]
    fn dataflow_register_chain() {
        // 0: li r1, 1
        // 1: li r2, 2
        // 2: add r3, r1, r2
        // 3: add r4, r3, r3
        let mut t = Trace::new();
        t.push(entry(
            0,
            Inst::Li {
                rd: Reg::R1,
                imm: 1,
            },
            1,
        ));
        t.push(entry(
            1,
            Inst::Li {
                rd: Reg::R2,
                imm: 2,
            },
            2,
        ));
        t.push(entry(
            2,
            Inst::Alu {
                op: AluOp::Add,
                rd: Reg::R3,
                rs: Reg::R1,
                rt: Reg::R2,
            },
            3,
        ));
        t.push(entry(
            3,
            Inst::Alu {
                op: AluOp::Add,
                rd: Reg::R4,
                rs: Reg::R3,
                rt: Reg::R3,
            },
            4,
        ));
        let df = t.dataflow();
        assert_eq!(df.reg_producers(2), [Some(0), Some(1)]);
        assert_eq!(df.reg_producers(3), [Some(2), Some(2)]);
        assert_eq!(df.producers(3).collect::<Vec<_>>(), vec![2]);
        assert_eq!(df.len(), 4);
        assert!(!df.is_empty());
    }

    #[test]
    fn dataflow_r0_has_no_producer() {
        let mut t = Trace::new();
        t.push(entry(
            0,
            Inst::Li {
                rd: Reg::R0,
                imm: 9,
            },
            1,
        )); // discarded
        t.push(entry(
            1,
            Inst::Alu {
                op: AluOp::Add,
                rd: Reg::R1,
                rs: Reg::R0,
                rt: Reg::R0,
            },
            2,
        ));
        let df = t.dataflow();
        assert_eq!(df.reg_producers(1), [None, None]);
    }

    #[test]
    fn dataflow_memory_chain() {
        let mut t = Trace::new();
        let mut st = entry(
            0,
            Inst::Store {
                rs: Reg::R1,
                base: Reg::R0,
                off: 0,
            },
            1,
        );
        st.mem_addr = Some(100);
        t.push(st);
        let mut ld = entry(
            1,
            Inst::Load {
                rd: Reg::R2,
                base: Reg::R0,
                off: 0,
            },
            2,
        );
        ld.mem_addr = Some(101); // same aligned word as 100
        t.push(ld);
        let mut ld2 = entry(
            2,
            Inst::Load {
                rd: Reg::R3,
                base: Reg::R0,
                off: 0,
            },
            3,
        );
        ld2.mem_addr = Some(200); // untouched word
        t.push(ld2);
        let df = t.dataflow();
        assert_eq!(df.mem_producer(1), Some(0));
        assert_eq!(df.mem_producer(2), None);
    }

    #[test]
    fn pc_index_queries() {
        let mut t = Trace::new();
        for (i, pc) in [0u32, 1, 2, 1, 2, 1, 3].into_iter().enumerate() {
            t.push(entry(pc, Inst::Nop, i as u32 + 1));
        }
        let idx = t.pc_index();
        assert_eq!(idx.count(Pc::new(1)), 3);
        assert_eq!(idx.next_at_or_after(Pc::new(1), 0), Some(1));
        assert_eq!(idx.next_at_or_after(Pc::new(1), 2), Some(3));
        assert_eq!(idx.next_at_or_after(Pc::new(1), 6), None);
        assert_eq!(idx.next_at_or_after(Pc::new(9), 0), None);
        assert_eq!(idx.distinct_pcs(), 4);
    }

    #[test]
    fn pc_index_covers_pcs_beyond_the_dense_bound() {
        let far = DENSE_PCS as u32 + 7;
        let mut t = Trace::new();
        for (i, pc) in [far, 1, far, far + 1, 1, far].into_iter().enumerate() {
            t.push(entry(pc, Inst::Nop, i as u32 + 1));
        }
        let idx = t.pc_index();
        assert_eq!(idx.count(Pc::new(far)), 3);
        assert_eq!(idx.count(Pc::new(far + 1)), 1);
        assert_eq!(idx.next_at_or_after(Pc::new(far), 1), Some(2));
        assert_eq!(idx.next_at_or_after(Pc::new(far), 3), Some(5));
        assert_eq!(idx.next_at_or_after(Pc::new(far + 1), 4), None);
        assert_eq!(idx.next_at_or_after(Pc::new(far + 2), 0), None);
        assert_eq!(idx.next_at_or_after(Pc::new(1), 2), Some(4));
        assert_eq!(idx.distinct_pcs(), 3);
    }

    #[test]
    fn cond_branch_count() {
        let mut t = Trace::new();
        t.push(entry(0, Inst::Nop, 1));
        t.push(entry(
            1,
            Inst::Br {
                cond: Cond::Eq,
                rs: Reg::R0,
                rt: Reg::R0,
                target: Pc::new(0),
            },
            0,
        ));
        assert_eq!(t.cond_branches(), 1);
    }

    /// A random entry: PCs from a small range (so table slots collide)
    /// or, rarely, far beyond the dense bound; instructions that agree or
    /// disagree with earlier ones at the same PC; arbitrary flags,
    /// addresses and successors.
    fn random_entry(rng: &mut crate::rng::SplitMix64, prev_next: Pc) -> TraceEntry {
        let pc = match rng.below(8) {
            0 => Pc::new(u32::MAX - rng.below(4) as u32),
            1..=4 => prev_next,
            _ => Pc::new(rng.below(16) as u32),
        };
        let r = |rng: &mut crate::rng::SplitMix64| Reg::from_index(rng.index(Reg::COUNT));
        let inst = match rng.below(4) {
            0 => Inst::Nop,
            1 => Inst::Li {
                rd: r(rng),
                imm: rng.below(3) as i64,
            },
            2 => Inst::Load {
                rd: r(rng),
                base: r(rng),
                off: 8,
            },
            _ => Inst::Halt,
        };
        TraceEntry {
            pc,
            inst,
            taken: rng.flip(),
            next_pc: if rng.flip() {
                pc.next()
            } else {
                Pc::new(rng.next_u64() as u32)
            },
            mem_addr: rng.flip().then(|| rng.next_u64() >> rng.below(64)),
        }
    }

    fn assert_holds(t: &Trace, model: &[TraceEntry]) {
        assert_eq!(t.len(), model.len());
        for (i, e) in model.iter().enumerate() {
            assert_eq!(t.entry(i), *e, "entry {i}");
        }
        assert!(t.iter().eq(model.iter().copied()));
        assert!(t.iter().rev().eq(model.iter().rev().copied()));
        let mem: Vec<u64> = model.iter().map(|e| e.mem_addr.unwrap_or(0)).collect();
        assert_eq!(t.mem_addrs(), &mem[..]);
        let pcs: Vec<u32> = model.iter().map(|e| e.pc.index() as u32).collect();
        assert_eq!(t.pcs(), &pcs[..]);
    }

    /// Any sequence of entries round-trips through the columns, and
    /// stays exact under `set_entry` and `truncate`.
    #[test]
    fn random_entries_round_trip() {
        for seed in 0..200 {
            let mut rng = crate::rng::SplitMix64::new(seed);
            let mut model: Vec<TraceEntry> = Vec::new();
            let mut next = Pc::new(0);
            for _ in 0..rng.below(60) {
                let e = random_entry(&mut rng, next);
                next = e.next_pc;
                model.push(e);
            }
            let mut t: Trace = model.iter().copied().collect();
            assert_holds(&t, &model);
            for _ in 0..20 {
                if model.is_empty() {
                    break;
                }
                let i = rng.index(model.len());
                let prev = model[i.saturating_sub(1)].next_pc;
                let e = random_entry(&mut rng, prev);
                model[i] = e;
                t.set_entry(i, e);
                assert_holds(&t, &model);
            }
            let keep = rng.index(model.len() + 1);
            model.truncate(keep);
            t.truncate(keep);
            assert_holds(&t, &model);
            let e = random_entry(&mut rng, next);
            model.push(e);
            t.push(e);
            assert_holds(&t, &model);
            assert_eq!(t, model.iter().copied().collect::<Trace>());
        }
    }

    #[test]
    fn trace_collect_and_iter() {
        let t: Trace = (0..3).map(|i| entry(i, Inst::Nop, i + 1)).collect();
        assert_eq!(t.len(), 3);
        assert_eq!(t.iter().count(), 3);
        assert_eq!((&t).into_iter().count(), 3);
        assert_eq!(t.entry(1).pc, Pc::new(1));
    }
}
