//! The trace-driven cycle model: fetch, dispatch, divert, issue, retire.
//!
//! One [`Machine::run`] replays a retirement [`Trace`] through the
//! PolyFlow microarchitecture of Figure 7:
//!
//! * **Tasks** partition the trace into contiguous intervals, oldest first.
//!   The tail (youngest) task may spawn: when it fetches a trigger PC its
//!   [`SpawnSource`] knows, and the target PC occurs in the trace within
//!   `max_spawn_distance` instructions, the tail task is split there
//!   (§3.2: spawning only from the tail task, oracle distance check).
//! * **Fetch** selects up to `fetch_tasks_per_cycle` stall-free tasks by
//!   biased ICount (fewest in-flight instructions first, §3.2) and fetches
//!   up to `width` instructions total, at most one taken control transfer
//!   per task per cycle. A mispredicted branch stalls *only its own task's
//!   fetch* until the branch resolves — control-equivalent tasks keep
//!   fetching, which is exactly the control-independence benefit the paper
//!   exploits. Instruction-cache misses stall the fetching task for the
//!   fill latency.
//! * **Dispatch** moves decoded instructions, oldest task first, into the
//!   shared ROB. Instructions with an inter-task source operand that has
//!   not yet been produced go to the **divert queue** instead of the
//!   scheduler (§3.1); they enter the scheduler once their producers have
//!   dispatched. No value prediction, no selective re-execution.
//! * **Issue** selects ready scheduler entries oldest-first onto the 8
//!   functional units; loads/stores access the cache hierarchy at issue.
//! * **Retire** drains up to `width` completed instructions per cycle in
//!   global trace order (the shared ROB retires architecturally in order)
//!   and feeds the retirement stream to the spawn source (training the
//!   reconvergence predictor online, §4.4).
//!
//! # Data-oriented core & cycle skipping
//!
//! The implementation is struct-of-arrays and event-aware: per-instruction
//! pipeline state lives in parallel arrays (`InstTable`) so the hot scans
//! touch dense cache lines; the scheduler and divert scans cache the
//! earliest cycle at which any of their entries could become ready, so
//! no-op scans are skipped outright; and cycles on which provably nothing
//! can happen — no retire, wakeup, release, decode, resume, or branch
//! resolution — are fast-forwarded in bulk ([`SimOptions::cycle_skip`]),
//! with the cycle-accounting buckets and their paired stall counters
//! charged in one step. Results are bit-identical to stepped execution,
//! including the event stream and both watchdogs (DESIGN.md §13 carries
//! the argument).

use crate::account::{Bucket, CycleAccount};
use crate::branch_pred::PredictionTrace;
use crate::cache::Hierarchy;
use crate::config::MachineConfig;
use crate::error::SimError;
use crate::events::{NullSink, SimEvent, TraceSink};
use crate::metrics::SimResult;
use crate::profile::{phase, PhaseProfile};
use crate::spawn_source::SpawnSource;
use crate::store_set::{DependenceMode, StoreSetPredictor};
use polyflow_isa::{Dataflow, InstClass, PcIndex, Trace};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

const NOT_YET: u64 = u64::MAX;
const OPEN_END: u32 = u32::MAX;
/// Saturation ceiling of the spawn-profitability counters.
const PROFIT_MAX: i8 = 7;
/// Events retained by the always-on post-mortem flight recorder (the
/// tail of the event stream travels with [`SimError::Livelock`]).
const EVENT_RING: usize = 64;

/// `InstTable` flag bits (one byte per instruction).
const F_DISPATCHED: u8 = 1 << 0;
const F_IN_DIVERT: u8 = 1 << 1;
const F_ISSUED: u8 = 1 << 2;
/// Load dispatched ignoring its (predicted-independent) inter-task memory
/// producer; a violation occurs if it issues first.
const F_MEM_SPEC: u8 = 1 << 3;
/// Register source slots dispatched ignoring their inter-task producer
/// (hint-entry model): a violation occurs if the instruction issues
/// before the producer completes.
const F_REG_SPEC0: u8 = 1 << 4;
const F_REG_SPEC1: u8 = 1 << 5;
/// Currently sitting in the scheduler (wakeup bookkeeping: heap entries
/// re-validate against this bit, so stale wakes are harmless).
const F_IN_SCHED: u8 = 1 << 6;

/// [`ConsumerIndex::meta`] encoding: bits 0-1 issue latency class, bits
/// 2-3 fetch control class, bit 4 branch-taken. The issue and fetch hot
/// loops read this one byte (plus the trace's `pc` and address columns)
/// instead of decoding the entry's instruction.
const K_ISSUE_MASK: u8 = 0b11;
const K_LOAD: u8 = 1;
const K_STORE: u8 = 2;
const K_MUL: u8 = 3;
const K_FETCH_SHIFT: u8 = 2;
/// Conditional branch: mispredict stalls; taken transfers end the group.
const KF_COND: u8 = 1;
/// Call / return / indirect jump: mispredict check, then end the group.
const KF_STOP_PRED: u8 = 2;
/// Unconditional direct jump or halt: end the group unconditionally.
const KF_STOP: u8 = 3;
const K_TAKEN: u8 = 1 << 4;

/// Inverted dataflow: for every dynamic instruction, the dynamic
/// instructions that consume one of its results (register targets plus,
/// for stores, the dependent loads). CSR layout; config-independent, so
/// one index is shared by every run over a [`PreparedTrace`].
///
/// This is what makes the issue stage event-driven: instead of rescanning
/// the whole scheduler every cycle, a completing instruction walks its
/// consumer row and schedules wakeups for the ones currently in the
/// scheduler.
#[derive(Debug)]
pub struct ConsumerIndex {
    offsets: Vec<u32>,
    edges: Vec<u32>,
    /// Smallest producer index of each instruction (`u32::MAX` when it
    /// has none): `min_prod[i] >= task_start` proves every producer is
    /// intra-task, which lets dispatch skip the whole inter-task
    /// synchronization analysis.
    min_prod: Vec<u32>,
    /// Packed per-instruction issue/fetch class byte (see the `K_*`
    /// constants).
    meta: Vec<u8>,
}

impl ConsumerIndex {
    fn build(dataflow: &Dataflow, trace: &Trace) -> ConsumerIndex {
        let n = trace.len();
        let mut offsets = vec![0u32; n + 1];
        let mut min_prod = vec![u32::MAX; n];
        for (i, mp) in min_prod.iter_mut().enumerate() {
            let [a, b] = dataflow.reg_producers(i);
            let m = dataflow.mem_producer(i);
            for p in [a, b, m].into_iter().flatten() {
                offsets[p as usize + 1] += 1;
                *mp = (*mp).min(p);
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut edges = vec![0u32; offsets[n] as usize];
        for i in 0..n {
            let [a, b] = dataflow.reg_producers(i);
            let m = dataflow.mem_producer(i);
            for p in [a, b, m].into_iter().flatten() {
                let c = &mut cursor[p as usize];
                edges[*c as usize] = i as u32;
                *c += 1;
            }
        }
        let mut meta = vec![0u8; n];
        for (i, e) in trace.iter().enumerate() {
            let issue_kind = match e.class() {
                InstClass::Load => K_LOAD,
                InstClass::Store => K_STORE,
                InstClass::Mul => K_MUL,
                _ => 0,
            };
            let fetch_kind = match e.class() {
                InstClass::CondBranch => KF_COND,
                InstClass::Ret | InstClass::IndirectJump | InstClass::Call => KF_STOP_PRED,
                InstClass::Jump | InstClass::Halt => KF_STOP,
                _ => 0,
            };
            meta[i] =
                issue_kind | (fetch_kind << K_FETCH_SHIFT) | if e.taken { K_TAKEN } else { 0 };
        }
        ConsumerIndex {
            offsets,
            edges,
            min_prod,
            meta,
        }
    }

    /// Heap bytes held by the index.
    fn heap_bytes(&self) -> usize {
        (self.offsets.capacity() + self.edges.capacity() + self.min_prod.capacity())
            * size_of::<u32>()
            + self.meta.capacity()
    }

    /// The consumers of dynamic instruction `p`, in ascending trace order.
    #[inline]
    fn of(&self, p: usize) -> &[u32] {
        &self.edges[self.offsets[p] as usize..self.offsets[p + 1] as usize]
    }

    /// Smallest producer index of `i`, or `u32::MAX` if it has none.
    #[inline]
    fn min_producer(&self, i: usize) -> u32 {
        self.min_prod[i]
    }
}

/// Analyses of a trace that are shared by every policy run: dataflow
/// producers, the PC occurrence index, and branch-prediction outcomes.
///
/// Everything is reference-counted, so a `PreparedTrace` is cheap to
/// clone and safe to share read-only across threads — the parallel sweep
/// harness builds one per (workload, predictor configuration) and fans
/// the policy cells out over it. The config-independent oracles (dataflow
/// and PC index) can additionally be shared *across* predictor
/// configurations via [`PreparedTrace::with_oracles`].
#[derive(Debug, Clone)]
pub struct PreparedTrace {
    trace: Arc<Trace>,
    dataflow: Arc<Dataflow>,
    pc_index: Arc<PcIndex>,
    predictions: Arc<PredictionTrace>,
    consumers: Arc<ConsumerIndex>,
}

impl PreparedTrace {
    /// Precomputes everything `simulate` needs. Clones the trace into
    /// shared ownership; use [`PreparedTrace::from_arc`] to avoid the
    /// copy when the caller already holds an `Arc<Trace>`.
    pub fn new(trace: &Trace, config: &MachineConfig) -> PreparedTrace {
        Self::from_arc(Arc::new(trace.clone()), config)
    }

    /// Precomputes everything `simulate` needs, without copying the trace.
    pub fn from_arc(trace: Arc<Trace>, config: &MachineConfig) -> PreparedTrace {
        let dataflow = Arc::new(trace.dataflow());
        let pc_index = Arc::new(trace.pc_index());
        Self::with_oracles(trace, dataflow, pc_index, config)
    }

    /// Builds a prepared trace from already-computed config-independent
    /// oracles, computing only the branch-prediction replay (the sole
    /// config-dependent part; see [`MachineConfig::predictor_key`]).
    pub fn with_oracles(
        trace: Arc<Trace>,
        dataflow: Arc<Dataflow>,
        pc_index: Arc<PcIndex>,
        config: &MachineConfig,
    ) -> PreparedTrace {
        let predictions = Arc::new(PredictionTrace::compute(&trace, config));
        let consumers = Arc::new(ConsumerIndex::build(&dataflow, &trace));
        PreparedTrace {
            trace,
            dataflow,
            pc_index,
            predictions,
            consumers,
        }
    }

    /// The trace being replayed.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Shared ownership of the trace being replayed.
    pub fn trace_arc(&self) -> Arc<Trace> {
        Arc::clone(&self.trace)
    }

    /// Oracle dataflow (register and memory producers).
    pub fn dataflow(&self) -> &Dataflow {
        &self.dataflow
    }

    /// Shared ownership of the dataflow oracle.
    pub fn dataflow_arc(&self) -> Arc<Dataflow> {
        Arc::clone(&self.dataflow)
    }

    /// Dynamic occurrences of each static PC.
    pub fn pc_index(&self) -> &PcIndex {
        &self.pc_index
    }

    /// Shared ownership of the PC occurrence index.
    pub fn pc_index_arc(&self) -> Arc<PcIndex> {
        Arc::clone(&self.pc_index)
    }

    /// Replayed branch-prediction outcomes.
    pub fn predictions(&self) -> &PredictionTrace {
        &self.predictions
    }

    /// Inverted dataflow (who consumes each instruction's results).
    pub(crate) fn consumers(&self) -> &ConsumerIndex {
        &self.consumers
    }

    /// Heap bytes of the parts built for this predictor configuration
    /// (prediction outcomes and the consumer index). The shared trace
    /// and oracles report their own [`Trace::heap_bytes`],
    /// [`Dataflow::heap_bytes`] and [`PcIndex::heap_bytes`].
    pub fn heap_bytes(&self) -> usize {
        self.predictions.heap_bytes() + self.consumers.heap_bytes()
    }
}

/// Knobs of the simulation loop that do not model hardware — they change
/// how the run executes, never what it computes. Every option preserves
/// bit-identical [`SimResult`]s and event streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Fast-forward over cycles on which provably nothing can happen,
    /// charging the accounting buckets in bulk (on by default). Turning
    /// it off forces stepped execution — useful for differential tests
    /// and as a reference when debugging the skip logic itself.
    pub cycle_skip: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions { cycle_skip: true }
    }
}

/// How a run executed (not what it computed): stepped vs fast-forwarded
/// cycle counts. Returned by [`try_simulate_opts`]; purely observational.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimTelemetry {
    /// Cycles advanced in bulk by the cycle-skip fast path.
    pub skipped_cycles: u64,
    /// Cycles executed by a full pass through the pipeline stages.
    pub executed_cycles: u64,
    /// Number of fast-forward jumps taken.
    pub fast_forwards: u64,
}

/// Reusable simulation buffers.
///
/// One [`simulate`] call over an `n`-instruction trace allocates the
/// per-instruction state table (the dominant allocation — tens of
/// megabytes for the bundled workloads), the scheduler/divert/task
/// vectors, and the feedback hash maps. A sweep that replays the same
/// traces under many policies pays that cost for every cell; passing a
/// `SimScratch` to [`try_simulate_opts`] instead recycles the buffers from
/// run to run (each worker thread of the parallel sweep harness keeps
/// one). Results are bit-identical with or without scratch reuse — every
/// buffer is fully reset before use.
#[derive(Debug, Default)]
pub struct SimScratch {
    inst: InstTable,
    tasks: Vec<Task>,
    sched: Vec<u32>,
    divert: Vec<u32>,
    ready: Vec<u32>,
    ready_set: Vec<u32>,
    wake_heap: BinaryHeap<Reverse<(u64, u32)>>,
    wake_next: Vec<u32>,
    sched_slot: Vec<u32>,
    winners: Vec<(usize, usize)>,
    cycle_buckets: Vec<Bucket>,
    profit: std::collections::HashMap<polyflow_isa::Pc, (i8, u32)>,
    hints: std::collections::HashMap<polyflow_isa::Pc, (Vec<polyflow_isa::Reg>, bool)>,
}

impl SimScratch {
    /// Pre-sizes the per-instruction arenas for an `n`-instruction trace.
    /// Sweeps call this once per [`PreparedTrace`] so the dominant
    /// allocations happen before the first run instead of growing during
    /// it; purely an allocation hint, results are unaffected.
    pub fn reserve(&mut self, n: usize) {
        self.inst.reserve(n);
    }
}

/// Per-instruction pipeline state in struct-of-arrays layout: the issue
/// and divert scans read one dense `u64`/`u8` lane each instead of
/// striding over 40-byte structs.
#[derive(Debug, Default)]
struct InstTable {
    /// Cycle fetched (`NOT_YET` while unfetched).
    fetched_at: Vec<u64>,
    /// Cycle dispatched (`NOT_YET` while undispatched).
    dispatched_at: Vec<u64>,
    /// Completion cycle (`NOT_YET` while unissued).
    done_at: Vec<u64>,
    /// Start index of the owning task at dispatch/fetch time.
    task_start: Vec<u32>,
    /// `F_*` bits.
    flags: Vec<u8>,
}

impl InstTable {
    /// Resets every lane to the unfetched state for an `n`-entry trace.
    fn reset(&mut self, n: usize) {
        self.fetched_at.clear();
        self.fetched_at.resize(n, NOT_YET);
        self.dispatched_at.clear();
        self.dispatched_at.resize(n, NOT_YET);
        self.done_at.clear();
        self.done_at.resize(n, NOT_YET);
        self.task_start.clear();
        self.task_start.resize(n, 0);
        self.flags.clear();
        self.flags.resize(n, 0);
    }

    fn reserve(&mut self, n: usize) {
        self.fetched_at
            .reserve(n.saturating_sub(self.fetched_at.len()));
        self.dispatched_at
            .reserve(n.saturating_sub(self.dispatched_at.len()));
        self.done_at.reserve(n.saturating_sub(self.done_at.len()));
        self.task_start
            .reserve(n.saturating_sub(self.task_start.len()));
        self.flags.reserve(n.saturating_sub(self.flags.len()));
    }

    /// Clears one instruction back to unfetched (squash/reclaim ranges).
    #[inline]
    fn reset_one(&mut self, i: usize) {
        self.fetched_at[i] = NOT_YET;
        self.dispatched_at[i] = NOT_YET;
        self.done_at[i] = NOT_YET;
        self.task_start[i] = 0;
        self.flags[i] = 0;
    }

    #[inline(always)]
    fn flag(&self, i: usize, f: u8) -> bool {
        self.flags[i] & f != 0
    }

    /// Both register-slot speculation bits, in slot order.
    #[inline(always)]
    fn reg_speculative(&self, i: usize) -> [bool; 2] {
        [self.flag(i, F_REG_SPEC0), self.flag(i, F_REG_SPEC1)]
    }
}

/// Why a task's fetch is parked until [`Task::fetch_resume_at`]: the
/// cycle-accounting layer attributes the wait to the matching bucket (the
/// seed lumped all three causes into `fetch_stall_icache_cycles`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResumeKind {
    /// Instruction-cache fill in progress.
    Icache,
    /// Post-squash recovery penalty.
    Squash,
    /// Task Spawn Unit context setup for a fresh task.
    Spawn,
}

#[derive(Debug)]
struct Task {
    start: u32,
    end: u32,
    fetch_next: u32,
    fetch_resume_at: u64,
    waiting_branch: Option<u32>,
    fq: VecDeque<u32>,
    inflight: usize,
    last_fetch_line: u64,
    /// Dynamic task uid — index into [`CycleAccount::tasks`].
    uid: u32,
    /// This task's instructions currently sitting in the divert queue.
    divert_count: u32,
    /// Why fetch is parked until `fetch_resume_at`.
    resume_reason: ResumeKind,
    /// Cycle-accounting bucket recorded by this cycle's fetch stage, if
    /// fetch stalled (cleared by the end-of-cycle accounting pass).
    stall_flag: Option<Bucket>,
    /// Structural-contention marker for this cycle: dispatch or fetch hit
    /// a full resource (cleared by the accounting pass).
    blocked: bool,
    /// The stall episode currently open for this task in the event
    /// stream (drives `StallBegin`/`StallEnd` emission; tracked only
    /// when tracing is enabled).
    active_stall: Option<Bucket>,
    /// Trigger PC of the spawn this task performed as tail, if any; used
    /// by the profitability feedback.
    spawn_trigger: Option<polyflow_isa::Pc>,
    /// Trigger PC of the spawn that *created* this task (None for the
    /// initial task); keys the hint-entry register set.
    created_by: Option<polyflow_isa::Pc>,
    /// After a dependence-violation squash the task refetches in safe
    /// mode: every inter-task register dependence synchronizes, whether or
    /// not the hint entry names it. Prevents livelock when the entry's
    /// capacity cannot cover the task's dependence set.
    safe_mode: bool,
    /// Fetch-stall cycles accumulated since this task spawned.
    stall_since_spawn: u64,
    /// Whether the spawn's profitability has been evaluated.
    profit_evaluated: bool,
}

impl Task {
    fn new(start: u32) -> Task {
        Task {
            start,
            end: OPEN_END,
            fetch_next: start,
            fetch_resume_at: 0,
            waiting_branch: None,
            fq: VecDeque::new(),
            inflight: 0,
            last_fetch_line: u64::MAX,
            uid: 0,
            divert_count: 0,
            resume_reason: ResumeKind::Icache,
            stall_flag: None,
            blocked: false,
            active_stall: None,
            spawn_trigger: None,
            created_by: None,
            safe_mode: false,
            stall_since_spawn: 0,
            profit_evaluated: false,
        }
    }
}

/// The cycle-level machine. Create one per run via [`simulate`].
struct Machine<'a> {
    cfg: &'a MachineConfig,
    trace: &'a Trace,
    dataflow: &'a Dataflow,
    pc_index: &'a PcIndex,
    predictions: &'a PredictionTrace,
    consumers: &'a ConsumerIndex,
    hier: Hierarchy,
    inst: InstTable,
    tasks: Vec<Task>,
    retire_ptr: usize,
    rob_used: usize,
    sched: Vec<u32>,
    divert: Vec<u32>,
    /// Per-cycle ready-list buffer, reused across `issue` calls.
    ready: Vec<u32>,
    /// Scheduler entries that are ready now but not yet issued, sorted
    /// ascending (oldest first). Maintained event-wise: completions wake
    /// their consumers, new entries insert at enqueue time, and a full
    /// rebuild runs only while `sched_dirty` (after squash/reclaim).
    ready_set: Vec<u32>,
    /// Pending wakeups `(cycle, entry)`: the entry may become ready at
    /// that cycle. Wakes may be stale (the entry left the scheduler, or
    /// its ready-at moved) — they re-validate when popped.
    wake_heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Wakeups due exactly next cycle — the overwhelmingly common case
    /// (single-cycle ALU/store/L1-hit latencies). A flat buffer drained
    /// at the next issue call, skipping the heap round-trip. Every push
    /// site also marks activity, so the buffer is provably empty on any
    /// cycle the fast-forward inspects.
    wake_next: Vec<u32>,
    /// Position of each in-scheduler instruction inside `sched` (valid
    /// only while its `F_IN_SCHED` bit is set): lets issue remove a
    /// batch in O(batch) swap-removes instead of an O(scheduler) retain
    /// every issuing cycle.
    sched_slot: Vec<u32>,
    /// A violation left issued entries behind in the scheduler (the
    /// re-issue quirk); the next successful issue sweeps any that did
    /// not re-issue, exactly like the stepped scan's retain did.
    sched_residue: bool,
    /// Per-cycle fetch schedule `(task index, inflight key)`, reused
    /// across `fetch` calls.
    winners: Vec<(usize, usize)>,
    cycle: u64,
    stats: SimResult,
    last_retire_cycle: u64,
    /// Profitability feedback state per trigger PC: a saturating counter
    /// (0..=PROFIT_MAX, optimistically initialized) and a suppression
    /// count used to periodically probe throttled spawn points.
    profit: std::collections::HashMap<polyflow_isa::Pc, (i8, u32)>,
    /// Store-set memory-dependence predictor (store-set mode only).
    ssit: StoreSetPredictor,
    /// Consecutive cycles the oldest task has been blocked on a full ROB
    /// (drives the §6 reclamation extension).
    rob_blocked_streak: u64,
    /// Per-spawn-point register hint entries (hint-entry model): which
    /// architectural registers tasks from this trigger synchronize on,
    /// plus a saturation flag — once the dependence set overflows the
    /// entry, tasks from this trigger synchronize *everything* (they
    /// start in safe mode).
    hints: std::collections::HashMap<polyflow_isa::Pc, (Vec<polyflow_isa::Reg>, bool)>,
    /// The run's cycle-slot ledger (always on; see `crate::account`).
    account: CycleAccount,
    /// Structured-event consumer.
    sink: &'a mut dyn TraceSink,
    /// Cached `sink.enabled()`: when false, events only reach the
    /// post-mortem ring.
    trace_on: bool,
    /// Always-on flight recorder: the last [`EVENT_RING`] events, for
    /// [`SimError::Livelock`] post-mortems.
    ring: VecDeque<SimEvent>,
    /// Execution options (cycle skipping).
    opts: SimOptions,
    /// Stepped-vs-skipped cycle counts for this run.
    telemetry: SimTelemetry,
    /// Whether any machine state changed this cycle. A cycle that ends
    /// with this false will repeat identically until the next scheduled
    /// event, which is what licenses the fast-forward.
    activity: bool,
    /// The oldest task hit the ROB limit during this cycle's dispatch
    /// (feeds the reclamation countdown into the fast-forward).
    rob_blocked_this_cycle: bool,
    /// Earliest cycle any scheduler entry could become ready, valid when
    /// `!sched_dirty` (`NOT_YET` = never without a new event).
    sched_next_ready: u64,
    /// The scheduler scan must run: membership or producer completion
    /// times changed since `sched_next_ready` was computed.
    sched_dirty: bool,
    /// Earliest cycle any divert entry's release gate opens, valid when
    /// `!divert_dirty` and the scan was not truncated by a full scheduler.
    divert_next_release: u64,
    /// The divert scan must run: membership, dispatch times, or divert
    /// flags changed since `divert_next_release` was computed.
    divert_dirty: bool,
    /// This cycle's per-task bucket classification, captured by
    /// `account_cycle` in task order for bulk replay by `fast_forward`.
    cycle_buckets: Vec<Bucket>,
    /// Per-phase wall-clock timers (`POLYFLOW_SIM_PROFILE`).
    prof: Option<Box<PhaseProfile>>,
}

/// Runs `prepared` through the machine described by `config`, spawning
/// tasks according to `source`. Returns the run's statistics.
///
/// # Panics
///
/// Panics on any [`SimError`]: a malformed trace, a tripped watchdog
/// ([`MachineConfig::max_cycles`] / [`MachineConfig::livelock_window`]),
/// or a broken internal invariant. Callers that need graceful failure
/// use [`try_simulate`].
pub fn simulate(
    prepared: &PreparedTrace,
    config: &MachineConfig,
    source: &mut dyn SpawnSource,
) -> SimResult {
    try_simulate(prepared, config, source).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`simulate`]: watchdog trips, malformed traces, and broken
/// internal invariants surface as a typed [`SimError`] instead of a
/// panic. [`try_simulate_opts`] with fresh buffers, no event sink and
/// default options.
pub fn try_simulate(
    prepared: &PreparedTrace,
    config: &MachineConfig,
    source: &mut dyn SpawnSource,
) -> Result<SimResult, SimError> {
    let mut scratch = SimScratch::default();
    try_simulate_opts(
        prepared,
        config,
        source,
        &mut scratch,
        &mut NullSink,
        SimOptions::default(),
    )
    .map(|(r, _)| r)
}

/// The full simulation entry point, which [`simulate`] and
/// [`try_simulate`] wrap.
///
/// * `scratch` donates reusable buffers: every buffer is cleared and
///   resized before use, so results are bit-identical with or without
///   reuse. Sweeps keep one [`SimScratch`] per worker thread.
/// * `sink` receives structured [`SimEvent`]s (see `crate::events`).
///   Event emission never feeds back into simulation state, so the
///   result is bit-identical for every sink; with [`NullSink`]
///   (`enabled() == false`) events only reach the internal post-mortem
///   ring.
/// * `opts` choose how the run executes, never what it computes:
///   `cycle_skip` on and off produce bit-identical [`SimResult`]s and
///   event streams. The returned [`SimTelemetry`] reports how many
///   cycles were fast-forwarded vs stepped.
///
/// The trace is structurally validated up front ([`Trace::validate`] →
/// [`SimError::MalformedTrace`]), the watchdogs in [`MachineConfig`]
/// bound the run, and every formerly panicking invariant site returns
/// [`SimError::BrokenInvariant`]. On `Err` the scratch buffers donated
/// to the run are *not* returned (the next run through the same scratch
/// simply reallocates).
pub fn try_simulate_opts(
    prepared: &PreparedTrace,
    config: &MachineConfig,
    source: &mut dyn SpawnSource,
    scratch: &mut SimScratch,
    sink: &mut dyn TraceSink,
    opts: SimOptions,
) -> Result<(SimResult, SimTelemetry), SimError> {
    let n = prepared.trace.len();
    if n == 0 {
        return Ok((SimResult::default(), SimTelemetry::default()));
    }
    prepared.trace().validate()?;
    let mut inst = std::mem::take(&mut scratch.inst);
    inst.reset(n);
    let mut tasks = std::mem::take(&mut scratch.tasks);
    tasks.clear();
    tasks.push(Task::new(0));
    let mut sched = std::mem::take(&mut scratch.sched);
    sched.clear();
    sched.reserve(config.scheduler_entries);
    let mut divert = std::mem::take(&mut scratch.divert);
    divert.clear();
    let mut ready = std::mem::take(&mut scratch.ready);
    ready.clear();
    let mut ready_set = std::mem::take(&mut scratch.ready_set);
    ready_set.clear();
    let mut wake_heap = std::mem::take(&mut scratch.wake_heap);
    wake_heap.clear();
    let mut wake_next = std::mem::take(&mut scratch.wake_next);
    wake_next.clear();
    let mut sched_slot = std::mem::take(&mut scratch.sched_slot);
    sched_slot.clear();
    sched_slot.resize(n, 0);
    let mut winners = std::mem::take(&mut scratch.winners);
    winners.clear();
    let mut cycle_buckets = std::mem::take(&mut scratch.cycle_buckets);
    cycle_buckets.clear();
    let mut profit = std::mem::take(&mut scratch.profit);
    profit.clear();
    let mut hints = std::mem::take(&mut scratch.hints);
    hints.clear();
    let mut m = Machine {
        cfg: config,
        trace: prepared.trace(),
        dataflow: prepared.dataflow(),
        pc_index: prepared.pc_index(),
        predictions: prepared.predictions(),
        consumers: prepared.consumers(),
        hier: Hierarchy::new(config),
        inst,
        tasks,
        retire_ptr: 0,
        rob_used: 0,
        sched,
        divert,
        ready,
        ready_set,
        wake_heap,
        wake_next,
        sched_slot,
        sched_residue: false,
        winners,
        cycle: 0,
        stats: SimResult::default(),
        last_retire_cycle: 0,
        profit,
        ssit: StoreSetPredictor::new(config.store_set_index_bits),
        rob_blocked_streak: 0,
        hints,
        account: CycleAccount::new(config.max_tasks),
        trace_on: sink.enabled(),
        sink,
        ring: VecDeque::with_capacity(EVENT_RING),
        opts,
        telemetry: SimTelemetry::default(),
        activity: false,
        rob_blocked_this_cycle: false,
        sched_next_ready: 0,
        sched_dirty: true,
        divert_next_release: 0,
        divert_dirty: true,
        cycle_buckets,
        prof: PhaseProfile::from_env(),
    };
    let run = m.run(source);
    let telemetry = m.telemetry;
    let finish = m.finish_into(scratch);
    run?;
    Ok((finish?, telemetry))
}

/// Fixed-capacity biased-ICount selection: keeps the `cap` best
/// `(task index, key)` candidates sorted by key, older task winning
/// ties (insertion order is task order and equal keys insert *after*
/// existing ones, so the result matches a stable sort by key). Returns
/// the task index that lost arbitration by this insertion, if any.
#[inline]
fn icount_insert(
    winners: &mut Vec<(usize, usize)>,
    cap: usize,
    ti: usize,
    key: usize,
) -> Option<usize> {
    let pos = winners.partition_point(|&(_, k)| k <= key);
    if winners.len() < cap {
        winners.insert(pos, (ti, key));
        None
    } else if pos < cap {
        let evicted = winners.pop().map(|(t, _)| t);
        winners.insert(pos, (ti, key));
        evicted
    } else {
        Some(ti)
    }
}

impl Machine<'_> {
    fn run(&mut self, source: &mut dyn SpawnSource) -> Result<(), SimError> {
        let n = self.trace.len();
        let retire_hook = source.wants_retire();
        while self.retire_ptr < n {
            self.activity = false;
            self.rob_blocked_this_cycle = false;
            let mut mark = self.prof_mark();
            self.retire(source, retire_hook);
            self.prof_lap(&mut mark, phase::RETIRE);
            if self.retire_ptr >= n {
                break;
            }
            self.issue()?;
            self.prof_lap(&mut mark, phase::ISSUE);
            self.drain_divert()?;
            self.prof_lap(&mut mark, phase::DIVERT);
            self.dispatch();
            // §6 extension: reclaim ROB entries from the youngest task if
            // the oldest has been starved long enough.
            if self.cfg.rob_reclamation
                && self.rob_blocked_streak >= self.cfg.rob_reclaim_after
                && self.tasks.len() > 1
            {
                self.reclaim_youngest()?;
                self.rob_blocked_streak = 0;
            }
            self.prof_lap(&mut mark, phase::DISPATCH);
            self.fetch(source);
            self.prof_lap(&mut mark, phase::FETCH);
            self.account_cycle();
            if self.opts.cycle_skip && !self.activity {
                self.fast_forward();
            }
            self.prof_lap(&mut mark, phase::ACCOUNT);
            self.telemetry.executed_cycles += 1;
            self.cycle += 1;
            if self.cycle - self.last_retire_cycle >= self.cfg.livelock_window {
                return Err(self.livelock_error());
            }
            if self.cycle >= self.cfg.max_cycles {
                return Err(SimError::CyclesExceeded {
                    max_cycles: self.cfg.max_cycles,
                    retired: self.retire_ptr as u64,
                    instructions: n as u64,
                });
            }
        }
        Ok(())
    }

    /// Starts a per-phase timing lap (profiling runs only).
    #[inline]
    fn prof_mark(&self) -> Option<Instant> {
        self.prof.as_ref().map(|_| Instant::now())
    }

    /// Closes the current lap into phase `idx` and starts the next one.
    #[inline]
    fn prof_lap(&mut self, mark: &mut Option<Instant>, idx: usize) {
        if let Some(m) = mark {
            let now = Instant::now();
            if let Some(p) = &mut self.prof {
                p.spans[idx] += now - *m;
            }
            *m = now;
        }
    }

    /// Computes the earliest future cycle at which anything can happen
    /// and jumps just short of it in one step, charging the intervening
    /// idle cycles' account slots (and their paired stall counters) in
    /// bulk. Only called when the cycle just executed changed no machine
    /// state, so every live task's bucket classification — captured by
    /// `account_cycle` in `cycle_buckets` — holds verbatim across the
    /// span, no events are due, and both watchdogs trip on exactly the
    /// cycles stepped execution would trip on (DESIGN.md §13 carries the
    /// completeness argument for the candidate set).
    fn fast_forward(&mut self) {
        let c = self.cycle;
        let mut next = NOT_YET;
        let mut consider = |at: u64| {
            if at < next {
                next = at;
            }
        };
        // ROB-head completion unblocks retirement.
        let head = self.inst.done_at[self.retire_ptr];
        if head != NOT_YET {
            consider(head);
        }
        // Scheduler wakeup. The cached earliest ready-at is exact on an
        // idle cycle: issue() always leaves it clean when nothing issues
        // (and the next-cycle wake buffer is provably empty — every push
        // site marks activity, which blocks the fast-forward).
        debug_assert!(self.wake_next.is_empty());
        if !self.sched.is_empty() {
            debug_assert!(!self.sched_dirty);
            consider(self.sched_next_ready);
        }
        // Divert release gate — only relevant while the scheduler has
        // room (a full scheduler blocks release regardless, and frees via
        // the scheduler wakeup above). A scan truncated before completing
        // (zero-width configs) leaves the bound dirty: bail out and step.
        if !self.divert.is_empty() && self.sched.len() < self.cfg.scheduler_entries {
            if self.divert_dirty {
                return;
            }
            consider(self.divert_next_release);
        }
        let n = self.trace.len() as u32;
        for t in &self.tasks {
            // Decode completion of the fetch-queue head enables dispatch.
            if let Some(&front) = t.fq.front() {
                let at = self.inst.fetched_at[front as usize] + self.cfg.decode_latency;
                if at > c {
                    consider(at);
                }
            }
            if t.fetch_next >= t.end.min(n) {
                continue;
            }
            // Branch resolution reopens this task's fetch.
            if let Some(b) = t.waiting_branch {
                let done = self.inst.done_at[b as usize];
                if done != NOT_YET {
                    let resume = self.inst.fetched_at[b as usize] + self.cfg.misprediction_penalty;
                    consider(done.max(resume));
                }
                continue;
            }
            // Icache fill / squash recovery / spawn setup elapses.
            if c < t.fetch_resume_at {
                consider(t.fetch_resume_at);
            }
        }
        // ROB reclamation countdown (§6 extension): the blocked streak
        // grows by one per idle cycle until it reaches the threshold.
        if self.cfg.rob_reclamation && self.rob_blocked_this_cycle && self.tasks.len() > 1 {
            consider(
                c + self
                    .cfg
                    .rob_reclaim_after
                    .saturating_sub(self.rob_blocked_streak),
            );
        }
        // Never jump past a watchdog: both must trip at exactly the
        // cycle stepped execution would trip on, with identical state.
        let cap = self
            .last_retire_cycle
            .saturating_add(self.cfg.livelock_window)
            .min(self.cfg.max_cycles);
        let until = next.min(cap);
        if until == NOT_YET {
            // Nothing scheduled and no finite watchdog: spin exactly as
            // stepped execution would.
            return;
        }
        let k = until.saturating_sub(c + 1);
        if k == 0 {
            return;
        }
        debug_assert_eq!(self.cycle_buckets.len(), self.tasks.len());
        for (ti, &bucket) in self.cycle_buckets.iter().enumerate() {
            let t = &mut self.tasks[ti];
            self.account.charge_many(t.uid, bucket, k);
            // Keep the paired stats counters in lockstep with their
            // buckets, exactly as the per-cycle fetch stage would have.
            match bucket {
                Bucket::BranchStall => {
                    self.stats.fetch_stall_branch_cycles += k;
                    t.stall_since_spawn += k;
                }
                Bucket::IcacheStall => {
                    self.stats.fetch_stall_icache_cycles += k;
                    t.stall_since_spawn += k;
                }
                Bucket::SquashRecovery => {
                    self.stats.squash_recovery_cycles += k;
                    t.stall_since_spawn += k;
                }
                Bucket::SpawnSetup => {
                    self.stats.spawn_setup_cycles += k;
                    t.stall_since_spawn += k;
                }
                _ => {}
            }
        }
        self.account
            .charge_idle(self.cfg.max_tasks.saturating_sub(self.tasks.len()) as u64 * k);
        if self.rob_blocked_this_cycle {
            self.rob_blocked_streak += k;
        }
        self.cycle += k;
        self.telemetry.skipped_cycles += k;
        self.telemetry.fast_forwards += 1;
    }

    /// Assembles the [`SimError::Livelock`] post-mortem: the stuck
    /// instruction's state, its owner task, the scheduler/divert heads,
    /// the cycle-slot ledger, and the recent event ring.
    fn livelock_error(&self) -> SimError {
        let i = self.retire_ptr;
        let owner = self
            .tasks
            .iter()
            .enumerate()
            .find(|(_, t)| t.start as usize <= self.retire_ptr && (self.retire_ptr as u32) < t.end)
            .map(|(i, t)| {
                format!(
                    "task {i} [{}..{}) fetch_next {} fq {} wait {:?} resume {} safe {}",
                    t.start,
                    t.end,
                    t.fetch_next,
                    t.fq.len(),
                    t.waiting_branch,
                    t.fetch_resume_at,
                    t.safe_mode
                )
            })
            .unwrap_or_else(|| "NO TASK".into());
        let mut dump = String::new();
        for &idx in self.sched.iter().take(6) {
            let prods: Vec<String> = self
                .producers(idx as usize)
                .map(|p| {
                    let pi = p as usize;
                    format!(
                        "{p}(d{} v{} done{})",
                        self.inst.flag(pi, F_DISPATCHED) as u8,
                        self.inst.flag(pi, F_IN_DIVERT) as u8,
                        (self.inst.done_at[pi] <= self.cycle) as u8
                    )
                })
                .collect();
            dump.push_str(&format!(
                "  sched {idx} spec{:?}/{} <- {:?}\n",
                self.inst.reg_speculative(idx as usize),
                self.inst.flag(idx as usize, F_MEM_SPEC) as u8,
                prods
            ));
        }
        for &idx in self.divert.iter().take(4) {
            dump.push_str(&format!("  divert {idx}\n"));
        }
        let detail = format!(
            "retire_ptr {}, rob {}, sched {}, divert {}, tasks {}\nstuck inst: fetched_at {} dispatched {} in_divert {} issued {} done_at {} spec {:?}/{}\nowner: {owner}\n{dump}",
            self.retire_ptr, self.rob_used, self.sched.len(),
            self.divert.len(), self.tasks.len(),
            self.inst.fetched_at[i], self.inst.flag(i, F_DISPATCHED),
            self.inst.flag(i, F_IN_DIVERT), self.inst.flag(i, F_ISSUED),
            self.inst.done_at[i],
            self.inst.reg_speculative(i), self.inst.flag(i, F_MEM_SPEC),
        );
        let mut account = self.account.clone();
        account.cycles = self.cycle;
        SimError::Livelock {
            cycle: self.cycle,
            window: self.cfg.livelock_window,
            retired: self.retire_ptr as u64,
            account: Box::new(account),
            recent_events: self.ring.iter().copied().collect(),
            detail,
        }
    }

    /// Records `ev` in the always-on post-mortem ring and forwards it to
    /// the sink when tracing is enabled. Never feeds back into timing.
    fn record(&mut self, ev: SimEvent) {
        if self.ring.len() == EVENT_RING {
            self.ring.pop_front();
        }
        self.ring.push_back(ev);
        if self.trace_on {
            self.sink.event(&ev);
        }
    }

    /// End-of-cycle accounting: charges one cycle-slot per context to
    /// exactly one [`Bucket`] (see `crate::account` for the taxonomy and
    /// priority), and emits `StallBegin`/`StallEnd` events on episode
    /// transitions when tracing is enabled. Pure bookkeeping — never
    /// feeds back into timing. The per-task classification is also
    /// captured into `cycle_buckets` for bulk replay by `fast_forward`.
    fn account_cycle(&mut self) {
        let live = self.tasks.len();
        self.cycle_buckets.clear();
        for ti in 0..live {
            let (uid, bucket, prev, cur) = {
                let t = &mut self.tasks[ti];
                let bucket = if let Some(b) = t.stall_flag {
                    b
                } else if t.divert_count > 0 {
                    Bucket::DivertWait
                } else if t.blocked {
                    Bucket::Contention
                } else {
                    Bucket::Retire
                };
                t.stall_flag = None;
                t.blocked = false;
                let prev = t.active_stall;
                let cur = if bucket.is_stall() {
                    Some(bucket)
                } else {
                    None
                };
                t.active_stall = cur;
                (t.uid, bucket, prev, cur)
            };
            self.cycle_buckets.push(bucket);
            self.account.charge(uid, bucket);
            if prev != cur {
                if let Some(b) = prev {
                    self.record(SimEvent::StallEnd {
                        cycle: self.cycle,
                        task: uid,
                        bucket: b,
                    });
                }
                if let Some(b) = cur {
                    self.record(SimEvent::StallBegin {
                        cycle: self.cycle,
                        task: uid,
                        bucket: b,
                    });
                }
            }
        }
        self.account
            .charge_idle(self.cfg.max_tasks.saturating_sub(live) as u64);
    }

    fn finish_into(self, scratch: &mut SimScratch) -> Result<SimResult, SimError> {
        if let Some(p) = &self.prof {
            p.report(self.cycle, &self.telemetry);
        }
        let mut stats = self.stats;
        stats.cycles = self.cycle.max(1);
        stats.instructions = self.trace.len() as u64;
        let mut account = self.account;
        account.cycles = self.cycle;
        // Always-on (not just debug): `sum(buckets) == cycles × contexts`
        // is the fuzz harness's core invariant, and one pass over the
        // bucket array is noise next to the run itself.
        let check = account.check();
        stats.account = account;
        stats.branch_mispredicts = self.predictions.cond_mispredicts();
        stats.indirect_mispredicts = self.predictions.indirect_mispredicts();
        stats.l1i_misses = self.hier.l1i().misses();
        stats.l1d_misses = self.hier.l1d().misses();
        stats.l2_misses = self.hier.l2().misses();
        scratch.inst = self.inst;
        scratch.tasks = self.tasks;
        scratch.sched = self.sched;
        scratch.divert = self.divert;
        scratch.ready = self.ready;
        scratch.ready_set = self.ready_set;
        scratch.wake_heap = self.wake_heap;
        scratch.wake_next = self.wake_next;
        scratch.sched_slot = self.sched_slot;
        scratch.winners = self.winners;
        scratch.cycle_buckets = self.cycle_buckets;
        scratch.profit = self.profit;
        scratch.hints = self.hints;
        match check {
            Ok(()) => Ok(stats),
            Err(detail) => Err(SimError::AccountingViolation { detail }),
        }
    }

    /// All producers of `idx` (register sources plus, for loads, the
    /// producing store).
    fn producers(&self, idx: usize) -> impl Iterator<Item = u32> + '_ {
        let [a, b] = self.dataflow.reg_producers(idx);
        let m = self.dataflow.mem_producer(idx);
        [a, b, m].into_iter().flatten()
    }

    // ---- retire ------------------------------------------------------------

    fn retire(&mut self, source: &mut dyn SpawnSource, retire_hook: bool) {
        let n = self.trace.len();
        let mut retired = 0;
        while retired < self.cfg.width && self.retire_ptr < n {
            let i = self.retire_ptr;
            if !(self.inst.flag(i, F_DISPATCHED) && self.inst.done_at[i] <= self.cycle) {
                break;
            }
            if retire_hook {
                source.on_retire(&self.trace.entry(i));
            }
            self.rob_used -= 1;
            self.tasks[0].inflight -= 1;
            self.retire_ptr += 1;
            retired += 1;
            self.last_retire_cycle = self.cycle;
            // Pop tasks whose interval is fully retired.
            while self.tasks.len() > 1 && self.retire_ptr as u32 >= self.tasks[0].end {
                debug_assert_eq!(self.tasks[0].inflight, 0);
                self.tasks.remove(0);
            }
        }
        if retired > 0 {
            self.activity = true;
            self.record(SimEvent::RetireBatch {
                cycle: self.cycle,
                count: retired as u32,
                retire_ptr: self.retire_ptr as u32,
            });
        }
    }

    // ---- issue ---------------------------------------------------------------

    /// The cycle at which scheduler entry `i` becomes ready: the max
    /// completion time over its non-speculative producer slots
    /// (speculative slots never gate readiness; an unissued producer
    /// contributes `NOT_YET` — the entry is woken by the consumer walk
    /// when that producer issues).
    #[inline]
    fn ready_at(&self, i: usize) -> u64 {
        let [ra, rb] = self.dataflow.reg_producers(i);
        let mem = self.dataflow.mem_producer(i);
        let f = self.inst.flags[i];
        let slot_at = |p: Option<u32>, spec: bool| -> u64 {
            if spec {
                0
            } else {
                p.map(|p| self.inst.done_at[p as usize]).unwrap_or(0)
            }
        };
        slot_at(ra, f & F_REG_SPEC0 != 0)
            .max(slot_at(rb, f & F_REG_SPEC1 != 0))
            .max(slot_at(mem, f & F_MEM_SPEC != 0))
    }

    /// Inserts `idx` into the sorted ready set (idempotent — wakeups can
    /// duplicate when an entry is already ready through a speculative
    /// slot).
    #[inline]
    fn ready_insert(&mut self, idx: u32) {
        let pos = self.ready_set.partition_point(|&x| x < idx);
        if self.ready_set.get(pos) != Some(&idx) {
            self.ready_set.insert(pos, idx);
        }
    }

    /// Appends `idx` to the scheduler, recording its position for the
    /// O(batch) removal in issue.
    #[inline]
    fn sched_push(&mut self, idx: u32) {
        self.sched_slot[idx as usize] = self.sched.len() as u32;
        self.sched.push(idx);
    }

    /// Removes `idx` from the scheduler by its recorded position.
    #[inline]
    fn sched_swap_remove(&mut self, idx: u32) {
        let pos = self.sched_slot[idx as usize] as usize;
        debug_assert_eq!(self.sched.get(pos), Some(&idx));
        if let Some(last) = self.sched.pop() {
            if last != idx {
                self.sched[pos] = last;
                self.sched_slot[last as usize] = pos as u32;
            }
        }
    }

    /// Restores the `sched_slot` position map after an order-preserving
    /// bulk removal (squash/reclaim retains, residue sweeps).
    fn sched_reindex(&mut self) {
        for k in 0..self.sched.len() {
            let i = self.sched[k] as usize;
            self.sched_slot[i] = k as u32;
        }
    }

    /// Wakeup bookkeeping for an entry that just entered the scheduler
    /// (dispatch or divert release): ready now → into the ready set,
    /// ready next cycle → the flat next-cycle buffer, ready later → a
    /// heap wake, waiting on an unissued producer → nothing (that
    /// producer's issue wakes it). With a dirty scheduler the next
    /// rebuild covers it instead.
    fn sched_entry_enqueued(&mut self, idx: u32) {
        if self.sched_dirty {
            return;
        }
        let at = self.ready_at(idx as usize);
        if at <= self.cycle {
            self.ready_insert(idx);
        } else if at == self.cycle + 1 {
            self.wake_next.push(idx);
        } else if at != NOT_YET {
            self.wake_heap.push(Reverse((at, idx)));
        }
    }

    /// Rebuilds the ready set and wakeup heap from a full scheduler scan.
    /// Runs only while `sched_dirty` — after a squash or reclamation, and
    /// at run start. This is also what preserves the post-violation
    /// re-issue semantics: entries that issued right before a violation
    /// stay in the scheduler, and the rebuild reconsiders them exactly as
    /// the stepped scan would.
    fn rebuild_ready(&mut self) {
        self.ready_set.clear();
        self.wake_heap.clear();
        self.wake_next.clear();
        for k in 0..self.sched.len() {
            let idx = self.sched[k];
            let at = self.ready_at(idx as usize);
            if at <= self.cycle {
                self.ready_set.push(idx);
            } else if at != NOT_YET {
                self.wake_heap.push(Reverse((at, idx)));
            }
        }
        self.ready_set.sort_unstable();
        self.sched_dirty = false;
        if let Some(p) = &mut self.prof {
            p.rebuilds += 1;
            p.rebuild_entries += self.sched.len() as u64;
        }
    }

    fn issue(&mut self) -> Result<(), SimError> {
        if self.sched_dirty {
            self.rebuild_ready();
        } else {
            // Drain due wakeups into the ready set. Stale wakes (the
            // entry left the scheduler, or its ready-at moved) simply
            // re-validate and drop or re-queue. The flat next-cycle
            // buffer first: its entries were pushed last cycle with a
            // due time of exactly this cycle.
            if !self.wake_next.is_empty() {
                let due = std::mem::take(&mut self.wake_next);
                if let Some(p) = &mut self.prof {
                    p.wakes_popped += due.len() as u64;
                }
                for &q in &due {
                    let qi = q as usize;
                    if self.inst.flags[qi] & (F_IN_SCHED | F_ISSUED) != F_IN_SCHED {
                        continue;
                    }
                    let now = self.ready_at(qi);
                    if now <= self.cycle {
                        self.ready_insert(q);
                    } else if now != NOT_YET {
                        self.wake_heap.push(Reverse((now, q)));
                    }
                }
                let mut due = due;
                due.clear();
                self.wake_next = due;
            }
            while let Some(&Reverse((at, q))) = self.wake_heap.peek() {
                if at > self.cycle {
                    break;
                }
                self.wake_heap.pop();
                if let Some(p) = &mut self.prof {
                    p.wakes_popped += 1;
                }
                let qi = q as usize;
                if self.inst.flags[qi] & (F_IN_SCHED | F_ISSUED) != F_IN_SCHED {
                    continue;
                }
                let now = self.ready_at(qi);
                if now <= self.cycle {
                    self.ready_insert(q);
                } else if now != NOT_YET {
                    self.wake_heap.push(Reverse((now, q)));
                }
            }
        }
        let lanes = self.cfg.fn_units.min(self.cfg.width);
        if lanes == 0 || self.ready_set.is_empty() {
            self.sched_next_ready = if self.ready_set.is_empty() {
                self.wake_heap
                    .peek()
                    .map(|&Reverse((at, _))| at)
                    .unwrap_or(NOT_YET)
            } else {
                // Ready entries but no lane to take them: the stepped
                // loop re-examines every cycle, so never fast-forward.
                self.cycle
            };
            return Ok(());
        }
        self.activity = true;
        if let Some(p) = &mut self.prof {
            p.issue_cycles += 1;
        }
        // Oldest `lanes` ready entries issue; the rest stay ready. The
        // batch is frozen here, exactly like the stepped scan's truncated
        // ready list (a violation mid-batch rebuilds everything anyway).
        let take = lanes.min(self.ready_set.len());
        let mut ready = std::mem::take(&mut self.ready);
        ready.clear();
        ready.extend(self.ready_set.drain(..take));
        let mut pos = 0;
        while pos < ready.len() {
            let idx = ready[pos];
            pos += 1;
            let i = idx as usize;
            // One flags load serves every check below: nothing between
            // here and the `F_ISSUED` write mutates this entry's flags
            // (the violation paths return early).
            let f = self.inst.flags[i];
            // A speculative load issuing before its true producer store is
            // a dependence violation: squash its task and all younger
            // tasks, train the predictor, and stop issuing this cycle
            // (younger scheduler entries may have just been squashed).
            if f & F_MEM_SPEC != 0 {
                if let Some(p) = self.dataflow.mem_producer(i) {
                    if self.inst.done_at[p as usize] > self.cycle {
                        let pc = self.trace.entry(i).pc;
                        self.ssit.train_violation(pc);
                        let r = self.squash_task_containing(idx);
                        if pos > 1 {
                            self.sched_residue = true;
                        }
                        self.ready = ready;
                        return r;
                    }
                }
            }
            // Register-dependence violation (hint-entry model): an
            // unsynchronized inter-task register source whose producer is
            // still in flight.
            if f & (F_REG_SPEC0 | F_REG_SPEC1) != 0 {
                let reg_spec = [f & F_REG_SPEC0 != 0, f & F_REG_SPEC1 != 0];
                let [ra, rb] = self.dataflow.reg_producers(i);
                let srcs = self.trace.entry(i).inst.srcs();
                for (slot, p) in [(0, ra), (1, rb)] {
                    if !reg_spec[slot] {
                        continue;
                    }
                    let Some(p) = p else { continue };
                    if self.inst.done_at[p as usize] > self.cycle {
                        self.stats.register_violations += 1;
                        self.train_hint(idx, srcs[slot]);
                        let r = self.squash_task_containing(idx);
                        if pos > 1 {
                            self.sched_residue = true;
                        }
                        self.ready = ready;
                        return r;
                    }
                }
            }
            let cons = self.consumers;
            let latency = match cons.meta[i] & K_ISSUE_MASK {
                K_LOAD => self.hier.access_data(self.trace.mem_addrs()[i]),
                K_STORE => {
                    // Warm the line so later loads hit (implicit
                    // store-to-load forwarding through the L1).
                    self.hier.access_data(self.trace.mem_addrs()[i]);
                    1
                }
                K_MUL => self.cfg.mul_latency,
                _ => 1,
            };
            let re_issue = f & F_ISSUED != 0;
            self.inst.flags[i] = f | F_ISSUED;
            let done = self.cycle + latency;
            self.inst.done_at[i] = done;
            // Event-driven wakeup: schedule a readiness check at this
            // completion for every consumer currently waiting in the
            // scheduler.
            if let Some(p) = &mut self.prof {
                p.issued += 1;
            }
            for &q in cons.of(i) {
                let qf = self.inst.flags[q as usize];
                if qf & (F_IN_SCHED | F_ISSUED) == F_IN_SCHED {
                    if done == self.cycle + 1 {
                        self.wake_next.push(q);
                    } else {
                        self.wake_heap.push(Reverse((done, q)));
                    }
                    if let Some(p) = &mut self.prof {
                        p.wakes_pushed += 1;
                    }
                    if re_issue {
                        // A post-violation re-issue moved this completion
                        // later; it may retract a consumer's readiness.
                        if let Ok(p) = self.ready_set.binary_search(&q) {
                            if self.ready_at(q as usize) > self.cycle {
                                self.ready_set.remove(p);
                            }
                        }
                    }
                }
            }
        }
        // The whole batch issued: remove exactly those entries in
        // O(batch) swap-removes. No scheduler-wide pass unless a prior
        // violation left issued entries behind (the re-issue quirk) —
        // then one sweep reproduces the stepped scan's retain verbatim.
        for &idx in &ready {
            self.inst.flags[idx as usize] &= !F_IN_SCHED;
            self.sched_swap_remove(idx);
        }
        if self.sched_residue {
            for k in 0..self.sched.len() {
                let i = self.sched[k] as usize;
                if self.inst.flags[i] & F_ISSUED != 0 {
                    self.inst.flags[i] &= !F_IN_SCHED;
                }
            }
            {
                let inst = &self.inst;
                self.sched.retain(|&idx| !inst.flag(idx as usize, F_ISSUED));
                // The sweep can evict entries still parked in the ready
                // set (issued right before a violation, re-inserted by
                // the dirty rebuild, then not taken for lack of lanes).
                // Drop them too, or a later batch would issue a
                // non-scheduler entry and swap-remove through a stale
                // slot.
                self.ready_set
                    .retain(|&idx| inst.flag(idx as usize, F_IN_SCHED));
            }
            self.sched_reindex();
            self.sched_residue = false;
        }
        if cfg!(debug_assertions) {
            for k in 0..self.sched.len() {
                debug_assert!(
                    !self.inst.flag(self.sched[k] as usize, F_ISSUED),
                    "issued entry {} still in scheduler after batch removal",
                    self.sched[k]
                );
            }
        }
        self.ready = ready;
        Ok(())
    }

    // ---- divert queue ---------------------------------------------------------

    /// An instruction leaves the divert queue once every inter-task
    /// producer has been dispatched into the scheduler (§3.1). The scan
    /// compacts the queue in place (releases drop out, survivors slide
    /// down in order) and caches the earliest cycle any surviving entry's
    /// gate can open, so provably idle scans are skipped.
    fn drain_divert(&mut self) -> Result<(), SimError> {
        if self.divert.is_empty() {
            self.divert_next_release = NOT_YET;
            self.divert_dirty = false;
            return Ok(());
        }
        if !self.divert_dirty && self.divert_next_release > self.cycle {
            return Ok(());
        }
        let mut released = 0;
        let mut next_release = NOT_YET;
        let len = self.divert.len();
        let mut r = 0;
        let mut w = 0;
        let mut complete = true;
        while r < len {
            if released >= self.cfg.width || self.sched.len() >= self.cfg.scheduler_entries {
                complete = false;
                break;
            }
            let idx = self.divert[r];
            r += 1;
            let task_start = self.inst.task_start[idx as usize];
            // The gate opens at the max over producers: a producer still
            // in the divert queue blocks release regardless of task
            // (releasing early would recreate the consumer-camps-in-
            // scheduler deadlock); an intra-task producer never gates; an
            // inter-task producer opens "some time after" its dispatch
            // (§3.1) — the synchronization overhead of the conservative
            // dependence handling.
            let mut open_at = 0u64;
            for p in self.producers(idx as usize) {
                let pi = p as usize;
                let at = if self.inst.flag(pi, F_IN_DIVERT) {
                    NOT_YET
                } else if p >= task_start {
                    0
                } else if self.inst.flag(pi, F_DISPATCHED) {
                    self.inst.dispatched_at[pi] + self.cfg.divert_release_delay
                } else {
                    NOT_YET
                };
                open_at = open_at.max(at);
                if open_at == NOT_YET {
                    break;
                }
            }
            if open_at <= self.cycle {
                let f = &mut self.inst.flags[idx as usize];
                *f = (*f & !F_IN_DIVERT) | F_IN_SCHED;
                let Some(owner) = self.tasks.iter_mut().find(|t| t.start == task_start) else {
                    return Err(SimError::BrokenInvariant {
                        cycle: self.cycle,
                        detail: format!(
                            "divert entry {idx} has no live owner task (start {task_start})"
                        ),
                    });
                };
                debug_assert!(owner.divert_count > 0);
                owner.divert_count -= 1;
                self.sched_push(idx);
                if cfg!(debug_assertions) {
                    self.assert_sched_entry_sane(idx, "divert-release");
                }
                self.sched_entry_enqueued(idx);
                released += 1;
            } else {
                if open_at != NOT_YET && open_at < next_release {
                    next_release = open_at;
                }
                self.divert[w] = idx;
                w += 1;
            }
        }
        if r < len {
            self.divert.copy_within(r..len, w);
            w += len - r;
        }
        self.divert.truncate(w);
        if released > 0 {
            self.activity = true;
            self.divert_dirty = true;
        } else if complete {
            self.divert_next_release = next_release;
            self.divert_dirty = false;
        } else {
            self.divert_dirty = true;
        }
        Ok(())
    }

    // ---- dispatch ---------------------------------------------------------------

    fn dispatch(&mut self) {
        let mut budget = self.cfg.width;
        let ntasks = self.tasks.len();
        for ti in 0..ntasks {
            if budget == 0 {
                break;
            }
            while let Some(&idx) = self.tasks[ti].fq.front() {
                if self.inst.fetched_at[idx as usize] + self.cfg.decode_latency > self.cycle {
                    break; // still decoding
                }
                // ROB space, reserving `width` entries for the oldest task
                // so retirement can always make progress.
                let rob_limit = if ti == 0 {
                    self.cfg.rob_entries
                } else {
                    self.cfg.rob_entries.saturating_sub(self.cfg.width)
                };
                if self.rob_used >= rob_limit {
                    if ti == 0 {
                        self.rob_blocked_streak += 1;
                        self.rob_blocked_this_cycle = true;
                    }
                    self.tasks[ti].blocked = true;
                    break;
                }
                // Divert if any inter-task producer has not yet produced
                // its value (§3.1). Dependents of diverted instructions
                // chain into the divert queue as well: this keeps the
                // scheduler self-draining (every scheduler entry's
                // producers are in the scheduler, issued, or done, so the
                // oldest unissued entry is always eventually ready).
                //
                // In store-set mode the memory producer of a load only
                // gates dispatch when the predictor says so; otherwise
                // the load proceeds speculatively and may be squashed.
                let task_start = self.tasks[ti].start;
                let cycle = self.cycle;
                let mem_producer = self.dataflow.mem_producer(idx as usize);
                let [ra, rb] = self.dataflow.reg_producers(idx as usize);
                let needs_divert;
                let reg_speculative;
                let mem_speculative;
                if self.consumers.min_producer(idx as usize) >= task_start {
                    // Fast path — every producer is intra-task (the common
                    // case): no inter-task dependence exists, so nothing
                    // can synchronize or speculate and the predictors see
                    // no traffic. Only the unconditional divert-chaining
                    // rule can still gate dispatch.
                    let in_divert = |p: Option<u32>, inst: &InstTable| {
                        p.map(|p| inst.flag(p as usize, F_IN_DIVERT))
                            .unwrap_or(false)
                    };
                    needs_divert = in_divert(ra, &self.inst)
                        || in_divert(rb, &self.inst)
                        || in_divert(mem_producer, &self.inst);
                    reg_speculative = [false, false];
                    mem_speculative = false;
                } else {
                    let e = self.trace.entry(idx as usize);
                    let predict_mem_sync = match self.cfg.memory_dependence {
                        DependenceMode::OracleSync => true,
                        DependenceMode::StoreSet => self.ssit.predicts_dependent(e.pc),
                    };
                    // The divert-chaining term is unconditional (a producer
                    // in the divert queue always gates, or the scheduler
                    // stops self-draining); prediction only modulates
                    // whether an *inter-task* dependence synchronizes.
                    let gates = |p: u32, sync: bool, inst: &InstTable| {
                        inst.flag(p as usize, F_IN_DIVERT)
                            || (sync && p < task_start && inst.done_at[p as usize] > cycle)
                    };
                    // Hint-entry register model: an inter-task register
                    // dependence only synchronizes when the creating spawn
                    // point's hint entry names the register. One hint-table
                    // lookup per instruction (not per register slot),
                    // skipped entirely while the table is empty or the mode
                    // synchronizes everything anyway.
                    let srcs = e.inst.srcs();
                    let always_sync = self.cfg.register_dependence == DependenceMode::OracleSync
                        || self.tasks[ti].safe_mode;
                    let trigger = self.tasks[ti].created_by;
                    let hint = if always_sync || self.hints.is_empty() {
                        None
                    } else {
                        trigger.and_then(|t| self.hints.get(&t))
                    };
                    let reg_sync = |slot: usize| -> bool {
                        if always_sync {
                            return true;
                        }
                        if trigger.is_none() {
                            return true; // the initial task never speculates
                        }
                        let Some(r) = srcs[slot] else { return true };
                        hint.map(|(set, saturated)| *saturated || set.contains(&r))
                            .unwrap_or(false)
                    };
                    let ra_sync = reg_sync(0);
                    let rb_sync = reg_sync(1);
                    // A register slot gates dispatch when its producer is
                    // in the divert queue (the chaining rule —
                    // unconditional, or the scheduler stops self-draining)
                    // or when it is an inter-task dependence the hint entry
                    // says to synchronize.
                    let reg_gate = |p: u32, sync: bool, this: &Self| -> bool {
                        this.inst.flag(p as usize, F_IN_DIVERT)
                            || (sync && p < task_start && this.inst.done_at[p as usize] > cycle)
                    };
                    needs_divert = ra.map(|p| reg_gate(p, ra_sync, self)).unwrap_or(false)
                        || rb.map(|p| reg_gate(p, rb_sync, self)).unwrap_or(false)
                        || mem_producer
                            .map(|p| gates(p, predict_mem_sync, &self.inst))
                            .unwrap_or(false);
                    // Register slots proceeding despite an unresolved
                    // inter-task producer are speculative.
                    let reg_spec = |sync: bool, p: Option<u32>, this: &Self| -> bool {
                        !sync
                            && p.map(|p| {
                                p < task_start
                                    && !this.inst.flag(p as usize, F_IN_DIVERT)
                                    && this.inst.done_at[p as usize] > cycle
                            })
                            .unwrap_or(false)
                    };
                    reg_speculative = [reg_spec(ra_sync, ra, self), reg_spec(rb_sync, rb, self)];
                    // Speculative load: an inter-task memory producer
                    // exists, is not done, and the predictor chose not to
                    // synchronize.
                    mem_speculative = self.cfg.memory_dependence == DependenceMode::StoreSet
                        && !predict_mem_sync
                        && mem_producer
                            .map(|p| {
                                p < task_start
                                    && !self.inst.flag(p as usize, F_IN_DIVERT)
                                    && self.inst.done_at[p as usize] > self.cycle
                            })
                            .unwrap_or(false);
                    // Train down predicted syncs whose producer was long
                    // done.
                    if self.cfg.memory_dependence == DependenceMode::StoreSet && predict_mem_sync {
                        if let Some(p) = mem_producer {
                            if p < task_start && self.inst.done_at[p as usize] <= self.cycle {
                                self.ssit.train_unnecessary(e.pc);
                                // One confidence decay per attempt cycle: a
                                // repeat of this cycle is not a no-op even
                                // when dispatch then blocks, so it must
                                // never be fast-forwarded over.
                                self.activity = true;
                            }
                        }
                    }
                }
                if needs_divert {
                    if self.divert.len() >= self.cfg.divert_entries {
                        self.tasks[ti].blocked = true;
                        break;
                    }
                    self.divert.push(idx);
                    let mut f = F_DISPATCHED | F_IN_DIVERT;
                    if mem_speculative {
                        f |= F_MEM_SPEC;
                    }
                    if reg_speculative[0] {
                        f |= F_REG_SPEC0;
                    }
                    if reg_speculative[1] {
                        f |= F_REG_SPEC1;
                    }
                    self.inst.flags[idx as usize] = f;
                    self.inst.dispatched_at[idx as usize] = self.cycle;
                    self.inst.task_start[idx as usize] = task_start;
                    self.stats.diverted += 1;
                    self.tasks[ti].divert_count += 1;
                    self.divert_dirty = true;
                    self.record(SimEvent::Divert {
                        cycle: self.cycle,
                        task: self.tasks[ti].uid,
                        index: idx,
                    });
                } else {
                    // Reserve scheduler slots: one for divert release, one
                    // for the oldest task.
                    let sched_limit = if ti == 0 {
                        self.cfg.scheduler_entries.saturating_sub(1)
                    } else {
                        self.cfg.scheduler_entries.saturating_sub(2)
                    };
                    if self.sched.len() >= sched_limit {
                        self.tasks[ti].blocked = true;
                        break;
                    }
                    self.sched_push(idx);
                    let mut f = F_DISPATCHED | F_IN_SCHED;
                    if mem_speculative {
                        f |= F_MEM_SPEC;
                    }
                    if reg_speculative[0] {
                        f |= F_REG_SPEC0;
                    }
                    if reg_speculative[1] {
                        f |= F_REG_SPEC1;
                    }
                    self.inst.flags[idx as usize] = f;
                    self.inst.dispatched_at[idx as usize] = self.cycle;
                    self.inst.task_start[idx as usize] = task_start;
                    if cfg!(debug_assertions) {
                        self.assert_sched_entry_sane(idx, "dispatch");
                    }
                    self.sched_entry_enqueued(idx);
                    // A dispatch only moves divert release gates when some
                    // divert entry waits on this instruction as a producer
                    // (its gate term goes from "not yet" to `dispatched_at
                    // + delay`); the consumer index makes that exact.
                    if !self.divert.is_empty() {
                        let cons = self.consumers;
                        for &q in cons.of(idx as usize) {
                            if self.inst.flag(q as usize, F_IN_DIVERT) {
                                self.divert_dirty = true;
                                break;
                            }
                        }
                    }
                }
                self.activity = true;
                self.rob_used += 1;
                self.tasks[ti].fq.pop_front();
                budget -= 1;
                if budget == 0 {
                    break;
                }
            }
        }
    }

    // ---- fetch ---------------------------------------------------------------

    fn fetch(&mut self, source: &mut dyn SpawnSource) {
        let n = self.trace.len() as u32;
        // Determine eligibility, clear resolved branch waits, and run the
        // biased-ICount arbitration (§3.2: fewest in-flight instructions
        // first, older task winning ties) in one pass: `winners` keeps
        // the best `fetch_tasks_per_cycle` candidates via bounded
        // insertion — no per-cycle sort. Tasks that lose arbitration take
        // a structural stall (not a pipeline one).
        let cap = self.cfg.fetch_tasks_per_cycle;
        let mut winners = std::mem::take(&mut self.winners);
        winners.clear();
        for ti in 0..self.tasks.len() {
            let end = self.tasks[ti].end.min(n);
            if self.tasks[ti].fetch_next >= end {
                self.evaluate_profit(ti);
                continue;
            }
            if let Some(b) = self.tasks[ti].waiting_branch {
                let resolved = self.inst.done_at[b as usize] <= self.cycle
                    && self.cycle
                        >= self.inst.fetched_at[b as usize] + self.cfg.misprediction_penalty;
                if resolved {
                    self.tasks[ti].waiting_branch = None;
                    self.activity = true;
                } else {
                    self.stats.fetch_stall_branch_cycles += 1;
                    self.tasks[ti].stall_since_spawn += 1;
                    self.tasks[ti].stall_flag = Some(Bucket::BranchStall);
                    continue;
                }
            }
            if self.cycle < self.tasks[ti].fetch_resume_at {
                // Attribute the wait to its cause (the seed charged all
                // three to `fetch_stall_icache_cycles`, inflating the
                // icache figure on squash- or spawn-heavy runs).
                match self.tasks[ti].resume_reason {
                    ResumeKind::Icache => {
                        self.stats.fetch_stall_icache_cycles += 1;
                        self.tasks[ti].stall_flag = Some(Bucket::IcacheStall);
                    }
                    ResumeKind::Squash => {
                        self.stats.squash_recovery_cycles += 1;
                        self.tasks[ti].stall_flag = Some(Bucket::SquashRecovery);
                    }
                    ResumeKind::Spawn => {
                        self.stats.spawn_setup_cycles += 1;
                        self.tasks[ti].stall_flag = Some(Bucket::SpawnSetup);
                    }
                }
                self.tasks[ti].stall_since_spawn += 1;
                continue;
            }
            if self.tasks[ti].fq.len() >= self.cfg.fetch_queue_entries {
                self.tasks[ti].blocked = true;
                continue;
            }
            if let Some(loser) = icount_insert(&mut winners, cap, ti, self.tasks[ti].inflight) {
                self.tasks[loser].blocked = true;
            }
        }

        let mut budget = self.cfg.width;
        let line_shift = self.cfg.l1i.line_bytes.trailing_zeros();
        let cons = self.consumers;
        let pc_words = self.trace.pcs();
        let mut head = 0;
        while head < winners.len() {
            let ti = winners[head].0;
            head += 1;
            while budget > 0 && self.tasks[ti].fq.len() < self.cfg.fetch_queue_entries {
                let idx = self.tasks[ti].fetch_next;
                if idx >= self.tasks[ti].end.min(n) {
                    break;
                }
                let meta = cons.meta[idx as usize];
                let byte_addr = (pc_words[idx as usize] as u64) * 4;
                // Instruction cache: access per line transition (line
                // sizes are power-of-two, enforced by `CacheConfig`).
                let line = byte_addr >> line_shift;
                if line != self.tasks[ti].last_fetch_line {
                    let lat = self.hier.access_ifetch(byte_addr);
                    // Even a hit reorders the replacement state, so the
                    // access itself counts as activity.
                    self.activity = true;
                    if lat > self.cfg.l1_hit_latency {
                        self.tasks[ti].fetch_resume_at = self.cycle + lat;
                        self.tasks[ti].resume_reason = ResumeKind::Icache;
                        self.tasks[ti].last_fetch_line = line;
                        break;
                    }
                    self.tasks[ti].last_fetch_line = line;
                }
                // Fetch the instruction.
                self.inst.fetched_at[idx as usize] = self.cycle;
                self.inst.task_start[idx as usize] = self.tasks[ti].start;
                self.tasks[ti].fq.push_back(idx);
                self.tasks[ti].inflight += 1;
                self.tasks[ti].fetch_next += 1;
                budget -= 1;
                self.activity = true;

                // Task Spawn Unit: only the tail task spawns (§3.2),
                // unless the §6 any-task extension is enabled.
                if (ti == self.tasks.len() - 1 || self.cfg.spawn_from_any_task)
                    && self.try_spawn(ti, idx, source)
                {
                    // A non-tail insertion at ti+1 shifts every later
                    // task index; fix up the rest of this cycle's
                    // fetch schedule.
                    for w in winners[head..].iter_mut() {
                        if w.0 > ti {
                            w.0 += 1;
                        }
                    }
                }

                // Control flow: at most one taken transfer per task per
                // cycle; mispredictions stall this task until resolution.
                match (meta >> K_FETCH_SHIFT) & 0b11 {
                    KF_COND => {
                        if self.predictions.mispredicted(idx as usize) {
                            self.tasks[ti].waiting_branch = Some(idx);
                            break;
                        }
                        if meta & K_TAKEN != 0 {
                            break;
                        }
                    }
                    KF_STOP_PRED => {
                        if self.predictions.mispredicted(idx as usize) {
                            self.tasks[ti].waiting_branch = Some(idx);
                        }
                        break;
                    }
                    KF_STOP => break,
                    _ => {}
                }
            }
        }
        self.winners = winners;
    }

    /// Debug invariant: a scheduler entry must never wait on a producer
    /// that sits in the divert queue unless the corresponding slot is
    /// speculative (otherwise the scheduler stops self-draining).
    #[allow(dead_code)]
    fn assert_sched_entry_sane(&self, idx: u32, site: &str) {
        let i = idx as usize;
        let [ra, rb] = self.dataflow.reg_producers(i);
        let mem = self.dataflow.mem_producer(i);
        let check = |p: Option<u32>, spec: bool, what: &str| {
            if let Some(p) = p {
                assert!(
                    spec || !self.inst.flag(p as usize, F_IN_DIVERT),
                    "cycle {}: sched entry {idx} ({site}) waits on {what} producer {p}                      which is in the divert queue (consumer spec {:?}/{})",
                    self.cycle,
                    self.inst.reg_speculative(i),
                    self.inst.flag(i, F_MEM_SPEC)
                );
            }
        };
        check(ra, self.inst.flag(i, F_REG_SPEC0), "reg0");
        check(rb, self.inst.flag(i, F_REG_SPEC1), "reg1");
        check(mem, self.inst.flag(i, F_MEM_SPEC), "mem");
    }

    /// Adds `reg` to the hint entry of the spawn point that created the
    /// task containing `idx` (capacity-limited: a full entry records a
    /// capacity miss instead — the spawn point will keep violating until
    /// the profitability feedback throttles it).
    fn train_hint(&mut self, idx: u32, reg: Option<polyflow_isa::Reg>) {
        let Some(reg) = reg else { return };
        let Some(task) = self.tasks.iter().find(|t| t.start <= idx && idx < t.end) else {
            return;
        };
        let Some(trigger) = task.created_by else {
            return;
        };
        let entry = self.hints.entry(trigger).or_default();
        if entry.0.contains(&reg) {
            return;
        }
        if entry.0.len() >= self.cfg.hint_register_slots {
            // The 8-byte entry cannot name another register: saturate it
            // so future tasks from this trigger synchronize conservatively
            // (and pay the full divert serialization for every inter-task
            // register — the hint-capacity cost of dependence-rich spawn
            // points such as loop iterations).
            self.stats.hint_capacity_misses += 1;
            entry.1 = true;
            return;
        }
        entry.0.push(reg);
    }

    /// Drops the youngest task entirely, refunding its ROB/scheduler/
    /// divert occupancy; the new tail's interval reopens so the discarded
    /// region is refetched later. This is the §6 "reclaim resources from
    /// younger threads" extension.
    fn reclaim_youngest(&mut self) -> Result<(), SimError> {
        let last = self.tasks.len() - 1;
        debug_assert!(last > 0);
        let start = self.tasks[last].start;
        let max_fetched = self
            .tasks
            .iter()
            .map(|t| t.fetch_next)
            .max()
            .unwrap_or(start);
        let mut discarded = 0u64;
        for i in start..max_fetched {
            if self.inst.fetched_at[i as usize] != NOT_YET {
                if self.inst.flag(i as usize, F_DISPATCHED) {
                    self.rob_used -= 1;
                }
                self.inst.reset_one(i as usize);
                discarded += 1;
            }
        }
        self.sched.retain(|&i| i < start);
        self.sched_reindex();
        self.divert.retain(|&i| i < start);
        self.activity = true;
        self.sched_dirty = true;
        self.divert_dirty = true;
        let invariant = |cycle, what: &str| SimError::BrokenInvariant {
            cycle,
            detail: what.to_string(),
        };
        let popped = self
            .tasks
            .pop()
            .ok_or_else(|| invariant(self.cycle, "reclamation with no tail task"))?;
        let tail = self
            .tasks
            .last_mut()
            .ok_or_else(|| invariant(self.cycle, "reclamation left no older task"))?;
        tail.end = OPEN_END;
        self.stats.rob_reclaims += 1;
        self.record(SimEvent::Squash {
            cycle: self.cycle,
            task: popped.uid,
            discarded,
            reclaim: true,
        });
        Ok(())
    }

    /// Squashes the task containing trace index `idx` and every younger
    /// task (§3.1: "data-dependence violations lead to squashes of the
    /// violating task, as well as all tasks beyond it"). The violating
    /// task refetches from its start after the recovery penalty.
    fn squash_task_containing(&mut self, idx: u32) -> Result<(), SimError> {
        let Some(ti) = self
            .tasks
            .iter()
            .position(|t| t.start <= idx && idx < t.end)
        else {
            return Err(SimError::BrokenInvariant {
                cycle: self.cycle,
                detail: format!("in-flight instruction {idx} belongs to no task"),
            });
        };
        if ti == 0 {
            return Err(SimError::BrokenInvariant {
                cycle: self.cycle,
                detail: format!(
                    "speculative instruction {idx} belongs to the oldest task, \
                     which must never speculate"
                ),
            });
        }
        let start = self.tasks[ti].start;
        // Discard all in-flight state at or beyond the violating task.
        let max_fetched = self
            .tasks
            .iter()
            .map(|t| t.fetch_next)
            .max()
            .unwrap_or(start);
        let mut discarded = 0u64;
        for i in start..max_fetched {
            if self.inst.fetched_at[i as usize] != NOT_YET {
                if self.inst.flag(i as usize, F_DISPATCHED) {
                    self.rob_used -= 1;
                }
                self.inst.reset_one(i as usize);
                discarded += 1;
            }
        }
        self.sched.retain(|&i| i < start);
        self.sched_reindex();
        self.divert.retain(|&i| i < start);
        self.activity = true;
        self.sched_dirty = true;
        self.divert_dirty = true;
        // Drop younger tasks entirely; reset the violating task.
        self.tasks.truncate(ti + 1);
        let t = &mut self.tasks[ti];
        t.fetch_next = t.start;
        t.end = OPEN_END; // it is the tail again
        t.safe_mode = true; // conservative refetch: no more speculation
        t.fq.clear();
        t.inflight = 0;
        t.waiting_branch = None;
        t.fetch_resume_at = self.cycle + self.cfg.squash_penalty;
        t.resume_reason = ResumeKind::Squash;
        t.last_fetch_line = u64::MAX;
        t.spawn_trigger = None;
        t.stall_since_spawn = 0;
        t.profit_evaluated = false;
        t.divert_count = 0;
        t.stall_flag = None;
        t.blocked = false;
        let uid = t.uid;
        self.stats.squashes += 1;
        self.stats.squashed_instructions += discarded;
        self.record(SimEvent::Squash {
            cycle: self.cycle,
            task: uid,
            discarded,
            reclaim: false,
        });
        Ok(())
    }

    /// Scores a completed spawner: if it stalled while its spawned task
    /// ran, the spawn hid latency (profitable); if it sailed through, the
    /// spawn only fragmented the fetch stream.
    fn evaluate_profit(&mut self, ti: usize) {
        if !self.cfg.profitability_feedback || self.tasks[ti].profit_evaluated {
            return;
        }
        let Some(trigger) = self.tasks[ti].spawn_trigger else {
            return;
        };
        self.tasks[ti].profit_evaluated = true;
        let profitable = self.tasks[ti].stall_since_spawn >= self.cfg.profit_stall_threshold;
        let entry = self.profit.entry(trigger).or_insert((PROFIT_MAX, 0));
        if profitable {
            // One latency-hiding instance outweighs several quiet ones: a
            // spawn point that pays off on mispredicted instances must
            // stay armed even when the branch usually predicts well.
            entry.0 = (entry.0 + 4).min(PROFIT_MAX);
        } else {
            entry.0 = (entry.0 - 1).max(0);
        }
    }

    /// Attempts a spawn from task `ti` at the fetch of trace index `idx`.
    /// Returns true if a new task was inserted (always directly after
    /// `ti`).
    fn try_spawn(&mut self, ti: usize, idx: u32, source: &mut dyn SpawnSource) -> bool {
        let e = self.trace.entry(idx as usize);
        let Some((target, kind)) = source.spawn_at(&e) else {
            return false;
        };
        if self.tasks.len() >= self.cfg.max_tasks {
            self.stats.spawns_rejected_contexts += 1;
            return false;
        }
        // Dynamic profitability feedback (§3.1): throttle spawn points
        // whose spawners never stall afterwards, probing occasionally so
        // phase changes can re-enable them.
        if self.cfg.profitability_feedback {
            let entry = self.profit.entry(e.pc).or_insert((PROFIT_MAX, 0));
            if entry.0 == 0 {
                entry.1 += 1;
                if !entry.1.is_multiple_of(16) {
                    self.stats.spawns_rejected_unprofitable += 1;
                    return false;
                }
            }
        }
        let n = self.trace.len() as u32;
        let Some(tidx) = self.pc_index.next_at_or_after(target, idx + 1) else {
            self.stats.spawns_rejected_distance += 1;
            return false;
        };
        if tidx >= n
            || tidx - idx > self.cfg.max_spawn_distance
            || tidx - idx < self.cfg.min_spawn_distance
        {
            self.stats.spawns_rejected_distance += 1;
            return false;
        }
        // A non-tail spawner (any-task extension) may only split its own
        // interval: the target must fall before the spawner's current end,
        // otherwise the region already belongs to a younger task.
        let old_end = self.tasks[ti].end;
        if tidx >= old_end {
            self.stats.spawns_rejected_distance += 1;
            return false;
        }
        // Split the spawner's interval at `tidx`; the new context becomes
        // fetchable after the spawn overhead elapses.
        self.tasks[ti].end = tidx;
        self.tasks[ti].spawn_trigger = Some(e.pc);
        self.tasks[ti].stall_since_spawn = 0;
        self.tasks[ti].profit_evaluated = false;
        let mut t = Task::new(tidx);
        t.end = old_end;
        t.created_by = Some(e.pc);
        // Tasks from a saturated hint entry synchronize everything.
        t.safe_mode = self
            .hints
            .get(&e.pc)
            .map(|(_, saturated)| *saturated)
            .unwrap_or(false);
        t.fetch_resume_at = self.cycle + self.cfg.spawn_overhead_cycles;
        t.resume_reason = ResumeKind::Spawn;
        t.uid = self.account.add_task(tidx, e.pc, kind, self.cycle);
        // The creation cycle is itself spawn-setup time: the new context
        // exists but cannot fetch until the overhead elapses. Charging it
        // here keeps `spawn_setup_cycles` equal to the SpawnSetup bucket.
        if self.cfg.spawn_overhead_cycles > 0 {
            t.stall_flag = Some(Bucket::SpawnSetup);
            self.stats.spawn_setup_cycles += 1;
        }
        let uid = t.uid;
        self.tasks.insert(ti + 1, t);
        self.stats.spawns.add(kind);
        self.stats.max_live_tasks = self.stats.max_live_tasks.max(self.tasks.len());
        self.stats.spawn_log.push(crate::metrics::SpawnEvent {
            cycle: self.cycle,
            trigger: e.pc,
            target,
            target_index: tidx,
            kind,
            live_tasks: self.tasks.len() as u8,
        });
        self.record(SimEvent::Spawn {
            cycle: self.cycle,
            task: uid,
            trigger: e.pc,
            target,
            target_index: tidx,
            kind,
            live_tasks: self.tasks.len() as u8,
        });
        true
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::spawn_source::{NoSpawn, StaticSpawnSource};
    use polyflow_core::{Policy, ProgramAnalysis};
    use polyflow_isa::{execute_window, AluOp, Cond, Program, ProgramBuilder, Reg};

    fn counted_loop(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.bind_label(top);
        b.alui(AluOp::Add, Reg::R2, Reg::R2, 1);
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.br_imm(Cond::Lt, Reg::R1, iters, top);
        b.halt();
        b.end_function();
        b.build().unwrap()
    }

    fn sim_baseline(p: &Program, window: u64) -> SimResult {
        let trace = execute_window(p, window).unwrap().trace;
        let cfg = MachineConfig::superscalar();
        let prepared = PreparedTrace::new(&trace, &cfg);
        simulate(&prepared, &cfg, &mut NoSpawn)
    }

    #[test]
    fn empty_trace_is_trivial() {
        let trace = Trace::new();
        let cfg = MachineConfig::superscalar();
        let prepared = PreparedTrace::new(&trace, &cfg);
        let r = simulate(&prepared, &cfg, &mut NoSpawn);
        assert_eq!(r.instructions, 0);
    }

    #[test]
    fn superscalar_retires_everything() {
        let p = counted_loop(100);
        let r = sim_baseline(&p, 100_000);
        // li + 100 iterations x (add, add, li r28, br) + halt.
        assert_eq!(r.instructions, 402);
        assert!(r.cycles > 0);
        assert!(r.ipc() > 0.1, "IPC {}", r.ipc());
        assert!(r.ipc() <= 8.0, "IPC cannot exceed width");
        assert_eq!(r.total_spawns(), 0);
    }

    #[test]
    fn ipc_is_plausible_for_serial_dependence_chain() {
        // Every instruction depends on the previous: IPC near (just above) 1
        // is impossible to beat... actually the increments of r2 and r1
        // are two independent chains, so IPC can approach 2-3.
        let p = counted_loop(500);
        let r = sim_baseline(&p, 100_000);
        assert!(r.ipc() > 0.5 && r.ipc() < 8.0, "IPC {}", r.ipc());
    }

    #[test]
    fn polyflow_with_no_spawns_matches_superscalar_cycles_closely() {
        let p = counted_loop(200);
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let ss_cfg = MachineConfig::superscalar();
        let pf_cfg = MachineConfig::hpca07();
        let prep_ss = PreparedTrace::new(&trace, &ss_cfg);
        let prep_pf = PreparedTrace::new(&trace, &pf_cfg);
        let a = simulate(&prep_ss, &ss_cfg, &mut NoSpawn);
        let b = simulate(&prep_pf, &pf_cfg, &mut NoSpawn);
        // One task, no spawns: the machines are identical.
        assert_eq!(a.cycles, b.cycles);
    }

    /// A loop whose body contains a hard-to-predict hammock: postdominator
    /// spawning should beat the superscalar.
    fn hard_hammock_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let top = b.fresh_label("top");
        let els = b.fresh_label("els");
        let join = b.fresh_label("join");
        // r10 = pseudo-random via LCG; branch on low bit.
        b.li(Reg::R10, 12345);
        b.li(Reg::R1, 0);
        b.bind_label(top);
        b.li(Reg::R11, 1103515245);
        b.alu(AluOp::Mul, Reg::R10, Reg::R10, Reg::R11);
        b.alui(AluOp::Add, Reg::R10, Reg::R10, 12345);
        b.alui(AluOp::Srl, Reg::R12, Reg::R10, 16);
        b.alui(AluOp::And, Reg::R12, Reg::R12, 1);
        b.br_imm(Cond::Eq, Reg::R12, 0, els);
        // then: long-ish computation
        for _ in 0..6 {
            b.alui(AluOp::Add, Reg::R3, Reg::R3, 1);
        }
        b.jmp(join);
        b.bind_label(els);
        for _ in 0..6 {
            b.alui(AluOp::Add, Reg::R4, Reg::R4, 1);
        }
        b.bind_label(join);
        // independent work after the join
        for _ in 0..4 {
            b.alui(AluOp::Add, Reg::R5, Reg::R5, 1);
        }
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.br_imm(Cond::Lt, Reg::R1, 400, top);
        b.halt();
        b.end_function();
        b.build().unwrap()
    }

    #[test]
    fn hammock_spawning_beats_superscalar_on_hard_branches() {
        let p = hard_hammock_program();
        let trace = execute_window(&p, 200_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);

        let ss_cfg = MachineConfig::superscalar();
        let prep = PreparedTrace::new(&trace, &ss_cfg);
        let base = simulate(&prep, &ss_cfg, &mut NoSpawn);

        let pf_cfg = MachineConfig::hpca07();
        let prep_pf = PreparedTrace::new(&trace, &pf_cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
        let pf = simulate(&prep_pf, &pf_cfg, &mut src);

        assert!(pf.total_spawns() > 0, "no spawns happened");
        let speedup = pf.speedup_percent_over(&base);
        assert!(
            speedup > 5.0,
            "expected speedup from hammock spawning, got {speedup:.1}% \
             (base {} cycles, pf {} cycles, {} spawns)",
            base.cycles,
            pf.cycles,
            pf.total_spawns()
        );
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        fn run_with(
            prep: &PreparedTrace,
            cfg: &MachineConfig,
            src: &mut dyn SpawnSource,
            scratch: &mut SimScratch,
        ) -> SimResult {
            let opts = SimOptions::default();
            try_simulate_opts(prep, cfg, src, scratch, &mut NullSink, opts)
                .unwrap()
                .0
        }
        // Replaying different traces/policies through one SimScratch must
        // give exactly the results of fresh-allocation runs.
        let p1 = hard_hammock_program();
        let p2 = counted_loop(300);
        let t1 = execute_window(&p1, 150_000).unwrap().trace;
        let t2 = execute_window(&p2, 150_000).unwrap().trace;
        let ss = MachineConfig::superscalar();
        let pf = MachineConfig::hpca07();
        let analysis = ProgramAnalysis::analyze(&p1);

        let mut scratch = SimScratch::default();
        for _ in 0..2 {
            for (trace, cfg) in [(&t1, &ss), (&t2, &ss), (&t1, &pf)] {
                let prep = PreparedTrace::new(trace, cfg);
                let fresh = simulate(&prep, cfg, &mut NoSpawn);
                let reused = run_with(&prep, cfg, &mut NoSpawn, &mut scratch);
                assert_eq!(fresh, reused);
            }
            let prep = PreparedTrace::new(&t1, &pf);
            let table = analysis.spawn_table(Policy::Postdoms);
            let fresh = simulate(&prep, &pf, &mut StaticSpawnSource::new(table.clone()));
            let reused = run_with(&prep, &pf, &mut StaticSpawnSource::new(table), &mut scratch);
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn shared_oracles_match_fresh_preparation() {
        // A PreparedTrace assembled from shared oracles must be
        // indistinguishable from one computed from scratch.
        let p = hard_hammock_program();
        let trace = execute_window(&p, 150_000).unwrap().trace;
        let ss = MachineConfig::superscalar();
        let pf = MachineConfig::hpca07();
        assert_eq!(ss.predictor_key(), pf.predictor_key());

        let fresh = PreparedTrace::new(&trace, &pf);
        let shared = PreparedTrace::with_oracles(
            fresh.trace_arc(),
            fresh.dataflow_arc(),
            fresh.pc_index_arc(),
            &ss,
        );
        let analysis = ProgramAnalysis::analyze(&p);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
        let a = simulate(&fresh, &pf, &mut src);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
        let b = simulate(&shared, &pf, &mut src);
        assert_eq!(a, b);
    }

    #[test]
    fn task_contexts_are_bounded() {
        let p = hard_hammock_program();
        let trace = execute_window(&p, 200_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);
        let cfg = MachineConfig::hpca07();
        let prep = PreparedTrace::new(&trace, &cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
        let r = simulate(&prep, &cfg, &mut src);
        assert!(r.max_live_tasks <= cfg.max_tasks);
        assert!(r.max_live_tasks >= 2, "spawning should create tasks");
    }

    #[test]
    fn spawn_distance_cap_rejects_far_targets() {
        let p = hard_hammock_program();
        let trace = execute_window(&p, 200_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);
        let cfg = MachineConfig {
            max_spawn_distance: 0,
            ..MachineConfig::hpca07()
        };
        let prep = PreparedTrace::new(&trace, &cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
        let r = simulate(&prep, &cfg, &mut src);
        assert_eq!(r.total_spawns(), 0);
        assert!(r.spawns_rejected_distance > 0);
    }

    #[test]
    fn divert_queue_sees_inter_task_dependences() {
        // Loop spawning creates induction-variable dependences between
        // tasks: diverted instructions must appear.
        // A loop whose iterations are chained through a slow multiply:
        // the next task's consumer dispatches while the producer is still
        // executing, so it must divert.
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 3);
        b.bind_label(top);
        for _ in 0..4 {
            b.alu(AluOp::Mul, Reg::R2, Reg::R2, Reg::R2);
        }
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.br_imm(Cond::Lt, Reg::R1, 300, top);
        b.halt();
        b.end_function();
        let p = b.build().unwrap();
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);
        // Disable the profitability throttle: this test wants the spawns
        // (and their diverted consumers) to keep happening even though a
        // predictable loop makes them unprofitable.
        let cfg = MachineConfig {
            profitability_feedback: false,
            ..MachineConfig::hpca07()
        };
        let prep = PreparedTrace::new(&trace, &cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Loop));
        let r = simulate(&prep, &cfg, &mut src);
        assert!(r.total_spawns() > 0);
        assert!(r.diverted > 0, "loop spawns must divert the multiply chain");
    }

    /// A loop whose iterations communicate through memory with the store
    /// late and the load early: spawned next-iteration tasks speculate on
    /// the dependence and must be squashed in store-set mode.
    fn memory_chained_loop() -> Program {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let shared = b.alloc_data(&[3]);
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.li(Reg::R20, shared as i64);
        b.bind_label(top);
        b.load(Reg::R2, Reg::R20, 0); // early load of last iteration's value
        for _ in 0..4 {
            b.alu(AluOp::Mul, Reg::R2, Reg::R2, Reg::R2); // slow
        }
        b.alui(AluOp::Add, Reg::R2, Reg::R2, 1);
        b.store(Reg::R2, Reg::R20, 0); // late store
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.br_imm(Cond::Lt, Reg::R1, 300, top);
        b.halt();
        b.end_function();
        b.build().unwrap()
    }

    #[test]
    fn store_set_mode_squashes_speculative_loads() {
        let p = memory_chained_loop();
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);
        let cfg = MachineConfig {
            memory_dependence: crate::store_set::DependenceMode::StoreSet,
            profitability_feedback: false,
            ..MachineConfig::hpca07()
        };
        let prep = PreparedTrace::new(&trace, &cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Loop));
        let r = simulate(&prep, &cfg, &mut src);
        assert!(r.total_spawns() > 0, "loop spawns must fire");
        assert!(
            r.squashes > 0,
            "speculative loads must violate at least once"
        );
        assert!(r.squashed_instructions > 0);
        assert_eq!(r.instructions as usize, trace.len(), "everything retires");
        // The predictor learns: squashes stay far below the spawn count.
        assert!(
            r.squashes < r.total_spawns(),
            "{} squashes vs {} spawns — predictor never learned",
            r.squashes,
            r.total_spawns()
        );
    }

    #[test]
    fn oracle_mode_never_squashes() {
        let p = memory_chained_loop();
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);
        let cfg = MachineConfig {
            profitability_feedback: false,
            ..MachineConfig::hpca07()
        };
        let prep = PreparedTrace::new(&trace, &cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Loop));
        let r = simulate(&prep, &cfg, &mut src);
        assert!(r.total_spawns() > 0);
        assert_eq!(r.squashes, 0);
        assert_eq!(r.squashed_instructions, 0);
    }

    #[test]
    fn store_set_results_match_oracle_work() {
        // Same retired work either way; squashing only costs cycles.
        let p = memory_chained_loop();
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);
        let mk = |mode| MachineConfig {
            memory_dependence: mode,
            profitability_feedback: false,
            ..MachineConfig::hpca07()
        };
        let oracle_cfg = mk(crate::store_set::DependenceMode::OracleSync);
        let ss_cfg = mk(crate::store_set::DependenceMode::StoreSet);
        let prep = PreparedTrace::new(&trace, &oracle_cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Loop));
        let oracle = simulate(&prep, &oracle_cfg, &mut src);
        let prep = PreparedTrace::new(&trace, &ss_cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Loop));
        let ss = simulate(&prep, &ss_cfg, &mut src);
        assert_eq!(oracle.instructions, ss.instructions);
    }

    #[test]
    fn hint_entry_model_squashes_then_learns() {
        // A loop carrying one register chain: the first spawned instance
        // violates (empty hint entry), trains the entry, and later
        // instances divert cleanly.
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 3);
        b.bind_label(top);
        for _ in 0..4 {
            b.alu(AluOp::Mul, Reg::R2, Reg::R2, Reg::R2);
        }
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.br_imm(Cond::Lt, Reg::R1, 300, top);
        b.halt();
        b.end_function();
        let p = b.build().unwrap();
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);
        let cfg = MachineConfig {
            register_dependence: crate::store_set::DependenceMode::StoreSet,
            profitability_feedback: false,
            ..MachineConfig::hpca07()
        };
        let prep = PreparedTrace::new(&trace, &cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Loop));
        let r = simulate(&prep, &cfg, &mut src);
        assert!(r.total_spawns() > 0);
        assert!(r.register_violations > 0, "cold hint entries must violate");
        assert!(
            r.register_violations < r.total_spawns(),
            "the hint entry must learn ({} violations / {} spawns)",
            r.register_violations,
            r.total_spawns()
        );
        assert_eq!(r.instructions as usize, trace.len());
    }

    #[test]
    fn hint_entry_capacity_limits_wide_dependence_sets() {
        // Six live loop-carried chains exceed the 4-slot hint entry: the
        // spawn point keeps violating and records capacity misses.
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.bind_label(top);
        for r in [Reg::R2, Reg::R3, Reg::R4, Reg::R5, Reg::R6, Reg::R7] {
            b.alu(AluOp::Mul, r, r, r);
            b.alui(AluOp::Add, r, r, 1);
        }
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.br_imm(Cond::Lt, Reg::R1, 300, top);
        b.halt();
        b.end_function();
        let p = b.build().unwrap();
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);
        let cfg = MachineConfig {
            register_dependence: crate::store_set::DependenceMode::StoreSet,
            profitability_feedback: false,
            ..MachineConfig::hpca07()
        };
        let prep = PreparedTrace::new(&trace, &cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Loop));
        let r = simulate(&prep, &cfg, &mut src);
        assert!(r.hint_capacity_misses > 0, "entry capacity must bind");
        assert_eq!(r.instructions as usize, trace.len());
    }

    #[test]
    fn any_task_spawning_splits_inner_intervals() {
        // The §6 extension: with nested hammocks, the inner join can be
        // spawned even though the spawner is no longer the tail.
        let p = hard_hammock_program();
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);
        let mk = |any| MachineConfig {
            spawn_from_any_task: any,
            ..MachineConfig::hpca07()
        };
        let run = |cfg: &MachineConfig| {
            let prep = PreparedTrace::new(&trace, cfg);
            let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
            simulate(&prep, cfg, &mut src)
        };
        let tail_only = run(&mk(false));
        let any_task = run(&mk(true));
        assert_eq!(tail_only.instructions, any_task.instructions);
        // Any-task spawning can only add opportunities.
        assert!(any_task.total_spawns() >= tail_only.total_spawns());
        // Non-tail spawns appear as out-of-order target indices in the log.
        let monotone = any_task
            .spawn_log
            .windows(2)
            .all(|w| w[0].target_index < w[1].target_index);
        if any_task.total_spawns() > tail_only.total_spawns() {
            assert!(!monotone, "extra spawns should include interval splits");
        }
    }

    #[test]
    fn rob_reclamation_frees_entries_under_pressure() {
        // A tiny ROB plus a long-latency oldest task forces reclamation.
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let region = b.alloc_zeroed(64 * 1024); // L2-missing region
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.li(Reg::R20, region as i64);
        b.bind_label(top);
        // A slow load the oldest task stalls retirement on.
        b.alui(AluOp::Sll, Reg::R2, Reg::R1, 9);
        b.alu(AluOp::Add, Reg::R3, Reg::R20, Reg::R2);
        b.load(Reg::R4, Reg::R3, 0);
        b.alu(AluOp::Add, Reg::R5, Reg::R5, Reg::R4);
        for _ in 0..20 {
            b.alui(AluOp::Add, Reg::R6, Reg::R6, 1);
        }
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.br_imm(Cond::Lt, Reg::R1, 400, top);
        b.halt();
        b.end_function();
        let p = b.build().unwrap();
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);
        let cfg = MachineConfig {
            rob_entries: 48,
            rob_reclamation: true,
            rob_reclaim_after: 4,
            profitability_feedback: false,
            ..MachineConfig::hpca07()
        };
        let prep = PreparedTrace::new(&trace, &cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Loop));
        let r = simulate(&prep, &cfg, &mut src);
        assert_eq!(r.instructions as usize, trace.len());
        assert!(r.rob_reclaims > 0, "pressure should trigger reclamation");
        // Default configuration never reclaims.
        let dflt = MachineConfig::hpca07();
        let prep = PreparedTrace::new(&trace, &dflt);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Loop));
        let r2 = simulate(&prep, &dflt, &mut src);
        assert_eq!(r2.rob_reclaims, 0);
    }

    #[test]
    fn max_cycles_budget_returns_typed_error() {
        let p = counted_loop(200);
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let cfg = MachineConfig {
            max_cycles: 10,
            ..MachineConfig::superscalar()
        };
        let prep = PreparedTrace::new(&trace, &cfg);
        let e = try_simulate(&prep, &cfg, &mut NoSpawn).unwrap_err();
        match e {
            SimError::CyclesExceeded {
                max_cycles,
                retired,
                instructions,
            } => {
                assert_eq!(max_cycles, 10);
                assert_eq!(instructions as usize, trace.len());
                assert!(retired < instructions);
            }
            other => panic!("expected CyclesExceeded, got {other}"),
        }
        // The default budget is unreachable.
        let cfg = MachineConfig::superscalar();
        let prep = PreparedTrace::new(&trace, &cfg);
        assert!(try_simulate(&prep, &cfg, &mut NoSpawn).is_ok());
    }

    #[test]
    fn livelock_watchdog_carries_postmortem_state() {
        // A one-cycle window trips during the front-end fill (decode
        // latency guarantees some retirement-free cycles), exercising the
        // post-mortem payload without needing a genuine simulator bug.
        let p = counted_loop(50);
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let cfg = MachineConfig {
            livelock_window: 2,
            ..MachineConfig::superscalar()
        };
        let prep = PreparedTrace::new(&trace, &cfg);
        let e = try_simulate(&prep, &cfg, &mut NoSpawn).unwrap_err();
        match e {
            SimError::Livelock {
                cycle,
                window,
                account,
                detail,
                ..
            } => {
                assert_eq!(window, 2);
                assert!(cycle >= 2);
                // The ledger travels with the error and balances.
                assert!(account.check().is_ok());
                assert!(detail.contains("stuck inst"));
            }
            other => panic!("expected Livelock, got {other}"),
        }
    }

    #[test]
    fn malformed_trace_is_rejected_up_front() {
        let p = counted_loop(20);
        let mut trace = execute_window(&p, 100_000).unwrap().trace;
        // Corrupt the continuity of the retirement stream.
        let mid = trace.len() / 2;
        let mut e = trace.entry(mid);
        e.next_pc = polyflow_isa::Pc::new(999);
        trace.set_entry(mid, e);
        let cfg = MachineConfig::superscalar();
        let prep = PreparedTrace::new(&trace, &cfg);
        let e = try_simulate(&prep, &cfg, &mut NoSpawn).unwrap_err();
        assert!(matches!(e, SimError::MalformedTrace(_)), "got {e}");
    }

    #[test]
    #[should_panic(expected = "cycle budget exceeded")]
    fn infallible_wrapper_panics_with_the_rendered_error() {
        let p = counted_loop(200);
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let cfg = MachineConfig {
            max_cycles: 10,
            ..MachineConfig::superscalar()
        };
        let prep = PreparedTrace::new(&trace, &cfg);
        simulate(&prep, &cfg, &mut NoSpawn);
    }

    #[test]
    fn try_simulate_matches_simulate_exactly() {
        let p = hard_hammock_program();
        let trace = execute_window(&p, 150_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);
        let cfg = MachineConfig::hpca07();
        let prep = PreparedTrace::new(&trace, &cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
        let a = simulate(&prep, &cfg, &mut src);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
        let b = try_simulate(&prep, &cfg, &mut src).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn retirement_is_complete_and_in_order() {
        // The machine retires exactly trace.len() instructions; IPC bounded.
        let p = hard_hammock_program();
        let trace = execute_window(&p, 50_000).unwrap().trace;
        let analysis = ProgramAnalysis::analyze(&p);
        let cfg = MachineConfig::hpca07();
        let prep = PreparedTrace::new(&trace, &cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
        let r = simulate(&prep, &cfg, &mut src);
        assert_eq!(r.instructions as usize, trace.len());
        assert!(r.ipc() <= cfg.width as f64);
    }

    /// Exhaustive check of the fixed-capacity ICount arbitration: feeding
    /// candidates in task order through `icount_insert` must select
    /// exactly the prefix of a stable sort by key (ties keep task order,
    /// i.e. older tasks win), and every candidate ends up either a winner
    /// or a reported loser, never both.
    #[test]
    fn icount_selection_matches_stable_sort() {
        for cap in 1..=4usize {
            // Odometer over all key assignments in 0..3 for four tasks.
            for combo in 0..81usize {
                let keys = [
                    combo % 3,
                    (combo / 3) % 3,
                    (combo / 9) % 3,
                    (combo / 27) % 3,
                ];
                let mut winners = Vec::new();
                let mut losers = Vec::new();
                for (ti, &key) in keys.iter().enumerate() {
                    if let Some(l) = icount_insert(&mut winners, cap, ti, key) {
                        losers.push(l);
                    }
                }
                let mut expect: Vec<(usize, usize)> =
                    keys.iter().enumerate().map(|(t, &k)| (t, k)).collect();
                expect.sort_by_key(|&(_, k)| k); // stable: ties keep task order
                expect.truncate(cap);
                assert_eq!(winners, expect, "cap {cap}, keys {keys:?}");
                let mut all: Vec<usize> = winners.iter().map(|&(t, _)| t).collect();
                all.extend(&losers);
                all.sort_unstable();
                assert_eq!(all, vec![0, 1, 2, 3], "winner/loser partition");
            }
        }
    }

    /// Pins the §3.2 tie-break direction: equal in-flight counts go to
    /// the *older* task (insertion order is task order and equal keys
    /// insert after existing entries).
    #[test]
    fn icount_tie_break_prefers_older_tasks() {
        let mut winners = Vec::new();
        let mut losers = Vec::new();
        for (ti, key) in [(0usize, 2usize), (1, 1), (2, 1), (3, 0)] {
            if let Some(l) = icount_insert(&mut winners, 2, ti, key) {
                losers.push(l);
            }
        }
        // Stable sort by key: (3,0), (1,1), (2,1), (0,2) — the older of
        // the tied pair (task 1) keeps its slot.
        assert_eq!(winners, vec![(3, 0), (1, 1)]);
        assert_eq!(losers, vec![0, 2]);
    }

    /// Cycle skipping is an accounting fast path only: results, cycle
    /// counts, and the bucket ledger are bit-identical with it on and
    /// off, across policy-free, squash-heavy, and spawn-heavy workloads.
    #[test]
    fn cycle_skip_fast_forward_is_bit_identical() {
        let run_opts = |trace: &Trace,
                        cfg: &MachineConfig,
                        table: Option<polyflow_core::SpawnTable>,
                        skip: bool| {
            let prep = PreparedTrace::new(trace, cfg);
            let mut scratch = SimScratch::default();
            let opts = SimOptions { cycle_skip: skip };
            match table {
                Some(t) => {
                    let mut src = StaticSpawnSource::new(t);
                    try_simulate_opts(&prep, cfg, &mut src, &mut scratch, &mut NullSink, opts)
                        .unwrap()
                }
                None => {
                    try_simulate_opts(&prep, cfg, &mut NoSpawn, &mut scratch, &mut NullSink, opts)
                        .unwrap()
                }
            }
        };
        let combos: Vec<(Trace, MachineConfig, Option<polyflow_core::SpawnTable>)> = vec![
            (
                execute_window(&counted_loop(200), 100_000).unwrap().trace,
                MachineConfig::superscalar(),
                None,
            ),
            (
                execute_window(&memory_chained_loop(), 100_000)
                    .unwrap()
                    .trace,
                MachineConfig {
                    memory_dependence: crate::store_set::DependenceMode::StoreSet,
                    profitability_feedback: false,
                    ..MachineConfig::hpca07()
                },
                Some(ProgramAnalysis::analyze(&memory_chained_loop()).spawn_table(Policy::Loop)),
            ),
            (
                execute_window(&hard_hammock_program(), 200_000)
                    .unwrap()
                    .trace,
                MachineConfig::hpca07(),
                Some(
                    ProgramAnalysis::analyze(&hard_hammock_program()).spawn_table(Policy::Postdoms),
                ),
            ),
        ];
        let mut any_skipped = false;
        for (trace, cfg, table) in combos {
            let (on, t_on) = run_opts(&trace, &cfg, table.clone(), true);
            let (off, t_off) = run_opts(&trace, &cfg, table, false);
            assert_eq!(on, off, "cycle skipping changed the result");
            assert_eq!(t_off.skipped_cycles, 0);
            assert_eq!(t_off.fast_forwards, 0);
            assert_eq!(
                t_on.executed_cycles + t_on.skipped_cycles,
                t_off.executed_cycles,
                "every skipped cycle is a cycle the stepped run executed"
            );
            assert_eq!(t_on.executed_cycles + t_on.skipped_cycles, on.cycles);
            any_skipped |= t_on.skipped_cycles > 0;
        }
        assert!(
            any_skipped,
            "no combo ever fast-forwarded — test is vacuous"
        );
    }

    /// The watchdogs observe fast-forwarded time: a livelock trips at the
    /// same cycle, with the same post-mortem, whether or not the run
    /// skipped its way there.
    #[test]
    fn cycle_skip_preserves_watchdog_cycles() {
        let p = counted_loop(50);
        let trace = execute_window(&p, 100_000).unwrap().trace;
        let cfg = MachineConfig {
            livelock_window: 2,
            ..MachineConfig::superscalar()
        };
        let prep = PreparedTrace::new(&trace, &cfg);
        let run = |skip: bool| {
            let mut scratch = SimScratch::default();
            try_simulate_opts(
                &prep,
                &cfg,
                &mut NoSpawn,
                &mut scratch,
                &mut NullSink,
                SimOptions { cycle_skip: skip },
            )
            .unwrap_err()
        };
        let (on, off) = (run(true), run(false));
        assert_eq!(on.to_string(), off.to_string());
        match (on, off) {
            (
                SimError::Livelock {
                    cycle: c1,
                    detail: d1,
                    ..
                },
                SimError::Livelock {
                    cycle: c2,
                    detail: d2,
                    ..
                },
            ) => {
                assert_eq!(c1, c2);
                assert_eq!(d1, d2);
            }
            (a, b) => panic!("expected two Livelocks, got {a} / {b}"),
        }
    }
}
