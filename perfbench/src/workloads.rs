//! The three workloads. Each drives `SmDb`'s public API from one client
//! thread in a closed loop (the next transaction is submitted only after
//! the previous one returns); `epoch_lanes` hands whole batches to
//! `SmDb::run_epochs` instead.

use crate::gen::{Mix, MixSpec, Op};
use crate::report::mean;
use crate::trace::{Name, Tracer};
use smdb::core::{DbConfig, DbError, MtOp, MtOutcome, MtTxn, ProtocolKind, SmDb};
use smdb::sim::NodeId;
use std::time::Instant;

pub const NODES: u16 = 8;
/// Conflict retries before a transaction gives up (counted as failed).
const RETRIES: u32 = 8;
/// Transactions between sharp checkpoints of `oltp_shared`.
const OLTP_CHECKPOINT_EVERY: u64 = 1000;
/// Transactions between checkpoints in the forward segments of crash
/// cycles (`crash_restart` and the restart probe).
const CYCLE_CHECKPOINT_EVERY: u64 = 100;
/// Mixed into the seed of the restart probe's engine, so its stream
/// differs from the timed window's.
const PROBE_SALT: u64 = 0x5052_4f42_4553;
/// Transactions handed to one `run_epochs` call.
const BATCH: usize = 400;
/// Crash cycles between two checks of every record's value (IFA and the
/// index are checked after every cycle).
const FULL_CHECK_EVERY: u64 = 10;
/// Keep at most this many error messages; the count is kept in full.
const MAX_ERRORS: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    OltpShared,
    CrashRestart,
    EpochLanes,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "oltp_shared" => Some(Workload::OltpShared),
            "crash_restart" => Some(Workload::CrashRestart),
            "epoch_lanes" => Some(Workload::EpochLanes),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpShared => "oltp_shared",
            Workload::CrashRestart => "crash_restart",
            Workload::EpochLanes => "epoch_lanes",
        }
    }

    pub fn config(self) -> DbConfig {
        match self {
            Workload::OltpShared => DbConfig::bench(NODES, ProtocolKind::StableTriggered),
            Workload::CrashRestart => {
                let mut cfg = DbConfig::bench(NODES, ProtocolKind::VolatileSelectiveRedo);
                cfg.records = 65_536;
                cfg.rec_data_size = 96;
                cfg
            }
            Workload::EpochLanes => {
                DbConfig::bench(NODES, ProtocolKind::VolatileSelectiveRedo).with_sim_shards(64)
            }
        }
    }

    pub fn spec(self) -> MixSpec {
        match self {
            Workload::OltpShared => MixSpec {
                ops: 6,
                read_fraction: 0.3,
                sharing: 0.3,
                shared_slots: 64,
                index_fraction: 0.2,
                key_space: 4096,
            },
            Workload::CrashRestart => MixSpec {
                ops: 8,
                read_fraction: 0.2,
                sharing: 0.3,
                shared_slots: 256,
                index_fraction: 0.0,
                key_space: 0,
            },
            Workload::EpochLanes => MixSpec {
                ops: 4,
                read_fraction: 0.25,
                sharing: 0.0,
                shared_slots: 0,
                index_fraction: 0.0,
                key_space: 0,
            },
        }
    }
}

/// Run lengths that do not depend on the host. A unit is a transaction
/// (`oltp_shared`), a crash cycle (`crash_restart`) or a batch
/// (`epoch_lanes`).
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Units of the window between two timed set-ups.
    pub setup_every: u64,
    /// Units every run completes whatever `--seconds` says. The end-to-end
    /// metrics are taken over exactly this prefix of the window, so every
    /// run measures the same work: the throughput of a faster build does
    /// not reach further into the drift.
    pub fixed: u64,
    /// Units per drift segment; the fixed prefix is ten of them.
    pub segment: u64,
    /// Units of the window between two restart-probe cycles.
    pub probe_every: u64,
    /// Fewest crash cycles of the restart probe of `oltp_shared` and
    /// `epoch_lanes`; the recovery metrics are taken over exactly these.
    pub probes: u64,
    /// Batches replayed at 1 and at N threads for the digest check.
    pub replay: u64,
    /// Transactions per forward segment of a crash cycle.
    pub cycle_txns: u64,
}

impl Sizes {
    pub fn new(w: Workload, quick: bool) -> Self {
        let (fixed, segment, probe_every) = match (w, quick) {
            (Workload::OltpShared, false) => (240_000, 24_000, 1200),
            (Workload::OltpShared, true) => (600, 300, 150),
            (Workload::CrashRestart, false) => (270, 27, 0),
            (Workload::CrashRestart, true) => (4, 2, 0),
            (Workload::EpochLanes, false) => (480, 48, 2),
            (Workload::EpochLanes, true) => (2, 1, 1),
        };
        Sizes {
            setup_every: (fixed / 24).max(1),
            fixed,
            segment,
            probe_every,
            probes: if quick { 4 } else { 200 },
            replay: if quick { 2 } else { 10 },
            cycle_txns: if quick { 100 } else { 200 },
        }
    }
}

/// What the timed window should cover: at least `seconds` of host time
/// and at least `min_units` units.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seconds: f64,
    pub min_units: u64,
    /// Run the work after the window: checks, restart probe, replay.
    pub post: bool,
}

/// Transaction and check tallies of a run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub committed: u64,
    pub failed: u64,
    /// Begin calls, retries included.
    pub attempts: u64,
    pub errors: u64,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn error(&mut self, msg: String) {
        self.errors += 1;
        if self.messages.len() < MAX_ERRORS {
            self.messages.push(msg);
        }
    }
}

/// Declares [`Counts`], a set of public counters the per-layer metrics are
/// deltas of, with field-wise accumulation of deltas.
macro_rules! counts {
    ($($field:ident),* $(,)?) => {
        #[derive(Clone, Copy, Debug, Default)]
        pub struct Counts {
            $(pub $field: u64,)*
        }

        impl Counts {
            /// Add the change from `start` to `end` to `self`.
            pub fn add_span(&mut self, start: &Counts, end: &Counts) {
                $(self.$field += end.$field.saturating_sub(start.$field);)*
            }
        }
    };
}

counts!(
    clock,
    sim_accesses,
    sim_local_hits,
    sim_remote_transfers,
    sim_migrations,
    sim_invalidations,
    sim_line_lock_conflicts,
    lock_acquires,
    lock_waits,
    lock_fast_hits,
    lock_overflow_allocs,
    tree_inserts,
    tree_splits,
    wal_appends,
    wal_forces,
    wal_requested,
    wal_coalesced,
    wal_records_forced,
    page_flushes,
    checkpoints,
);

impl Counts {
    pub fn read(db: &SmDb) -> Self {
        let sim = db.machine().stats();
        let lock = db.lock_stats();
        let tree = db.tree_stats();
        let eng = db.stats();
        let logs = db.logs();
        Counts {
            clock: db.max_clock(),
            sim_accesses: sim.reads + sim.writes,
            sim_local_hits: sim.local_hits,
            sim_remote_transfers: sim.remote_transfers,
            sim_migrations: sim.migrations,
            sim_invalidations: sim.invalidations,
            sim_line_lock_conflicts: sim.line_lock_conflicts,
            lock_acquires: lock.acquires,
            lock_waits: lock.waits,
            lock_fast_hits: lock.fast_hits,
            lock_overflow_allocs: lock.overflow_allocs,
            tree_inserts: tree.inserts,
            tree_splits: tree.splits,
            wal_appends: logs.total_appends(),
            wal_forces: logs.total_forces(),
            wal_requested: logs.total_forces_requested(),
            wal_coalesced: logs.total_forces_coalesced(),
            wal_records_forced: logs.total_records_forced(),
            page_flushes: eng.page_flushes,
            checkpoints: eng.checkpoints,
        }
    }
}

/// One crash cycle: single-node crash, recovery, first transaction on a
/// survivor, drain, clean-up, reboot.
#[derive(Clone, Debug, Default)]
pub struct CycleStat {
    /// `crash()` until `recover()` has returned and no redo is pending.
    pub recovery_ns: u64,
    /// `crash()` until the first transaction on a survivor committed.
    pub ttft_ns: u64,
    pub crash_ns: u64,
    pub recover_ns: u64,
    pub first_txn_ns: u64,
    pub drain_ns: u64,
    pub sim_recovery_cycles: u64,
    pub sim_ttft_cycles: u64,
    /// `(wall ns, sim cycles)` per entry of [`PHASES`].
    pub phases: [(u64, u64); 7],
    pub scan_records: u64,
    pub lost_lines: u64,
    pub redo_applied: u64,
    /// Redo candidates skipped (line cached, stable image current) or
    /// superseded by a later candidate.
    pub redo_wasted: u64,
}

/// The seven phases of `RecoveryOutcome::phases`.
pub const PHASES: [&str; 7] =
    ["stable_undo", "reinstall", "cache_discard", "redo", "undo", "lock_recovery", "txn_table"];

/// Host times of the correctness checks.
#[derive(Debug, Default)]
pub struct OracleTimes {
    pub check_ifa_ns: Vec<u64>,
    pub digest_ns: Vec<u64>,
    pub index_check_ns: Vec<u64>,
}

/// What the fixed prefix of the window measured.
#[derive(Debug, Default)]
pub struct Prefix {
    pub ns: u64,
    pub committed: u64,
    /// Entries of `Outcome::lat_ns` that belong to the prefix.
    pub lat_len: usize,
    pub peak_rss_mb: f64,
    /// Simulated makespan per committed transaction.
    pub sim_cycles_per_txn: f64,
    /// Crash cycles counted: the prefix of `crash_restart`, or the first
    /// `sizes.probes` probe cycles.
    pub cycles: usize,
    /// Mean `RecoveryOutcome::recovery_cycles` and simulated time to the
    /// first transaction over those cycles.
    pub sim_recovery_cycles: f64,
    pub sim_ttft_cycles: f64,
}

/// Process high-water resident set, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// Units completed in the timed window.
    pub units: u64,
    /// Window host time at the end of each unit.
    pub unit_ns: Vec<u64>,
    /// Transactions committed in the timed window.
    pub committed: u64,
    /// Host latency of every committed transaction in the window.
    pub lat_ns: Vec<u64>,
    /// The window's first `sizes.fixed` units.
    pub prefix: Prefix,
    /// Crash cycles: the workload itself, or the restart probe.
    pub cycles: Vec<CycleStat>,
    /// Throughput of each drift segment, txn/s.
    pub segment_tps: Vec<f64>,
    /// Length of `lat_ns` at the end of each drift segment.
    pub segment_ends: Vec<usize>,
    pub ckpt_ns: Vec<u64>,
    pub batches: Vec<(u64, MtOutcome)>,
    /// Counter deltas over the timed window.
    pub counts: Counts,
    /// `SmDb` span-stage simulated cycles over the window (observability
    /// is on in the traced pass only).
    pub stage_cycles: [u64; 5],
    pub oracle: OracleTimes,
}

/// State shared by every pass of a run.
pub struct Ctx {
    pub tr: Tracer,
    pub tally: Tally,
    pub threads: usize,
    pub sizes: Sizes,
    pub seed: u64,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn exec(db: &mut SmDb, tr: &mut Tracer, txn: smdb::sim::TxnId, ops: &[Op]) -> Result<(), DbError> {
    for op in ops {
        match op {
            Op::Read(s) => tr.call(Name::Read, || db.read(txn, *s)).map(drop)?,
            Op::Update(s, v) => tr.call(Name::Update, || db.update(txn, *s, v))?,
            Op::Insert(k, v) => tr.call(Name::Insert, || db.insert(txn, *k, *v))?,
            Op::Delete(k) => tr.call(Name::Delete, || db.delete(txn, *k))?,
        }
    }
    Ok(())
}

/// Begin, execute and commit `ops`, aborting and retrying on a lock
/// conflict. Returns the number of attempts.
fn attempt(db: &mut SmDb, tr: &mut Tracer, node: NodeId, ops: &[Op]) -> Result<u32, DbError> {
    let mut attempts = 0;
    loop {
        attempts += 1;
        let txn = tr.call(Name::Begin, || db.begin(node))?;
        match exec(db, tr, txn, ops) {
            Ok(()) => {
                tr.call(Name::Commit, || db.commit(txn))?;
                return Ok(attempts);
            }
            Err(e) => {
                tr.call(Name::Abort, || db.abort(txn))?;
                if !matches!(e, DbError::WouldBlock { .. }) || attempts > RETRIES {
                    return Err(e);
                }
            }
        }
    }
}

/// One closed-loop transaction under a span called `name`. A transaction
/// that gives up or hits an error other than a conflict counts as failed.
/// Returns its host latency when it committed.
fn run_txn(
    ctx: &mut Ctx,
    db: &mut SmDb,
    mix: &mut Mix,
    node: NodeId,
    ops: &[Op],
    name: Name,
) -> Option<u64> {
    if name == Name::Txn {
        ctx.tr.next_group();
    }
    ctx.tally.attempted += 1;
    let t0 = Instant::now();
    let span = ctx.tr.open(name);
    let r = attempt(db, &mut ctx.tr, node, ops);
    ctx.tr.close(span);
    let lat = ns_since(t0);
    match r {
        Ok(n) => {
            ctx.tally.committed += 1;
            ctx.tally.attempts += u64::from(n);
            mix.committed(ops);
            Some(lat)
        }
        Err(e) => {
            ctx.tally.failed += 1;
            ctx.tally.error(format!("transaction on {node:?} failed: {e}"));
            None
        }
    }
}

fn checkpoint(ctx: &mut Ctx, db: &mut SmDb, node: NodeId, out: &mut Vec<u64>) {
    let t0 = Instant::now();
    let r = ctx.tr.call(Name::Checkpoint, || db.checkpoint(node));
    out.push(ns_since(t0));
    if let Err(e) = r {
        ctx.tally.error(format!("checkpoint on {node:?} failed: {e}"));
    }
}

/// FNV-1a over every record's committed value.
fn digest(db: &SmDb) -> Result<u64, DbError> {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for slot in 0..u64::from(db.record_count()) {
        for b in db.read_committed(slot)? {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    Ok(h)
}

/// The correctness checks, always outside the timed window: IFA holds
/// when scanned from `node`, the index keeps its invariants and, if `full`,
/// every record's current value is its committed value.
fn check_state(
    ctx: &mut Ctx,
    db: &mut SmDb,
    node: NodeId,
    when: &str,
    full: bool,
    times: &mut OracleTimes,
) {
    let t0 = Instant::now();
    let report = ctx.tr.call(Name::CheckIfa, || db.check_ifa(node));
    times.check_ifa_ns.push(ns_since(t0));
    if !report.ok() {
        ctx.tally.error(format!("IFA violated {when}: {}", report.violations.join("; ")));
    }
    let t0 = Instant::now();
    let r = ctx.tr.call(Name::IndexCheck, || db.check_index_invariants(node));
    times.index_check_ns.push(ns_since(t0));
    if let Err(e) = r {
        ctx.tally.error(format!("index invariants {when}: {e}"));
    }
    if !full {
        return;
    }
    let t0 = Instant::now();
    let span = ctx.tr.open(Name::Digest);
    let mut mismatches = 0u64;
    for slot in 0..u64::from(db.record_count()) {
        match (db.current_value(slot), db.read_committed(slot)) {
            (Ok(cur), Ok(committed)) if cur == committed => {}
            _ => mismatches += 1,
        }
    }
    ctx.tr.close(span);
    times.digest_ns.push(ns_since(t0));
    if mismatches > 0 {
        ctx.tally.error(format!("{mismatches} records differ from their committed value {when}"));
    }
}

/// A fresh engine for `w` driven by `spec`, with the index preloaded to
/// half of the mix's key space in 64-insert transactions. Part of set-up.
fn prepare(ctx: &mut Ctx, w: Workload, spec: MixSpec, seed: u64) -> (SmDb, Mix) {
    let mut db = SmDb::new(w.config());
    let mut mix = Mix::new(spec, u64::from(db.record_count()), NODES, seed);
    let keys: Vec<u64> = (0..mix.spec.key_space).filter(|_| mix.rng.chance(0.5)).collect();
    for (i, chunk) in keys.chunks(64).enumerate() {
        let ops: Vec<Op> = chunk.iter().map(|&k| Op::Insert(k, mix.value())).collect();
        let node = NodeId((i % NODES as usize) as u16);
        if let Err(e) = attempt(&mut db, &mut Tracer::new(false), node, &ops) {
            ctx.tally.error(format!("index preload failed: {e}"));
            break;
        }
        mix.committed(&ops);
    }
    (db, mix)
}

/// Build the engine the window runs on, timing its set-up.
fn setup(ctx: &mut Ctx, w: Workload, out: &mut Outcome) -> (SmDb, Mix) {
    let t0 = Instant::now();
    let built = prepare(ctx, w, w.spec(), ctx.seed);
    out.setup_s.push(t0.elapsed().as_secs_f64());
    built
}

/// After every `sizes.setup_every` units of the window, time one more
/// set-up and throw the engine away, so that `setup_s` samples the host
/// over the whole run like the other metrics. Returns the host time taken,
/// which is not window time.
fn timed_setup(ctx: &mut Ctx, w: Workload, out: &mut Outcome, units: u64) -> u64 {
    if !units.is_multiple_of(ctx.sizes.setup_every) {
        return 0;
    }
    let t0 = Instant::now();
    let built = prepare(ctx, w, w.spec(), ctx.seed);
    out.setup_s.push(t0.elapsed().as_secs_f64());
    drop(built);
    ns_since(t0)
}

fn window_done(plan: &Plan, units: u64, window_ns: u64) -> bool {
    units >= plan.min_units && window_ns as f64 >= plan.seconds * 1e9
}

/// The node that runs the first transaction after crash `c`, drains its
/// redo and hosts the check that follows: the next cycle's victim.
fn survivor(c: u64) -> NodeId {
    NodeId(((c + 1) % u64::from(NODES)) as u16)
}

/// The forward segment and restart of crash cycle `c`. `txn_no` numbers
/// forward transactions across cycles (node choice and checkpoints).
fn crash_cycle(
    ctx: &mut Ctx,
    db: &mut SmDb,
    mix: &mut Mix,
    c: u64,
    txn_no: &mut u64,
    out: &mut Outcome,
) -> CycleStat {
    for _ in 0..ctx.sizes.cycle_txns {
        let node = NodeId((*txn_no % u64::from(NODES)) as u16);
        if *txn_no > 0 && txn_no.is_multiple_of(CYCLE_CHECKPOINT_EVERY) {
            checkpoint(ctx, db, node, &mut out.ckpt_ns);
        }
        let ops = mix.txn(node);
        if let Some(lat) = run_txn(ctx, db, mix, node, &ops, Name::Txn) {
            out.lat_ns.push(lat);
        }
        *txn_no += 1;
    }
    // Two transactions left in flight per node, on disjoint slots so they
    // never conflict with each other.
    ctx.tr.next_group();
    let base = mix.rng.below(mix.parts.per_node);
    for n in 0..NODES {
        let node = NodeId(n);
        for k in 0..2u64 {
            let r = ctx.tr.call(Name::Begin, || db.begin(node)).and_then(|txn| {
                let mut ops = vec![
                    Op::Update(mix.parts.private_slot(node, base + 2 * k), mix.value()),
                    Op::Update(mix.parts.private_slot(node, base + 2 * k + 1), mix.value()),
                ];
                if mix.parts.shared > 0 {
                    ops.push(Op::Update((u64::from(n) * 2 + k) % mix.parts.shared, mix.value()));
                }
                exec(db, &mut ctx.tr, txn, &ops)
            });
            if let Err(e) = r {
                ctx.tally.error(format!("in-flight transaction on {node:?}: {e}"));
            }
        }
    }
    db.sync_clocks();

    let victim = NodeId((c % u64::from(NODES)) as u16);
    let survivor = survivor(c);
    let mut st = CycleStat::default();
    let sim0 = db.max_clock();
    let t0 = Instant::now();
    ctx.tr.call(Name::Crash, || db.crash(&[victim]));
    st.crash_ns = ns_since(t0);
    let t1 = Instant::now();
    let recovered = ctx.tr.call(Name::Recover, || db.recover());
    st.recover_ns = ns_since(t1);
    let mut recovered_ns = (db.redo_pending() == 0).then(|| ns_since(t0));
    match recovered {
        Ok(o) => {
            st.sim_recovery_cycles = o.recovery_cycles;
            st.scan_records = o.scan_records;
            st.lost_lines = o.lost_lines;
            st.redo_applied = o.redo_applied;
            st.redo_wasted = o.redo_skipped_cached + o.redo_skipped_stable + o.redo_superseded;
            for p in &o.phases {
                if let Some(i) = PHASES.iter().position(|n| *n == p.phase) {
                    st.phases[i].0 += p.wall_ns;
                    st.phases[i].1 += p.sim_cycles;
                }
            }
        }
        Err(e) => ctx.tally.error(format!("recovery of {victim:?} failed: {e}")),
    }

    // First transaction: a locked read in the crashed node's partition.
    let slot = mix.parts.private_slot(victim, mix.rng.below(mix.parts.per_node));
    let t2 = Instant::now();
    if let Some(lat) = run_txn(ctx, db, mix, survivor, &[Op::Read(slot)], Name::FirstTxn) {
        out.lat_ns.push(lat);
    }
    st.first_txn_ns = ns_since(t2);
    st.ttft_ns = ns_since(t0);
    st.sim_ttft_cycles = db.max_clock() - sim0;

    let t3 = Instant::now();
    let span = ctx.tr.open(Name::Drain);
    while db.redo_pending() > 0 {
        match db.drain_redo(survivor, 64) {
            Ok(n) if n > 0 => {}
            Ok(_) => break,
            Err(e) => {
                ctx.tally.error(format!("redo drain failed: {e}"));
                break;
            }
        }
    }
    ctx.tr.close(span);
    st.drain_ns = ns_since(t3);
    st.recovery_ns = *recovered_ns.get_or_insert_with(|| ns_since(t0));

    for txn in db.active_txns(None) {
        if let Err(e) = ctx.tr.call(Name::Abort, || db.abort(txn)) {
            ctx.tally.error(format!("abort of in-flight {txn:?} failed: {e}"));
        }
    }
    ctx.tr.call(Name::Reboot, || db.reboot(victim));
    st
}

/// Host time of a timed window, less the restart probe's cycles.
struct Window {
    start: Instant,
    excluded: u64,
}

impl Window {
    fn new() -> Self {
        Window { start: Instant::now(), excluded: 0 }
    }

    fn ns(&self) -> u64 {
        ns_since(self.start) - self.excluded
    }
}

fn oltp_shared(ctx: &mut Ctx, plan: Plan) -> Outcome {
    let w = Workload::OltpShared;
    let mut out = Outcome::default();
    let (mut db, mut mix) = setup(ctx, w, &mut out);
    if ctx.tr.is_on() {
        db.enable_observability(0);
    }
    let mut probe = plan.post.then(|| Probe::new(ctx, w));
    let c0 = Counts::read(&db);
    let mut win = Window::new();
    let mut seg = (0u64, 0u64);
    let mut n = 0u64;
    while !window_done(&plan, n, win.ns()) {
        let node = NodeId((n % u64::from(NODES)) as u16);
        if n > 0 && n.is_multiple_of(OLTP_CHECKPOINT_EVERY) {
            checkpoint(ctx, &mut db, node, &mut out.ckpt_ns);
        }
        let ops = mix.txn(node);
        if let Some(lat) = run_txn(ctx, &mut db, &mut mix, node, &ops, Name::Txn) {
            out.lat_ns.push(lat);
            out.committed += 1;
            seg.1 += 1;
        }
        n += 1;
        out.unit_ns.push(win.ns());
        if n == ctx.sizes.fixed {
            close_prefix(&mut out, win.ns(), (db.max_clock() - c0.clock) as f64);
        }
        if n.is_multiple_of(ctx.sizes.segment) {
            out.segment_tps.push(seg.1 as f64 / ((win.ns() - seg.0) as f64 / 1e9));
            out.segment_ends.push(out.lat_ns.len());
            seg = (win.ns(), 0);
        }
        if let Some(p) = probe.as_mut() {
            win.excluded += p.run_due(ctx, &mut out, n);
        }
        win.excluded += timed_setup(ctx, w, &mut out, n);
    }
    out.units = n;
    out.counts.add_span(&c0, &Counts::read(&db));
    out.stage_cycles = db.observability().spans.aggregate().stage_cycles;
    if let Some(p) = probe {
        check_state(ctx, &mut db, NodeId(0), "after the timed window", true, &mut out.oracle);
        p.finish(ctx, &mut out);
    }
    out
}

fn crash_restart(ctx: &mut Ctx, plan: Plan) -> Outcome {
    let w = Workload::CrashRestart;
    let mut out = Outcome::default();
    let (mut db, mut mix) = setup(ctx, w, &mut out);
    if ctx.tr.is_on() {
        db.enable_observability(0);
    }
    let mut txn_no = 0u64;
    let mut seg = (0u64, 0u64);
    let mut c = 0u64;
    // Window time: the cycles, without the checks between them.
    let mut window_ns = 0u64;
    while !window_done(&plan, c, window_ns) {
        ctx.tr.next_group();
        let span = ctx.tr.open(Name::Cycle);
        let c0 = Counts::read(&db);
        let committed0 = ctx.tally.committed;
        let t0 = Instant::now();
        let st = crash_cycle(ctx, &mut db, &mut mix, c, &mut txn_no, &mut out);
        let dt = ns_since(t0);
        out.counts.add_span(&c0, &Counts::read(&db));
        ctx.tr.close(span);
        window_ns += dt;
        out.unit_ns.push(window_ns);
        out.committed += ctx.tally.committed - committed0;
        seg.0 += dt;
        seg.1 += ctx.tally.committed - committed0;
        out.cycles.push(st);
        // The check follows every cycle, outside the timed window.
        if plan.post {
            let when = format!("after crash cycle {c}");
            let full = c % FULL_CHECK_EVERY == FULL_CHECK_EVERY - 1;
            check_state(ctx, &mut db, survivor(c), &when, full, &mut out.oracle);
        }
        c += 1;
        if c == ctx.sizes.fixed {
            let clock = out.counts.clock;
            close_prefix(&mut out, window_ns, clock as f64);
            sim_means(&mut out, c as usize);
        }
        if c.is_multiple_of(ctx.sizes.segment) {
            out.segment_tps.push(seg.1 as f64 / (seg.0 as f64 / 1e9));
            out.segment_ends.push(out.lat_ns.len());
            seg = (0, 0);
        }
        // Cycles are timed one by one, so this set-up is not window time.
        timed_setup(ctx, w, &mut out, c);
    }
    if plan.post {
        check_state(ctx, &mut db, survivor(c), "after the timed window", true, &mut out.oracle);
    }
    out.units = c;
    out.stage_cycles = db.observability().spans.aggregate().stage_cycles;
    out
}

fn mt_batch(mix: &mut Mix) -> Vec<MtTxn> {
    (0..BATCH)
        .map(|i| {
            let node = NodeId((i % NODES as usize) as u16);
            let ops = mix
                .txn(node)
                .into_iter()
                .map(|op| match op {
                    Op::Read(slot) => MtOp::Read { slot },
                    Op::Update(slot, v) => MtOp::Update { slot, data: v.to_vec() },
                    Op::Insert(..) | Op::Delete(..) => {
                        unreachable!("the epoch mix has no index operations")
                    }
                })
                .collect();
            MtTxn { node, ops }
        })
        .collect()
}

/// Replay the first `batches` batches of the seed's stream on a fresh
/// engine at `threads` and digest the committed state.
fn replay(seed: u64, batches: u64, threads: usize) -> Result<u64, DbError> {
    let w = Workload::EpochLanes;
    let mut db = SmDb::new(w.config());
    let mut mix = Mix::new(w.spec(), u64::from(db.record_count()), NODES, seed);
    for b in 0..batches {
        db.run_epochs(mt_batch(&mut mix), threads)?;
        db.checkpoint(NodeId((b % u64::from(NODES)) as u16))?;
    }
    digest(&db)
}

fn epoch_lanes(ctx: &mut Ctx, plan: Plan) -> Outcome {
    let w = Workload::EpochLanes;
    let mut out = Outcome::default();
    let (mut db, mut mix) = setup(ctx, w, &mut out);
    if ctx.tr.is_on() {
        db.enable_observability(0);
    }
    let mut probe = plan.post.then(|| Probe::new(ctx, w));
    let c0 = Counts::read(&db);
    let mut win = Window::new();
    let mut seg = (0u64, 0u64);
    let mut b = 0u64;
    while !window_done(&plan, b, win.ns()) {
        let txns = mt_batch(&mut mix);
        let len = txns.len() as u64;
        ctx.tally.attempted += len;
        ctx.tr.next_group();
        let span = ctx.tr.open(Name::Batch);
        let t0 = Instant::now();
        let r = ctx.tr.call(Name::RunEpochs, || db.run_epochs(txns, ctx.threads));
        let dt = ns_since(t0);
        match r {
            Ok(o) => {
                // Every transaction of a batch is acknowledged when
                // `run_epochs` returns: its latency is the batch's.
                out.lat_ns.extend(std::iter::repeat_n(dt, o.committed as usize));
                out.committed += o.committed;
                seg.1 += o.committed;
                ctx.tally.committed += o.committed;
                ctx.tally.attempts += o.committed + o.serial_retries;
                ctx.tally.failed += len - o.committed.min(len);
                out.batches.push((dt, o));
            }
            Err(e) => {
                ctx.tally.failed += len;
                ctx.tally.error(format!("run_epochs failed: {e}"));
            }
        }
        checkpoint(ctx, &mut db, NodeId((b % u64::from(NODES)) as u16), &mut out.ckpt_ns);
        ctx.tr.close(span);
        b += 1;
        out.unit_ns.push(win.ns());
        if b == ctx.sizes.fixed {
            close_prefix(&mut out, win.ns(), (db.max_clock() - c0.clock) as f64);
        }
        if b.is_multiple_of(ctx.sizes.segment) {
            out.segment_tps.push(seg.1 as f64 / ((win.ns() - seg.0) as f64 / 1e9));
            out.segment_ends.push(out.lat_ns.len());
            seg = (win.ns(), 0);
        }
        if let Some(p) = probe.as_mut() {
            win.excluded += p.run_due(ctx, &mut out, b);
        }
        win.excluded += timed_setup(ctx, w, &mut out, b);
    }
    out.units = b;
    out.counts.add_span(&c0, &Counts::read(&db));
    out.stage_cycles = db.observability().spans.aggregate().stage_cycles;
    if let Some(p) = probe {
        check_state(ctx, &mut db, NodeId(0), "after the timed window", true, &mut out.oracle);
        drop(db);
        let t0 = Instant::now();
        let span = ctx.tr.open(Name::Digest);
        let (seed, batches, threads) = (ctx.seed, ctx.sizes.replay, ctx.threads);
        let digests =
            replay(seed, batches, 1).and_then(|one| Ok((one, replay(seed, batches, threads)?)));
        ctx.tr.close(span);
        out.oracle.digest_ns.push(ns_since(t0));
        match digests {
            Ok((one, n)) => {
                if one != n {
                    ctx.tally.error(format!(
                        "committed state differs: {one:#x} at 1 thread, {n:#x} at {threads}"
                    ));
                }
            }
            Err(e) => ctx.tally.error(format!("digest replay failed: {e}")),
        }
        p.finish(ctx, &mut out);
    }
    out
}

/// The restart probe of `oltp_shared` and `epoch_lanes`. A second engine of
/// the workload's configuration runs crash cycles shaped like
/// `crash_restart`'s: one per `sizes.probe_every` units of the window, so
/// the samples spread over the whole run, then more until `sizes.probes`
/// were run. Each forward segment is serial, takes a checkpoint every
/// [`CYCLE_CHECKPOINT_EVERY`] transactions and uses the workload's mix
/// without index operations, as `crash_restart` does. Every cycle is
/// checked; probe time is not window time.
struct Probe {
    db: SmDb,
    mix: Mix,
    txn_no: u64,
    /// Window units after which the next cycle is due.
    due: u64,
}

impl Probe {
    fn new(ctx: &mut Ctx, w: Workload) -> Self {
        let spec = MixSpec { index_fraction: 0.0, key_space: 0, ..w.spec() };
        let (db, mix) = prepare(ctx, w, spec, ctx.seed ^ PROBE_SALT);
        Probe { db, mix, txn_no: 0, due: ctx.sizes.probe_every }
    }

    /// Run the cycle due after `units` units of the window, if any;
    /// returns the host time it took.
    fn run_due(&mut self, ctx: &mut Ctx, out: &mut Outcome, units: u64) -> u64 {
        if units < self.due {
            return 0;
        }
        self.due += ctx.sizes.probe_every;
        let t0 = Instant::now();
        self.cycle(ctx, out);
        ns_since(t0)
    }

    fn cycle(&mut self, ctx: &mut Ctx, out: &mut Outcome) {
        let c = out.cycles.len() as u64;
        ctx.tr.next_group();
        let span = ctx.tr.open(Name::Probe);
        // The probe's forward latencies and checkpoints are not the
        // workload's.
        let mut scratch = Outcome::default();
        let st = crash_cycle(ctx, &mut self.db, &mut self.mix, c, &mut self.txn_no, &mut scratch);
        out.cycles.push(st);
        let when = format!("after probe cycle {c}");
        let full = c % FULL_CHECK_EVERY == FULL_CHECK_EVERY - 1;
        check_state(ctx, &mut self.db, survivor(c), &when, full, &mut out.oracle);
        ctx.tr.close(span);
    }

    fn finish(mut self, ctx: &mut Ctx, out: &mut Outcome) {
        while (out.cycles.len() as u64) < ctx.sizes.probes {
            self.cycle(ctx, out);
        }
        let c = out.cycles.len() as u64;
        check_state(ctx, &mut self.db, survivor(c), "after the probe", true, &mut out.oracle);
        sim_means(out, ctx.sizes.probes as usize);
    }
}

/// Record the end of the fixed prefix: `ns` of window time and `sim_cycles`
/// of simulated makespan.
fn close_prefix(out: &mut Outcome, ns: u64, sim_cycles: f64) {
    let p = &mut out.prefix;
    p.ns = ns;
    p.committed = out.committed;
    p.lat_len = out.lat_ns.len();
    p.peak_rss_mb = peak_rss_mb();
    p.sim_cycles_per_txn = sim_cycles / out.committed as f64;
}

/// Count the first `n` crash cycles in the end-to-end recovery metrics.
fn sim_means(out: &mut Outcome, n: usize) {
    let fixed = &out.cycles[..n.min(out.cycles.len())];
    out.prefix.cycles = fixed.len();
    out.prefix.sim_recovery_cycles = mean(fixed.iter().map(|c| c.sim_recovery_cycles));
    out.prefix.sim_ttft_cycles = mean(fixed.iter().map(|c| c.sim_ttft_cycles));
}

pub fn run(w: Workload, ctx: &mut Ctx, plan: Plan) -> Outcome {
    match w {
        Workload::OltpShared => oltp_shared(ctx, plan),
        Workload::CrashRestart => crash_restart(ctx, plan),
        Workload::EpochLanes => epoch_lanes(ctx, plan),
    }
}
