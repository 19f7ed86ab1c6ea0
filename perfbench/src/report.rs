//! Turns what a pass measured into named metrics with units.

use crate::trace::{Layer, Name, Tracer};
use crate::workloads::{CycleStat, Outcome, Tally, PHASES};

/// Metrics in output order: `(name, value, unit)`.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number; a ratio with no base is reported as 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Nearest-rank percentile `q` (0..=1) of `v`; 0 when empty.
pub fn percentile(v: &[u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1] as f64
}

pub fn median_f(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

pub fn mean(v: impl Iterator<Item = u64>) -> f64 {
    let (sum, n) = v.fold((0u128, 0u64), |(s, n), x| (s + u128::from(x), n + 1));
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

fn cycle_ns(cycles: &[CycleStat], f: impl Fn(&CycleStat) -> u64) -> Vec<u64> {
    cycles.iter().map(f).collect()
}

/// Ratio of the mean of the last quartile of `v` to the mean of its first
/// quartile: above 1 when calls get slower as the run goes on.
pub fn trend(v: &[u64]) -> f64 {
    let q = v.len() / 4;
    if q == 0 {
        return 0.0;
    }
    let first = mean(v[..q].iter().copied());
    let last = mean(v[v.len() - q..].iter().copied());
    if first == 0.0 {
        0.0
    } else {
        last / first
    }
}

/// The tail latency of the fixed prefix: the p99 of each of its drift
/// segments, then the median of those. A few host stalls then move one
/// segment, not the result; in `epoch_lanes`, where a batch of 400 shares
/// one latency, a p99 over the whole prefix would rest on its five slowest
/// batches.
fn segment_p99(out: &Outcome) -> f64 {
    let mut start = 0;
    let mut p99s = Vec::new();
    for &end in out.segment_ends.iter().filter(|&&end| end <= out.prefix.lat_len) {
        p99s.push(percentile(&out.lat_ns[start..end], 0.99));
        start = end;
    }
    median_f(&p99s)
}

/// The end-to-end metrics, measured with tracing off over the fixed prefix
/// of the window.
pub fn end_to_end(out: &Outcome) -> Metrics {
    let mut m = Metrics::default();
    let p = &out.prefix;
    let cycles = &out.cycles[..p.cycles];
    let lat = &out.lat_ns[..p.lat_len];
    let recovery = cycle_ns(cycles, |c| c.recovery_ns);
    let ttft = cycle_ns(cycles, |c| c.ttft_ns);
    m.put("setup_s", median_f(&out.setup_s), "s");
    m.put("throughput_tps", p.committed as f64 / (p.ns as f64 / 1e9), "txn/s");
    m.put("txn_p50_us", percentile(lat, 0.50) / 1e3, "us");
    m.put("txn_p99_us", segment_p99(out) / 1e3, "us");
    m.put("sim_cycles_per_txn", p.sim_cycles_per_txn, "cycles");
    m.put("recovery_p50_ms", percentile(&recovery, 0.50) / 1e6, "ms");
    m.put("recovery_p90_ms", percentile(&recovery, 0.90) / 1e6, "ms");
    m.put("ttft_p50_ms", percentile(&ttft, 0.50) / 1e6, "ms");
    m.put("sim_recovery_cycles", p.sim_recovery_cycles, "cycles");
    m.put("sim_ttft_cycles", p.sim_ttft_cycles, "cycles");
    m.put("peak_rss_mb", p.peak_rss_mb, "MiB");
    m
}

/// Host-time calls timed by the tracer: `(span, p50 name, busy name)`.
const TRACED_CALLS: [(Name, &str, &str); 7] = [
    (Name::Begin, "engine.begin_ns", "engine.begin_busy_ms"),
    (Name::Read, "engine.read_ns", "engine.read_busy_ms"),
    (Name::Update, "engine.update_ns", "engine.update_busy_ms"),
    (Name::Commit, "engine.commit_ns", "engine.commit_busy_ms"),
    (Name::Abort, "engine.abort_ns", "engine.abort_busy_ms"),
    (Name::Insert, "btree.insert_ns", "btree.insert_busy_ms"),
    (Name::Delete, "btree.delete_ns", "btree.delete_busy_ms"),
];

/// p50 in ns and total busy time in ms of a set of call durations.
fn call_times(m: &mut Metrics, p50_name: &str, busy_name: &str, ns: &[u64]) {
    m.put(p50_name, percentile(ns, 0.50), "ns");
    m.put(busy_name, ns.iter().sum::<u64>() as f64 / 1e6, "ms");
}

/// The per-layer metrics of the traced pass. Call times and counts cover
/// the timed window; counts are deltas of the layers' public stats per
/// committed transaction. Restart metrics cover the crash cycles, and
/// oracle metrics the checks. Self time covers the whole pass.
pub fn per_layer(out: &Outcome, tr: &Tracer, tally: &Tally, overhead_ratio: f64) -> Metrics {
    let mut m = Metrics::default();
    let c = &out.counts;
    let txns = out.committed;

    for (name, p50, busy) in &TRACED_CALLS[..5] {
        call_times(&mut m, p50, busy, &tr.durations(*name));
    }
    m.put("engine.attempts_per_txn", ratio(tally.attempts, tally.committed), "count");

    for (name, p50, busy) in &TRACED_CALLS[5..] {
        call_times(&mut m, p50, busy, &tr.durations(*name));
    }
    m.put("btree.splits_per_insert", ratio(c.tree_splits, c.tree_inserts), "count");

    m.put("sim.remote_transfers_per_txn", ratio(c.sim_remote_transfers, txns), "count");
    m.put("sim.migrations_per_txn", ratio(c.sim_migrations, txns), "count");
    m.put("sim.invalidations_per_txn", ratio(c.sim_invalidations, txns), "count");
    m.put("sim.line_lock_conflicts_per_txn", ratio(c.sim_line_lock_conflicts, txns), "count");
    m.put("sim.local_hit_ratio", ratio(c.sim_local_hits, c.sim_accesses), "ratio");

    m.put("lock.acquires_per_txn", ratio(c.lock_acquires, txns), "count");
    m.put("lock.waits_per_txn", ratio(c.lock_waits, txns), "count");
    m.put("lock.fast_hit_ratio", ratio(c.lock_fast_hits, c.lock_acquires), "ratio");
    m.put("lock.overflow_allocs_per_txn", ratio(c.lock_overflow_allocs, txns), "count");

    m.put("wal.appends_per_txn", ratio(c.wal_appends, txns), "count");
    m.put("wal.physical_forces_per_txn", ratio(c.wal_forces, txns), "count");
    m.put("wal.records_per_force", ratio(c.wal_records_forced, c.wal_forces), "count");
    m.put("wal.coalesced_ratio", ratio(c.wal_coalesced, c.wal_requested), "ratio");

    call_times(&mut m, "ckpt.ns", "ckpt.busy_ms", &out.ckpt_ns);
    m.put("ckpt.max_ns", out.ckpt_ns.iter().copied().max().unwrap_or(0) as f64, "ns");
    m.put("ckpt.trend", trend(&out.ckpt_ns), "ratio");
    m.put("storage.page_flushes_per_ckpt", ratio(c.page_flushes, c.checkpoints), "count");

    let cy = &out.cycles;
    call_times(&mut m, "restart.crash_ns", "restart.crash_busy_ms", &cycle_ns(cy, |c| c.crash_ns));
    let recover = cycle_ns(cy, |c| c.recover_ns);
    call_times(&mut m, "restart.recover_ns", "restart.recover_busy_ms", &recover);
    let first = cycle_ns(cy, |c| c.first_txn_ns);
    call_times(&mut m, "restart.first_txn_ns", "restart.first_txn_busy_ms", &first);
    call_times(&mut m, "restart.drain_ns", "restart.drain_busy_ms", &cycle_ns(cy, |c| c.drain_ns));
    for (i, phase) in PHASES.iter().enumerate() {
        let ns = cycle_ns(cy, |c| c.phases[i].0);
        m.put(format!("restart.phase.{phase}_ns"), percentile(&ns, 0.5), "ns");
        m.put(
            format!("restart.phase.{phase}_cycles"),
            mean(cy.iter().map(|c| c.phases[i].1)),
            "cycles",
        );
    }
    let unattributed =
        cycle_ns(cy, |c| c.recover_ns.saturating_sub(c.phases.iter().map(|p| p.0).sum::<u64>()));
    m.put("restart.unattributed_ns", percentile(&unattributed, 0.5), "ns");
    m.put("restart.scan_records", mean(cy.iter().map(|c| c.scan_records)), "count");
    m.put("restart.lost_lines", mean(cy.iter().map(|c| c.lost_lines)), "count");
    let applied: u64 = cy.iter().map(|c| c.redo_applied).sum();
    let wasted: u64 = cy.iter().map(|c| c.redo_wasted).sum();
    m.put("restart.redo_useful_ratio", ratio(applied, applied + wasted), "ratio");

    let b = &out.batches;
    let batch_ns: Vec<u64> = b.iter().map(|(ns, _)| *ns).collect();
    call_times(&mut m, "mt.run_epochs_ns", "mt.run_epochs_busy_ms", &batch_ns);
    let sum = |f: fn(&smdb::core::MtOutcome) -> u64| b.iter().map(|(_, o)| f(o)).sum::<u64>();
    m.put("mt.epochs_per_batch", ratio(sum(|o| o.epochs), b.len() as u64), "count");
    m.put(
        "mt.max_epoch_txns",
        b.iter().map(|(_, o)| o.max_epoch_txns).max().unwrap_or(0) as f64,
        "count",
    );
    m.put("mt.epoch_waits_per_batch", ratio(sum(|o| o.epoch_waits), b.len() as u64), "count");
    m.put("mt.serial_retries_per_batch", ratio(sum(|o| o.serial_retries), b.len() as u64), "count");
    let admitted = sum(|o| o.committed);
    let rejected = sum(|o| o.data_conflicts + o.lock_conflicts + o.deferred);
    m.put("mt.admit_first_try_ratio", ratio(admitted, admitted + rejected), "ratio");

    let o = &out.oracle;
    call_times(&mut m, "oracle.check_ifa_ns", "oracle.check_ifa_busy_ms", &o.check_ifa_ns);
    call_times(&mut m, "oracle.digest_ns", "oracle.digest_busy_ms", &o.digest_ns);
    call_times(&mut m, "oracle.index_check_ns", "oracle.index_check_busy_ms", &o.index_check_ns);

    m.put("obs.overhead_ratio", overhead_ratio, "ratio");
    for (i, stage) in
        ["lock_wait", "execute", "log_append", "force_wait", "commit"].iter().enumerate()
    {
        m.put(format!("obs.stage.{stage}"), ratio(out.stage_cycles[i], txns), "cycles/txn");
    }

    for (layer, ns) in Layer::ALL.iter().zip(tr.self_ns_by_layer()) {
        m.put(format!("self.{}_ms", layer.label()), ns as f64 / 1e6, "ms");
    }
    m
}
