//! End-to-end and per-layer benchmark of the smdb engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <oltp_shared|crash_restart|epoch_lanes> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off. With `--trace 1` it first repeats that untraced pass, then runs a
//! fresh engine for the same host time with spans around every call into a
//! layer and the engine's observability on, and reports the per-layer
//! metrics of that traced pass. The
//! last line of standard output is the result object; the line before it
//! records the host fingerprint, sample counts and drift. The command
//! exits non-zero when a correctness check fails or a transaction fails.

mod gen;
mod report;
mod trace;
mod workloads;

use report::{num, Metrics};
use std::process::ExitCode;
use trace::Tracer;
use workloads::{Ctx, Plan, Sizes, Tally, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Short fixed prefixes and few cycles, for the benchmark's own tests.
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut quick = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        quick,
    })
}

fn list(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| num(*x)).collect();
    format!("[{}]", items.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let w = args.workload;
    let mut ctx = Ctx {
        tr: Tracer::new(false),
        tally: Tally::default(),
        threads: nproc.min(2),
        sizes: Sizes::new(w, args.quick),
        seed: args.seed,
    };
    let plan = Plan { seconds: args.seconds, min_units: ctx.sizes.fixed, post: !args.trace };
    let mut out = workloads::run(w, &mut ctx, plan);
    let metrics: Metrics;
    let mut spans_file = String::new();
    let fingerprint = format!(
        "\"nproc\": {nproc}, \"threads\": {}, \"traced\": {}, \"quick\": {}",
        if w == Workload::EpochLanes { ctx.threads } else { 1 },
        args.trace,
        args.quick
    );
    if args.trace {
        // The traced pass runs for the same host time; the overhead compares
        // the two passes' window time over the units both completed.
        let base = out;
        ctx.tr = Tracer::new(true);
        out = workloads::run(w, &mut ctx, Plan { min_units: 1, post: true, ..plan });
        let k = base.unit_ns.len().min(out.unit_ns.len());
        let overhead = out.unit_ns[k - 1] as f64 / base.unit_ns[k - 1].max(1) as f64;
        metrics = report::per_layer(&out, &ctx.tr, &ctx.tally, overhead);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}.spans.csv", w.name()));
        let header = format!("workload={} seed={} {}", w.name(), args.seed, fingerprint);
        match ctx.tr.write_csv(&path, &header) {
            Ok(()) => spans_file = path.display().to_string(),
            Err(e) => ctx.tally.error(format!("writing spans to {}: {e}", path.display())),
        }
    } else {
        metrics = report::end_to_end(&out);
    }

    // Sample counts behind the reported metrics: the fixed prefix of an
    // untraced run, the whole window of a traced one.
    let (txn_samples, cycle_samples) = if args.trace {
        (out.lat_ns.len(), out.cycles.len())
    } else {
        (out.prefix.lat_len, out.prefix.cycles)
    };
    let t = &ctx.tally;
    let correct = t.errors == 0;
    let messages: Vec<String> = t
        .messages
        .iter()
        .map(|m| format!("\"{}\"", m.replace('\\', "\\\\").replace('"', "'").replace('\n', " ")))
        .collect();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"host\": {{{fingerprint}}}, \"units\": {}, \
         \"samples\": {{\"txn\": {}, \"cycles\": {}, \"checkpoints\": {}}}, \
         \"drift\": {{\"segment_tps\": {}, \"ckpt.trend\": {}}}, \"spans\": \"{spans_file}\", \
         \"errors\": [{}]}}",
        w.name(),
        args.seed,
        out.units,
        txn_samples,
        cycle_samples,
        out.ckpt_ns.len(),
        list(&out.segment_tps),
        num(report::trend(&out.ckpt_ns)),
        messages.join(", ")
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        t.attempted.max(1),
        t.failed,
        metrics.to_json()
    );
    if correct && t.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
