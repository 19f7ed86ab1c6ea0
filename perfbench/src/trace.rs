//! In-memory spans around every call the benchmark makes into a layer's
//! public functions. Spans carry a name, start, end and parent; spans of
//! one transaction or crash cycle share a group id. They are written out
//! when the run ends, and each layer's self time is derived from them.

use std::io::Write;
use std::time::Instant;

/// The module a span's time is charged to. Variants are in the order of
/// [`Layer::ALL`], so `layer as usize` indexes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own client loop: input generation and bookkeeping.
    Harness,
    Engine,
    Btree,
    Storage,
    Restart,
    Mt,
    Oracle,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Harness,
        Layer::Engine,
        Layer::Btree,
        Layer::Storage,
        Layer::Restart,
        Layer::Mt,
        Layer::Oracle,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Engine => "engine",
            Layer::Btree => "btree",
            Layer::Storage => "storage",
            Layer::Restart => "restart",
            Layer::Mt => "mt",
            Layer::Oracle => "oracle",
        }
    }
}

/// Every span the benchmark records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// One closed-loop transaction, retries included (parent of its calls).
    Txn,
    /// One crash cycle of `crash_restart`.
    Cycle,
    /// One crash cycle of the restart probe of the other workloads.
    Probe,
    /// One batch handed to the epoch scheduler, with its checkpoint.
    Batch,
    Begin,
    Read,
    Update,
    Commit,
    Abort,
    Insert,
    Delete,
    Checkpoint,
    Crash,
    Recover,
    /// The first transaction committed on a survivor after a crash.
    FirstTxn,
    Drain,
    Reboot,
    RunEpochs,
    CheckIfa,
    Digest,
    IndexCheck,
}

impl Name {
    /// Metric prefix of the span, `<layer>.<call>`.
    pub fn label(self) -> &'static str {
        match self {
            Name::Txn => "harness.txn",
            Name::Cycle => "harness.cycle",
            Name::Probe => "harness.probe",
            Name::Batch => "harness.batch",
            Name::Begin => "engine.begin",
            Name::Read => "engine.read",
            Name::Update => "engine.update",
            Name::Commit => "engine.commit",
            Name::Abort => "engine.abort",
            Name::Insert => "btree.insert",
            Name::Delete => "btree.delete",
            Name::Checkpoint => "ckpt",
            Name::Crash => "restart.crash",
            Name::Recover => "restart.recover",
            Name::FirstTxn => "restart.first_txn",
            Name::Drain => "restart.drain",
            Name::Reboot => "restart.reboot",
            Name::RunEpochs => "mt.run_epochs",
            Name::CheckIfa => "oracle.check_ifa",
            Name::Digest => "oracle.digest",
            Name::IndexCheck => "oracle.index_check",
        }
    }

    pub fn layer(self) -> Layer {
        match self {
            Name::Txn | Name::Cycle | Name::Probe | Name::Batch | Name::FirstTxn => Layer::Harness,
            Name::Begin | Name::Read | Name::Update | Name::Commit | Name::Abort => Layer::Engine,
            Name::Insert | Name::Delete => Layer::Btree,
            Name::Checkpoint => Layer::Storage,
            Name::Crash | Name::Recover | Name::Drain | Name::Reboot => Layer::Restart,
            Name::RunEpochs => Layer::Mt,
            Name::CheckIfa | Name::Digest | Name::IndexCheck => Layer::Oracle,
        }
    }
}

const NONE: u32 = u32::MAX;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: Name,
    pub group: u64,
    /// Index of the enclosing span in [`Tracer::spans`], or `u32::MAX`.
    pub parent: u32,
    pub start: u64,
    pub end: u64,
}

/// Handle of an open span (a no-op handle while tracing is off).
#[must_use]
pub struct Open(u32);

/// The span recorder. While off, every method is a branch and nothing
/// else, so the untraced run measures the engine alone.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    group: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), group: 0 }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new group: the spans opened from now on belong to one
    /// transaction, cycle or batch.
    pub fn next_group(&mut self) {
        self.group += 1;
    }

    pub fn open(&mut self, name: Name) -> Open {
        if !self.on {
            return Open(NONE);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let start = self.now();
        self.spans.push(Span { name, group: self.group, parent, start, end: start });
        self.stack.push(idx);
        Open(idx)
    }

    /// Close `span` and any child an early return left open.
    pub fn close(&mut self, span: Open) {
        if span.0 == NONE {
            return;
        }
        let end = self.now();
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end = end;
            if top == span.0 {
                break;
            }
        }
    }

    pub fn call<T>(&mut self, name: Name, f: impl FnOnce() -> T) -> T {
        let span = self.open(name);
        let out = f();
        self.close(span);
        out
    }

    /// Whether span `i` lies inside a span called `name`.
    fn under(&self, i: usize, name: Name) -> bool {
        let mut p = self.spans[i].parent;
        while p != NONE {
            if self.spans[p as usize].name == name {
                return true;
            }
            p = self.spans[p as usize].parent;
        }
        false
    }

    /// Durations of the spans called `name`, in nanoseconds, leaving out
    /// those of the restart probe.
    pub fn durations(&self, name: Name) -> Vec<u64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name && !self.under(i, Name::Probe))
            .map(|i| self.spans[i].end - self.spans[i].start)
            .collect()
    }

    /// Self time per layer, nanoseconds, indexed like [`Layer::ALL`]: a
    /// span's duration minus the part its child spans cover. Children of
    /// one parent never overlap (the client is one thread), so the covered
    /// part is the sum of their durations.
    pub fn self_ns_by_layer(&self) -> [u64; 7] {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out = [0u64; 7];
        for (s, c) in self.spans.iter().zip(&child) {
            out[s.name.layer() as usize] += (s.end - s.start).saturating_sub(*c);
        }
        out
    }

    /// Write every span as CSV: `group,id,parent,name,start_ns,end_ns`,
    /// after a header comment with the run's fingerprint.
    pub fn write_csv(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# {header}")?;
        writeln!(w, "group,id,parent,name,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE { -1 } else { i64::from(s.parent) };
            writeln!(w, "{},{},{},{},{},{}", s.group, i, parent, s.name.label(), s.start, s.end)?;
        }
        w.flush()
    }
}
