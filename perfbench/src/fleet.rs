//! The `fleet_tcp` workload: the real master/worker runtime over loopback
//! TCP in one process.
//!
//! Each rep binds a fresh `TcpMaster`, serves it with `spawn_master_on`
//! (journal on, 5 s worker leases), connects two `TcpWorkerLink` workers
//! with the `dewe-workerd` defaults (4 slots, window 8, 1 s heartbeat) on
//! `NoopRunner`, then submits 20 × Montage 6.0° with `submit_over_tcp`, one
//! connection at a time, and waits for the master to report completion.
//!
//! Every layer is observed from outside: the master transport is wrapped
//! (dispatch → ack stamps in every run; call timing in the traced run), and
//! the traced run also wraps the worker transport and the job runner.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dewe_core::realtime::{
    read_journal, recover, spawn_master_on, spawn_worker_on, submit_over_tcp, DynWorkerTransport,
    JobOutcome, JobRunner, Journal, JournalRecord, MasterConfig, MasterEvent, MasterHandle,
    NoopRunner, Registry, RunContext, TcpMaster, TcpMasterOptions, TcpWorkerLink, TcpWorkerOptions,
    WorkerConfig, WorkerHandle,
};
use dewe_core::{
    AckKind, AckMsg, DispatchMsg, EngineConfig, EngineStats, LifecycleMsg, SubmissionMsg,
    WorkflowAnnounce,
};
use dewe_dag::{EnsembleJobId, JobId, Workflow, WorkflowId};
use dewe_montage::MontageConfig;
use dewe_mq::{Transport, WorkerTransport};

use crate::alloc;
use crate::procfs;
use crate::spans::SpanLog;
use crate::{median, percentile, Knobs, Outcome};

const WORKFLOWS: usize = 20;
const WORKERS: u32 = 2;
const SLOTS: usize = 4;
const WINDOW: u32 = 8;
/// Set-ups timed on their own (no run) before the reps, for `setup_s`.
const SETUP_ONLY: usize = 4;
/// Longest a rep may take before it counts as failed.
const REP_TIMEOUT: Duration = Duration::from_secs(90);

/// Stamp layout: attempt in the top 16 bits, nanoseconds since the rep's
/// base instant (plus one, so 0 means "never") in the low 48.
const NS_BITS: u32 = 48;
const NS_MASK: u64 = (1 << NS_BITS) - 1;

/// Call timing of the master transport, by method (traced run only).
#[derive(Default)]
struct MasterCalls {
    publish_calls: AtomicU64,
    publish_jobs: AtomicU64,
    publish_ns: AtomicU64,
    pull_ack_calls: AtomicU64,
    pull_ack_ns: AtomicU64,
    pull_ack_batch_calls: AtomicU64,
    pull_ack_batch_acks: AtomicU64,
    pull_ack_batch_ns: AtomicU64,
    other_ns: AtomicU64,
}

/// Per-job dispatch → ack stamps, preallocated and lock-free.
struct MasterProbe {
    base: Instant,
    jobs_per_workflow: u64,
    sent: Vec<AtomicU64>,
    latency_ns: Vec<AtomicU64>,
    calls: Option<MasterCalls>,
}

impl MasterProbe {
    fn new(base: Instant, jobs_per_workflow: usize, traced: bool) -> Self {
        let n = jobs_per_workflow * WORKFLOWS;
        MasterProbe {
            base,
            jobs_per_workflow: jobs_per_workflow as u64,
            sent: (0..n).map(|_| AtomicU64::new(0)).collect(),
            latency_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            calls: traced.then(MasterCalls::default),
        }
    }

    fn index(&self, workflow: WorkflowId, job: JobId) -> Option<usize> {
        let i = workflow.0 as u64 * self.jobs_per_workflow + job.0 as u64;
        (i < self.sent.len() as u64).then_some(i as usize)
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64 + 1
    }

    fn stamp(&self, d: &DispatchMsg, now: u64) {
        if let Some(i) = self.index(d.job.workflow, d.job.job) {
            self.sent[i]
                .store((u64::from(d.attempt) << NS_BITS) | (now & NS_MASK), Ordering::Relaxed);
        }
    }

    fn settle(&self, ack: &AckMsg, now: u64) {
        if ack.kind != AckKind::Completed {
            return;
        }
        let Some(i) = self.index(ack.job.workflow, ack.job.job) else { return };
        let sent = self.sent[i].load(Ordering::Relaxed);
        if sent == 0 || sent >> NS_BITS != u64::from(ack.attempt) & 0xffff {
            return;
        }
        let latency = now.saturating_sub(sent & NS_MASK) + 1;
        let _ =
            self.latency_ns[i].compare_exchange(0, latency, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Dispatch → ack latencies recorded so far, in ms.
    fn latencies_ms(&self) -> Vec<f64> {
        self.latency_ns
            .iter()
            .map(|l| l.load(Ordering::Relaxed))
            .filter(|&l| l > 0)
            .map(|l| (l - 1) as f64 / 1e6)
            .collect()
    }
}

impl MasterCalls {
    /// Zero every counter: the timed phase starts.
    fn reset(&self) {
        for c in [
            &self.publish_calls,
            &self.publish_jobs,
            &self.publish_ns,
            &self.pull_ack_calls,
            &self.pull_ack_ns,
            &self.pull_ack_batch_calls,
            &self.pull_ack_batch_acks,
            &self.pull_ack_batch_ns,
            &self.other_ns,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }
}

fn add(counter: &AtomicU64, v: u64) {
    counter.fetch_add(v, Ordering::Relaxed);
}

/// Span names of the fleet's traced rep, by index.
const SPAN_NAMES: &[&str] = &[
    "transport.publish",
    "transport.pull_ack",
    "transport.pull_ack_batch",
    "transport.other",
    "worker.pull_dispatch",
    "worker.publish_ack",
];
const PUBLISH: usize = 0;
const PULL_ACK: usize = 1;
const PULL_ACK_BATCH: usize = 2;
const OTHER: usize = 3;
const PULL_DISPATCH: usize = 4;
const PUBLISH_ACK: usize = 5;

/// Span thread ids: 0 is the master's serve thread, worker threads number
/// themselves from 1 on first use.
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// `TcpMaster` behind the probe: the serve loop sees an ordinary transport.
#[derive(Clone)]
struct ProbedMaster {
    inner: TcpMaster,
    probe: Arc<MasterProbe>,
    spans: Option<Arc<SpanLog>>,
}

impl ProbedMaster {
    fn timed<R>(
        &self,
        span: usize,
        f: impl FnOnce() -> R,
        record: impl FnOnce(&MasterCalls, u64, &R),
    ) -> R {
        match (&self.probe.calls, &self.spans) {
            (Some(calls), Some(spans)) => {
                let t0 = Instant::now();
                let r = f();
                let end = Instant::now();
                record(calls, end.duration_since(t0).as_nanos() as u64, &r);
                spans.record(span, 0, None, t0, end);
                r
            }
            _ => f(),
        }
    }
}

impl Transport for ProbedMaster {
    type Submission = SubmissionMsg;
    type Dispatch = DispatchMsg;
    type Ack = AckMsg;
    type Lifecycle = LifecycleMsg;
    type Announce = WorkflowAnnounce;

    fn try_pull_submission(&self) -> Option<SubmissionMsg> {
        self.timed(OTHER, || self.inner.try_pull_submission(), |c, ns, _| add(&c.other_ns, ns))
    }

    fn pull_ack(&self, timeout: Duration) -> Option<AckMsg> {
        let ack = self.timed(
            PULL_ACK,
            || self.inner.pull_ack(timeout),
            |c, ns, _| {
                add(&c.pull_ack_calls, 1);
                add(&c.pull_ack_ns, ns);
            },
        );
        if let Some(a) = &ack {
            self.probe.settle(a, self.probe.now_ns());
        }
        ack
    }

    fn pull_ack_batch(&self, out: &mut Vec<AckMsg>, max: usize) -> usize {
        let before = out.len();
        let n = self.timed(
            PULL_ACK_BATCH,
            || self.inner.pull_ack_batch(out, max),
            |c, ns, &n| {
                add(&c.pull_ack_batch_calls, 1);
                add(&c.pull_ack_batch_acks, n as u64);
                add(&c.pull_ack_batch_ns, ns);
            },
        );
        if n > 0 {
            let now = self.probe.now_ns();
            for a in &out[before..] {
                self.probe.settle(a, now);
            }
        }
        n
    }

    fn try_pull_lifecycle(&self) -> Option<LifecycleMsg> {
        self.timed(OTHER, || self.inner.try_pull_lifecycle(), |c, ns, _| add(&c.other_ns, ns))
    }

    fn publish_dispatch(&self, shard: usize, dispatch: DispatchMsg) {
        self.probe.stamp(&dispatch, self.probe.now_ns());
        self.timed(
            PUBLISH,
            || self.inner.publish_dispatch(shard, dispatch),
            |c, ns, _| {
                add(&c.publish_calls, 1);
                add(&c.publish_jobs, 1);
                add(&c.publish_ns, ns);
            },
        )
    }

    fn publish_dispatch_batch(&self, shard: usize, batch: &mut Vec<DispatchMsg>) {
        let now = self.probe.now_ns();
        for d in batch.iter() {
            self.probe.stamp(d, now);
        }
        let jobs = batch.len() as u64;
        self.timed(
            PUBLISH,
            || self.inner.publish_dispatch_batch(shard, batch),
            |c, ns, _| {
                add(&c.publish_calls, 1);
                add(&c.publish_jobs, jobs);
                add(&c.publish_ns, ns);
            },
        )
    }

    fn announce(&self, announce: WorkflowAnnounce) {
        self.timed(OTHER, || self.inner.announce(announce), |c, ns, _| add(&c.other_ns, ns))
    }

    fn ack_closed(&self) -> bool {
        self.inner.ack_closed()
    }
}

/// Worker-side probe (traced run only): slot idle time before each
/// dispatch and the cost of publishing acks, pooled over all workers.
struct WorkerProbe {
    idle_ns: Vec<AtomicU64>,
    next_idle: AtomicUsize,
    publish_ack_calls: AtomicU64,
    publish_ack_ns: AtomicU64,
}

impl WorkerProbe {
    fn new(capacity: usize) -> Self {
        WorkerProbe {
            idle_ns: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            next_idle: AtomicUsize::new(0),
            publish_ack_calls: AtomicU64::new(0),
            publish_ack_ns: AtomicU64::new(0),
        }
    }

    fn idle_us(&self) -> Vec<f64> {
        let n = self.next_idle.load(Ordering::Relaxed).min(self.idle_ns.len());
        self.idle_ns[..n].iter().map(|v| v.load(Ordering::Relaxed) as f64 / 1e3).collect()
    }
}

struct ProbedWorkerLink {
    inner: TcpWorkerLink,
    probe: Arc<WorkerProbe>,
    spans: Arc<SpanLog>,
    jobs_per_workflow: u64,
}

impl ProbedWorkerLink {
    /// A span keyed by the job it serves, so one job's spans share an id.
    fn span(&self, name: usize, job: EnsembleJobId, start: Instant, end: Instant) {
        let key = u64::from(job.workflow.0) * self.jobs_per_workflow + u64::from(job.job.0);
        THREAD.with(|&t| self.spans.record(name, t, Some(key), start, end));
    }
}

impl WorkerTransport for ProbedWorkerLink {
    type Dispatch = DispatchMsg;
    type Ack = AckMsg;
    type Lifecycle = LifecycleMsg;

    fn pull_dispatch(&self, timeout: Duration) -> Option<DispatchMsg> {
        let t0 = Instant::now();
        let d = self.inner.pull_dispatch(timeout);
        if let Some(dispatch) = &d {
            let end = Instant::now();
            let i = self.probe.next_idle.fetch_add(1, Ordering::Relaxed);
            if let Some(slot) = self.probe.idle_ns.get(i) {
                slot.store(end.duration_since(t0).as_nanos() as u64, Ordering::Relaxed);
            }
            self.span(PULL_DISPATCH, dispatch.job, t0, end);
        }
        d
    }

    fn dispatch_closed(&self) -> bool {
        self.inner.dispatch_closed()
    }

    fn redeliver(&self, dispatch: DispatchMsg) {
        self.inner.redeliver(dispatch)
    }

    fn publish_ack(&self, ack: AckMsg) {
        let job = ack.job;
        let t0 = Instant::now();
        self.inner.publish_ack(ack);
        let end = Instant::now();
        add(&self.probe.publish_ack_ns, end.duration_since(t0).as_nanos() as u64);
        add(&self.probe.publish_ack_calls, 1);
        self.span(PUBLISH_ACK, job, t0, end);
    }

    fn publish_lifecycle(&self, msg: LifecycleMsg) {
        self.inner.publish_lifecycle(msg)
    }
}

/// `NoopRunner` that counts executions (traced run only).
struct CountingRunner {
    runs: AtomicU64,
}

impl JobRunner for CountingRunner {
    fn run(&self, workflow: &Workflow, job: JobId, ctx: &RunContext) -> JobOutcome {
        self.runs.fetch_add(1, Ordering::Relaxed);
        NoopRunner.run(workflow, job, ctx)
    }
}

/// What one rep measured.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mib: f64,
    latencies_ms: Vec<f64>,
    stats: EngineStats,
    problems: Vec<String>,
    traced: Option<TracedRep>,
}

struct TracedRep {
    spans: Arc<SpanLog>,
    probe: Arc<MasterProbe>,
    worker: Arc<WorkerProbe>,
    executions: u64,
    dispatch_batches: u64,
    threads: [(f64, u64); 5],
    allocs: alloc::AllocCount,
    journal_bytes: u64,
    journal_records: Vec<JournalRecord>,
}

struct Worker {
    link: TcpWorkerLink,
    handle: WorkerHandle,
}

fn wait_until(deadline: Instant, mut ready: impl FnMut() -> bool) -> bool {
    while !ready() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

/// A running master with its workers registered.
struct Fleet {
    master: TcpMaster,
    handle: MasterHandle,
    workers: Vec<Worker>,
    registry: Registry,
    probe: Arc<MasterProbe>,
    worker_probe: Arc<WorkerProbe>,
    runner: Arc<CountingRunner>,
    spans: Option<Arc<SpanLog>>,
    journal_path: PathBuf,
}

impl Fleet {
    /// Bind, spawn the master, connect the workers and wait until the
    /// master has registered them.
    fn start(jobs_per_wf: usize, traced: bool, knobs: &Knobs, dir: &Path) -> std::io::Result<Self> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)?;
        let journal_path = dir.join("master.wal");
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default())?;
        let addr = master.local_addr();
        let probe = Arc::new(MasterProbe::new(Instant::now(), jobs_per_wf, traced));
        let registry = Registry::new();
        let config = MasterConfig::builder()
            .expected_workflows(WORKFLOWS)
            .journal_path(&journal_path)
            .lease_secs(5.0)
            .dispatch_batch(knobs.dispatch_batch)
            .build();
        let spans = traced.then(|| Arc::new(SpanLog::new(SPAN_NAMES, "job")));
        let transport =
            ProbedMaster { inner: master.clone(), probe: Arc::clone(&probe), spans: spans.clone() };
        let handle = spawn_master_on(transport, registry.clone(), config);
        let worker_probe =
            Arc::new(WorkerProbe::new(if traced { 2 * jobs_per_wf * WORKFLOWS } else { 0 }));
        let runner = Arc::new(CountingRunner { runs: AtomicU64::new(0) });
        let mut workers = Vec::new();
        for id in 0..WORKERS {
            let worker_registry = Registry::new();
            let link = TcpWorkerLink::connect(
                addr,
                worker_registry.clone(),
                TcpWorkerOptions { worker_id: id, window: WINDOW, ..TcpWorkerOptions::default() },
            )?;
            let transport: DynWorkerTransport = match &spans {
                Some(spans) => Arc::new(ProbedWorkerLink {
                    inner: link.clone(),
                    probe: Arc::clone(&worker_probe),
                    spans: Arc::clone(spans),
                    jobs_per_workflow: jobs_per_wf as u64,
                }),
                None => Arc::new(link.clone()),
            };
            let job_runner: Arc<dyn JobRunner> = if traced {
                Arc::clone(&runner) as Arc<dyn JobRunner>
            } else {
                Arc::new(NoopRunner)
            };
            let config = WorkerConfig {
                worker_id: id,
                slots: SLOTS,
                heartbeat_interval: Some(Duration::from_secs(1)),
                ..WorkerConfig::default()
            };
            let handle = spawn_worker_on(transport, worker_registry, job_runner, config);
            workers.push(Worker { link, handle });
        }
        let fleet = Fleet {
            master,
            handle,
            workers,
            registry,
            probe,
            worker_probe,
            runner,
            spans,
            journal_path,
        };
        let registered = wait_until(Instant::now() + Duration::from_secs(10), || {
            fleet.master.worker_conns() == WORKERS as usize
                && fleet.handle.master_stats().workers_registered >= u64::from(WORKERS)
        });
        if !registered {
            fleet.stop(false);
            return Err(std::io::Error::other("workers did not register within 10 s"));
        }
        Ok(fleet)
    }

    /// Stop everything: join the master if it finished (else kill it),
    /// say Bye, stop and disconnect the workers.
    fn stop(self, finished: bool) -> EngineStats {
        let stats = if finished {
            self.handle.join()
        } else {
            self.handle.kill();
            EngineStats::default()
        };
        self.master.shutdown();
        for w in self.workers {
            wait_until(Instant::now() + Duration::from_secs(2), || w.link.master_said_bye());
            w.handle.stop();
            w.link.close();
        }
        stats
    }
}

/// Set up a fleet without running anything, for the set-up time alone.
fn setup_only(seed: u64, knobs: &Knobs, dir: &Path) -> std::io::Result<f64> {
    let t0 = Instant::now();
    let wf = MontageConfig::degree(6.0).with_seed(seed).build();
    let fleet = Fleet::start(wf.job_count(), false, knobs, dir)?;
    let setup_s = t0.elapsed().as_secs_f64();
    fleet.stop(false);
    Ok(setup_s)
}

/// One fleet rep: set up, run the ensemble, tear down, check.
fn rep(seed: u64, traced: bool, knobs: &Knobs, dir: &Path) -> std::io::Result<Rep> {
    let setup_start = Instant::now();
    let wf = MontageConfig::degree(6.0).with_seed(seed).build();
    let total = (wf.job_count() * WORKFLOWS) as u64;
    let fleet = Fleet::start(wf.job_count(), traced, knobs, dir)?;
    let setup_s = setup_start.elapsed().as_secs_f64();
    let (addr, handle, probe) = (fleet.master.local_addr(), &fleet.handle, &fleet.probe);
    let mut problems = Vec::new();

    // Timed phase: submission through the master's completion report.
    let _ = procfs::reset_peak_rss();
    let threads0 = procfs::threads();
    if let Some(calls) = &probe.calls {
        calls.reset();
    }
    alloc::enable(traced);
    let a0 = alloc::now();
    let cpu0 = procfs::process_cpu_secs();
    let t0 = Instant::now();
    for i in 0..WORKFLOWS {
        submit_over_tcp(addr, format!("montage-{i}"), &wf)?;
    }
    let mut completed = 0usize;
    let mut all_completed = false;
    // The traced run samples thread counters every 50 ms while it waits:
    // the master thread exits on completion, taking its counters with it.
    let mut seen = threads0.clone();
    let tick = if traced { Duration::from_millis(50) } else { REP_TIMEOUT };
    let deadline = t0 + REP_TIMEOUT;
    while let Some(left) = deadline.checked_duration_since(Instant::now()) {
        match handle.events.recv_timeout(left.min(tick)) {
            Err(RecvTimeoutError::Timeout) if traced => {
                procfs::merge_threads(&mut seen, procfs::threads());
            }
            Ok(MasterEvent::WorkflowCompleted { .. }) => completed += 1,
            Ok(MasterEvent::WorkflowAbandoned { workflow, .. }) => {
                problems.push(format!("workflow {} abandoned", workflow.0));
            }
            Ok(MasterEvent::AllCompleted { .. }) => {
                all_completed = true;
                break;
            }
            Ok(MasterEvent::AllSettled { .. }) | Err(_) => break,
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = procfs::process_cpu_secs() - cpu0;
    let allocs = alloc::now().since(a0);
    alloc::enable(false);
    let peak_rss_mib = procfs::peak_rss_mib();
    procfs::merge_threads(&mut seen, procfs::threads());
    let threads = procfs::thread_groups(&threads0, &seen);
    if !all_completed {
        problems.push(format!("master did not report completion ({completed} workflows done)"));
    }
    if completed != WORKFLOWS {
        problems.push(format!("{completed} of {WORKFLOWS} workflows completed"));
    }
    let dispatch_batches = handle.master_stats().dispatch_batches;

    let registry = fleet.registry.clone();
    let journal_path = fleet.journal_path.clone();
    let (worker_probe, runner, probe) =
        (Arc::clone(&fleet.worker_probe), Arc::clone(&fleet.runner), Arc::clone(&fleet.probe));
    let spans = fleet.spans.clone();
    let stats = fleet.stop(all_completed);

    if stats.jobs_completed != total {
        problems.push(format!("jobs_completed {} != {total}", stats.jobs_completed));
    }
    if stats.dead_lettered != 0 {
        problems.push(format!("{} jobs dead-lettered", stats.dead_lettered));
    }
    if stats.dispatches != stats.jobs_completed + stats.resubmissions + stats.dead_lettered {
        problems.push("dispatch conservation broken".to_string());
    }
    // The journal must rebuild an all-complete engine.
    let records = read_journal(&journal_path)?;
    match recover(&records, &registry, EngineConfig::default()) {
        Ok(r) => {
            let s = r.engine.stats();
            if !r.engine.all_complete() || s.jobs_completed != total || !r.redispatch.is_empty() {
                problems.push(format!(
                    "journal recovery: {} of {total} jobs complete, {} to redispatch",
                    s.jobs_completed,
                    r.redispatch.len()
                ));
            }
        }
        Err(e) => problems.push(format!("journal recovery failed: {e}")),
    }
    let journal_bytes = std::fs::metadata(&journal_path)?.len();
    let traced = spans.map(|spans| TracedRep {
        spans,
        probe: Arc::clone(&probe),
        worker: worker_probe,
        executions: runner.runs.load(Ordering::Relaxed),
        dispatch_batches,
        threads,
        allocs,
        journal_bytes,
        journal_records: records,
    });
    if let Some(t) = &traced {
        if t.executions < stats.jobs_completed {
            problems.push(format!(
                "{} executions for {} completions",
                t.executions, stats.jobs_completed
            ));
        }
    }
    Ok(Rep {
        setup_s,
        wall_s,
        cpu_s,
        peak_rss_mib,
        latencies_ms: probe.latencies_ms(),
        stats,
        problems,
        traced,
    })
}

/// Replay journal records through a fresh `Journal` with the master's
/// default per-record commit policy; returns ns per record.
fn journal_append_ns(records: &[JournalRecord], path: &Path) -> std::io::Result<f64> {
    let mut journal = Journal::create(path)?;
    let t0 = Instant::now();
    for rec in records {
        match *rec {
            JournalRecord::Submit { workflow, at, shard } => {
                journal.record_submit(WorkflowId(workflow), shard as usize, at)?
            }
            JournalRecord::Ack { ack, at } => journal.record_ack(&ack, at)?,
            JournalRecord::Scan { at } => journal.record_scan(at)?,
            JournalRecord::Worker { worker, generation, phase, at } => {
                journal.record_worker(worker, generation, phase, at)?
            }
        }
    }
    journal.commit()?;
    let ns = t0.elapsed().as_nanos() as f64;
    drop(journal);
    let _ = std::fs::remove_file(path);
    Ok(ns / records.len().max(1) as f64)
}

/// Fold one rep into the outcome's counts; returns its jobs/s.
fn account(out: &mut Outcome, r: &mut Rep) -> f64 {
    let expected = (MontageConfig::PAPER_6DEG_JOBS * WORKFLOWS) as u64;
    let s = &r.stats;
    let failed = expected.saturating_sub(s.jobs_completed)
        + s.dead_lettered
        + s.jobs_completed.saturating_sub(expected);
    out.rep(expected, failed, std::mem::take(&mut r.problems));
    r.stats.jobs_completed as f64 / r.wall_s
}

pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    knobs: &Knobs,
    work_dir: &Path,
    spans_path: &Path,
) -> Outcome {
    let dir: PathBuf = work_dir.join(format!("fleet-{}", std::process::id()));
    let mut out = Outcome::default();
    let mut jps = Vec::new();
    let mut traced_jps = Vec::new();
    let mut setup = Vec::new();
    let mut rss = f64::NAN;
    let mut cpu = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut last_traced = None;
    if !trace {
        for _ in 0..SETUP_ONLY {
            match setup_only(seed, knobs, &dir) {
                Ok(s) => setup.push(s),
                Err(e) => out.fail(format!("fleet set-up failed: {e}")),
            }
        }
    }
    let start = Instant::now();
    while jps.is_empty() || start.elapsed().as_secs_f64() < seconds {
        for traced in [false, true] {
            if traced && !trace {
                continue;
            }
            let mut r = match rep(seed, traced, knobs, &dir) {
                Ok(r) => r,
                Err(e) => {
                    out.fail(format!("fleet rep failed: {e}"));
                    let _ = std::fs::remove_dir_all(&dir);
                    return out;
                }
            };
            let rate = account(&mut out, &mut r);
            if traced {
                traced_jps.push(rate);
                last_traced = Some(r);
                continue;
            }
            jps.push(rate);
            if jps.len() == 1 {
                // Later reps start on a heap the first one already grew.
                rss = r.peak_rss_mib;
            }
            setup.push(r.setup_s);
            cpu.push(r.cpu_s * 1e6 / r.stats.jobs_completed.max(1) as f64);
            p50.push(percentile(&mut r.latencies_ms, 0.50));
            p99.push(percentile(&mut r.latencies_ms, 0.99));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("{} reps, jobs/s {:?}", jps.len(), jps);
    if !trace {
        out.put("jobs_per_s", median(&mut jps));
        out.put("setup_s", median(&mut setup));
        out.put("peak_rss_mib", rss);
        out.put("cpu_us_per_job", median(&mut cpu));
        out.put("dispatch_ack_p50_ms", median(&mut p50));
        out.put("dispatch_ack_p99_ms", median(&mut p99));
        return out;
    }
    let r = last_traced.expect("a traced rep ran");
    let t = r.traced.as_ref().expect("traced rep has a ledger");
    let jobs = r.stats.jobs_completed.max(1) as f64;
    let kjobs = jobs / 1e3;
    let m = t.probe.calls.as_ref().expect("traced rep has call timing");
    let get = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
    let wall_ns = r.wall_s * 1e9;
    let transport_ns =
        get(&m.publish_ns) + get(&m.pull_ack_ns) + get(&m.pull_ack_batch_ns) + get(&m.other_ns);
    out.put("transport.publish.calls_per_kjob", get(&m.publish_calls) / kjobs);
    out.put(
        "transport.publish.jobs_per_call",
        get(&m.publish_jobs) / get(&m.publish_calls).max(1.0),
    );
    out.put("transport.publish.ns_per_call", get(&m.publish_ns) / get(&m.publish_calls).max(1.0));
    out.put("transport.pull_ack.wait_share", get(&m.pull_ack_ns) / wall_ns);
    out.put(
        "transport.pull_ack_batch.acks_per_call",
        get(&m.pull_ack_batch_acks) / get(&m.pull_ack_batch_calls).max(1.0),
    );
    out.put("master.serve.busy_share", 1.0 - transport_ns / wall_ns);
    out.put("master.dispatch_batches_per_kjob", t.dispatch_batches as f64 / kjobs);
    let mut idle = t.worker.idle_us();
    out.put("worker.pull_dispatch.idle_us_p50", percentile(&mut idle, 0.50));
    out.put("worker.pull_dispatch.idle_us_p99", percentile(&mut idle, 0.99));
    out.put(
        "worker.publish_ack.ns_per_call",
        get(&t.worker.publish_ack_ns) / get(&t.worker.publish_ack_calls).max(1.0),
    );
    out.put("journal.bytes_per_job", t.journal_bytes as f64 / jobs);
    out.put("journal.records_per_job", t.journal_records.len() as f64 / jobs);
    let _ = std::fs::create_dir_all(&dir);
    match journal_append_ns(&t.journal_records, &dir.join("replay.wal")) {
        Ok(ns) => out.put("journal.append_ns_per_record", ns),
        Err(e) => out.fail(format!("journal replay failed: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);
    out.put_threads(&t.threads, r.cpu_s, jobs);
    out.put("alloc.allocs_per_job", t.allocs.allocs as f64 / jobs);
    out.put("alloc.bytes_per_job", t.allocs.bytes as f64 / jobs);
    out.put_overhead(median(&mut jps), median(&mut traced_jps));
    match t.spans.write_chrome(spans_path) {
        Ok(n) => eprintln!("{n} spans of the last traced rep in {}", spans_path.display()),
        Err(e) => out.fail(format!("writing spans to {}: {e}", spans_path.display())),
    }
    out
}
