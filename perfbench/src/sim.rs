//! The two simulated workloads (`paper_ensemble`, `faulty_sharedfs`) and the
//! traced sim loop.
//!
//! The untraced run times `run_ensemble`, the production entry point. The
//! traced loop is this file's own copy of the sim event loop for a single
//! `EnsembleEngine`, built only from public API, which brackets every call
//! into the engine and into `ExecSim` with a timer and the allocation
//! counter. Every run checks that the copy reproduces `run_ensemble`'s
//! `SimReport` exactly, so the per-layer numbers describe the same program.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dewe_core::sim::{run_ensemble, NodeFault, SimReport, SimRunConfig, SubmissionPlan};
use dewe_core::{AckKind, AckMsg, Action, DispatchMsg, EngineConfig, EngineStats, EnsembleEngine};
use dewe_dag::{DependencyTracker, EnsembleJobId, FileId, JobId, Workflow, WorkflowId};
use dewe_montage::MontageConfig;
use dewe_mq::chaos::{self, ChaosConfig, ChaosDecider};
use dewe_simcloud::{
    ClusterConfig, ExecSim, JobProfile, NodeId, SharedFsKind, SimEvent, StorageConfig, C3_8XLARGE,
};

use crate::alloc;
use crate::procfs;
use crate::spans::SpanLog;
use crate::{median, mix, percentile, Knobs, Outcome};

/// A sim workload: the ensemble and the run configuration.
pub struct SimWorkload {
    pub workflows: Vec<Arc<Workflow>>,
    pub config: SimRunConfig,
    pub total_jobs: u64,
}

/// Montage 6.0° seeded by the workload seed: the seed changes per-job
/// runtimes, not the DAG shape.
fn montage_6deg(seed: u64) -> Arc<Workflow> {
    let wf = MontageConfig::degree(6.0).with_seed(seed).build();
    assert_eq!(wf.job_count(), MontageConfig::PAPER_6DEG_JOBS, "Montage 6.0° job count drifted");
    Arc::new(wf)
}

/// 200 × Montage 6.0° (1,717,200 jobs) on 40 × c3.8xlarge with local disks,
/// batch submission, one engine shard on one thread: the paper's §V.B
/// headline scale.
pub fn paper_ensemble(seed: u64, knobs: &Knobs) -> SimWorkload {
    let wf = montage_6deg(seed);
    let workflows: Vec<_> = (0..200).map(|_| Arc::clone(&wf)).collect();
    let cluster =
        ClusterConfig { instance: C3_8XLARGE, nodes: 40, storage: StorageConfig::LocalDisk };
    let mut config = SimRunConfig::new(cluster);
    config.shards = 1;
    config.threads = 1;
    config.timer_backend = knobs.timer;
    let total_jobs = (wf.job_count() * workflows.len()) as u64;
    SimWorkload { workflows, config, total_jobs }
}

/// 80 × Montage 6.0° (686,880 jobs) on 20 nodes over a distributed shared
/// file system, one workflow submitted every 60 s, 300 s job timeout,
/// 0.5% message drop and duplication, and four seeded spot revocations
/// that each come back.
///
/// The 80 workflows cycle through ten Montage instances seeded from the
/// workload seed. With a single instance the dispatch → ack tail flips
/// between two levels depending on that one instance's runtime draw;
/// ten instances average it out for ~45 MiB more memory.
pub fn faulty_sharedfs(seed: u64, knobs: &Knobs) -> SimWorkload {
    const NODES: usize = 20;
    const INSTANCES: u64 = 10;
    let instances: Vec<_> = (0..INSTANCES).map(|i| montage_6deg(mix(seed ^ i))).collect();
    let workflows: Vec<_> = (0..80).map(|i| Arc::clone(&instances[i % instances.len()])).collect();
    let cluster = ClusterConfig {
        instance: C3_8XLARGE,
        nodes: NODES,
        storage: StorageConfig::Shared(SharedFsKind::DistFs),
    };
    let mut config = SimRunConfig::new(cluster);
    config.submission = SubmissionPlan::Interval(60.0);
    config.default_timeout_secs = 300.0;
    config.chaos = Some(ChaosConfig::drop_dup(seed, 0.005, 0.005));
    config.timer_backend = knobs.timer;
    // Four distinct seeded nodes, revoked in turn across the run (the
    // ensemble's simulated makespan is ~6,200 s), each back 5 minutes
    // later. The times are fixed so the seed changes which nodes fail, not
    // how much work is lost.
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut draw = seed;
    while nodes.len() < 4 {
        draw = mix(draw);
        let node = (draw % NODES as u64) as NodeId;
        if !nodes.contains(&node) {
            nodes.push(node);
        }
    }
    config.faults = nodes
        .iter()
        .enumerate()
        .map(|(i, &node)| {
            let kill_at_secs = 900.0 + 1200.0 * i as f64;
            NodeFault { node, kill_at_secs, restart_at_secs: Some(kill_at_secs + 300.0) }
        })
        .collect();
    let total_jobs = workflows.iter().map(|w| w.job_count() as u64).sum();
    SimWorkload { workflows, config, total_jobs }
}

/// Time and allocations spent inside one layer's calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCost {
    pub calls: u64,
    pub ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl LayerCost {
    fn ns_per_call(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }
}

/// An open bracket around one call into a layer.
struct Bracket {
    t0: Instant,
    a0: alloc::AllocCount,
}

impl Bracket {
    #[inline]
    fn open() -> Self {
        Bracket { a0: alloc::now(), t0: Instant::now() }
    }

    /// Close the bracket: add to the layer's totals and record a span
    /// caused by span `parent` (0 = none). Returns the span's id.
    #[inline]
    fn close(self, into: &mut LayerCost, spans: &SpanLog, name: usize, parent: u64) -> u64 {
        let end = Instant::now();
        into.ns += end.duration_since(self.t0).as_nanos() as u64;
        let a = alloc::now().since(self.a0);
        into.calls += 1;
        into.allocs += a.allocs;
        into.alloc_bytes += a.bytes;
        spans.record(name, 0, (parent > 0).then_some(parent), self.t0, end)
    }
}

/// Span names of the traced loop, by index.
pub const SPAN_NAMES: &[&str] = &[
    "exec.next",
    "exec.submit_job",
    "exec.other",
    "engine.on_ack",
    "engine.submit_workflow",
    "engine.check_timeouts",
];
const EXEC_NEXT: usize = 0;
const EXEC_SUBMIT: usize = 1;
const EXEC_OTHER: usize = 2;
const ON_ACK: usize = 3;
const SUBMIT_WORKFLOW: usize = 4;
const CHECK_TIMEOUTS: usize = 5;

/// What the traced loop saw, beyond the `SimReport` fields.
#[derive(Default)]
pub struct Ledger {
    pub on_ack: LayerCost,
    pub submit_workflow: LayerCost,
    pub check_timeouts: LayerCost,
    pub check_timeouts_resubmits: u64,
    pub exec_submit: LayerCost,
    pub exec_next: LayerCost,
    /// Other `ExecSim` calls (wakes, kills): counted in exec allocations.
    pub exec_other: LayerCost,
    /// Accepted completions in order, for the tracker replay.
    pub completions: Vec<EnsembleJobId>,
    /// Simulated dispatch → accepted-completion latency per job, in ms.
    pub latency_ms: Vec<f64>,
    pub disk_read_bytes: f64,
}

/// The `SimReport` fields the traced loop must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportKey {
    pub makespan_secs: f64,
    pub workflow_makespans: Vec<f64>,
    pub completed: bool,
    pub total_cpu_core_secs: f64,
    pub total_bytes_read: f64,
    pub total_bytes_written: f64,
    pub cache_hit_rate: f64,
    pub engine: EngineStats,
    pub cost_usd: f64,
    pub wheel_cascades: u64,
}

impl ReportKey {
    pub fn of(r: &SimReport) -> Self {
        ReportKey {
            makespan_secs: r.makespan_secs,
            workflow_makespans: r.workflow_makespans.clone(),
            completed: r.completed,
            total_cpu_core_secs: r.total_cpu_core_secs,
            total_bytes_read: r.total_bytes_read,
            total_bytes_written: r.total_bytes_written,
            cache_hit_rate: r.cache_hit_rate,
            engine: r.engine,
            cost_usd: r.cost_usd,
            wheel_cascades: r.wheel_cascades,
        }
    }
}

// Wake-token tags, as the production event loop lays them out.
const TAG_SUBMIT: u64 = 1 << 56;
const TAG_SCAN: u64 = 2 << 56;
const TAG_KILL: u64 = 4 << 56;
const TAG_RESTART: u64 = 5 << 56;
const TAG_MASK: u64 = 0xff << 56;

fn file_key(workflow: WorkflowId, file: FileId) -> u64 {
    ((workflow.0 as u64) << 32) | file.0 as u64
}

/// FIFO of idle worker slots with per-node epochs (stale entries of killed
/// nodes are skipped).
struct Slots {
    idle: VecDeque<(NodeId, u32)>,
    epoch: Vec<u32>,
    active: Vec<bool>,
    per_node: u32,
}

impl Slots {
    fn new(nodes: usize, per_node: u32) -> Self {
        let mut idle = VecDeque::with_capacity(nodes * per_node as usize);
        for _ in 0..per_node {
            for node in 0..nodes {
                idle.push_back((node, 0));
            }
        }
        Slots { idle, epoch: vec![0; nodes], active: vec![true; nodes], per_node }
    }

    fn pop_idle(&mut self) -> Option<NodeId> {
        while let Some((node, epoch)) = self.idle.pop_front() {
            if self.active[node] && self.epoch[node] == epoch {
                return Some(node);
            }
        }
        None
    }

    fn release(&mut self, node: NodeId) {
        if self.active[node] {
            self.idle.push_back((node, self.epoch[node]));
        }
    }

    fn kill(&mut self, node: NodeId) {
        self.active[node] = false;
        self.epoch[node] = self.epoch[node].wrapping_add(1);
    }

    fn restart(&mut self, node: NodeId) {
        if !self.active[node] {
            self.active[node] = true;
            for _ in 0..self.per_node {
                self.idle.push_back((node, self.epoch[node]));
            }
        }
    }
}

/// The engine configuration `run_ensemble` derives: with message drop in
/// play the checkout timeout defaults to the job timeout.
fn engine_config(config: &SimRunConfig) -> EngineConfig {
    let drops = config.chaos.as_ref().is_some_and(|c| c.drop_prob > 0.0);
    EngineConfig {
        default_timeout_secs: config.default_timeout_secs,
        checkout_timeout_secs: config
            .checkout_timeout_secs
            .or_else(|| drops.then_some(config.default_timeout_secs)),
        retry: config.retry,
        timer_backend: config.timer_backend,
    }
}

struct TracedLoop<'a> {
    engine: EnsembleEngine,
    exec: ExecSim,
    slots: Slots,
    queue: VecDeque<DispatchMsg>,
    running: Vec<Option<DispatchMsg>>,
    job_base: Vec<u64>,
    next_base: u64,
    dispatched_at: Vec<f64>,
    profile: JobProfile,
    actions: Vec<Action>,
    overhead_secs: f64,
    workflow_makespans: Vec<f64>,
    settled: usize,
    abandoned: usize,
    all_done_at: Option<f64>,
    chaos: Option<ChaosDecider>,
    config: &'a SimRunConfig,
    ledger: Ledger,
    spans: &'a SpanLog,
    /// Span of the `ExecSim` event being handled: the parent of the
    /// engine and exec calls it causes.
    event: u64,
}

impl TracedLoop<'_> {
    fn token(&self, job: EnsembleJobId) -> u64 {
        self.job_base[job.workflow.index()] + job.job.0 as u64
    }

    fn now(&self) -> f64 {
        self.exec.now().as_secs_f64()
    }

    fn chaos_copies(&self, stream: u64, job: EnsembleJobId, attempt: u32, kind: u64) -> usize {
        let Some(ch) = &self.chaos else { return 1 };
        let key = chaos::message_key(
            job.workflow.index() as u64,
            job.job.index() as u64,
            (u64::from(attempt) << 2) | kind,
        );
        if ch.drops(stream, key) {
            0
        } else if ch.duplicates(stream, key) {
            2
        } else {
            1
        }
    }

    fn on_ack(&mut self, ack: AckMsg, now: f64) {
        let b = Bracket::open();
        self.engine.on_ack(ack, now, &mut self.actions);
        b.close(&mut self.ledger.on_ack, self.spans, ON_ACK, self.event);
    }

    fn handle_actions(&mut self, now: f64) {
        let mut actions = std::mem::take(&mut self.actions);
        for action in actions.drain(..) {
            match action {
                Action::Dispatch(d) => {
                    let t = self.token(d.job) as usize;
                    self.dispatched_at[t] = now;
                    for _ in 0..self.chaos_copies(chaos::streams::DISPATCH, d.job, d.attempt, 2) {
                        self.queue.push_back(d);
                    }
                }
                Action::WorkflowCompleted { workflow, makespan_secs } => {
                    self.workflow_makespans[workflow.index()] = makespan_secs;
                    self.settle(now);
                }
                Action::WorkflowAbandoned { .. } => {
                    self.abandoned += 1;
                    self.settle(now);
                }
                Action::JobDeadLettered { .. } | Action::AllCompleted | Action::AllSettled => {}
            }
        }
        self.actions = actions;
    }

    fn settle(&mut self, now: f64) {
        self.settled += 1;
        if self.settled == self.workflow_makespans.len() {
            self.all_done_at = Some(now);
        }
    }

    fn try_assign(&mut self) {
        while !self.queue.is_empty() {
            let Some(node) = self.slots.pop_idle() else { break };
            let d = self.queue.pop_front().expect("queue non-empty");
            let now = self.now();
            for _ in 0..self.chaos_copies(chaos::streams::ACK, d.job, d.attempt, 0) {
                let ack = AckMsg::new(d.job, node as u32, AckKind::Running, d.attempt);
                self.on_ack(ack, now);
            }
            let workflow = self.engine.workflow(d.job.workflow);
            let spec = workflow.job(d.job.job);
            self.profile.reads.clear();
            self.profile.reads.extend(
                spec.inputs
                    .iter()
                    .map(|&f| (file_key(d.job.workflow, f), workflow.file(f).size_bytes as f64)),
            );
            self.profile.cpu_seconds = spec.cpu_seconds + self.overhead_secs;
            self.profile.cores = spec.cores;
            self.profile.writes.clear();
            self.profile.writes.extend(
                spec.outputs
                    .iter()
                    .map(|&f| (file_key(d.job.workflow, f), workflow.file(f).size_bytes as f64)),
            );
            let token = self.job_base[d.job.workflow.index()] + d.job.job.0 as u64;
            self.running[token as usize] = Some(d);
            let b = Bracket::open();
            self.exec.submit_job(token, node, &self.profile);
            b.close(&mut self.ledger.exec_submit, self.spans, EXEC_SUBMIT, self.event);
        }
    }

    fn on_finished(&mut self, token: u64, node: NodeId) {
        let Some(d) = self.running[token as usize].take() else {
            self.slots.release(node);
            self.try_assign();
            return;
        };
        self.slots.release(node);
        let now = self.now();
        for _ in 0..self.chaos_copies(chaos::streams::ACK, d.job, d.attempt, 1) {
            let before = self.engine.stats().jobs_completed;
            self.on_ack(AckMsg::new(d.job, node as u32, AckKind::Completed, d.attempt), now);
            if self.engine.stats().jobs_completed > before {
                self.ledger.completions.push(d.job);
                let sent = self.dispatched_at[token as usize];
                self.ledger.latency_ms.push((now - sent).max(0.0) * 1e3);
            }
        }
        self.handle_actions(now);
        self.try_assign();
    }

    fn on_wake(&mut self, token: u64, workflows: &[Arc<Workflow>]) {
        let now = self.now();
        let idx = (token & !TAG_MASK) as usize;
        match token & TAG_MASK {
            TAG_SUBMIT => {
                let workflow = Arc::clone(&workflows[idx]);
                let jobs = workflow.job_count() as u64;
                let b = Bracket::open();
                let id = self.engine.submit_workflow(workflow, now, &mut self.actions);
                b.close(&mut self.ledger.submit_workflow, self.spans, SUBMIT_WORKFLOW, self.event);
                assert_eq!(id.index(), self.job_base.len(), "engine ids are sequential");
                self.job_base.push(self.next_base);
                self.next_base += jobs;
                self.handle_actions(now);
                self.try_assign();
            }
            TAG_SCAN => {
                let before = self.engine.stats().resubmissions;
                let b = Bracket::open();
                self.engine.check_timeouts(now, &mut self.actions);
                b.close(&mut self.ledger.check_timeouts, self.spans, CHECK_TIMEOUTS, self.event);
                self.ledger.check_timeouts_resubmits += self.engine.stats().resubmissions - before;
                self.handle_actions(now);
                self.try_assign();
                if self.all_done_at.is_none() {
                    let b = Bracket::open();
                    self.exec.schedule_wake(self.config.timeout_scan_secs, TAG_SCAN);
                    b.close(&mut self.ledger.exec_other, self.spans, EXEC_OTHER, self.event);
                }
            }
            TAG_KILL => {
                let node = self.config.faults[idx].node;
                let b = Bracket::open();
                let killed = self.exec.kill_jobs_on(node);
                b.close(&mut self.ledger.exec_other, self.spans, EXEC_OTHER, self.event);
                for t in killed {
                    self.running[t as usize] = None;
                }
                self.slots.kill(node);
            }
            TAG_RESTART => {
                self.slots.restart(self.config.faults[idx].node);
                self.try_assign();
            }
            _ => unreachable!("unknown wake tag"),
        }
    }
}

/// Run the ensemble through the traced copy of the sim event loop.
/// Supports the subset of `SimRunConfig` the workloads use: one engine
/// shard, faults with restarts, chaos, no recorders.
pub fn traced_loop(w: &SimWorkload, spans: &SpanLog) -> (ReportKey, Ledger) {
    let config = &w.config;
    assert!(config.shards == 1 && config.failure_script.is_empty());
    assert!(!config.sample && !config.record_gantt && !config.record_trace);
    assert!(config.node_speed_factors.is_none() && config.horizon_secs.is_none());
    let total = w.total_jobs as usize;
    let nodes = config.cluster.nodes;
    let per_node = config.slots_per_node.unwrap_or(config.cluster.instance.vcpus);
    let mut d = TracedLoop {
        engine: engine_config(config).build(),
        exec: ExecSim::new(config.cluster),
        slots: Slots::new(nodes, per_node),
        queue: VecDeque::new(),
        running: vec![None; total],
        job_base: Vec::with_capacity(w.workflows.len()),
        next_base: 0,
        dispatched_at: vec![0.0; total],
        profile: JobProfile { reads: Vec::new(), cpu_seconds: 0.0, cores: 1, writes: Vec::new() },
        actions: Vec::new(),
        overhead_secs: config.per_job_overhead_secs,
        workflow_makespans: vec![0.0; w.workflows.len()],
        settled: 0,
        abandoned: 0,
        all_done_at: None,
        chaos: config.chaos.map(ChaosDecider::new),
        config,
        ledger: Ledger {
            completions: Vec::with_capacity(total),
            latency_ms: Vec::with_capacity(total),
            ..Ledger::default()
        },
        spans,
        event: 0,
    };
    for i in 0..w.workflows.len() {
        let at = match config.submission {
            SubmissionPlan::Batch => 0.0,
            SubmissionPlan::Interval(secs) => secs * i as f64,
        };
        d.exec.schedule_wake(at, TAG_SUBMIT | i as u64);
    }
    d.exec.schedule_wake(config.timeout_scan_secs, TAG_SCAN);
    for (i, fault) in config.faults.iter().enumerate() {
        d.exec.schedule_wake(fault.kill_at_secs, TAG_KILL | i as u64);
        if let Some(at) = fault.restart_at_secs {
            d.exec.schedule_wake(at, TAG_RESTART | i as u64);
        }
    }
    loop {
        let b = Bracket::open();
        let event = d.exec.next();
        d.event = b.close(&mut d.ledger.exec_next, d.spans, EXEC_NEXT, 0);
        match event {
            Some(SimEvent::JobFinished { token, node, .. }) => d.on_finished(token, node),
            Some(SimEvent::Wake { token }) => d.on_wake(token, &w.workflows),
            None => break,
        }
        if d.all_done_at.is_some() {
            break;
        }
    }
    let makespan = d.all_done_at.unwrap_or_else(|| d.now());
    let (mut cpu, mut rd, mut wr) = (0.0, 0.0, 0.0);
    for n in 0..nodes {
        let c = d.exec.node_counters(n);
        cpu += c.cpu_busy_core_secs;
        rd += c.bytes_read;
        wr += c.bytes_written;
    }
    d.ledger.disk_read_bytes = rd;
    let key = ReportKey {
        makespan_secs: makespan,
        workflow_makespans: d.workflow_makespans,
        completed: d.all_done_at.is_some() && d.abandoned == 0,
        total_cpu_core_secs: cpu,
        total_bytes_read: rd,
        total_bytes_written: wr,
        cache_hit_rate: d.exec.storage().cache_hit_rate(),
        engine: d.engine.stats(),
        cost_usd: d.exec.cluster().cost_model().cost(nodes, makespan),
        wheel_cascades: d.engine.timer_cascades(),
    };
    (key, d.ledger)
}

/// Output checks on one report: completion, job count, dispatch
/// conservation. Returns the problems found.
fn check_report(key: &ReportKey, total_jobs: u64) -> Vec<String> {
    let mut problems = Vec::new();
    let s = &key.engine;
    if !key.completed {
        problems.push("ensemble did not complete".to_string());
    }
    if s.jobs_completed != total_jobs {
        problems.push(format!("jobs_completed {} != {total_jobs}", s.jobs_completed));
    }
    if s.dead_lettered != 0 {
        problems.push(format!("{} jobs dead-lettered", s.dead_lettered));
    }
    let accounted = s.jobs_completed + s.resubmissions + s.dead_lettered;
    if s.dispatches != accounted {
        problems.push(format!(
            "dispatch conservation: {} dispatched, {accounted} accounted",
            s.dispatches
        ));
    }
    problems
}

/// Jobs the user did not get exactly once: not completed, dead-lettered,
/// or completed more often than submitted.
fn failed_jobs(s: &EngineStats, total_jobs: u64) -> u64 {
    total_jobs.saturating_sub(s.jobs_completed)
        + s.dead_lettered
        + s.jobs_completed.saturating_sub(total_jobs)
}

/// Replay an accepted-completion order through fresh dependency trackers,
/// timing the tracker work alone. Returns ns per completion.
fn tracker_replay(workflows: &[Arc<Workflow>], completions: &[EnsembleJobId]) -> f64 {
    let mut trackers: Vec<DependencyTracker> =
        workflows.iter().map(|w| DependencyTracker::new(w)).collect();
    let mut ready: Vec<JobId> = Vec::new();
    for t in &mut trackers {
        t.drain_ready_into(&mut ready);
    }
    ready.clear();
    let t0 = Instant::now();
    for job in completions {
        let i = job.workflow.index();
        let tracker = &mut trackers[i];
        tracker.mark_running(job.job);
        tracker.complete(&workflows[i], job.job);
        tracker.drain_ready_into(&mut ready);
        ready.clear();
    }
    let ns = t0.elapsed().as_nanos() as f64;
    assert!(trackers.iter().all(DependencyTracker::is_complete), "replay left jobs pending");
    ns / completions.len().max(1) as f64
}

/// Time set-ups of the workload (workflow generation plus ensemble build)
/// until at least seven have run and two seconds have passed; return the
/// median seconds and the last workload built.
fn setup(build: fn(u64, &Knobs) -> SimWorkload, seed: u64, knobs: &Knobs) -> (f64, SimWorkload) {
    let mut times = Vec::new();
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let w = build(seed, knobs);
        times.push(t0.elapsed().as_secs_f64());
        if times.len() >= 7 && start.elapsed().as_secs_f64() >= 2.0 {
            return (median(&mut times), w);
        }
    }
}

/// The untraced run: time `run_ensemble` reps for `seconds`, then run the
/// traced loop once (untimed) to check it against the production report
/// and to read the simulated dispatch → ack latency.
pub fn run_untraced(
    build: fn(u64, &Knobs) -> SimWorkload,
    seed: u64,
    seconds: f64,
    knobs: &Knobs,
) -> Outcome {
    let (setup_s, w) = setup(build, seed, knobs);
    let mut out = Outcome::default();
    let mut jps = Vec::new();
    let mut rss = f64::NAN;
    let mut cpu_per_job = Vec::new();
    let mut first: Option<ReportKey> = None;
    let start = Instant::now();
    while jps.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let _ = procfs::reset_peak_rss();
        let cpu0 = procfs::process_cpu_secs();
        let t0 = Instant::now();
        let report = run_ensemble(&w.workflows, &w.config);
        let wall = t0.elapsed().as_secs_f64();
        let cpu = procfs::process_cpu_secs() - cpu0;
        if jps.is_empty() {
            // Later reps start on a heap the first one already grew.
            rss = procfs::peak_rss_mib();
        }
        let key = ReportKey::of(&report);
        drop(report);
        let done = key.engine.jobs_completed;
        jps.push(done as f64 / wall);
        cpu_per_job.push(cpu * 1e6 / done.max(1) as f64);
        let mut problems = check_report(&key, w.total_jobs);
        match &first {
            None => first = Some(key.clone()),
            Some(f) if *f != key => problems.push("report differs between reps".to_string()),
            Some(_) => {}
        }
        out.rep(w.total_jobs, failed_jobs(&key.engine, w.total_jobs), problems);
    }
    let reference = first.expect("at least one rep");
    let (key, mut ledger) = traced_loop(&w, &SpanLog::new(SPAN_NAMES, "parent"));
    if key != reference {
        out.fail("traced loop's report differs from run_ensemble's".into());
    }
    eprintln!("jobs/s per rep: {jps:.0?}");
    eprintln!(
        "{} reps; makespan {:.1}s, {} dispatches, {} resubmissions, {} cascades, cache hit {:.3}",
        jps.len(),
        reference.makespan_secs,
        reference.engine.dispatches,
        reference.engine.resubmissions,
        reference.wheel_cascades,
        reference.cache_hit_rate
    );
    out.put("jobs_per_s", median(&mut jps));
    out.put("setup_s", setup_s);
    out.put("peak_rss_mib", rss);
    out.put("cpu_us_per_job", median(&mut cpu_per_job));
    out.put("dispatch_ack_p50_ms", percentile(&mut ledger.latency_ms, 0.50));
    out.put("dispatch_ack_p99_ms", percentile(&mut ledger.latency_ms, 0.99));
    out
}

/// The traced run: alternate an untraced `run_ensemble` rep (counting
/// allocations) with a traced-loop rep, check the two reports are
/// identical, and derive the per-layer ledger.
pub fn run_traced(
    build: fn(u64, &Knobs) -> SimWorkload,
    seed: u64,
    seconds: f64,
    knobs: &Knobs,
    spans_path: &Path,
) -> Outcome {
    let w = build(seed, knobs);
    let mut spans = SpanLog::new(SPAN_NAMES, "parent");
    let mut out = Outcome::default();
    let mut plain_jps = Vec::new();
    let mut traced_jps = Vec::new();
    let mut alloc_per_job = Vec::new();
    let mut last = None;
    let threads0 = procfs::threads();
    let cpu0 = procfs::process_cpu_secs();
    let start = Instant::now();
    while plain_jps.is_empty() || start.elapsed().as_secs_f64() < seconds {
        alloc::enable(true);
        let a0 = alloc::now();
        let t0 = Instant::now();
        let report = run_ensemble(&w.workflows, &w.config);
        let wall = t0.elapsed().as_secs_f64();
        let a = alloc::now().since(a0);
        let reference = ReportKey::of(&report);
        drop(report);
        let done = reference.engine.jobs_completed.max(1);
        plain_jps.push(reference.engine.jobs_completed as f64 / wall);
        alloc_per_job.push((a.allocs as f64 / done as f64, a.bytes as f64 / done as f64));

        spans.clear();
        let t0 = Instant::now();
        let (key, ledger) = traced_loop(&w, &spans);
        let wall = t0.elapsed().as_secs_f64();
        alloc::enable(false);
        traced_jps.push(key.engine.jobs_completed as f64 / wall);
        let mut problems = check_report(&key, w.total_jobs);
        if key != reference {
            problems.push("traced loop's report differs from run_ensemble's".into());
        }
        out.rep(w.total_jobs, failed_jobs(&key.engine, w.total_jobs), problems);
        last = Some((key, ledger));
    }
    let groups = procfs::thread_groups(&threads0, &procfs::threads());
    let cpu = procfs::process_cpu_secs() - cpu0;
    let (key, ledger) = last.expect("at least one rep");
    let jobs = key.engine.jobs_completed.max(1) as f64;
    out.put_threads(&groups, cpu, jobs * 2.0 * plain_jps.len() as f64);
    let tracker_ns = tracker_replay(&w.workflows, &ledger.completions);
    let l = &ledger;
    let engine_allocs = l.on_ack.allocs + l.submit_workflow.allocs + l.check_timeouts.allocs;
    let engine_bytes =
        l.on_ack.alloc_bytes + l.submit_workflow.alloc_bytes + l.check_timeouts.alloc_bytes;
    let exec_allocs = l.exec_submit.allocs + l.exec_next.allocs + l.exec_other.allocs;
    out.put("engine.on_ack.ns_per_call", l.on_ack.ns_per_call());
    out.put("engine.on_ack.calls_per_job", l.on_ack.calls as f64 / jobs);
    out.put("engine.submit_workflow.ms_per_workflow", l.submit_workflow.ns_per_call() / 1e6);
    out.put("engine.check_timeouts.ns_per_call", l.check_timeouts.ns_per_call());
    out.put(
        "engine.check_timeouts.resubmits_per_call",
        l.check_timeouts_resubmits as f64 / l.check_timeouts.calls.max(1) as f64,
    );
    out.put("engine.timer_cascades_per_job", key.wheel_cascades as f64 / jobs);
    out.put("engine.dispatches_per_job", key.engine.dispatches as f64 / jobs);
    out.put("engine.allocs_per_job", engine_allocs as f64 / jobs);
    out.put("engine.alloc_bytes_per_job", engine_bytes as f64 / jobs);
    out.put("exec.submit_job.ns_per_call", l.exec_submit.ns_per_call());
    out.put("exec.next.ns_per_event", l.exec_next.ns_per_call());
    out.put("exec.next.events_per_job", l.exec_next.calls as f64 / jobs);
    out.put("exec.allocs_per_job", exec_allocs as f64 / jobs);
    out.put("storage.cache_hit_rate", key.cache_hit_rate);
    out.put("storage.disk_read_bytes_per_job", l.disk_read_bytes / jobs);
    out.put("tracker.complete_ns_per_job", tracker_ns);
    let mut allocs: Vec<f64> = alloc_per_job.iter().map(|a| a.0).collect();
    let mut bytes: Vec<f64> = alloc_per_job.iter().map(|a| a.1).collect();
    out.put("alloc.allocs_per_job", median(&mut allocs));
    out.put("alloc.bytes_per_job", median(&mut bytes));
    out.put_overhead(median(&mut plain_jps), median(&mut traced_jps));
    eprintln!(
        "traced: makespan {:.1}s, {} dispatches, {} resubmissions",
        key.makespan_secs, key.engine.dispatches, key.engine.resubmissions
    );
    match spans.write_chrome(spans_path) {
        Ok(n) => eprintln!("{n} spans of the last traced rep in {}", spans_path.display()),
        Err(e) => out.fail(format!("writing spans to {}: {e}", spans_path.display())),
    }
    out
}
