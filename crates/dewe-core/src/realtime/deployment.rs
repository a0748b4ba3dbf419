//! One-call deployment of a complete DEWE v2 system.
//!
//! The master/worker/submission pieces compose manually (see the other
//! modules), but most users want the paper's standard topology: one master,
//! N workers with a slot count each, one shared runner. [`Deployment`]
//! bundles that, adds incremental submission (paper §V.A.2) as a method,
//! and tears everything down cleanly.
//!
//! ```
//! use dewe_core::realtime::{Deployment, NoopRunner};
//! use dewe_dag::WorkflowBuilder;
//! use std::sync::Arc;
//!
//! let mut b = WorkflowBuilder::new("two");
//! b.job("a", "t", 1.0).build();
//! b.job("b", "t", 1.0).build();
//! let wf = Arc::new(b.finish().unwrap());
//!
//! let deployment = Deployment::builder()
//!     .workers(2)
//!     .slots_per_worker(2)
//!     .expected_workflows(1)
//!     .start(Arc::new(NoopRunner));
//! deployment.submit("two", wf);
//! let stats = deployment.join();
//! assert_eq!(stats.jobs_completed, 2);
//! ```

use std::sync::Arc;
use std::time::Duration;

use dewe_dag::Workflow;

use super::bus::{MessageBus, Registry};
use super::master::{spawn_master, MasterConfig, MasterEvent, MasterHandle};
use super::runner::JobRunner;
use super::worker::{spawn_worker, WorkerConfig, WorkerHandle};
use crate::engine::EngineStats;

/// Builder for [`Deployment`].
pub struct DeploymentBuilder {
    workers: usize,
    slots_per_worker: usize,
    default_timeout_secs: f64,
    timeout_scan_interval: Duration,
    expected_workflows: Option<usize>,
}

impl Default for DeploymentBuilder {
    fn default() -> Self {
        Self {
            workers: 1,
            slots_per_worker: 4,
            default_timeout_secs: crate::engine::DEFAULT_TIMEOUT_SECS,
            timeout_scan_interval: Duration::from_millis(50),
            expected_workflows: None,
        }
    }
}

impl DeploymentBuilder {
    /// Number of worker daemons.
    pub fn workers(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.workers = n;
        self
    }

    /// Concurrent job slots per worker (the paper: one per vCPU).
    pub fn slots_per_worker(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.slots_per_worker = n;
        self
    }

    /// System-wide default job timeout.
    pub fn default_timeout_secs(mut self, secs: f64) -> Self {
        self.default_timeout_secs = secs;
        self
    }

    /// The deployment completes after this many workflows.
    pub fn expected_workflows(mut self, n: usize) -> Self {
        self.expected_workflows = Some(n);
        self
    }

    /// Start the daemons.
    pub fn start(self, runner: Arc<dyn JobRunner>) -> Deployment {
        let bus = MessageBus::new();
        let registry = Registry::new();
        let mut cfg = MasterConfig::builder()
            .default_timeout_secs(self.default_timeout_secs)
            .timeout_scan_interval(self.timeout_scan_interval);
        if let Some(n) = self.expected_workflows {
            cfg = cfg.expected_workflows(n);
        }
        let master = spawn_master(bus.clone(), registry.clone(), cfg.build());
        let workers = (0..self.workers)
            .map(|id| {
                spawn_worker(
                    bus.clone(),
                    registry.clone(),
                    Arc::clone(&runner),
                    WorkerConfig {
                        worker_id: id as u32,
                        slots: self.slots_per_worker,
                        ..WorkerConfig::default()
                    },
                )
            })
            .collect();
        Deployment { bus, registry, master, workers }
    }
}

/// A running DEWE v2 system: one master, N workers, a shared bus.
pub struct Deployment {
    bus: MessageBus,
    registry: Registry,
    master: MasterHandle,
    workers: Vec<WorkerHandle>,
}

impl Deployment {
    /// Start building a deployment.
    pub fn builder() -> DeploymentBuilder {
        DeploymentBuilder::default()
    }

    /// The message bus (for custom submission clients or extra workers).
    pub fn bus(&self) -> &MessageBus {
        &self.bus
    }

    /// The shared workflow registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Submit a workflow (paper §III.E).
    pub fn submit(&self, name: impl Into<String>, workflow: Arc<Workflow>) {
        super::submit(&self.bus, name, workflow);
    }

    /// Incremental submission (paper §V.A.2): submit workflows one after
    /// another at a fixed real-time interval, from a background thread.
    /// Returns immediately; the submissions happen on schedule.
    pub fn submit_with_interval(
        &self,
        workflows: Vec<(String, Arc<Workflow>)>,
        interval: Duration,
    ) -> std::thread::JoinHandle<()> {
        let bus = self.bus.clone();
        std::thread::Builder::new()
            .name("dewe-submitter".into())
            .spawn(move || {
                for (i, (name, wf)) in workflows.into_iter().enumerate() {
                    if i > 0 {
                        std::thread::sleep(interval);
                    }
                    super::submit(&bus, name, wf);
                }
            })
            .expect("spawn submitter thread")
    }

    /// Block until the next master progress event.
    pub fn next_event(&self, timeout: Duration) -> Option<MasterEvent> {
        self.master.events.recv_timeout(timeout).ok()
    }

    /// Wait for the expected workflows to complete and tear down,
    /// returning final engine statistics.
    ///
    /// Requires `expected_workflows` to have been set; otherwise the master
    /// only exits on bus shutdown.
    pub fn join(self) -> EngineStats {
        let stats = self.master.join();
        self.bus.shutdown();
        for w in self.workers {
            w.stop();
        }
        stats
    }

    /// Abort: shut the bus down without waiting for completion.
    pub fn abort(self) {
        self.bus.shutdown();
        for w in self.workers {
            w.stop();
        }
        // Master exits on closed ack topic.
        let _ = self.master.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::realtime::NoopRunner;
    use dewe_dag::{WorkflowBuilder, WorkflowId};

    fn tiny(n: usize) -> Arc<Workflow> {
        let mut b = WorkflowBuilder::new(format!("t{n}"));
        for i in 0..n {
            b.job(format!("j{i}"), "t", 1.0).build();
        }
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn deployment_runs_an_ensemble() {
        let d = Deployment::builder()
            .workers(2)
            .slots_per_worker(3)
            .expected_workflows(2)
            .start(Arc::new(NoopRunner));
        d.submit("a", tiny(5));
        d.submit("b", tiny(7));
        let stats = d.join();
        assert_eq!(stats.workflows_completed, 2);
        assert_eq!(stats.jobs_completed, 12);
    }

    #[test]
    fn interval_submission_orders_submissions() {
        let d = Deployment::builder().workers(1).expected_workflows(3).start(Arc::new(NoopRunner));
        let wfs = (1..=3).map(|n| (format!("w{n}"), tiny(n))).collect::<Vec<_>>();
        let submitter = d.submit_with_interval(wfs, Duration::from_millis(30));
        // Every submission completes. Completion order is up to the
        // scheduler (a workflow's jobs can finish after the next one's),
        // so it is checked as a set.
        let mut seen = std::collections::BTreeSet::new();
        while seen.len() < 3 {
            match d.next_event(Duration::from_secs(30)).expect("event") {
                MasterEvent::WorkflowCompleted { workflow, .. } => {
                    assert!(seen.insert(workflow.index()), "{workflow:?} completed twice");
                }
                MasterEvent::AllCompleted { .. } => break,
                other => panic!("unexpected event: {other:?}"),
            }
        }
        assert_eq!(seen, [0, 1, 2].into());
        submitter.join().unwrap();
        // Ids are assigned in submission order: id i is the (i+1)-th
        // workflow submitted.
        for (id, name) in ["t1", "t2", "t3"].into_iter().enumerate() {
            let wf = d.registry().get(WorkflowId(id as u32)).expect("registered");
            assert_eq!(wf.name(), name);
        }
        let stats = d.join();
        assert_eq!(stats.workflows_completed, 3);
    }

    #[test]
    fn abort_tears_down_mid_flight() {
        let d = Deployment::builder().workers(1).start(Arc::new(NoopRunner));
        d.submit("never-finishes-waiting", tiny(1));
        // Abort without expected_workflows: must not hang.
        d.abort();
    }
}
