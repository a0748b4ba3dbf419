//! The repository benchmark: three workloads, their end-to-end metrics
//! (untraced run) and a per-layer ledger (traced run). See README.md.
//!
//! ```text
//! perfbench --workload <paper_ensemble|fleet_tcp|faulty_sharedfs> --seed <n>
//!           --seconds <s> --trace <0|1> [--work-dir <dir>]
//!           [--timer <wheel|heap>] [--dispatch-batch <0|1>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod alloc;
mod fleet;
mod procfs;
mod sim;
mod spans;

use std::path::PathBuf;
use std::process::exit;

use dewe_core::TimerBackend;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// End-to-end metrics: name and unit. Every workload reports all of them.
const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("cpu_us_per_job", "us"),
    ("dispatch_ack_p50_ms", "ms"),
    ("dispatch_ack_p99_ms", "ms"),
];

/// Per-layer metrics of the traced run: name and unit. A layer a workload
/// does not exercise reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("engine.on_ack.ns_per_call", "ns"),
    ("engine.on_ack.calls_per_job", "count"),
    ("engine.submit_workflow.ms_per_workflow", "ms"),
    ("engine.check_timeouts.ns_per_call", "ns"),
    ("engine.check_timeouts.resubmits_per_call", "count"),
    ("engine.timer_cascades_per_job", "count"),
    ("engine.dispatches_per_job", "count"),
    ("engine.allocs_per_job", "count"),
    ("engine.alloc_bytes_per_job", "B"),
    ("exec.submit_job.ns_per_call", "ns"),
    ("exec.next.ns_per_event", "ns"),
    ("exec.next.events_per_job", "count"),
    ("exec.allocs_per_job", "count"),
    ("storage.cache_hit_rate", "ratio"),
    ("storage.disk_read_bytes_per_job", "B"),
    ("tracker.complete_ns_per_job", "ns"),
    ("transport.publish.calls_per_kjob", "count"),
    ("transport.publish.jobs_per_call", "count"),
    ("transport.publish.ns_per_call", "ns"),
    ("transport.pull_ack.wait_share", "ratio"),
    ("transport.pull_ack_batch.acks_per_call", "count"),
    ("master.serve.busy_share", "ratio"),
    ("master.dispatch_batches_per_kjob", "count"),
    ("worker.pull_dispatch.idle_us_p50", "us"),
    ("worker.pull_dispatch.idle_us_p99", "us"),
    ("worker.publish_ack.ns_per_call", "ns"),
    ("journal.bytes_per_job", "B"),
    ("journal.records_per_job", "count"),
    ("journal.append_ns_per_record", "ns"),
    ("threads.master.cpu_share", "ratio"),
    ("threads.master_conn.cpu_share", "ratio"),
    ("threads.worker_link.cpu_share", "ratio"),
    ("threads.worker_slot.cpu_share", "ratio"),
    ("threads.bench.cpu_share", "ratio"),
    ("threads.master.ctx_switches_per_job", "count"),
    ("threads.master_conn.ctx_switches_per_job", "count"),
    ("threads.worker_link.ctx_switches_per_job", "count"),
    ("threads.worker_slot.ctx_switches_per_job", "count"),
    ("threads.bench.ctx_switches_per_job", "count"),
    ("alloc.allocs_per_job", "count"),
    ("alloc.bytes_per_job", "B"),
    ("trace.untraced_jobs_per_s", "1/s"),
    ("trace.traced_jobs_per_s", "1/s"),
    ("trace.overhead_share", "ratio"),
];

/// Public configuration knobs a sensitivity run may flip.
#[derive(Debug, Clone, Copy)]
pub struct Knobs {
    pub timer: TimerBackend,
    pub dispatch_batch: bool,
}

/// One run's result: the checks and the metrics.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome { correct: true, attempted: 0, failed: 0, metrics: Vec::new() }
    }
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Account one rep of `jobs` jobs, `failed` of which the user did not
    /// get exactly once. A rep whose output checks found `problems` makes
    /// the run incorrect and counts all its jobs as failed.
    pub fn rep(&mut self, jobs: u64, failed: u64, problems: Vec<String>) {
        self.attempted += jobs;
        if problems.is_empty() {
            self.failed += failed;
            return;
        }
        self.failed += jobs;
        for p in problems {
            self.fail(p);
        }
    }

    /// A failed check outside any rep: the run is incorrect.
    pub fn fail(&mut self, problem: String) {
        eprintln!("check failed: {problem}");
        self.correct = false;
    }

    /// Tracing overhead: traced vs untraced jobs/s from the same run.
    pub fn put_overhead(&mut self, untraced: f64, traced: f64) {
        self.put("trace.untraced_jobs_per_s", untraced);
        self.put("trace.traced_jobs_per_s", traced);
        self.put("trace.overhead_share", 1.0 - traced / untraced);
    }

    /// Per-thread-group CPU share of `process_cpu` seconds, and context
    /// switches per job.
    pub fn put_threads(&mut self, groups: &[(f64, u64); 5], process_cpu: f64, jobs: f64) {
        const SHARE: [&str; 5] = [
            "threads.master.cpu_share",
            "threads.master_conn.cpu_share",
            "threads.worker_link.cpu_share",
            "threads.worker_slot.cpu_share",
            "threads.bench.cpu_share",
        ];
        const CTX: [&str; 5] = [
            "threads.master.ctx_switches_per_job",
            "threads.master_conn.ctx_switches_per_job",
            "threads.worker_link.ctx_switches_per_job",
            "threads.worker_slot.ctx_switches_per_job",
            "threads.bench.ctx_switches_per_job",
        ];
        for (i, &(cpu, ctx)) in groups.iter().enumerate() {
            self.put(SHARE[i], if process_cpu > 0.0 { cpu / process_cpu } else { 0.0 });
            self.put(CTX[i], ctx as f64 / jobs.max(1.0));
        }
    }
}

/// Median (sorts in place). NaN for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `q` in [0, 1] (sorts in place); for q = 0.5 on
/// an even count, the mean of the two middle values.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if q == 0.5 && n.is_multiple_of(2) {
        return (values[n / 2 - 1] + values[n / 2]) / 2.0;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    values[rank - 1]
}

/// splitmix64 finalizer, for deriving workload choices from the seed.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    knobs: Knobs,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut knobs = Knobs { timer: TimerBackend::Wheel, dispatch_batch: true };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv.get(i + 1).ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            "--timer" => {
                knobs.timer = match value.as_str() {
                    "wheel" => TimerBackend::Wheel,
                    "heap" => TimerBackend::Heap,
                    _ => return Err("--timer takes wheel or heap".into()),
                }
            }
            "--dispatch-batch" => knobs.dispatch_batch = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir,
        knobs,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(2);
        }
    };
    let (seed, secs, knobs) = (args.seed, args.seconds, &args.knobs);
    let spans = args.work_dir.join("spans").join(format!("{}-{seed}.json", args.workload));
    let outcome = match (args.workload.as_str(), args.trace) {
        ("paper_ensemble", false) => sim::run_untraced(sim::paper_ensemble, seed, secs, knobs),
        ("paper_ensemble", true) => sim::run_traced(sim::paper_ensemble, seed, secs, knobs, &spans),
        ("faulty_sharedfs", false) => sim::run_untraced(sim::faulty_sharedfs, seed, secs, knobs),
        ("faulty_sharedfs", true) => {
            sim::run_traced(sim::faulty_sharedfs, seed, secs, knobs, &spans)
        }
        ("fleet_tcp", trace) => fleet::run(seed, secs, trace, knobs, &args.work_dir, &spans),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other}");
            exit(2);
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut correct = outcome.correct && outcome.attempted > 0;
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match outcome.metrics.iter().find(|(n, _)| *n == name) {
            Some(&(_, v)) => v,
            // A layer this workload does not exercise.
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: end-to-end metric {name} missing");
                correct = false;
                f64::NAN
            }
        };
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not a number");
            correct = false;
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for (name, _) in &outcome.metrics {
        assert!(table.iter().any(|(n, _)| n == name), "metric {name} is not declared");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
}
