//! Criterion microbenchmarks for the reproduction's hot paths.
//!
//! The table/figure harness is the `repro` binary; these benches measure
//! the library itself: DAG construction and traversal, broker throughput,
//! the fair-share resource, and end-to-end simulated execution throughput
//! (jobs simulated per second — what bounds how fast the 1.7-million-job
//! ensemble reproduces).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::sync::Arc;

use dewe_baseline::{run_ensemble as run_baseline, BaselineConfig};
use dewe_core::sim::{run_ensemble, SimRunConfig};
use dewe_dag::{DependencyTracker, LevelProfile, Workflow};
use dewe_montage::MontageConfig;
use dewe_mq::Topic;
use dewe_simcloud::{ClusterConfig, FairShare, SimTime, StorageConfig, C3_8XLARGE};

fn montage(degree: f64) -> Arc<Workflow> {
    Arc::new(MontageConfig::degree(degree).build())
}

fn bench_dag(c: &mut Criterion) {
    let mut g = c.benchmark_group("dag");
    let wf = montage(2.0);
    g.throughput(Throughput::Elements(wf.job_count() as u64));

    g.bench_function("montage_generate_2deg", |b| b.iter(|| MontageConfig::degree(2.0).build()));
    g.bench_function("level_profile_2deg", |b| b.iter(|| LevelProfile::of(&wf)));
    g.bench_function("tracker_full_drain_2deg", |b| {
        b.iter_batched(
            || DependencyTracker::new(&wf),
            |mut t| {
                loop {
                    let ready = t.take_ready();
                    if ready.is_empty() {
                        break;
                    }
                    for j in ready {
                        t.mark_running(j);
                        t.complete_in(&wf, j);
                    }
                }
                assert!(t.is_complete());
            },
            BatchSize::SmallInput,
        )
    });
    let text = dewe_dag::write_workflow(&wf);
    g.bench_function("parse_text_format_2deg", |b| {
        b.iter(|| dewe_dag::parse_workflow(&text).unwrap())
    });
    g.finish();

    // The text codec at paper scale: every workflow crosses the TCP
    // runtime as text, written twice and parsed once per process.
    let mut g = c.benchmark_group("dag_text");
    let wf = montage(6.0);
    g.throughput(Throughput::Elements(wf.job_count() as u64));
    g.bench_function("write_text_format_6deg", |b| b.iter(|| dewe_dag::write_workflow(&wf)));
    let text = dewe_dag::write_workflow(&wf);
    g.bench_function("parse_text_format_6deg", |b| {
        b.iter(|| dewe_dag::parse_workflow(&text).unwrap())
    });
    g.finish();
}

fn bench_mq(c: &mut Criterion) {
    let mut g = c.benchmark_group("mq");
    const N: u64 = 10_000;
    g.throughput(Throughput::Elements(N));
    g.bench_function("publish_pull_10k", |b| {
        b.iter(|| {
            let t: Topic<u64> = Topic::new();
            for i in 0..N {
                t.publish(i);
            }
            let mut sum = 0;
            while let Some(v) = t.try_pull() {
                sum += v;
            }
            assert_eq!(sum, N * (N - 1) / 2);
        })
    });
    g.bench_function("contended_4x4_10k", |b| {
        b.iter(|| {
            let t: Topic<u64> = Topic::new();
            std::thread::scope(|s| {
                for p in 0..4 {
                    let t = t.clone();
                    s.spawn(move || {
                        for i in 0..N / 4 {
                            t.publish(p * (N / 4) + i);
                        }
                    });
                }
                let mut consumers = Vec::new();
                for _ in 0..4 {
                    let t = t.clone();
                    consumers.push(s.spawn(move || {
                        let mut got = 0u64;
                        loop {
                            match t.pull_timeout(std::time::Duration::from_millis(50)) {
                                Some(_) => got += 1,
                                None => break got,
                            }
                        }
                    }));
                }
                let total: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
                assert_eq!(total, N);
            });
        })
    });
    g.finish();
}

fn bench_fairshare(c: &mut Criterion) {
    let mut g = c.benchmark_group("fairshare");
    const FLOWS: u64 = 1_000;
    g.throughput(Throughput::Elements(FLOWS));
    g.bench_function("churn_1k_flows", |b| {
        b.iter(|| {
            let mut r = FairShare::new(1e9);
            let mut clock = SimTime::ZERO;
            for i in 0..FLOWS {
                r.start(clock, 1e6 + (i % 13) as f64 * 1e5, i);
                clock += SimTime(1000);
            }
            let mut done = 0;
            while let Some(at) = r.next_completion(clock) {
                clock = at;
                done += r.pop_completed(clock).len();
            }
            assert_eq!(done as u64, FLOWS);
        })
    });
    g.finish();
}

fn bench_engines(c: &mut Criterion) {
    let mut g = c.benchmark_group("engines");
    g.sample_size(10);
    let wf = montage(2.0);
    let cluster =
        ClusterConfig { instance: C3_8XLARGE, nodes: 1, storage: StorageConfig::LocalDisk };
    g.throughput(Throughput::Elements(wf.job_count() as u64));
    g.bench_function("dewe_sim_2deg_workflow", |b| {
        b.iter(|| {
            let report = run_ensemble(&[Arc::clone(&wf)], &SimRunConfig::new(cluster));
            assert!(report.completed);
        })
    });
    g.bench_function("baseline_sim_2deg_workflow", |b| {
        b.iter(|| {
            let report = run_baseline(&[Arc::clone(&wf)], &BaselineConfig::new(cluster));
            assert!(report.completed);
        })
    });
    g.finish();
}

criterion_group!(benches, bench_dag, bench_mq, bench_fairshare, bench_engines);
criterion_main!(benches);
