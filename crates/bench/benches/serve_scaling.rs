//! Served-campaign scaling: the same campaign submitted to a
//! [`CampaignServer`] whose executor has 1/2/4/8 workers, driven to
//! completion through the full service path — bus submission, chunked
//! strides, per-stride checkpoint writes and progress publication.
//! Records to the bench log (`BENCH_10.json` by default):
//!
//! * `served_jobs_per_sec_{1,2,4,8}w` — campaign jobs completed per second
//!   through the served path at that worker count (the per-worker scaling
//!   curve; the checkpoint stride is sized to the worker count so every
//!   worker has a chunk in flight between checkpoints — the curve is still
//!   flat on a single-core host, which is itself worth recording);
//! * `library_jobs_per_sec_1w` — the same campaign through plain
//!   `run_campaign`, the no-service baseline;
//! * `serve_overhead_pct_1w` — what the service layer (checkpointing,
//!   progress streaming, bus hops) costs over the library call at one
//!   worker, in percent of wall time.
//!
//! Results are byte-identical across worker counts and to the library call
//! (`tests/server_determinism.rs`); only the wall clock moves here.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use mavfi::prelude::*;
use mavfi::serve::{CampaignClient, CampaignRequest, CampaignServer};
use mavfi_middleware::Bus;

fn bench_request() -> CampaignRequest {
    let mut request = CampaignRequest::quick(EnvironmentKind::Sparse, 640);
    // 4 golden + 12 injections = 16 jobs in 8 chunks of 2: enough strides
    // to exercise the checkpoint cadence at one worker and enough chunks to
    // keep all 8 workers busy within a stride at the top of the curve.
    request.config.golden_runs = 4;
    request.config.injections_per_stage = 4;
    request.config.mission_time_budget = 25.0;
    request.batch_size = 2;
    request
}

fn job_count(request: &CampaignRequest) -> f64 {
    (request.config.golden_runs + 3 * request.config.injections_per_stage) as f64
}

/// Serves `request` once on a fresh server and returns elapsed seconds.
fn serve_once(request: &CampaignRequest, workers: usize, dir: &std::path::Path) -> f64 {
    let _ = std::fs::remove_dir_all(dir);
    let begin = Instant::now();
    let bus = Bus::new();
    // Stride = worker count: each checkpointed stride spans enough chunks
    // for every worker to run one, so the curve measures pool scaling
    // rather than the stride-1 chunk-at-a-time cadence.
    let server = CampaignServer::new(CampaignExecutor::new(workers), dir)
        .expect("create server")
        .with_checkpoint_stride(workers);
    server.attach(&bus);
    let client = CampaignClient::new(&bus);
    let ticket = client.submit(request).expect("submit");
    while client.result(ticket.job_id).expect("job is known").is_none() {
        server.step_once(&bus).expect("server step");
    }
    begin.elapsed().as_secs_f64()
}

/// One library `run_campaign` pass; returns elapsed seconds.
fn library_once(request: &CampaignRequest) -> f64 {
    let scheme = SchemeConfig::cached(request.training_environment, request.training);
    let begin = Instant::now();
    CampaignExecutor::new(1)
        .with_batch_size(request.batch_size)
        .run_campaign(&request.config, &scheme)
        .expect("library campaign");
    begin.elapsed().as_secs_f64()
}

/// Best-of-`reps` wall time: each repetition is bit-identical work, so the
/// fastest one is the least-perturbed measurement (same de-noiser as
/// `worker_scaling`).
fn best_secs(reps: usize, mut run: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| run()).fold(f64::MAX, f64::min)
}

fn measure() {
    let note = mavfi_bench::bench_log::note_or("served Sparse campaign, 16 jobs, 25 s budget");
    const REPS: usize = 3;
    let request = bench_request();
    let jobs = job_count(&request);
    let dir = std::env::temp_dir().join(format!("mavfi_serve_bench_{}", std::process::id()));

    // Warm-up outside every timed window: detector training (shared cache)
    // plus plan/scratch first-touch costs.
    let _ = serve_once(&request, 1, &dir);

    for workers in [1_usize, 2, 4, 8] {
        let secs = best_secs(REPS, || serve_once(&request, workers, &dir));
        mavfi_bench::bench_log::record(
            "serve_scaling",
            &format!("served_jobs_per_sec_{workers}w"),
            jobs / secs.max(1e-9),
            "jobs/s",
            &note,
        );
    }

    let library_secs = best_secs(REPS, || library_once(&request));
    mavfi_bench::bench_log::record(
        "serve_scaling",
        "library_jobs_per_sec_1w",
        jobs / library_secs.max(1e-9),
        "jobs/s",
        &note,
    );
    let served_secs = best_secs(REPS, || serve_once(&request, 1, &dir));
    mavfi_bench::bench_log::record(
        "serve_scaling",
        "serve_overhead_pct_1w",
        (served_secs / library_secs.max(1e-9) - 1.0) * 100.0,
        "%",
        &note,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench(c: &mut Criterion) {
    measure();
    // MAVFI_BENCH_QUICK=1 records the metrics above and skips the Criterion
    // group (used by scripts/bench.sh).
    if std::env::var("MAVFI_BENCH_QUICK").is_ok() {
        return;
    }
    let request = bench_request();
    let dir = std::env::temp_dir().join(format!("mavfi_serve_crit_{}", std::process::id()));
    let mut group = c.benchmark_group("serve_scaling");
    group.sample_size(2);
    group.bench_function("served_1w", |b| {
        b.iter(|| std::hint::black_box(serve_once(&request, 1, &dir)))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench);
criterion_main!(benches);
