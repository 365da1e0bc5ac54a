//! Campaign throughput: sequential versus sharded execution of the same
//! campaign, and cold versus cached detector training.
//!
//! This bench drives the two levers of `mavfi::exec`: the worker pool
//! (`MAVFI_WORKERS`, here pinned per measurement) and the trained-detector
//! cache.  It first verifies that the parallel path reproduces the
//! sequential results exactly, then reports wall times for:
//!
//! * `sequential` — the full campaign on one worker;
//! * `sharded` — the identical campaign sharded across workers;
//! * `train_cold` / `train_cached` — detector training from scratch versus
//!   a cache hit for the same `(environment, TrainingSpec)` key.
//!
//! Set `MAVFI_RUNS` to scale the campaign and `MAVFI_BENCH_WORKERS` to pick
//! the sharded worker count (default: available parallelism).

use criterion::{criterion_group, criterion_main, Criterion};
use mavfi::exec::{CampaignExecutor, SchemeConfig, TrainedDetectorCache};
use mavfi::prelude::*;
use mavfi_bench::{print_campaign_experiment, runs_per_target};

fn quick_training() -> TrainingSpec {
    TrainingSpec { missions: 1, base_seed: 4_812, mission_time_budget: 25.0, epochs: 5 }
}

fn quick_campaign() -> CampaignConfig {
    let runs = runs_per_target(1);
    let mut config = CampaignConfig::quick(EnvironmentKind::Sparse, 91);
    config.golden_runs = runs.max(1);
    config.injections_per_stage = runs;
    // Short budget, but long enough for a Sparse golden flight (~18 s of
    // sim time) to land: a campaign is 1 + 3×3 missions per measurement,
    // the Criterion stand-in re-runs each routine sample_size + 1 times,
    // and D&R missions pay real recomputation work on top of the mission
    // cost, so only runs that genuinely fail should burn the full budget.
    config.mission_time_budget = 25.0;
    config
}

fn sharded_workers() -> usize {
    std::env::var("MAVFI_BENCH_WORKERS")
        .ok()
        .and_then(|value| value.parse().ok())
        .filter(|&workers| workers > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get)
        })
}

fn bench(c: &mut Criterion) {
    let cache = TrainedDetectorCache::global();
    let training = quick_training();
    let config = quick_campaign();
    let workers = sharded_workers();

    // Cold vs cached training: the first call below is the process's first
    // use of this configuration, so it trains; the bench loop afterwards
    // always hits.
    let train_start = std::time::Instant::now();
    let detectors = cache.get_or_train(EnvironmentKind::Randomized, &training);
    let cold_training = train_start.elapsed();
    let scheme = SchemeConfig::shared(detectors);

    // The two paths must agree bit for bit before their timing means
    // anything.
    let sequential =
        CampaignExecutor::new(1).run_campaign(&config, &scheme).expect("sequential campaign");
    let sharded =
        CampaignExecutor::new(workers).run_campaign(&config, &scheme).expect("sharded campaign");
    assert_eq!(sequential, sharded, "sharded campaign must reproduce sequential results");

    print_campaign_experiment(
        &format!(
            "Campaign throughput — {} golden + {} injection runs, Sparse (cold training {:.2} s, \
             cache {:?})",
            config.golden_runs,
            3 * config.injections_per_stage,
            cold_training.as_secs_f64(),
            cache.stats(),
        ),
        &format!(
            "golden success {:.0}%, mean flight time {:.1} s\n",
            sequential.golden.summary.success_rate * 100.0,
            sequential.golden.summary.mean_flight_time_s
        ),
    );

    let mut group = c.benchmark_group("campaign_throughput");
    group.sample_size(2);
    group.bench_function("sequential", |b| {
        let executor = CampaignExecutor::new(1);
        b.iter(|| executor.run_campaign(&config, &scheme).expect("sequential campaign"))
    });
    group.bench_function(&format!("sharded_{workers}_workers"), |b| {
        let executor = CampaignExecutor::new(workers);
        b.iter(|| executor.run_campaign(&config, &scheme).expect("sharded campaign"))
    });
    group.bench_function("train_cold", |b| {
        b.iter(|| {
            // A fresh cache per iteration forces real training.
            let cold = TrainedDetectorCache::new();
            cold.get_or_train(EnvironmentKind::Randomized, &training)
        })
    });
    group.bench_function("train_cached", |b| {
        b.iter(|| cache.get_or_train(EnvironmentKind::Randomized, &training))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
