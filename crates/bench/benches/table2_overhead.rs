//! Table II: compute-time overhead of detection and recovery per stage and
//! per environment, for the Gaussian and autoencoder schemes.
//!
//! Set `MAVFI_RUNS=100` for paper-scale counts.

use criterion::{criterion_group, criterion_main, Criterion};
use mavfi::experiments::table1::{self, Table1Config};
use mavfi::experiments::table2;
use mavfi::prelude::*;
use mavfi_bench::{print_campaign_experiment, runs_per_target};

fn run_experiment() {
    let runs = runs_per_target(1);
    let config = Table1Config {
        golden_runs: runs.max(1),
        injections_per_stage: runs,
        mission_time_budget: 300.0,
        training: TrainingSpec {
            missions: 2,
            mission_time_budget: 40.0,
            epochs: 15,
            ..TrainingSpec::default()
        },
        ..Table1Config::default()
    };
    let (result, _) = table1::run(&config).expect("table2 campaign");
    let overheads = table2::from_campaigns(&result.campaigns);
    print_campaign_experiment(
        "Table II — detection and recovery compute-time overhead",
        &overheads.to_table(),
    );
    println!(
        "Autoencoder cheaper than Gaussian in every environment: {}",
        overheads.autoencoder_is_cheaper_everywhere()
    );
}

fn bench(c: &mut Criterion) {
    run_experiment();
    // Microbenchmark of the recovery cost model itself.
    let mut group = c.benchmark_group("table2");
    group.bench_function("stage_recompute_cost_model", |b| {
        b.iter(|| Stage::ALL.iter().map(|stage| table2::stage_recompute_ms(*stage)).sum::<f64>())
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
