//! Fig. 3: per-kernel fault sensitivity (flight time + success rate when a
//! single bit flip lands in each PPC kernel, Sparse environment).
//!
//! Prints the paper-shaped table, then benchmarks a single fault-injected
//! mission with Criterion.  Set `MAVFI_RUNS=100` for paper-scale counts.

use criterion::{criterion_group, criterion_main, Criterion};
use mavfi::experiments::fig3::{self, Fig3Config};
use mavfi::prelude::*;
use mavfi_bench::{print_campaign_experiment, runs_per_target};

fn run_experiment() {
    let runs = runs_per_target(3);
    let config = Fig3Config {
        runs_per_kernel: runs,
        golden_runs: runs,
        mission_time_budget: 300.0,
        ..Fig3Config::default()
    };
    let result = fig3::run(&config).expect("fig3 experiment");
    print_campaign_experiment(
        &format!("Fig. 3 — per-kernel fault sensitivity ({runs} runs/kernel, Sparse)"),
        &result.to_table(),
    );
    println!(
        "Planning/control kernels inflate worst-case flight time {:+.1}% more than perception kernels.",
        result.planning_control_excess_inflation() * 100.0
    );
}

fn bench(c: &mut Criterion) {
    run_experiment();
    let mut group = c.benchmark_group("fig3");
    group.sample_size(10);
    group.bench_function("single_planning_fault_mission", |b| {
        b.iter(|| {
            let spec = MissionSpec::new(EnvironmentKind::Sparse, 3).with_time_budget(200.0);
            let fault = FaultSpec::new(InjectionTarget::Kernel(KernelId::RrtStar), 30, 5);
            MissionRunner::new(spec).run(Some(fault), Protection::None, None).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
