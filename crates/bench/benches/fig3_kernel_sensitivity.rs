//! Fig. 3: per-kernel fault sensitivity (flight time + success rate when a
//! single bit flip lands in each PPC kernel, Sparse environment).
//!
//! Prints the paper-shaped table, then benchmarks a single fault-injected
//! mission with Criterion.  Set `MAVFI_RUNS=100` for paper-scale counts.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use mavfi::experiments::fig3::{self, Fig3Config};
use mavfi::prelude::*;
use mavfi_bench::{bench_log, print_campaign_experiment, runs_per_target};

/// Measures steady-state closed-loop throughput (pipeline ticks per second
/// of wall time) over golden missions in the Sparse environment, and logs it
/// to the bench log so the tick-path performance trajectory is tracked
/// across PRs.
fn measure_tick_throughput() {
    let specs: Vec<MissionSpec> = (0..3)
        .map(|seed| MissionSpec::new(EnvironmentKind::Sparse, 3 + seed).with_time_budget(200.0))
        .collect();
    // Warm-up flight (primes caches and the lazy parts of the allocator).
    let _ = MissionRunner::new(specs[0]).run_golden();
    let start = Instant::now();
    let mut ticks = 0u64;
    for spec in &specs {
        ticks += MissionRunner::new(*spec).run_golden().pipeline.ticks;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let ticks_per_sec = ticks as f64 / elapsed.max(1e-9);
    bench_log::record(
        "fig3_kernel_sensitivity",
        "ticks_per_sec",
        ticks_per_sec,
        "ticks/s",
        &bench_log::note_or("golden Sparse seeds 3-5"),
    );
    bench_log::record(
        "fig3_kernel_sensitivity",
        "tick_latency",
        1.0e9 / ticks_per_sec.max(1e-9),
        "ns/tick",
        &bench_log::note_or("golden Sparse seeds 3-5"),
    );
}

/// Flies one instrumented golden mission and logs each kernel's p99
/// wall-clock latency, so per-kernel latency trends are tracked alongside
/// whole-tick throughput.
fn measure_kernel_latency_p99() {
    let spec = MissionSpec::new(EnvironmentKind::Sparse, 3).with_time_budget(200.0);
    let mut sink = MissionTelemetry::new();
    let _ = MissionRunner::new(spec).run_observed(None, Protection::None, None, &mut sink);
    for kernel in KernelId::ALL {
        let histogram = sink.kernel_latency(kernel);
        if histogram.count() == 0 {
            continue;
        }
        bench_log::record(
            "fig3_kernel_sensitivity",
            &format!("{kernel:?}_p99"),
            histogram.p99() as f64,
            "ns",
            &bench_log::note_or("golden Sparse seed 3, instrumented"),
        );
    }
}

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
    measure_tick_throughput();
    measure_kernel_latency_p99();
    // MAVFI_BENCH_QUICK=1 records the tick-throughput metrics and skips the
    // full fault-sensitivity campaign (used by scripts/bench.sh).
    if std::env::var("MAVFI_BENCH_QUICK").is_ok() {
        return;
    }
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
