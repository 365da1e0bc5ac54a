//! Microbenchmark of the mission replay path: the ppc-only throughput of
//! replaying a captured trace without the sim in the loop.  Also prints the
//! compressed size of the trace itself, which is deterministic.

use criterion::{criterion_group, criterion_main, Criterion};
use mavfi::prelude::*;

/// The benchmark mission: the Dense seed-8 flight the golden-trace store
/// also uses.
fn spec() -> MissionSpec {
    MissionSpec::new(EnvironmentKind::Dense, 8).with_time_budget(150.0)
}

fn bench(c: &mut Criterion) {
    let (outcome, trace) =
        MissionRunner::new(spec()).run_recorded(None, Protection::None, None, None).unwrap();
    println!(
        "replay_micro: trace {:.1} bytes/tick (Dense seed-8 mission, 150 s budget)",
        trace.to_bytes().len() as f64 / outcome.pipeline.ticks as f64
    );
    let mut group = c.benchmark_group("replay");
    group.sample_size(10);
    group.bench_function("replay_dense_seed8_trace", |b| {
        b.iter(|| {
            let report = ReplayHarness::new(&trace).replay().unwrap();
            std::hint::black_box(report.ticks)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
