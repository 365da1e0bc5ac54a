//! Microbenchmarks of the detection path itself: preprocessing, the
//! Gaussian range checks and the autoencoder forward pass.  These are the
//! per-tick costs behind the Table II overhead percentages.

use criterion::{criterion_group, criterion_main, Criterion};
use mavfi_detect::prelude::*;
use mavfi_nn::train::TrainConfig;
use mavfi_ppc::states::{MonitoredStates, StateField};

fn sample_states(step: usize) -> MonitoredStates {
    let t = step as f64 * 0.1;
    let mut states = MonitoredStates::default();
    states.set_field(StateField::TimeToCollision, 4.0 + (t * 0.1).sin());
    states.set_field(StateField::WaypointX, 5.0 + 2.0 * t);
    states.set_field(StateField::WaypointY, -3.0 + 1.5 * t);
    states.set_field(StateField::CommandVx, 2.0 + 0.3 * (t * 0.5).sin());
    states.set_field(StateField::CommandVy, 1.5 + 0.3 * (t * 0.5).cos());
    states
}

fn trained_parts() -> (GadBank, AadDetector) {
    let mut telemetry = TelemetrySet::new();
    for step in 0..400 {
        telemetry.record(&sample_states(step));
    }
    let gad = telemetry.build_gad(CgadConfig::default());
    let (aad, _) = telemetry
        .train_aad(AadConfig::default(), &TrainConfig { epochs: 10, ..TrainConfig::default() });
    (gad, aad)
}

fn bench(c: &mut Criterion) {
    let (mut gad, mut aad) = trained_parts();
    let mut preprocessor = Preprocessor::new();
    let deltas = preprocessor.process(&sample_states(0));

    c.bench_function("preprocess_one_tick", |b| {
        let mut preprocessor = Preprocessor::new();
        let mut step = 0usize;
        b.iter(|| {
            step += 1;
            preprocessor.process(&sample_states(step))
        })
    });

    c.bench_function("gad_observe_13_states", |b| b.iter(|| gad.observe_all(&deltas)));

    // The scratch path the detector tap runs every tick.
    c.bench_function("aad_forward_pass", |b| {
        let mut scratch = AadScratch::new();
        b.iter(|| aad.observe_with(&deltas, &mut scratch))
    });

    c.bench_function("magnitude_code", |b| {
        b.iter(|| magnitude_code(std::hint::black_box(123.456)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
