//! Replay determinism: record→replay bit-equality across seeds,
//! environments and fault settings; identical trace digests regardless of
//! worker count; and typed-error (never panic) handling of damaged or
//! foreign trace files.

use mavfi_suite::mavfi_middleware::trace::{compress_container, TraceError};
use mavfi_suite::prelude::*;

fn quick_detectors() -> TrainedDetectors {
    // The same quick-training convention the detection suite uses; the
    // process-wide cache shares the trained bank across tests.
    let training =
        TrainingSpec { missions: 2, base_seed: 640, mission_time_budget: 30.0, epochs: 10 };
    (*TrainedDetectorCache::global().get_or_train(EnvironmentKind::Randomized, &training)).clone()
}

fn quick_spec(kind: EnvironmentKind, seed: u64) -> MissionSpec {
    MissionSpec::new(kind, seed).with_time_budget(60.0)
}

fn planning_fault(seed: u64) -> FaultSpec {
    FaultSpec::new(InjectionTarget::Stage(Stage::Planning), 25, seed)
}

#[test]
fn record_replay_is_bit_identical_across_seeds_environments_and_faults() {
    for environment in [EnvironmentKind::Sparse, EnvironmentKind::Farm] {
        for seed in [3u64, 8, 21] {
            let runner = MissionRunner::new(quick_spec(environment, seed));

            let (golden, golden_trace) =
                runner.run_recorded(None, Protection::None, None, None).unwrap();
            let report = ReplayHarness::new(&golden_trace).replay().unwrap();
            assert!(
                report.is_match(),
                "{environment:?} seed {seed} golden diverged: {:?}",
                report.divergence
            );
            assert_eq!(report.ticks, golden.pipeline.ticks);
            assert_eq!(report.status, Some(golden.qof.status));

            let fault = planning_fault(seed);
            let (faulty, fault_trace) =
                runner.run_recorded(Some(fault), Protection::None, None, None).unwrap();
            let report = ReplayHarness::new(&fault_trace).replay().unwrap();
            assert!(
                report.is_match(),
                "{environment:?} seed {seed} faulty diverged: {:?}",
                report.divergence
            );
            assert_eq!(report.ticks, faulty.pipeline.ticks);
            // The fault trace really differs from the golden one.
            assert_ne!(golden_trace.stream_digest().unwrap(), fault_trace.stream_digest().unwrap());
        }
    }
}

#[test]
fn protected_recording_replays_via_detector_provenance() {
    let detectors = quick_detectors();
    let provenance = DetectorProvenance {
        environment: EnvironmentKind::Randomized,
        training: TrainingSpec {
            missions: 2,
            base_seed: 640,
            mission_time_budget: 30.0,
            epochs: 10,
        },
    };
    let runner = MissionRunner::new(quick_spec(EnvironmentKind::Sparse, 5));
    let (outcome, trace) = runner
        .run_recorded(
            Some(planning_fault(11)),
            Protection::Gaussian,
            Some(&detectors),
            Some(provenance),
        )
        .unwrap();
    assert!(outcome.detector.is_some());

    // Self-contained path: the harness retrains from the provenance.
    let report = ReplayHarness::new(&trace).replay().unwrap();
    assert!(report.is_match(), "provenance replay diverged: {:?}", report.divergence);

    // Explicit-detector path matches too.
    let report = ReplayHarness::new(&trace).with_detectors(&detectors).replay().unwrap();
    assert!(report.is_match(), "explicit-detector replay diverged: {:?}", report.divergence);
}

#[test]
fn trace_digests_are_identical_across_worker_counts() {
    let seeds: Vec<u64> = vec![3, 8, 21, 34];
    let record = |_, seed: &u64| {
        let runner = MissionRunner::new(quick_spec(EnvironmentKind::Sparse, *seed));
        let (_, trace) = runner.run_recorded(None, Protection::None, None, None).unwrap();
        trace.stream_digest().unwrap()
    };
    let serial = WorkerPool::new(1).run_ordered(&seeds, record);
    let dual = WorkerPool::new(2).run_ordered(&seeds, record);
    let wide = WorkerPool::new(8).run_ordered(&seeds, record);
    assert_eq!(serial, dual);
    assert_eq!(serial, wide);
}

#[test]
fn trace_io_round_trips_and_rejects_damage_with_typed_errors() {
    let runner = MissionRunner::new(quick_spec(EnvironmentKind::Sparse, 3));
    let (_, trace) = runner.run_recorded(None, Protection::None, None, None).unwrap();

    // Save/load round trip through a temp file.
    let path = std::env::temp_dir().join(format!("mavfi_replay_rt_{}.mvt", std::process::id()));
    trace.save(&path).unwrap();
    let loaded = MissionTrace::load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(loaded, trace);
    assert_eq!(loaded.stream_digest().unwrap(), trace.stream_digest().unwrap());
    let report = ReplayHarness::new(&loaded).replay().unwrap();
    assert!(report.is_match());

    // A foreign file is a typed error, not a panic.
    let err = MissionTrace::from_bytes(b"\x89PNG\r\n\x1a\nnot a trace").unwrap_err();
    assert!(matches!(err, MavfiError::Trace(TraceError::BadMagic { .. })), "{err}");

    // A future format version is rejected by the header check.
    let mut stream = trace.stream().to_vec();
    stream[4] = 0x7F; // bump the version word past TRACE_VERSION
    let err = MissionTrace::from_bytes(&compress_container(&stream)).unwrap_err();
    assert!(matches!(err, MavfiError::Trace(TraceError::UnsupportedVersion { .. })), "{err}");

    // Truncation and payload corruption fail verification, typed.
    let container = trace.to_bytes();
    let err = MissionTrace::from_bytes(&container[..container.len() / 2]).unwrap_err();
    assert!(matches!(err, MavfiError::Trace(_)), "{err}");
    let mut stream = trace.stream().to_vec();
    let index = stream.len() / 2;
    stream[index] ^= 0x10;
    let err = MissionTrace::from_bytes(&compress_container(&stream)).unwrap_err();
    assert!(matches!(err, MavfiError::Trace(_)), "{err}");
}
