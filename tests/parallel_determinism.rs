//! The parallel campaign executor must be invisible in the results: the same
//! campaign run with 1, 2 and 8 workers (and any checkpoint chunk size)
//! produces identical [`SettingResult`]s — QoF metrics, summaries,
//! recomputation tallies and fault plans.

use std::sync::{Arc, OnceLock};

use mavfi_suite::prelude::*;
use proptest::prelude::*;

fn quick_detectors() -> Arc<TrainedDetectors> {
    // Shared across this binary's tests through the process-wide cache.
    let training =
        TrainingSpec { missions: 1, base_seed: 4_242, mission_time_budget: 25.0, epochs: 5 };
    TrainedDetectorCache::global().get_or_train(EnvironmentKind::Randomized, &training)
}

fn quick_config() -> CampaignConfig {
    let mut config = CampaignConfig::quick(EnvironmentKind::Sparse, 77);
    // Keep the suite fast on small machines: 2 golden + 3 injection runs
    // (one per stage) x 3 protection settings is still enough jobs for an
    // 8-worker fan-out to exercise out-of-order completion.  The short
    // budget truncates missions; determinism is about result equality, not
    // mission success, and truncated runs exercise the same merge paths.
    config.golden_runs = 2;
    config.injections_per_stage = 1;
    config.mission_time_budget = 45.0;
    config
}

fn assert_campaigns_identical(a: &EnvironmentCampaign, b: &EnvironmentCampaign, label: &str) {
    assert_eq!(a.environment, b.environment, "{label}: environment");
    for (left, right) in a.settings().into_iter().zip(b.settings()) {
        assert_eq!(left.label, right.label, "{label}: setting label");
        assert_eq!(left.runs, right.runs, "{label}: per-run QoF metrics ({})", left.label);
        assert_eq!(left.summary, right.summary, "{label}: summary ({})", left.label);
    }
    assert_eq!(a.gaussian_recomputations, b.gaussian_recomputations, "{label}: GAD recomputations");
    assert_eq!(
        a.autoencoder_recomputations, b.autoencoder_recomputations,
        "{label}: AAD recomputations"
    );
    assert_eq!(a.golden_mean_ticks, b.golden_mean_ticks, "{label}: mean ticks");
    assert_eq!(a.golden_mean_compute_ms, b.golden_mean_compute_ms, "{label}: mean compute ms");
}

#[test]
fn worker_count_does_not_change_campaign_results() {
    let scheme = SchemeConfig::shared(quick_detectors());
    let config = quick_config();

    let serial = CampaignExecutor::new(1).run_campaign(&config, &scheme).expect("serial campaign");
    assert_eq!(serial.golden.runs.len(), config.golden_runs);
    assert_eq!(serial.injected.runs.len(), 3 * config.injections_per_stage);

    for workers in [2, 8] {
        let parallel = CampaignExecutor::new(workers)
            .run_campaign(&config, &scheme)
            .expect("parallel campaign");
        assert_campaigns_identical(&serial, &parallel, &format!("{workers} workers"));
    }

    // The env-configured default executor is a plain worker count, so the
    // equalities above cover it; just confirm it resolves sanely.
    assert!(CampaignExecutor::from_env().workers() >= 1);
}

#[test]
fn fault_plans_are_pure_functions_of_the_config() {
    let config = quick_config();
    let first = CampaignExecutor::plan_faults(&config);
    let second = CampaignExecutor::plan_faults(&config);
    assert_eq!(first, second, "fault planning must not depend on ambient state");
}

/// Shared fixture for the worker-count property: the detectors, the tiny
/// campaign configuration, and the sequential reference result — computed
/// once, reused by every generated case.
fn property_baseline() -> &'static (Arc<TrainedDetectors>, CampaignConfig, EnvironmentCampaign) {
    static BASELINE: OnceLock<(Arc<TrainedDetectors>, CampaignConfig, EnvironmentCampaign)> =
        OnceLock::new();
    BASELINE.get_or_init(|| {
        let detectors = quick_detectors();
        let mut config = CampaignConfig::quick(EnvironmentKind::Sparse, 2_029);
        // One golden + one injection per stage with a short budget keeps a
        // campaign cheap enough to re-run per generated case; truncated
        // missions exercise the same fan-out and merge paths.
        config.golden_runs = 1;
        config.injections_per_stage = 1;
        config.mission_time_budget = 12.0;
        let sequential = CampaignExecutor::new(1)
            .run_campaign(&config, &SchemeConfig::shared(Arc::clone(&detectors)))
            .expect("sequential baseline campaign");
        (detectors, config, sequential)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For any worker count and checkpoint chunk size, [`CampaignExecutor`]
    /// yields the same [`QofSummary`] (and in fact the same full campaign)
    /// as the sequential path for the same `base_seed`.
    #[test]
    fn any_worker_count_matches_the_sequential_summaries(
        workers in 2usize..=12,
        chunk in 1usize..=8,
    ) {
        let (detectors, config, sequential) = property_baseline();
        let parallel = CampaignExecutor::new(workers)
            .with_batch_size(chunk)
            .run_campaign(config, &SchemeConfig::shared(Arc::clone(detectors)))
            .expect("parallel campaign");
        for (ours, reference) in parallel.settings().into_iter().zip(sequential.settings()) {
            prop_assert_eq!(&ours.summary, &reference.summary, "summary of {}", &ours.label);
        }
        prop_assert_eq!(&parallel, sequential);
    }
}

#[test]
fn executor_fan_out_preserves_order_under_contention() {
    let executor = WorkerPool::new(8);
    let jobs: Vec<u64> = (0..64).collect();
    let results = executor.run_ordered(&jobs, |index, &seed| {
        // Uneven job durations force out-of-order completion.
        let spin = (seed % 7) * 1_000;
        let mut acc = 0u64;
        for i in 0..spin {
            acc = acc.wrapping_add(std::hint::black_box(i));
        }
        (index as u64, seed, acc.wrapping_mul(0).wrapping_add(seed * 2))
    });
    for (index, result) in results.iter().enumerate() {
        assert_eq!(result.0, index as u64);
        assert_eq!(result.2, result.1 * 2);
    }
}
