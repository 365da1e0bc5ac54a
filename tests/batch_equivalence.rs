//! Checkpoint chunk size is invisible in campaign results: a campaign run
//! through `CampaignExecutor::run_campaign` with any chunk size
//! (`with_batch_size`, campaign jobs per checkpoint chunk) and any worker
//! count assembles exactly the campaign of the serial, one-job-per-chunk
//! reference.

use mavfi_suite::prelude::*;

fn quick_detectors() -> std::sync::Arc<TrainedDetectors> {
    // The same quick-training convention the detection suite uses; the
    // process-wide cache shares the trained bank across tests.
    let training =
        TrainingSpec { missions: 2, base_seed: 640, mission_time_budget: 30.0, epochs: 10 };
    TrainedDetectorCache::global().get_or_train(EnvironmentKind::Randomized, &training)
}

/// The campaign engine assembles the exact same campaign as the serial,
/// one-job-per-chunk reference for every chunk size and worker count.
#[test]
fn batched_campaigns_match_sequential_for_every_batch_size_and_worker_count() {
    let detectors = quick_detectors();
    let config = CampaignConfig {
        environment: EnvironmentKind::Sparse,
        golden_runs: 2,
        injections_per_stage: 2,
        base_seed: 17,
        mission_time_budget: 40.0,
    };
    let scheme = SchemeConfig::shared(detectors);
    let sequential = CampaignExecutor::with_pool(WorkerPool::serial())
        .with_batch_size(1)
        .run_campaign(&config, &scheme)
        .unwrap();
    for workers in [1_usize, 2, 8] {
        for batch in [1_usize, 8, 32, 128] {
            let chunked = CampaignExecutor::new(workers)
                .with_batch_size(batch)
                .run_campaign(&config, &scheme)
                .unwrap();
            assert_eq!(chunked, sequential, "campaign diverged at workers {workers} batch {batch}");
        }
    }
}
