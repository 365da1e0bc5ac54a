//! Parallel campaign execution: worker pool, trained-detector cache and the
//! campaign engine.
//!
//! The paper's evaluation protocol (§VI) is 100 golden + 300 injection
//! missions per environment, repeated across ten figures and tables — all
//! embarrassingly parallel, and all sharing a handful of trained detector
//! banks.  This module turns that structure into wall-clock savings without
//! giving up reproducibility:
//!
//! * [`WorkerPool`] — scoped-thread fan-out with work stealing and an
//!   order-restoring streaming aggregator ([`WorkerPool::fold_ordered`]);
//!   results are byte-identical for any worker count.
//! * [`TrainedDetectorCache`] — one trained GAD/AAD bank per
//!   `(environment, training config)`, shared across experiments instead of
//!   retrained per driver.
//! * [`CampaignExecutor`] / [`run_campaign`] — the engine the experiment
//!   drivers route through: it builds a campaign's full run list (golden +
//!   per-stage injections), derives every run's seed from
//!   `(base_seed, run_index)`, flies each campaign job on its own through
//!   [`MissionRunner`](crate::MissionRunner) and folds outcomes in run
//!   order.
//!
//! Worker counts come from the `MAVFI_WORKERS` environment variable by
//! default (falling back to the machine's available parallelism), and can be
//! pinned per executor.  Campaign jobs are grouped into fixed-size *chunks*
//! ([`CampaignExecutor::with_batch_size`], default
//! [`CampaignExecutor::DEFAULT_BATCH`]) that only mark the checkpoint and
//! progress boundaries of the campaign server; they never change results.

mod cache;
mod engine;
mod pool;

pub use cache::{CacheStats, TrainedDetectorCache};
pub use engine::{
    run_campaign, run_campaign_instrumented, CampaignExecutor, CampaignFoldState, DetectorSource,
    InjectionSweep, SchemeConfig, SweepOutcome,
};
pub use pool::{PoolStats, WorkerPool};
