//! The campaign execution engine: one sharded, order-restoring pass over a
//! campaign's full run list.
//!
//! [`CampaignExecutor`] builds the complete run list of a campaign — golden
//! runs plus every planned per-stage injection — and shards it across a
//! [`WorkerPool`], one campaign job per pool job.  Each run's seed is
//! derived from `(base_seed, run_index)`, and [`MissionOutcome`]s stream
//! through the pool's order-restoring aggregator, so the assembled
//! [`EnvironmentCampaign`] is byte-identical for any worker count while
//! bulky per-run artifacts (sampled trails) are dropped as soon as their
//! statistics are folded in.

use std::ops::Range;
use std::sync::Arc;

use mavfi_fault::campaign::CampaignPlan;
use mavfi_fault::injector::FaultSpec;
use mavfi_ppc::states::Stage;
use mavfi_sim::env::EnvironmentKind;
use mavfi_telemetry::{MissionReport, MissionTelemetry, TelemetryReport};
use serde::{Deserialize, Serialize};

use crate::campaign::{CampaignConfig, EnvironmentCampaign, SettingResult};
use crate::config::{MissionSpec, Protection, TrainingSpec};
use crate::error::MavfiError;
use crate::exec::cache::TrainedDetectorCache;
use crate::exec::pool::{PoolStats, WorkerPool};
use crate::qof::{QofMetrics, QofSummary};
use crate::runner::{MissionOutcome, MissionRunner, TrainedDetectors};

/// Where a campaign's trained detectors come from.
#[derive(Debug, Clone)]
pub enum DetectorSource {
    /// An already-trained bank, shared as-is.
    Shared(Arc<TrainedDetectors>),
    /// Train on demand (or reuse) via the global
    /// [`TrainedDetectorCache`], keyed by the training environment and
    /// configuration.
    Cached {
        /// Environment kind the training missions fly in.
        environment: EnvironmentKind,
        /// Training configuration.
        training: TrainingSpec,
    },
}

/// The detection & recovery setup a campaign evaluates: which trained
/// detectors supervise the D&R(G) and D&R(A) settings, and where they come
/// from.
#[derive(Debug, Clone)]
pub struct SchemeConfig {
    source: DetectorSource,
}

impl SchemeConfig {
    /// Uses an already-trained detector bank.
    pub fn trained(detectors: TrainedDetectors) -> Self {
        Self::shared(Arc::new(detectors))
    }

    /// Uses an already-shared detector bank without cloning it.
    pub fn shared(detectors: Arc<TrainedDetectors>) -> Self {
        Self { source: DetectorSource::Shared(detectors) }
    }

    /// Trains (or reuses) detectors through the global
    /// [`TrainedDetectorCache`] for the given training environment and
    /// configuration.
    pub fn cached(environment: EnvironmentKind, training: TrainingSpec) -> Self {
        Self { source: DetectorSource::Cached { environment, training } }
    }

    /// [`SchemeConfig::cached`] with the paper's randomized training
    /// environments.
    pub fn cached_default(training: TrainingSpec) -> Self {
        Self::cached(EnvironmentKind::Randomized, training)
    }

    /// Resolves the detector bank, training it now if it is cache-sourced
    /// and missing.
    pub fn detectors(&self) -> Arc<TrainedDetectors> {
        match &self.source {
            DetectorSource::Shared(detectors) => Arc::clone(detectors),
            DetectorSource::Cached { environment, training } => {
                TrainedDetectorCache::global().get_or_train(*environment, training)
            }
        }
    }
}

/// An injection-only campaign: golden baseline runs plus a planned list of
/// unprotected fault injections (the shape of the Fig. 3 per-kernel and
/// Fig. 4 per-state sensitivity studies).
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionSweep {
    /// Environment under test.
    pub environment: EnvironmentKind,
    /// Base seed; run seeds derive from it and the run index.
    pub base_seed: u64,
    /// Mission time budget per run (s).
    pub mission_time_budget: f64,
    /// Number of error-free baseline runs.
    pub golden_runs: usize,
    /// Injections per target in `plan` (used to derive each injection's
    /// mission seed from its position, exactly like the sequential loops).
    /// Must divide `plan.len()`; [`CampaignExecutor::run_sweep`] checks
    /// this, since a mismatch would silently skew seeds and per-target
    /// grouping.
    pub runs_per_target: usize,
    /// The planned injections, grouped by target.
    pub plan: CampaignPlan,
}

/// Results of an [`InjectionSweep`]: per-run QoF metrics in run order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Golden-run metrics, in run order.
    pub golden: Vec<QofMetrics>,
    /// Injection-run metrics, in plan order (grouped by target).
    pub injected: Vec<QofMetrics>,
}

impl SweepOutcome {
    /// QoF summaries of consecutive `group_size` chunks of the injection
    /// runs — one summary per target for a plan built with
    /// `runs_per_target == group_size`.
    pub fn injected_groups(&self, group_size: usize) -> Vec<QofSummary> {
        self.injected.chunks(group_size.max(1)).map(QofSummary::from_runs).collect()
    }
}

/// All mission outcomes derived from one planned fault, keeping the paired
/// injection / Gaussian / autoencoder comparison together per job.
pub(crate) struct FaultSettingOutcomes {
    pub(crate) injected: QofMetrics,
    pub(crate) gaussian: MissionOutcome,
    pub(crate) autoencoder: MissionOutcome,
}

/// One entry of a campaign's unified run list.
pub(crate) enum CampaignJob {
    Golden(u64),
    Fault(usize, FaultSpec),
}

/// What one campaign job produced (trimmed to what aggregation needs).
/// `reports` carries the job's mission telemetry (one report per mission,
/// in mission order) and stays empty on uninstrumented runs.
pub(crate) enum JobOutcome {
    Golden { qof: QofMetrics, ticks: u64, compute_ms: f64, reports: Vec<MissionReport> },
    Fault(Box<FaultSettingOutcomes>, Vec<MissionReport>),
}

/// Streaming aggregate of a campaign; folded in run-index order, so every
/// sum matches the sequential loop bit for bit.
///
/// The state is deliberately *extractable*: it is plain data (serde-
/// serialisable, no handles into the pool or detectors), campaign jobs
/// fold into it strictly in run order, and jobs are independent — so
/// folding chunks `[0, k)` into a fresh state, persisting it, and later
/// folding chunks `[k, n)` into the restored state yields exactly the bytes
/// of an uninterrupted `[0, n)` fold.  That property is what the campaign
/// server's checkpoint/resume protocol (`mavfi::serve`) is built on, and
/// what `tests/server_faults.rs` and the checkpoint proptests pin down.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignFoldState {
    /// Golden-run metrics folded so far, in run order.
    pub golden_runs: Vec<QofMetrics>,
    /// Total pipeline ticks across the folded golden runs.
    pub golden_ticks: u64,
    /// Total nominal compute time across the folded golden runs (ms).
    pub golden_compute_ms: f64,
    /// Unprotected-injection metrics folded so far, in plan order.
    pub injected_runs: Vec<QofMetrics>,
    /// D&R(G) metrics folded so far, in plan order.
    pub gaussian_runs: Vec<QofMetrics>,
    /// D&R(A) metrics folded so far, in plan order.
    pub autoencoder_runs: Vec<QofMetrics>,
    /// Recomputations requested by the Gaussian scheme, per stage.
    pub gaussian_recomputations: Vec<(Stage, u64)>,
    /// Recomputations requested by the autoencoder scheme, per stage.
    pub autoencoder_recomputations: Vec<(Stage, u64)>,
}

impl CampaignFoldState {
    /// An empty fold state sized for `config`'s run list.
    pub fn new(config: &CampaignConfig) -> Self {
        let faults = config.injections_per_stage * Stage::ALL.len();
        Self {
            golden_runs: Vec::with_capacity(config.golden_runs),
            golden_ticks: 0,
            golden_compute_ms: 0.0,
            injected_runs: Vec::with_capacity(faults),
            gaussian_runs: Vec::with_capacity(faults),
            autoencoder_runs: Vec::with_capacity(faults),
            gaussian_recomputations: Stage::ALL.iter().map(|stage| (*stage, 0)).collect(),
            autoencoder_recomputations: Stage::ALL.iter().map(|stage| (*stage, 0)).collect(),
        }
    }

    /// Number of campaign jobs folded so far (a fault job counts once,
    /// covering its injected/Gaussian/autoencoder triple).
    pub fn jobs_folded(&self) -> usize {
        self.golden_runs.len() + self.injected_runs.len()
    }

    /// Incremental QoF summaries of the four settings in Table I row order
    /// (golden, injected, Gaussian, autoencoder) over the runs folded so
    /// far — the aggregates the campaign server streams to clients while a
    /// job is in flight.
    pub fn partial_summaries(&self) -> [QofSummary; 4] {
        [
            QofSummary::from_runs(&self.golden_runs),
            QofSummary::from_runs(&self.injected_runs),
            QofSummary::from_runs(&self.gaussian_runs),
            QofSummary::from_runs(&self.autoencoder_runs),
        ]
    }

    pub(crate) fn fold(&mut self, outcome: JobOutcome) {
        match outcome {
            JobOutcome::Golden { qof, ticks, compute_ms, .. } => {
                self.golden_ticks += ticks;
                self.golden_compute_ms += compute_ms;
                self.golden_runs.push(qof);
            }
            JobOutcome::Fault(outcomes, _) => {
                self.injected_runs.push(outcomes.injected);
                accumulate_recomputations(&outcomes.gaussian, &mut self.gaussian_recomputations);
                self.gaussian_runs.push(outcomes.gaussian.qof);
                accumulate_recomputations(
                    &outcomes.autoencoder,
                    &mut self.autoencoder_recomputations,
                );
                self.autoencoder_runs.push(outcomes.autoencoder.qof);
            }
        }
    }

    /// Assembles the final campaign result from a fully folded state.
    pub fn finish(self, config: &CampaignConfig) -> EnvironmentCampaign {
        let golden_divisor = config.golden_runs.max(1) as f64;
        EnvironmentCampaign {
            environment: config.environment,
            golden: SettingResult::new("Golden Run", self.golden_runs),
            injected: SettingResult::new("Injection Run", self.injected_runs),
            gaussian: SettingResult::new("Gaussian-based", self.gaussian_runs),
            autoencoder: SettingResult::new("Autoencoder-based", self.autoencoder_runs),
            gaussian_recomputations: self.gaussian_recomputations,
            autoencoder_recomputations: self.autoencoder_recomputations,
            golden_mean_ticks: self.golden_ticks as f64 / golden_divisor,
            golden_mean_compute_ms: self.golden_compute_ms / golden_divisor,
        }
    }
}

fn accumulate_recomputations(outcome: &MissionOutcome, totals: &mut [(Stage, u64)]) {
    if let Some(stats) = &outcome.detector {
        for (stage, total) in totals.iter_mut() {
            *total += stats.recomputations_of(*stage);
        }
    }
}

/// The campaign execution engine: shards a campaign's run list across a
/// worker pool and restores run order on aggregation.
///
/// # Examples
///
/// ```no_run
/// use mavfi::exec::{run_campaign, SchemeConfig};
/// use mavfi::{CampaignConfig, TrainingSpec};
/// use mavfi_sim::env::EnvironmentKind;
///
/// let config = CampaignConfig::quick(EnvironmentKind::Sparse, 7);
/// let scheme = SchemeConfig::cached_default(TrainingSpec::default());
/// let campaign = run_campaign(&config, &scheme, 4).unwrap();
/// println!("{}", campaign.golden.summary.success_rate);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CampaignExecutor {
    pool: WorkerPool,
    /// Campaign jobs per checkpoint chunk; `0` means
    /// [`CampaignExecutor::DEFAULT_BATCH`].
    batch: usize,
}

impl CampaignExecutor {
    /// Campaign jobs per checkpoint chunk unless
    /// [`CampaignExecutor::with_batch_size`] pins another size.
    pub const DEFAULT_BATCH: usize = 8;

    /// Creates an executor with a fixed worker count; `0` means "auto"
    /// (`MAVFI_WORKERS`, falling back to the available parallelism).
    pub fn new(workers: usize) -> Self {
        if workers == 0 {
            Self::from_env()
        } else {
            Self { pool: WorkerPool::new(workers), batch: 0 }
        }
    }

    /// An executor configured from `MAVFI_WORKERS` / the available cores.
    pub fn from_env() -> Self {
        Self { pool: WorkerPool::from_env(), batch: 0 }
    }

    /// An executor around an existing worker pool.
    pub fn with_pool(pool: WorkerPool) -> Self {
        Self { pool, batch: 0 }
    }

    /// Pins the number of campaign jobs per checkpoint chunk (the unit of
    /// [`run_campaign_chunks`](Self::run_campaign_chunks) ranges); `0`
    /// restores [`CampaignExecutor::DEFAULT_BATCH`].  Chunks only mark
    /// checkpoint and progress boundaries: campaign results are
    /// bit-identical for every chunk size.
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// The resolved number of campaign jobs per checkpoint chunk.
    pub fn batch_size(&self) -> usize {
        if self.batch == 0 {
            Self::DEFAULT_BATCH
        } else {
            self.batch
        }
    }

    /// The underlying worker pool.
    pub fn pool(&self) -> WorkerPool {
        self.pool
    }

    /// The worker count missions fan out over.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Builds the per-stage fault plan of a campaign by routing through
    /// [`CampaignPlan::per_stage`]; deterministic given the config.
    pub fn plan_faults(config: &CampaignConfig) -> CampaignPlan {
        CampaignPlan::per_stage(config.injections_per_stage, config.base_seed ^ 0x5eed_fa01)
    }

    fn mission_spec(config: &CampaignConfig, run_index: u64) -> MissionSpec {
        MissionSpec::new(config.environment, config.base_seed.wrapping_add(run_index * 31 + 1))
            .with_time_budget(config.mission_time_budget)
    }

    /// One unified run list: golden runs first, then every planned fault —
    /// the same order the sequential loops used, so folding in index order
    /// reproduces their output exactly, while the pool is free to
    /// interleave long and short missions across workers.
    fn campaign_jobs(config: &CampaignConfig) -> Vec<CampaignJob> {
        let mut jobs: Vec<CampaignJob> = Vec::new();
        jobs.extend((0..config.golden_runs as u64).map(CampaignJob::Golden));
        jobs.extend(
            Self::plan_faults(config)
                .into_iter()
                .enumerate()
                .map(|(index, fault)| CampaignJob::Fault(index, fault)),
        );
        jobs
    }

    /// Runs the golden, injection and both D&R settings of one
    /// environment's campaign as a single sharded run list: every campaign
    /// job (a golden run, or a fault's injected/Gaussian/autoencoder
    /// triple) is one pool job flown through [`MissionRunner`], and the
    /// outcomes fold in run order, so the assembled campaign is
    /// bit-identical for every worker count.
    ///
    /// # Errors
    ///
    /// Propagates runner errors (none are expected with trained detectors);
    /// with several failures the lowest-indexed run's error is returned,
    /// independent of the worker count, and runs above that failure are
    /// skipped rather than flown.
    pub fn run_campaign(
        &self,
        config: &CampaignConfig,
        scheme: &SchemeConfig,
    ) -> Result<EnvironmentCampaign, MavfiError> {
        let mut state = CampaignFoldState::new(config);
        self.run_campaign_chunks(config, scheme, 0..self.campaign_chunk_count(config), &mut state)?;
        Ok(state.finish(config))
    }

    /// Number of checkpoint chunks the campaign's run list splits into at
    /// this executor's [`batch_size`](Self::batch_size) — the unit of
    /// [`run_campaign_chunks`](Self::run_campaign_chunks) ranges and of the
    /// campaign server's checkpoint stride.
    pub fn campaign_chunk_count(&self, config: &CampaignConfig) -> usize {
        let jobs = config.golden_runs + config.injections_per_stage * Stage::ALL.len();
        jobs.div_ceil(self.batch_size())
    }

    /// Runs the campaign jobs of the chunks `chunk_range` (clamped to the
    /// campaign's chunk count), folding their outcomes into `state` in run
    /// order.  Chunk `c` covers jobs `[c·B, min((c+1)·B, jobs))` for
    /// `B =` [`batch_size`](Self::batch_size); the jobs of the whole range
    /// fan out across the pool individually.
    ///
    /// Jobs are independent and the fold is strictly ordered, so running
    /// `0..k` into a fresh state and then `k..n` into that same state —
    /// even across a process restart, with the state serialised in between
    /// — produces exactly the bytes of one uninterrupted `0..n` pass.
    /// [`run_campaign`](Self::run_campaign) is precisely that uninterrupted
    /// pass; the campaign server executes bounded ranges between
    /// checkpoints.
    ///
    /// # Errors
    ///
    /// Propagates runner errors exactly like
    /// [`run_campaign`](Self::run_campaign); `state` keeps the outcomes
    /// folded before the lowest-indexed failure.
    pub fn run_campaign_chunks(
        &self,
        config: &CampaignConfig,
        scheme: &SchemeConfig,
        chunk_range: Range<usize>,
        state: &mut CampaignFoldState,
    ) -> Result<(), MavfiError> {
        self.fold_chunks(config, scheme, chunk_range, state, None).map(|_| ())
    }

    /// [`run_campaign`](Self::run_campaign) with mission telemetry: every
    /// mission flies with a [`MissionTelemetry`] sink attached (wall-clock
    /// kernel timing on) and the per-mission reports are merged — in
    /// deterministic run order — into one campaign-wide
    /// [`TelemetryReport`].
    ///
    /// The campaign results are bit-identical to the uninstrumented path
    /// for any worker count: telemetry only reads.  Within the report, the
    /// deterministic half (counters, latencies in ticks, timeline digest)
    /// is reproducible too; only the `wall_clock` section varies between
    /// machines and runs.
    ///
    /// # Errors
    ///
    /// Propagates runner errors exactly like
    /// [`run_campaign`](Self::run_campaign).
    pub fn run_campaign_instrumented(
        &self,
        config: &CampaignConfig,
        scheme: &SchemeConfig,
    ) -> Result<(EnvironmentCampaign, TelemetryReport), MavfiError> {
        let mut state = CampaignFoldState::new(config);
        let mut report = TelemetryReport::new();
        let chunks = 0..self.campaign_chunk_count(config);
        let pool_stats = self.fold_chunks(config, scheme, chunks, &mut state, Some(&mut report))?;
        report.wall_clock.worker_jobs = pool_stats.worker_jobs;
        report.wall_clock.fold_stalls += pool_stats.fold_stalls;
        Ok((state.finish(config), report))
    }

    /// The one campaign fold: maps `chunk_range` to its job range, flies
    /// each job through [`Self::run_job`] on the pool, and folds outcomes
    /// (and, with `telemetry`, their mission reports) in run order.
    fn fold_chunks(
        &self,
        config: &CampaignConfig,
        scheme: &SchemeConfig,
        chunk_range: Range<usize>,
        state: &mut CampaignFoldState,
        mut telemetry: Option<&mut TelemetryReport>,
    ) -> Result<PoolStats, MavfiError> {
        let detectors = scheme.detectors();
        let jobs = Self::campaign_jobs(config);
        let batch = self.batch_size();
        let end = chunk_range.end.saturating_mul(batch).min(jobs.len());
        let start = chunk_range.start.saturating_mul(batch).min(end);
        let instrument = telemetry.is_some();
        self.pool.try_fold_ordered_with_stats(
            &jobs[start..end],
            |_, job| Self::run_job(config, &detectors, job, instrument),
            state,
            |state, _, outcome| {
                if let Some(rollup) = telemetry.as_deref_mut() {
                    let reports = match &outcome {
                        JobOutcome::Golden { reports, .. } | JobOutcome::Fault(_, reports) => {
                            reports
                        }
                    };
                    for report in reports {
                        rollup.merge_mission(report);
                    }
                }
                state.fold(outcome);
            },
        )
    }

    /// Flies one campaign job through [`MissionRunner`]: a golden run, or a
    /// fault's injected / Gaussian / autoencoder triple.  With `instrument`,
    /// every mission gets a fresh [`MissionTelemetry`] sink (constructing it
    /// preallocates the telemetry buffers; the mission itself then runs
    /// allocation-free), reduced to a report as soon as the mission lands.
    fn run_job(
        config: &CampaignConfig,
        detectors: &TrainedDetectors,
        job: &CampaignJob,
        instrument: bool,
    ) -> Result<JobOutcome, MavfiError> {
        let (index, fault) = match job {
            CampaignJob::Golden(index) => (*index, None),
            CampaignJob::Fault(index, fault) => (*index as u64, Some(*fault)),
        };
        let runner = MissionRunner::new(Self::mission_spec(config, index));
        let mut reports = Vec::new();
        let mut fly = |protection: Protection| -> Result<MissionOutcome, MavfiError> {
            if !instrument {
                return runner.run(fault, protection, Some(detectors));
            }
            let mut sink = MissionTelemetry::new();
            let outcome = runner.run_instrumented(fault, protection, Some(detectors), &mut sink)?;
            reports.push(sink.into_report(&outcome.pipeline));
            Ok(outcome)
        };
        if fault.is_none() {
            let outcome = fly(Protection::None)?;
            return Ok(JobOutcome::Golden {
                qof: outcome.qof,
                ticks: outcome.pipeline.ticks,
                compute_ms: outcome.pipeline.total_compute_ms(),
                reports,
            });
        }
        let injected = fly(Protection::None)?.qof;
        let gaussian = fly(Protection::Gaussian)?;
        let autoencoder = fly(Protection::Autoencoder)?;
        Ok(JobOutcome::Fault(
            Box::new(FaultSettingOutcomes { injected, gaussian, autoencoder }),
            reports,
        ))
    }

    /// Runs an injection-only sweep (golden baseline plus unprotected
    /// injections) as a single sharded run list.
    ///
    /// Golden run `i` flies with seed `base_seed + i`; the injection at plan
    /// position `p` flies with seed `base_seed + (p % runs_per_target)`,
    /// mirroring the sequential per-target loops of the Fig. 3/4 drivers.
    ///
    /// # Errors
    ///
    /// Propagates mission-runner errors, lowest run index first.
    ///
    /// # Panics
    ///
    /// Panics if `sweep.runs_per_target` does not divide `sweep.plan.len()`
    /// — that always indicates a plan built for a different target list.
    pub fn run_sweep(&self, sweep: &InjectionSweep) -> Result<SweepOutcome, MavfiError> {
        assert!(
            sweep.plan.len() % sweep.runs_per_target.max(1) == 0,
            "runs_per_target ({}) must divide the plan length ({})",
            sweep.runs_per_target,
            sweep.plan.len()
        );
        let mut jobs: Vec<CampaignJob> = Vec::new();
        jobs.extend((0..sweep.golden_runs as u64).map(CampaignJob::Golden));
        jobs.extend(
            sweep
                .plan
                .specs()
                .iter()
                .enumerate()
                .map(|(position, fault)| CampaignJob::Fault(position, *fault)),
        );

        let spec_for = |seed_offset: u64| {
            MissionSpec::new(sweep.environment, sweep.base_seed + seed_offset)
                .with_time_budget(sweep.mission_time_budget)
        };
        let runs_per_target = sweep.runs_per_target.max(1);

        let mut outcome = SweepOutcome {
            golden: Vec::with_capacity(sweep.golden_runs),
            injected: Vec::with_capacity(sweep.plan.len()),
        };
        self.pool.try_fold_ordered(
            &jobs,
            |_, job| -> Result<(bool, QofMetrics), MavfiError> {
                match job {
                    CampaignJob::Golden(index) => {
                        Ok((true, MissionRunner::new(spec_for(*index)).run_golden().qof))
                    }
                    CampaignJob::Fault(position, fault) => {
                        let spec = spec_for((position % runs_per_target) as u64);
                        MissionRunner::new(spec)
                            .run(Some(*fault), Protection::None, None)
                            .map(|run| (false, run.qof))
                    }
                }
            },
            &mut outcome,
            |outcome, _, (is_golden, qof)| {
                if is_golden {
                    outcome.golden.push(qof);
                } else {
                    outcome.injected.push(qof);
                }
            },
        )?;
        Ok(outcome)
    }
}

/// Runs one environment's full campaign through a [`CampaignExecutor`] —
/// the single entry point the experiment drivers route through.
///
/// `workers == 0` means "auto" (`MAVFI_WORKERS`, falling back to the
/// available parallelism); any other value pins the worker count.  Results
/// are byte-identical for every choice.
///
/// # Errors
///
/// Propagates runner errors, lowest run index first.
pub fn run_campaign(
    config: &CampaignConfig,
    scheme: &SchemeConfig,
    workers: usize,
) -> Result<EnvironmentCampaign, MavfiError> {
    CampaignExecutor::new(workers).run_campaign(config, scheme)
}

/// [`run_campaign`] with mission telemetry: also returns the campaign-wide
/// [`TelemetryReport`] merged in deterministic run order.  The campaign
/// results are bit-identical to [`run_campaign`] for any worker count.
///
/// # Errors
///
/// Propagates runner errors, lowest run index first.
pub fn run_campaign_instrumented(
    config: &CampaignConfig,
    scheme: &SchemeConfig,
    workers: usize,
) -> Result<(EnvironmentCampaign, TelemetryReport), MavfiError> {
    CampaignExecutor::new(workers).run_campaign_instrumented(config, scheme)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::train_detectors;

    fn quick_detectors() -> TrainedDetectors {
        let spec =
            TrainingSpec { missions: 1, base_seed: 77, mission_time_budget: 25.0, epochs: 5 };
        train_detectors(&spec).0
    }

    #[test]
    fn executor_defaults_resolve_to_at_least_one_worker() {
        assert!(CampaignExecutor::new(0).workers() >= 1);
        assert_eq!(CampaignExecutor::new(3).workers(), 3);
        assert_eq!(CampaignExecutor::with_pool(WorkerPool::serial()).workers(), 1);
    }

    #[test]
    fn sweep_groups_split_per_target() {
        let outcome = SweepOutcome {
            golden: Vec::new(),
            injected: vec![
                QofMetrics {
                    status: mavfi_sim::world::MissionStatus::Succeeded,
                    flight_time_s: 10.0,
                    energy_j: 1.0,
                    distance_m: 5.0,
                };
                6
            ],
        };
        assert_eq!(outcome.injected_groups(2).len(), 3);
        assert_eq!(outcome.injected_groups(6).len(), 1);
    }

    #[test]
    fn a_chunk_fans_its_jobs_out_individually() {
        let config = CampaignConfig {
            environment: EnvironmentKind::Farm,
            golden_runs: 1,
            injections_per_stage: 1,
            base_seed: 9,
            mission_time_budget: 30.0,
        };
        let scheme = SchemeConfig::trained(quick_detectors());
        let executor = CampaignExecutor::new(2).with_batch_size(8);
        assert_eq!(executor.campaign_chunk_count(&config), 1); // 4 jobs in one chunk
        let mut state = CampaignFoldState::new(&config);
        let stats = executor.fold_chunks(&config, &scheme, 0..1, &mut state, None).unwrap();
        assert_eq!(stats.total_jobs(), 4, "one pool job per campaign job, not per chunk");
        assert_eq!(state.jobs_folded(), 4);
    }

    #[test]
    fn chunk_ranges_fold_identically_to_the_uninterrupted_pass() {
        let detectors = quick_detectors();
        let config = CampaignConfig {
            environment: EnvironmentKind::Farm,
            golden_runs: 2,
            injections_per_stage: 1,
            base_seed: 9,
            mission_time_budget: 60.0,
        };
        let scheme = SchemeConfig::trained(detectors);
        let executor = CampaignExecutor::new(2).with_batch_size(2);
        let full = executor.run_campaign(&config, &scheme).unwrap();
        let total = executor.campaign_chunk_count(&config);
        assert_eq!(total, 3); // 5 jobs at chunk size 2
        for split in 1..total {
            let mut state = CampaignFoldState::new(&config);
            executor.run_campaign_chunks(&config, &scheme, 0..split, &mut state).unwrap();
            // Round-trip the mid-campaign state through serde, as a
            // checkpoint would.
            let json = serde_json::to_string(&state).unwrap();
            let mut state: CampaignFoldState = serde_json::from_str(&json).unwrap();
            executor.run_campaign_chunks(&config, &scheme, split..total, &mut state).unwrap();
            assert_eq!(state.finish(&config), full, "split after chunk {split}");
        }
        // Out-of-range tails are clamped, not flown twice.
        let mut state = CampaignFoldState::new(&config);
        executor.run_campaign_chunks(&config, &scheme, 0..usize::MAX, &mut state).unwrap();
        assert_eq!(state.jobs_folded(), 5);
        assert_eq!(state.finish(&config), full);
    }

    #[test]
    fn campaign_runs_identically_through_the_entry_point() {
        let detectors = quick_detectors();
        let config = CampaignConfig {
            environment: EnvironmentKind::Farm,
            golden_runs: 1,
            injections_per_stage: 1,
            base_seed: 5,
            mission_time_budget: 60.0,
        };
        let scheme = SchemeConfig::trained(detectors);
        let serial = run_campaign(&config, &scheme, 1).unwrap();
        let parallel = run_campaign(&config, &scheme, 4).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial.golden.runs.len(), 1);
        assert_eq!(serial.injected.runs.len(), 3);
    }
}
