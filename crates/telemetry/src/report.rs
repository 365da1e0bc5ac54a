//! Serialisable telemetry reports: one per mission, merged deterministically
//! into a campaign-wide rollup.
//!
//! The rollup splits **deterministic** data (counters, invocation counts,
//! detection/recovery latency in ticks, the timeline digest) from
//! **wall-clock** data (latency histograms, worker utilisation).  The
//! deterministic half is bit-identical across runs and worker counts; the
//! wall-clock half is machine- and scheduling-dependent by nature and must
//! never feed back into results.

use mavfi_ppc::states::Stage;
use mavfi_ppc::KernelId;
use serde::{Deserialize, Serialize};

use crate::histogram::LatencyHistogram;
use crate::sink::TelemetryCounters;
use crate::timeline::TimelineEvent;

/// The telemetry of one finished mission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MissionReport {
    /// Deterministic activity counters.
    pub counters: TelemetryCounters,
    /// Kernel invocation counts, indexed by [`KernelId::index`].
    pub kernel_invocations: [u64; KernelId::COUNT],
    /// Stage of the injected fault's corrupted state, when attributable.
    pub fault_stage: Option<Stage>,
    /// Ticks from fault injection to the first detector alarm.
    pub detection_latency_ticks: Option<u64>,
    /// Ticks from fault injection to the first recovery action.
    pub recovery_latency_ticks: Option<u64>,
    /// The event timeline (earliest events first; see `EventTimeline`).
    pub events: Vec<TimelineEvent>,
    /// Events beyond the timeline capacity, counted instead of stored.
    pub events_dropped: u64,
    /// Wall-clock kernel latency histograms (ns), indexed by
    /// [`KernelId::index`].  Empty unless pipeline timing was enabled.
    pub kernel_latency_ns: [LatencyHistogram; KernelId::COUNT],
}

/// Sample/total/max accumulator for latencies measured in ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyTicks {
    /// Number of missions contributing a sample.
    pub samples: u64,
    /// Sum of the samples (ticks).
    pub total_ticks: u64,
    /// Largest sample (ticks).
    pub max_ticks: u64,
}

impl LatencyTicks {
    /// Records one latency sample.
    pub fn record(&mut self, ticks: u64) {
        self.samples += 1;
        self.total_ticks += ticks;
        self.max_ticks = self.max_ticks.max(ticks);
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Self) {
        self.samples += other.samples;
        self.total_ticks += other.total_ticks;
        self.max_ticks = self.max_ticks.max(other.max_ticks);
    }

    /// Mean latency in ticks (0.0 when no samples).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.total_ticks as f64 / self.samples as f64
        }
    }
}

/// Wall-clock (nondeterministic) half of a campaign rollup: histograms and
/// worker utilisation vary with machine speed and scheduling, which is why
/// they live apart from the deterministic fields — determinism tests
/// compare everything *except* this.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WallClockRollup {
    /// Merged kernel latency histograms (ns), indexed by
    /// [`KernelId::index`].
    pub kernel_latency_ns: [LatencyHistogram; KernelId::COUNT],
    /// Jobs executed per worker (empty for serial runs; see
    /// `PoolStats`).
    pub worker_jobs: Vec<u64>,
    /// Order-restoration stalls observed while folding job results.
    pub fold_stalls: u64,
}

/// Per-job campaign-server activity counters: submissions, executed
/// chunks, checkpoint traffic and resume events.
///
/// Like [`WallClockRollup`], these describe *how* results were produced —
/// how often the serving process was killed, resumed or fed duplicates —
/// not the results themselves, so [`TelemetryReport::deterministic_view`]
/// strips them: an interrupted serve and an uninterrupted one must agree
/// on everything the view keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerCounters {
    /// Campaign submissions admitted as new jobs.
    pub jobs_submitted: u64,
    /// Submissions recognised as duplicates of an existing job.
    pub duplicate_submissions: u64,
    /// Jobs resumed from an on-disk checkpoint after a restart.
    pub jobs_resumed: u64,
    /// Jobs whose final campaign was assembled.
    pub jobs_completed: u64,
    /// Campaign chunks (checkpoint strides of campaign jobs) executed.
    pub chunks_executed: u64,
    /// Checkpoints written successfully.
    pub checkpoints_written: u64,
    /// Checkpoints loaded and verified at startup.
    pub checkpoints_loaded: u64,
    /// Checkpoint files that failed verification at startup.
    pub checkpoints_corrupt: u64,
    /// Checkpoint writes that failed at the I/O layer.
    pub checkpoint_failures: u64,
    /// Incremental progress aggregates published.
    pub progress_updates: u64,
}

impl ServerCounters {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Self) {
        self.jobs_submitted += other.jobs_submitted;
        self.duplicate_submissions += other.duplicate_submissions;
        self.jobs_resumed += other.jobs_resumed;
        self.jobs_completed += other.jobs_completed;
        self.chunks_executed += other.chunks_executed;
        self.checkpoints_written += other.checkpoints_written;
        self.checkpoints_loaded += other.checkpoints_loaded;
        self.checkpoints_corrupt += other.checkpoints_corrupt;
        self.checkpoint_failures += other.checkpoint_failures;
        self.progress_updates += other.progress_updates;
    }
}

/// The campaign-wide telemetry rollup: every mission's report merged in
/// deterministic (run-index) order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Missions merged into this rollup.
    pub missions: u64,
    /// Summed deterministic counters.
    pub counters: TelemetryCounters,
    /// Summed kernel invocation counts, indexed by [`KernelId::index`].
    pub kernel_invocations: [u64; KernelId::COUNT],
    /// Fault → first-alarm latency per fault stage, in ticks, indexed by
    /// [`Stage::index`].
    pub detection_latency: [LatencyTicks; Stage::COUNT],
    /// Fault → first-recovery latency per fault stage, in ticks, indexed by
    /// [`Stage::index`].
    pub recovery_latency: [LatencyTicks; Stage::COUNT],
    /// Total timeline events across missions (recorded plus dropped).
    pub timeline_events: u64,
    /// Digest of every recorded timeline event, folded in merge order:
    /// two rollups with equal digests saw identical event streams.
    pub timeline_digest: u64,
    /// The machine-dependent half (histograms, worker utilisation).
    pub wall_clock: WallClockRollup,
    /// Campaign-server activity (submissions, checkpoints, resumes);
    /// all-zero for library runs that never touch the server.
    pub server: ServerCounters,
}

impl TelemetryReport {
    /// An empty rollup.
    pub fn new() -> Self {
        Self { timeline_digest: TimelineEvent::DIGEST_SEED, ..Self::default() }
    }

    /// Merges one mission's report into the rollup.  Call in a fixed
    /// mission order (the campaign's run-index order) — counters and
    /// histograms are order-insensitive, but the timeline digest is
    /// deliberately order-sensitive so rollups certify the full event
    /// stream.
    pub fn merge_mission(&mut self, report: &MissionReport) {
        self.missions += 1;
        self.counters.merge(&report.counters);
        for kernel in KernelId::ALL {
            self.kernel_invocations[kernel.index()] += report.kernel_invocations[kernel.index()];
            self.wall_clock.kernel_latency_ns[kernel.index()]
                .merge(&report.kernel_latency_ns[kernel.index()]);
        }
        if let Some(stage) = report.fault_stage {
            if let Some(ticks) = report.detection_latency_ticks {
                self.detection_latency[stage.index()].record(ticks);
            }
            if let Some(ticks) = report.recovery_latency_ticks {
                self.recovery_latency[stage.index()].record(ticks);
            }
        }
        self.timeline_events += report.events.len() as u64 + report.events_dropped;
        for event in &report.events {
            self.timeline_digest = event.fold_digest(self.timeline_digest);
        }
    }

    /// Merges another rollup produced by a *later* contiguous range of
    /// missions (campaign folds merge job rollups in run order).  The
    /// digest chains `other`'s events after `self`'s, which matches
    /// re-merging the missions one by one only when `other` was itself
    /// seeded with [`TimelineEvent::DIGEST_SEED`] — it is combined here as
    /// an order-sensitive continuation hash.
    pub fn merge(&mut self, other: &Self) {
        self.missions += other.missions;
        self.counters.merge(&other.counters);
        for kernel in KernelId::ALL {
            self.kernel_invocations[kernel.index()] += other.kernel_invocations[kernel.index()];
            self.wall_clock.kernel_latency_ns[kernel.index()]
                .merge(&other.wall_clock.kernel_latency_ns[kernel.index()]);
        }
        for index in 0..Stage::COUNT {
            self.detection_latency[index].merge(&other.detection_latency[index]);
            self.recovery_latency[index].merge(&other.recovery_latency[index]);
        }
        self.timeline_events += other.timeline_events;
        // Chain the digests deterministically (order-sensitive, like the
        // event fold itself).
        self.timeline_digest ^= other
            .timeline_digest
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left((self.missions % 63) as u32 + 1);
        self.wall_clock.fold_stalls += other.wall_clock.fold_stalls;
        self.server.merge(&other.server);
    }

    /// The rollup with everything machine-dependent stripped: the part that
    /// must be bit-identical across runs and worker counts (and, for served
    /// campaigns, across kill/resume histories).  Determinism tests compare
    /// this.
    pub fn deterministic_view(&self) -> Self {
        Self {
            wall_clock: WallClockRollup::default(),
            server: ServerCounters::default(),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::TelemetryEvent;

    fn mission(fault_stage: Option<Stage>, detection: Option<u64>) -> MissionReport {
        let mut counters = TelemetryCounters { ticks: 100, replans: 2, ..Default::default() };
        counters.ray_hits = 40;
        counters.ray_misses = 60;
        let mut kernel_invocations = [0u64; KernelId::COUNT];
        kernel_invocations[KernelId::OctoMap.index()] = 100;
        MissionReport {
            counters,
            kernel_invocations,
            fault_stage,
            detection_latency_ticks: detection,
            recovery_latency_ticks: detection.map(|t| t + 1),
            events: vec![TimelineEvent {
                tick: 41,
                sim_time_s: 4.1,
                event: TelemetryEvent::Replan,
            }],
            events_dropped: 0,
            kernel_latency_ns: [LatencyHistogram::default(); KernelId::COUNT],
        }
    }

    #[test]
    fn merge_mission_accumulates_deterministic_fields() {
        let mut rollup = TelemetryReport::new();
        rollup.merge_mission(&mission(Some(Stage::Planning), Some(3)));
        rollup.merge_mission(&mission(Some(Stage::Planning), Some(5)));
        rollup.merge_mission(&mission(None, None));
        assert_eq!(rollup.missions, 3);
        assert_eq!(rollup.counters.ticks, 300);
        assert_eq!(rollup.kernel_invocations[KernelId::OctoMap.index()], 300);
        let planning = rollup.detection_latency[Stage::Planning.index()];
        assert_eq!(planning.samples, 2);
        assert_eq!(planning.total_ticks, 8);
        assert_eq!(planning.max_ticks, 5);
        assert_eq!(planning.mean(), 4.0);
        assert_eq!(rollup.timeline_events, 3);
    }

    #[test]
    fn identical_merge_orders_yield_identical_rollups() {
        let missions = [mission(Some(Stage::Perception), Some(1)), mission(None, None)];
        let mut a = TelemetryReport::new();
        let mut b = TelemetryReport::new();
        for m in &missions {
            a.merge_mission(m);
            b.merge_mission(m);
        }
        assert_eq!(a, b);
        assert_eq!(a.deterministic_view(), b.deterministic_view());
    }

    #[test]
    fn deterministic_view_strips_wall_clock_data() {
        let mut rollup = TelemetryReport::new();
        let mut report = mission(None, None);
        report.kernel_latency_ns[0].record(1_000);
        rollup.merge_mission(&report);
        rollup.wall_clock.worker_jobs = vec![3, 4];
        rollup.server.jobs_submitted = 2;
        rollup.server.checkpoints_written = 5;
        let view = rollup.deterministic_view();
        assert_eq!(view.wall_clock, WallClockRollup::default());
        assert_eq!(view.server, ServerCounters::default());
        assert_eq!(view.counters, rollup.counters);
    }

    #[test]
    fn server_counters_merge_fieldwise() {
        let mut a = TelemetryReport::new();
        a.server.jobs_submitted = 1;
        a.server.chunks_executed = 4;
        let mut b = TelemetryReport::new();
        b.server.jobs_submitted = 2;
        b.server.jobs_resumed = 1;
        b.server.checkpoints_loaded = 3;
        a.merge(&b);
        assert_eq!(a.server.jobs_submitted, 3);
        assert_eq!(a.server.chunks_executed, 4);
        assert_eq!(a.server.jobs_resumed, 1);
        assert_eq!(a.server.checkpoints_loaded, 3);
    }

    #[test]
    fn rollup_round_trips_through_serde() {
        let mut rollup = TelemetryReport::new();
        rollup.merge_mission(&mission(Some(Stage::Control), Some(2)));
        let json = serde_json::to_string(&rollup).unwrap();
        let back: TelemetryReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rollup);
    }
}
