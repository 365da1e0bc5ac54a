//! The end-to-end perception-planning-control pipeline: the "companion
//! computer" software of the paper, with stage taps for fault injection and
//! anomaly detection.

use std::time::Instant;

use mavfi_sim::geometry::Vec3;
use mavfi_sim::sensors::DepthFrame;
use mavfi_sim::vehicle::{FlightCommand, QuadrotorState};
use serde::{Deserialize, Serialize};

use crate::control::{PathTracker, PathTrackerConfig, PidConfig, PidController};
use crate::kernel::KernelId;
use crate::perception::{
    CollisionChecker, CollisionCheckerConfig, OccupancyGrid, PointCloudGenerator,
};
use crate::planning::{
    MissionPlan, MotionPlanner, PathSmoother, PlannerAlgorithm, PlannerConfig, TrajectoryGenerator,
};
use crate::states::{MonitoredStates, PointCloud, Stage, Trajectory, Waypoint};
use crate::tap::{StageTap, TapAction};

/// Configuration of a full PPC pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PpcConfig {
    /// Which sampling-based planner to use.
    pub planner: PlannerAlgorithm,
    /// Planner parameters (bounds, iteration budget, seed, ...).
    pub planner_config: PlannerConfig,
    /// Occupancy-map voxel resolution (m).
    pub occupancy_resolution: f64,
    /// Collision-checker parameters.
    pub collision_checker: CollisionCheckerConfig,
    /// Path-tracker parameters.
    pub tracker: PathTrackerConfig,
    /// PID controller gains.
    pub pid: PidConfig,
    /// Cruise speed for generated trajectories (m/s).
    pub cruise_speed: f64,
    /// Way-point spacing for generated trajectories (m).
    pub waypoint_spacing: f64,
    /// Predicted time-to-collision below which the pipeline replans (s).
    pub replan_ttc_threshold: f64,
}

impl PpcConfig {
    /// A configuration appropriate for the given environment bounds and
    /// deterministic seed.
    pub fn new(planner: PlannerAlgorithm, bounds: mavfi_sim::geometry::Aabb, seed: u64) -> Self {
        Self {
            planner,
            planner_config: PlannerConfig::for_bounds(bounds).with_seed(seed),
            occupancy_resolution: 0.5,
            collision_checker: CollisionCheckerConfig::default(),
            tracker: PathTrackerConfig::default(),
            pid: PidConfig::default(),
            cruise_speed: 4.0,
            waypoint_spacing: 2.0,
            replan_ttc_threshold: 2.5,
        }
    }
}

/// Per-stage and per-kernel bookkeeping of one mission's pipeline activity.
///
/// Backed by fixed arrays indexed by [`KernelId::index`] / [`Stage::index`]
/// rather than hash maps: counting a kernel on the hot tick path is a single
/// array increment, and every iteration over the counters is structurally in
/// canonical [`KernelId::ALL`] / [`Stage::ALL`] order — the deterministic
/// summing that `total_compute_ms` previously had to enforce by convention.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PipelineStats {
    kernel_invocations: [u64; KernelId::COUNT],
    /// Number of replans triggered.
    pub replans: u64,
    recomputations: [u64; Stage::COUNT],
    /// Number of pipeline ticks executed.
    pub ticks: u64,
}

impl PipelineStats {
    fn count_kernel(&mut self, kernel: KernelId) {
        self.kernel_invocations[kernel.index()] += 1;
    }

    fn count_recompute(&mut self, stage: Stage) {
        self.recomputations[stage.index()] += 1;
    }

    /// Total invocations of `kernel`.
    pub fn invocations(&self, kernel: KernelId) -> u64 {
        self.kernel_invocations[kernel.index()]
    }

    /// Total recomputations of `stage`.
    pub fn recomputations_of(&self, stage: Stage) -> u64 {
        self.recomputations[stage.index()]
    }

    /// Total recomputations across all stages.
    pub fn total_recomputations(&self) -> u64 {
        self.recomputations.iter().sum()
    }

    /// Total nominal compute time spent in kernels, in milliseconds, using
    /// the i9 latency figures from [`KernelId::nominal_latency_ms`].
    ///
    /// The sum runs over the invocation array, i.e. structurally in
    /// canonical [`KernelId::ALL`] order, so the floating-point total is
    /// identical between identical missions.
    pub fn total_compute_ms(&self) -> f64 {
        KernelId::ALL
            .iter()
            .map(|&kernel| kernel.nominal_latency_ms() * self.invocations(kernel) as f64)
            .sum()
    }
}

/// Wall-clock durations of the kernel invocations of one tick, as a
/// fixed-capacity inline list in invocation order.
///
/// `Copy` and heap-free: telemetry reads it after each tick without
/// allocating.  The capacity (16) exceeds the worst case per tick — every
/// stage recomputing plus a double replan reaches 14 invocations — so
/// `push` never drops samples in practice; if a future pipeline exceeds it,
/// excess samples are silently dropped rather than allocating or panicking
/// on the hot path.
///
/// Wall-clock time **never feeds results**: these samples exist only for
/// observability (see `docs/OBSERVABILITY.md`) and are collected only while
/// [`PpcPipeline::set_timing_enabled`] is on.
#[derive(Debug, Clone, Copy)]
pub struct TickTimings {
    samples: [(KernelId, u64); Self::CAPACITY],
    len: u8,
}

impl TickTimings {
    /// Maximum samples captured per tick.
    pub const CAPACITY: usize = 16;

    fn clear(&mut self) {
        self.len = 0;
    }

    fn push(&mut self, kernel: KernelId, nanos: u64) {
        if (self.len as usize) < Self::CAPACITY {
            self.samples[self.len as usize] = (kernel, nanos);
            self.len += 1;
        }
    }

    /// The recorded `(kernel, nanoseconds)` samples, in invocation order.
    pub fn as_slice(&self) -> &[(KernelId, u64)] {
        &self.samples[..self.len as usize]
    }

    /// Iterates over the recorded samples.
    pub fn iter(&self) -> impl Iterator<Item = (KernelId, u64)> + '_ {
        self.as_slice().iter().copied()
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` when no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for TickTimings {
    fn default() -> Self {
        Self { samples: [(KernelId::Pid, 0); Self::CAPACITY], len: 0 }
    }
}

/// A fixed-capacity, heap-free list of pipeline stages in recomputation
/// order (each stage recomputes at most once per tick, so three slots
/// suffice).  Keeping this inline makes [`PpcTick`] `Copy` and the tick
/// output allocation-free.
#[derive(Debug, Clone, Copy)]
pub struct StageList {
    stages: [Stage; 3],
    len: u8,
}

impl Default for StageList {
    fn default() -> Self {
        Self { stages: [Stage::Perception; 3], len: 0 }
    }
}

impl PartialEq for StageList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl StageList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a stage.
    ///
    /// # Panics
    ///
    /// Panics if all three slots are already filled.
    pub fn push(&mut self, stage: Stage) {
        assert!((self.len as usize) < self.stages.len(), "a tick recomputes at most 3 stages");
        self.stages[self.len as usize] = stage;
        self.len += 1;
    }

    /// The recorded stages, in order.
    pub fn as_slice(&self) -> &[Stage] {
        &self.stages[..self.len as usize]
    }

    /// Number of recorded stages.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` when no stage was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` when `stage` was recorded.
    pub fn contains(&self, stage: Stage) -> bool {
        self.as_slice().contains(&stage)
    }

    /// Iterates over the recorded stages.
    pub fn iter(&self) -> impl Iterator<Item = Stage> + '_ {
        self.as_slice().iter().copied()
    }
}

/// Output of one pipeline tick.
///
/// `Copy`: returning a tick performs no heap allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpcTick {
    /// The flight command to forward to the actuator.
    pub command: FlightCommand,
    /// Snapshot of the 13 monitored inter-kernel states.
    pub monitored: MonitoredStates,
    /// Whether the planning stage ran (replan) during this tick.
    pub replanned: bool,
    /// Stages recomputed during this tick at a tap's request.
    pub recomputed_stages: StageList,
    /// Whether the mission's final goal has been reached according to the
    /// mission planner.
    pub mission_complete: bool,
}

/// The end-to-end PPC pipeline.
///
/// # Examples
///
/// ```
/// use mavfi_ppc::pipeline::{PpcConfig, PpcPipeline};
/// use mavfi_ppc::planning::PlannerAlgorithm;
/// use mavfi_ppc::tap::NoopTap;
/// use mavfi_sim::prelude::*;
///
/// let env = EnvironmentKind::Sparse.build(1);
/// let config = PpcConfig::new(PlannerAlgorithm::RrtStar, env.bounds(), 7);
/// let mut pipeline = PpcPipeline::new(config, env.start(), env.goal());
/// let camera = DepthCamera::default();
/// let world = World::new(env, QuadrotorParams::default(), PowerModel::default(), MissionConfig::default());
/// let frame = camera.capture(world.environment(), &world.vehicle().pose());
/// let tick = pipeline.tick(&frame, &world.vehicle().state(), 0.1, &mut NoopTap);
/// assert!(tick.command.is_finite());
/// ```
pub struct PpcPipeline {
    config: PpcConfig,
    point_cloud_generator: PointCloudGenerator,
    occupancy: OccupancyGrid,
    collision_checker: CollisionChecker,
    planner: Box<dyn MotionPlanner + Send>,
    smoother: PathSmoother,
    trajectory_generator: TrajectoryGenerator,
    mission: MissionPlan,
    tracker: PathTracker,
    pid: PidController,
    trajectory: Trajectory,
    stats: PipelineStats,
    // Scratch buffers reused across ticks and replans so the steady-state
    // tick — and, with `plan_into`, the replan path too — performs zero
    // heap allocations (see docs/PERFORMANCE.md for the ownership
    // convention).
    cloud: PointCloud,
    planned: crate::planning::PlannedPath,
    smoothed: crate::planning::PlannedPath,
    resample_positions: Vec<Vec3>,
    // Revision tracking for the collision-check cache: the trajectory
    // revision bumps whenever the stored trajectory's contents change —
    // replans, abandonment restores and fault corruptions through the
    // planning tap alike, caught by shadow-comparing after the planning
    // stage.
    trajectory_revision: u64,
    trajectory_shadow: Vec<Waypoint>,
    // Wall-clock observability (off by default): per-tick kernel durations
    // captured inline, read back by telemetry.  Never feeds results.
    timing_enabled: bool,
    tick_timings: TickTimings,
}

impl std::fmt::Debug for PpcPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PpcPipeline")
            .field("planner", &self.config.planner)
            .field("trajectory_len", &self.trajectory.len())
            .field("ticks", &self.stats.ticks)
            .finish()
    }
}

impl PpcPipeline {
    /// Creates a pipeline flying a single-goal package-delivery mission from
    /// `start` to `goal`.
    pub fn new(config: PpcConfig, start: Vec3, goal: Vec3) -> Self {
        Self::with_mission(config, MissionPlan::package_delivery(start, goal))
    }

    /// Creates a pipeline flying an arbitrary mission plan.
    pub fn with_mission(config: PpcConfig, mission: MissionPlan) -> Self {
        Self {
            config,
            point_cloud_generator: PointCloudGenerator::default(),
            occupancy: OccupancyGrid::new(config.occupancy_resolution),
            collision_checker: CollisionChecker::new(config.collision_checker),
            planner: config.planner.instantiate(config.planner_config),
            smoother: PathSmoother::new(config.planner_config.margin),
            trajectory_generator: TrajectoryGenerator::new(
                config.cruise_speed,
                config.waypoint_spacing,
            ),
            mission,
            tracker: PathTracker::new(config.tracker),
            pid: PidController::new(config.pid),
            trajectory: Trajectory::default(),
            stats: PipelineStats::default(),
            cloud: PointCloud::default(),
            planned: crate::planning::PlannedPath::default(),
            smoothed: crate::planning::PlannedPath::default(),
            resample_positions: Vec::new(),
            trajectory_revision: 0,
            trajectory_shadow: Vec::new(),
            timing_enabled: false,
            tick_timings: TickTimings::default(),
        }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> PpcConfig {
        self.config
    }

    /// Accumulated pipeline statistics.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// The currently stored trajectory.
    pub fn trajectory(&self) -> &Trajectory {
        &self.trajectory
    }

    /// The occupancy map built so far.
    pub fn occupancy(&self) -> &OccupancyGrid {
        &self.occupancy
    }

    /// The mission plan.
    pub fn mission(&self) -> &MissionPlan {
        &self.mission
    }

    /// The trajectory revision counter: bumped whenever the stored
    /// trajectory's contents changed during a tick's planning stage, by a
    /// replan or by a tap mutation.  Together with
    /// [`OccupancyGrid::revision`] it keys the collision-check cache.
    pub fn trajectory_revision(&self) -> u64 {
        self.trajectory_revision
    }

    /// Enables or disables the collision-check revision cache (enabled by
    /// default).  A verification knob: `tests/replan_equivalence.rs` flies
    /// the same missions cached and uncached and asserts bit-identical
    /// outcomes.
    pub fn set_collision_cache_enabled(&mut self, enabled: bool) {
        self.collision_checker.set_cache_enabled(enabled);
    }

    /// Hit/miss counters of the collision-check revision cache.
    pub fn collision_cache_stats(&self) -> crate::perception::CollisionCacheStats {
        self.collision_checker.cache_stats()
    }

    /// Enables or disables wall-clock timing of kernel invocations
    /// (disabled by default).  Timing feeds [`Self::last_tick_timings`]
    /// only — results are bit-identical either way, and the capture is
    /// allocation-free (`Instant::now` plus an inline array write).
    pub fn set_timing_enabled(&mut self, enabled: bool) {
        self.timing_enabled = enabled;
    }

    /// Whether wall-clock kernel timing is on.
    pub fn timing_enabled(&self) -> bool {
        self.timing_enabled
    }

    /// Wall-clock kernel durations of the most recent tick (empty while
    /// timing is disabled or before the first timed tick).
    pub fn last_tick_timings(&self) -> &TickTimings {
        &self.tick_timings
    }

    fn timing_start(&self) -> Option<Instant> {
        if self.timing_enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    fn record_timing(&mut self, kernel: KernelId, start: Option<Instant>) {
        if let Some(start) = start {
            self.tick_timings.push(kernel, start.elapsed().as_nanos() as u64);
        }
    }

    /// Runs one perception-planning-control cycle.
    ///
    /// `tap` is invoked between stages and may mutate inter-kernel states
    /// (fault injection) or request stage recomputation (recovery).
    ///
    /// The steady-state tick performs zero heap allocations — replans
    /// included: the point cloud, the planner output (`plan_into`), the
    /// smoothing/trajectory scratch and the returned `Copy` [`PpcTick`] all
    /// reuse pipeline-owned buffers (asserted by `tests/zero_alloc_tick.rs`,
    /// fault-triggered replans included).
    pub fn tick(
        &mut self,
        frame: &DepthFrame,
        vehicle: &QuadrotorState,
        dt: f64,
        tap: &mut dyn StageTap,
    ) -> PpcTick {
        self.stats.ticks += 1;
        self.tick_timings.clear();
        let mut recomputed_stages = StageList::new();
        let position = vehicle.position;

        // ----- Perception -----
        let timer = self.timing_start();
        self.point_cloud_generator.run_into(frame, &mut self.cloud);
        self.record_timing(KernelId::PointCloudGeneration, timer);
        self.stats.count_kernel(KernelId::PointCloudGeneration);
        tap.after_point_cloud(&mut self.cloud);
        let timer = self.timing_start();
        self.occupancy.insert_cloud(&self.cloud);
        self.record_timing(KernelId::OctoMap, timer);
        self.stats.count_kernel(KernelId::OctoMap);
        tap.after_occupancy(&mut self.occupancy);

        let timer = self.timing_start();
        let mut estimate = self.collision_checker.run_cached(
            &self.occupancy,
            position,
            vehicle.velocity,
            &self.trajectory,
            self.trajectory_revision,
            self.tracker.active_index(),
        );
        self.record_timing(KernelId::CollisionCheck, timer);
        self.stats.count_kernel(KernelId::CollisionCheck);
        if tap.after_perception(&mut estimate) == TapAction::Recompute {
            // Recovery: rebuild the perception output from scratch (occupancy
            // re-update plus collision re-check, the 289 ms path of §VI-C).
            // When the re-inserted cloud adds no new voxel — the common case,
            // the corruption hit the estimate, not the map — both grid and
            // trajectory revisions are unchanged and the re-check is a pure
            // cache hit.
            let timer = self.timing_start();
            self.occupancy.insert_cloud(&self.cloud);
            self.record_timing(KernelId::OctoMap, timer);
            self.stats.count_kernel(KernelId::OctoMap);
            let timer = self.timing_start();
            estimate = self.collision_checker.run_cached(
                &self.occupancy,
                position,
                vehicle.velocity,
                &self.trajectory,
                self.trajectory_revision,
                self.tracker.active_index(),
            );
            self.record_timing(KernelId::CollisionCheck, timer);
            self.stats.count_kernel(KernelId::CollisionCheck);
            self.stats.count_recompute(Stage::Perception);
            recomputed_stages.push(Stage::Perception);
        }

        // ----- Planning -----
        let collision_imminent = estimate.obstacle_ahead
            && (estimate.time_to_collision <= self.config.replan_ttc_threshold
                || estimate.future_collision_seq >= 0.0);
        let needs_plan = self.trajectory.is_empty()
            || self.tracker.is_finished(&self.trajectory)
            || collision_imminent;
        let mut replanned = false;
        if needs_plan && !self.mission.is_complete() {
            replanned = self.replan(position);
        }
        if tap.after_planning(&mut self.trajectory, self.tracker.active_index())
            == TapAction::Recompute
        {
            // Recovery: regenerate the trajectory (the 83 ms re-plan path).
            self.replan(position);
            self.stats.count_recompute(Stage::Planning);
            recomputed_stages.push(Stage::Planning);
        }
        // Revision tracking: shadow-compare the stored trajectory so *any*
        // planning-stage mutation — replan, tap corruption, abandonment
        // restore — bumps the revision the collision-check cache keys on.
        // Way-points are plain `Copy` data, so the compare is a cheap linear
        // scan and the shadow refresh reuses its buffer.
        if self.trajectory.waypoints != self.trajectory_shadow {
            self.trajectory_revision += 1;
            self.trajectory_shadow.clone_from(&self.trajectory.waypoints);
        }

        // ----- Control -----
        self.stats.count_kernel(KernelId::PathTracking);
        let timer = self.timing_start();
        let target = self.tracker.target(&self.trajectory, position);
        self.record_timing(KernelId::PathTracking, timer);
        let mut command = self.issue_command(target.as_ref(), vehicle, dt);
        if tap.after_control(&mut command) == TapAction::Recompute {
            // Recovery: recompute the control output (the 0.46 ms path).
            self.pid.reset();
            self.stats.count_kernel(KernelId::PathTracking);
            let timer = self.timing_start();
            let fresh_target = self.tracker.target(&self.trajectory, position);
            self.record_timing(KernelId::PathTracking, timer);
            command = self.issue_command(fresh_target.as_ref(), vehicle, dt);
            self.stats.count_recompute(Stage::Control);
            recomputed_stages.push(Stage::Control);
        }

        // ----- Mission bookkeeping -----
        self.stats.count_kernel(KernelId::MissionPlanner);
        let timer = self.timing_start();
        let mission_complete =
            self.mission.advance_if_reached(position, self.config.planner_config.goal_tolerance);
        self.record_timing(KernelId::MissionPlanner, timer);

        let monitored = MonitoredStates {
            collision: estimate,
            waypoint: target.unwrap_or(Waypoint {
                position,
                yaw: vehicle.yaw,
                velocity: Vec3::ZERO,
            }),
            command,
        };

        PpcTick { command, monitored, replanned, recomputed_stages, mission_complete }
    }

    fn replan(&mut self, position: Vec3) -> bool {
        let Some(goal) = self.mission.current_goal() else {
            self.trajectory.waypoints.clear();
            return false;
        };
        self.stats.count_kernel(self.config.planner.kernel());
        self.stats.replans += 1;
        let timer = self.timing_start();
        let planned = self.planner.plan_into(&self.occupancy, position, goal, &mut self.planned);
        self.record_timing(self.config.planner.kernel(), timer);
        if planned {
            self.stats.count_kernel(KernelId::Smoothing);
            let timer = self.timing_start();
            self.smoother.run_into(&self.occupancy, &self.planned, &mut self.smoothed);
            self.trajectory_generator.run_into(
                &self.smoothed,
                &mut self.resample_positions,
                &mut self.trajectory,
            );
            self.record_timing(KernelId::Smoothing, timer);
            self.tracker.reset();
            self.pid.reset();
            true
        } else {
            // Keep the previous trajectory (if any); the vehicle will
            // brake on an empty one.
            false
        }
    }

    fn issue_command(
        &mut self,
        target: Option<&Waypoint>,
        vehicle: &QuadrotorState,
        dt: f64,
    ) -> FlightCommand {
        self.stats.count_kernel(KernelId::Pid);
        let timer = self.timing_start();
        let command = match target {
            Some(waypoint) => self.pid.run(waypoint, vehicle, dt),
            None => FlightCommand::HOLD,
        };
        self.record_timing(KernelId::Pid, timer);
        command
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tap::NoopTap;
    use mavfi_sim::prelude::*;

    fn run_mission(kind: EnvironmentKind, seed: u64, max_seconds: f64) -> (MissionStatus, f64) {
        let env = kind.build(seed);
        let config = PpcConfig::new(PlannerAlgorithm::RrtStar, env.bounds(), seed);
        let mut pipeline = PpcPipeline::new(config, env.start(), env.goal());
        let camera = DepthCamera::default();
        let mission_config =
            MissionConfig { max_mission_time: max_seconds, ..MissionConfig::default() };
        let mut world =
            World::new(env, QuadrotorParams::default(), PowerModel::default(), mission_config);
        let dt = 0.1;
        while world.status() == MissionStatus::InProgress {
            let frame = camera.capture(world.environment(), &world.vehicle().pose());
            let tick = pipeline.tick(&frame, &world.vehicle().state(), dt, &mut NoopTap);
            world.step(&tick.command, dt);
        }
        (world.status(), world.elapsed())
    }

    #[test]
    fn completes_mission_in_sparse_environment() {
        let (status, elapsed) = run_mission(EnvironmentKind::Sparse, 3, 300.0);
        assert_eq!(status, MissionStatus::Succeeded, "mission should succeed, took {elapsed} s");
        assert!(elapsed > 5.0);
    }

    #[test]
    fn completes_mission_in_farm_environment() {
        let (status, _) = run_mission(EnvironmentKind::Farm, 1, 300.0);
        assert_eq!(status, MissionStatus::Succeeded);
    }

    #[test]
    fn stats_track_kernel_invocations_and_replans() {
        let env = EnvironmentKind::Sparse.build(5);
        let config = PpcConfig::new(PlannerAlgorithm::Rrt, env.bounds(), 5);
        let mut pipeline = PpcPipeline::new(config, env.start(), env.goal());
        let camera = DepthCamera::default();
        let world = World::new(
            env,
            QuadrotorParams::default(),
            PowerModel::default(),
            MissionConfig::default(),
        );
        let frame = camera.capture(world.environment(), &world.vehicle().pose());
        let tick = pipeline.tick(&frame, &world.vehicle().state(), 0.1, &mut NoopTap);
        assert!(tick.replanned, "first tick must plan");
        let stats = pipeline.stats();
        assert_eq!(stats.ticks, 1);
        assert_eq!(stats.invocations(KernelId::PointCloudGeneration), 1);
        assert_eq!(stats.invocations(KernelId::OctoMap), 1);
        assert_eq!(stats.invocations(KernelId::Rrt), 1);
        assert!(stats.total_compute_ms() > 0.0);
        assert_eq!(stats.replans, 1);
    }

    #[test]
    fn recompute_requests_are_honoured_and_counted() {
        struct RecomputeEverything;
        impl StageTap for RecomputeEverything {
            fn after_perception(
                &mut self,
                _estimate: &mut crate::states::CollisionEstimate,
            ) -> TapAction {
                TapAction::Recompute
            }
            fn after_planning(
                &mut self,
                _trajectory: &mut Trajectory,
                _active_index: usize,
            ) -> TapAction {
                TapAction::Recompute
            }
            fn after_control(&mut self, _command: &mut FlightCommand) -> TapAction {
                TapAction::Recompute
            }
        }

        let env = EnvironmentKind::Farm.build(1);
        let config = PpcConfig::new(PlannerAlgorithm::RrtConnect, env.bounds(), 1);
        let mut pipeline = PpcPipeline::new(config, env.start(), env.goal());
        let camera = DepthCamera::default();
        let world = World::new(
            env,
            QuadrotorParams::default(),
            PowerModel::default(),
            MissionConfig::default(),
        );
        let frame = camera.capture(world.environment(), &world.vehicle().pose());
        let tick = pipeline.tick(&frame, &world.vehicle().state(), 0.1, &mut RecomputeEverything);
        assert_eq!(tick.recomputed_stages.len(), 3);
        assert_eq!(pipeline.stats().recomputations_of(Stage::Perception), 1);
        assert_eq!(pipeline.stats().recomputations_of(Stage::Planning), 1);
        assert_eq!(pipeline.stats().recomputations_of(Stage::Control), 1);
    }

    #[test]
    fn monitored_states_reflect_command_and_waypoint() {
        let env = EnvironmentKind::Sparse.build(9);
        let config = PpcConfig::new(PlannerAlgorithm::RrtStar, env.bounds(), 9);
        let mut pipeline = PpcPipeline::new(config, env.start(), env.goal());
        let camera = DepthCamera::default();
        let world = World::new(
            env,
            QuadrotorParams::default(),
            PowerModel::default(),
            MissionConfig::default(),
        );
        let frame = camera.capture(world.environment(), &world.vehicle().pose());
        let tick = pipeline.tick(&frame, &world.vehicle().state(), 0.1, &mut NoopTap);
        assert_eq!(tick.monitored.command, tick.command);
        let array = tick.monitored.as_array();
        assert!(array.iter().all(|v| v.is_finite()));
    }
}
