//! Mission flights: the untraced path through `MissionRunner::run`, and the
//! traced path — the benchmark's own copy of the runner's closed loop with a
//! span around every call into a layer.

use std::time::Instant;

use mavfi::prelude::{MissionOutcome, MissionRunner, MissionSpec, Protection, QofMetrics};
use mavfi::TrainedDetectors;
use mavfi_detect::detector_node::{DetectionScheme, DetectorTap};
use mavfi_fault::injector::{FaultInjector, FaultSpec};
use mavfi_ppc::kernel::KernelId;
use mavfi_ppc::perception::occupancy::OccupancyGrid;
use mavfi_ppc::pipeline::{PpcConfig, PpcPipeline};
use mavfi_ppc::states::{CollisionEstimate, PointCloud, Trajectory};
use mavfi_ppc::tap::{StageTap, TapAction};
use mavfi_sim::energy::PowerModel;
use mavfi_sim::sensors::{CaptureScratch, DepthCamera, DepthFrame};
use mavfi_sim::vehicle::FlightCommand;
use mavfi_sim::world::{MissionStatus, World};

use crate::report::{canonical, Report};

/// One mission of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Mission {
    pub spec: MissionSpec,
    pub fault: Option<FaultSpec>,
    pub protection: Protection,
}

impl Mission {
    pub fn golden(spec: MissionSpec) -> Self {
        Self { spec, fault: None, protection: Protection::None }
    }
}

/// A workload's input: missions grouped into jobs, the unit a caller waits
/// on (one golden mission, or one fault flown under all three schemes).
pub struct MissionSet {
    pub missions: Vec<Mission>,
    /// Mission count of each job, in order.
    pub jobs: Vec<usize>,
}

/// Flies one mission through the library entry point the experiments call.
pub fn run_untraced(
    mission: &Mission,
    detectors: &TrainedDetectors,
) -> Result<MissionOutcome, String> {
    MissionRunner::new(mission.spec)
        .run(mission.fault, mission.protection, Some(detectors))
        .map_err(|error| format!("MissionRunner::run failed: {error}"))
}

/// Wall time per layer and deterministic work counters over a set of
/// missions.  Times are in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub missions: u64,
    /// Sum of each traced mission's wall time, timed around the call to
    /// [`run_traced`] by its caller.
    pub traced_wall_ns: u64,
    /// The same missions through `MissionRunner::run`.
    pub untraced_wall_ns: u64,
    /// Wall time of the missions that carried a detector.
    pub protected_wall_ns: u64,
    pub mission_setup_ns: u64,
    /// Runner loop time outside its children: status checks, pose reads,
    /// outcome assembly and the tracing bookkeeping itself.
    pub runner_self_ns: u64,
    pub capture_ns: u64,
    pub tick_ns: u64,
    pub step_ns: u64,
    pub kernel_ns: [u64; KernelId::COUNT],
    pub kernel_calls: [u64; KernelId::COUNT],
    pub fault_tap_ns: u64,
    pub detect_tap_ns: u64,
    pub detect_calls: u64,
    pub ticks: u64,
    pub replans: u64,
    pub replans_back_to_back: u64,
    pub recomputations: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub alarms: u64,
    pub detector_recomputations: u64,
    pub abandonments: u64,
    pub faults_planned: u64,
    pub faults_fired: u64,
    pub successes: u64,
    /// Summed simulated flight time of the successful missions.
    pub success_flight_time_s: f64,
    /// Per-tick `PpcPipeline::tick` durations (ns).
    pub tick_samples: Vec<f64>,
}

impl Ledger {
    /// Adds the counters one mission's outcome carries.
    pub fn count_outcome(&mut self, mission: &Mission, outcome: &MissionOutcome) {
        self.missions += 1;
        for kernel in KernelId::ALL {
            self.kernel_calls[kernel.index()] += outcome.pipeline.invocations(kernel);
        }
        self.ticks += outcome.pipeline.ticks;
        self.replans += outcome.pipeline.replans;
        self.recomputations += outcome.pipeline.total_recomputations();
        if let Some(stats) = &outcome.detector {
            self.alarms += stats.total_alarms();
            self.detector_recomputations += stats.total_recomputations();
            self.abandonments += stats.abandonments;
        }
        self.faults_planned += u64::from(mission.fault.is_some());
        self.faults_fired += u64::from(outcome.fault.is_some());
        self.successes += u64::from(outcome.is_success());
        if outcome.is_success() {
            self.success_flight_time_s += outcome.qof.flight_time_s;
        }
    }

    /// PPC time outside its kernels and the stage taps.
    pub fn ppc_self_ns(&self) -> u64 {
        let kernels: u64 = self.kernel_ns.iter().sum();
        self.tick_ns.saturating_sub(kernels + self.fault_tap_ns + self.detect_tap_ns)
    }

    /// The layer self times, which should add up to `traced_wall_ns`.
    pub fn accounted_ns(&self) -> u64 {
        self.mission_setup_ns + self.runner_self_ns + self.capture_ns + self.tick_ns + self.step_ns
    }

    /// The deterministic work counters, by name; the traced loop adds the
    /// ones only it can see.
    pub fn counters(&self, traced: bool) -> Vec<(String, u64)> {
        let mut counters = vec![
            ("missions".to_owned(), self.missions),
            ("successes".to_owned(), self.successes),
            ("ticks".to_owned(), self.ticks),
            ("replans".to_owned(), self.replans),
            ("recomputations".to_owned(), self.recomputations),
            ("alarms".to_owned(), self.alarms),
            ("detector_recomputations".to_owned(), self.detector_recomputations),
            ("abandonments".to_owned(), self.abandonments),
            ("faults_planned".to_owned(), self.faults_planned),
            ("faults_fired".to_owned(), self.faults_fired),
        ];
        for kernel in KernelId::ALL {
            counters.push((format!("calls.{kernel:?}"), self.kernel_calls[kernel.index()]));
        }
        if traced {
            counters.extend([
                ("replans_back_to_back".to_owned(), self.replans_back_to_back),
                ("collision_cache_hits".to_owned(), self.cache_hits),
                ("collision_cache_misses".to_owned(), self.cache_misses),
                ("detect_calls".to_owned(), self.detect_calls),
            ]);
        }
        counters
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

fn timed<R>(total_ns: &mut u64, call: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let result = call();
    *total_ns += elapsed_ns(start);
    result
}

/// `MissionRunner`'s composite tap — fault injector first, then detector —
/// with a timer around each call into either.
struct TimedTap {
    injector: Option<FaultInjector>,
    detector: Option<DetectorTap>,
    fault_ns: u64,
    detect_ns: u64,
    detect_calls: u64,
}

impl TimedTap {
    /// Calls the injector, then the detector, on one stage's state, timing
    /// each and merging their verdicts as `MissionRunner`'s tap does.
    fn each<S: ?Sized>(
        &mut self,
        state: &mut S,
        fault: impl FnOnce(&mut FaultInjector, &mut S) -> TapAction,
        detect: impl FnOnce(&mut DetectorTap, &mut S) -> TapAction,
    ) -> TapAction {
        let mut action = TapAction::Continue;
        if let Some(injector) = self.injector.as_mut() {
            action = action.merge(timed(&mut self.fault_ns, || fault(injector, state)));
        }
        if let Some(detector) = self.detector.as_mut() {
            self.detect_calls += 1;
            action = action.merge(timed(&mut self.detect_ns, || detect(detector, state)));
        }
        action
    }
}

impl StageTap for TimedTap {
    fn after_point_cloud(&mut self, cloud: &mut PointCloud) {
        self.each(
            cloud,
            |injector, cloud| {
                injector.after_point_cloud(cloud);
                TapAction::Continue
            },
            |detector, cloud| {
                detector.after_point_cloud(cloud);
                TapAction::Continue
            },
        );
    }

    fn after_occupancy(&mut self, grid: &mut OccupancyGrid) {
        self.each(
            grid,
            |injector, grid| {
                injector.after_occupancy(grid);
                TapAction::Continue
            },
            |detector, grid| {
                detector.after_occupancy(grid);
                TapAction::Continue
            },
        );
    }

    fn after_perception(&mut self, estimate: &mut CollisionEstimate) -> TapAction {
        self.each(
            estimate,
            |injector, estimate| injector.after_perception(estimate),
            |detector, estimate| detector.after_perception(estimate),
        )
    }

    fn after_planning(&mut self, trajectory: &mut Trajectory, active_index: usize) -> TapAction {
        self.each(
            trajectory,
            |injector, trajectory| injector.after_planning(trajectory, active_index),
            |detector, trajectory| detector.after_planning(trajectory, active_index),
        )
    }

    fn after_control(&mut self, command: &mut FlightCommand) -> TapAction {
        self.each(
            command,
            |injector, command| injector.after_control(command),
            |detector, command| detector.after_control(command),
        )
    }
}

/// Flies one mission through the benchmark's copy of the runner loop —
/// `capture_into`, `PpcPipeline::tick`, `World::step` — timing each call
/// and the kernels inside the tick, and returns the outcome
/// `MissionRunner::run` would.
pub fn run_traced(
    mission: &Mission,
    detectors: &TrainedDetectors,
    ledger: &mut Ledger,
) -> MissionOutcome {
    let mission_start = Instant::now();
    let spec = mission.spec;
    let environment = spec.environment.build(spec.seed);
    let ppc_config = PpcConfig::new(spec.planner, environment.bounds(), spec.seed);
    let mut pipeline = PpcPipeline::new(ppc_config, environment.start(), environment.goal());
    pipeline.set_timing_enabled(true);
    let camera = DepthCamera::default();
    let mut world = World::new(environment, spec.vehicle, PowerModel::default(), spec.mission);
    let detector = match mission.protection {
        Protection::None => None,
        Protection::Gaussian => {
            Some(DetectorTap::new(DetectionScheme::Gaussian(detectors.gad.clone())))
        }
        Protection::Autoencoder => {
            Some(DetectorTap::new(DetectionScheme::Autoencoder(detectors.aad.clone())))
        }
    };
    let mut tap = TimedTap {
        injector: mission.fault.map(FaultInjector::new),
        detector,
        fault_ns: 0,
        detect_ns: 0,
        detect_calls: 0,
    };
    let dt = spec.control_period;
    let mut frame = DepthFrame::default();
    let mut capture_scratch = CaptureScratch::new();
    ledger.mission_setup_ns += elapsed_ns(mission_start);

    let mut replans_before = 0;
    let mut replanned_last_tick = false;
    loop {
        let top = Instant::now();
        if world.status() != MissionStatus::InProgress {
            ledger.runner_self_ns += elapsed_ns(top);
            break;
        }
        let pose = world.vehicle().pose();
        let state = world.vehicle().state();
        let t0 = Instant::now();
        camera.capture_into(world.environment(), &pose, &mut capture_scratch, &mut frame);
        let t1 = Instant::now();
        let tick = pipeline.tick(&frame, &state, dt, &mut tap);
        let t2 = Instant::now();
        world.step(&tick.command, dt);
        let t3 = Instant::now();
        ledger.capture_ns += (t1 - t0).as_nanos() as u64;
        ledger.tick_ns += (t2 - t1).as_nanos() as u64;
        ledger.step_ns += (t3 - t2).as_nanos() as u64;
        ledger.tick_samples.push((t2 - t1).as_nanos() as f64);
        for (kernel, nanos) in pipeline.last_tick_timings().iter() {
            ledger.kernel_ns[kernel.index()] += nanos;
        }
        let replans = pipeline.stats().replans;
        let replanned = replans > replans_before;
        if replanned && replanned_last_tick {
            ledger.replans_back_to_back += 1;
        }
        replanned_last_tick = replanned;
        replans_before = replans;
        ledger.runner_self_ns += (t0 - top).as_nanos() as u64 + elapsed_ns(t3);
    }

    let assembly = Instant::now();
    let outcome = MissionOutcome {
        qof: QofMetrics {
            status: world.status(),
            flight_time_s: world.elapsed(),
            energy_j: world.energy_joules(),
            distance_m: world.distance_travelled(),
        },
        trail: world.trail().to_vec(),
        fault: tap.injector.as_ref().and_then(|injector| injector.record().cloned()),
        detector: tap.detector.as_ref().map(|detector| detector.stats().clone()),
        pipeline: pipeline.stats().clone(),
    };
    ledger.runner_self_ns += elapsed_ns(assembly);
    ledger.fault_tap_ns += tap.fault_ns;
    ledger.detect_tap_ns += tap.detect_ns;
    ledger.detect_calls += tap.detect_calls;
    let cache = pipeline.collision_cache_stats();
    ledger.cache_hits += cache.ray_hits + cache.scan_hits;
    ledger.cache_misses += cache.ray_misses + cache.scan_misses;
    ledger.count_outcome(mission, &outcome);
    outcome
}

/// Flies every mission of `set` through `MissionRunner::run` and through
/// the traced loop, checks that each pair of outcomes is byte-identical, and
/// adds the pass to `ledger`.  `traced_first` picks which of the two flies
/// first, so alternating it across passes cancels any warm-cache advantage
/// in the tracing-overhead figure.
pub fn traced_pass(
    set: &MissionSet,
    detectors: &TrainedDetectors,
    traced_first: bool,
    ledger: &mut Ledger,
    report: &mut Report,
) {
    for (index, mission) in set.missions.iter().enumerate() {
        report.attempted += 1;
        let untraced = |ledger: &mut Ledger| {
            let start = Instant::now();
            let outcome = run_untraced(mission, detectors);
            ledger.untraced_wall_ns += elapsed_ns(start);
            outcome
        };
        let reference = if traced_first { None } else { Some(untraced(ledger)) };
        let start = Instant::now();
        let traced = run_traced(mission, detectors, ledger);
        let wall_ns = elapsed_ns(start);
        let reference = reference.unwrap_or_else(|| untraced(ledger));
        ledger.traced_wall_ns += wall_ns;
        if mission.protection != Protection::None {
            ledger.protected_wall_ns += wall_ns;
        }
        match reference {
            Ok(reference) if canonical(&reference) == canonical(&traced) => {}
            Ok(_) => report.fail(format!(
                "mission {index} ({:?} seed {}): traced loop differs from MissionRunner::run",
                mission.spec.environment, mission.spec.seed
            )),
            Err(error) => report.fail(format!("mission {index}: {error}")),
        }
    }
}
