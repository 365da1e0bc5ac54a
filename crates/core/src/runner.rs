//! The mission runner: one closed-loop flight of the PPC pipeline in the
//! simulated world, optionally with a fault injected and a detection and
//! recovery scheme supervising the inter-kernel states.

use mavfi_detect::detector_node::{DetectionScheme, DetectorStats, DetectorTap};
use mavfi_detect::training::TelemetrySet;
use mavfi_detect::{AadDetector, GadBank};
use mavfi_fault::injector::{FaultInjector, FaultRecord, FaultSpec};
use mavfi_ppc::pipeline::{PipelineStats, PpcConfig, PpcPipeline, PpcTick};
use mavfi_ppc::tap::ChainTap;
use mavfi_sim::energy::PowerModel;
use mavfi_sim::env::Environment;
use mavfi_sim::geometry::Vec3;
use mavfi_sim::sensors::{CaptureScratch, DepthCamera, DepthFrame, RayHits};
use mavfi_sim::vehicle::QuadrotorState;
use mavfi_sim::world::{MissionStatus, World};
use mavfi_telemetry::MissionTelemetry;
use serde::{Deserialize, Serialize};

use crate::config::{MissionSpec, Protection};
use crate::error::MavfiError;
use crate::qof::QofMetrics;
use crate::trace::{DetectorProvenance, MissionTrace, TraceCapture, TraceMeta};

/// Detectors trained on error-free telemetry, shared across campaign runs.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedDetectors {
    /// The Gaussian detector bank (primed baselines).
    pub gad: GadBank,
    /// The trained autoencoder detector.
    pub aad: AadDetector,
}

/// Everything produced by one mission run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MissionOutcome {
    /// Quality-of-flight metrics.
    pub qof: QofMetrics,
    /// Sampled flight trajectory.
    pub trail: Vec<Vec3>,
    /// Record of the injected fault, if one fired.
    pub fault: Option<FaultRecord>,
    /// Detector activity, when a protection scheme was active.
    pub detector: Option<DetectorStats>,
    /// Pipeline kernel/recomputation statistics.
    pub pipeline: PipelineStats,
}

impl MissionOutcome {
    /// Returns `true` when the mission reached its goal.
    pub fn is_success(&self) -> bool {
        self.qof.is_success()
    }
}

/// The mission's stage tap: the fault injector first (corrupting states in
/// flight), then the detector (observing exactly what the downstream
/// kernels would see).
pub(crate) type MissionTap = ChainTap<Option<FaultInjector>, Option<DetectorTap>>;

/// Builds the detector tap for a protection scheme — the one place the
/// scheme→detector wiring lives, shared by the runner and the replay
/// harness so both construct identical taps.
pub(crate) fn detector_tap(
    protection: Protection,
    detectors: Option<&TrainedDetectors>,
) -> Result<Option<DetectorTap>, MavfiError> {
    let scheme = match (protection, detectors) {
        (Protection::None, _) => return Ok(None),
        (Protection::Gaussian, Some(detectors)) => DetectionScheme::Gaussian(detectors.gad.clone()),
        (Protection::Autoencoder, Some(detectors)) => {
            DetectionScheme::Autoencoder(detectors.aad.clone())
        }
        (_, None) => {
            return Err(MavfiError::MissingDetectors { scheme: protection.label().to_owned() })
        }
    };
    Ok(Some(DetectorTap::new(scheme)))
}

/// Watches one closed-loop mission from inside [`MissionRunner`]'s loop.
///
/// Every use of the loop beyond flying it — per-tick mission telemetry
/// ([`MissionTelemetry`]), detector-training telemetry ([`TelemetrySet`])
/// and replayable trace recording — is an observer.  Observers only read:
/// a mission's outcome is bit-identical with any observer attached.  The
/// runner is generic over the observer, so `()` (observe nothing) compiles
/// to the bare loop.  See `docs/ARCHITECTURE.md` for the hook contract.
pub trait MissionObserver {
    /// When `true`, the loop captures each depth frame as `(ray, t)` hits
    /// and resolves them back into the frame, so [`TickView::rays`] holds
    /// the frame in the form a replay reconstructs it from.  When `false`,
    /// the loop captures the frame directly and `rays` stays empty.
    const RAY_FRAMES: bool = false;

    /// Called once, after the pipeline is built and before the first tick.
    fn start(&mut self, _pipeline: &mut PpcPipeline) {}

    /// Called once per tick, after the world has stepped.
    fn observe(&mut self, _view: &TickView<'_>) {}

    /// Called once, after the mission has ended.
    fn finish(&mut self) {}
}

/// What the mission loop shows a [`MissionObserver`] after each tick.
#[derive(Clone, Copy)]
pub struct TickView<'a> {
    /// Tick index, counting from 0.
    pub index: u64,
    /// Simulation time at the start of the tick (s).
    pub start_time_s: f64,
    /// Simulation time after the world stepped (s).
    pub end_time_s: f64,
    /// The vehicle state the pipeline ticked on.
    pub state: &'a QuadrotorState,
    /// The tick's depth frame as ray hits (empty unless
    /// [`MissionObserver::RAY_FRAMES`]).
    pub rays: &'a RayHits,
    /// The pipeline's output for the tick.
    pub tick: &'a PpcTick,
    /// The pipeline after the tick.
    pub pipeline: &'a PpcPipeline,
    /// Cumulative detector activity, when a protection scheme is active.
    pub detector: Option<&'a DetectorStats>,
    /// The injected fault's record, once it has fired.
    pub fault: Option<&'a FaultRecord>,
}

/// Observes nothing: the bare mission loop.
impl MissionObserver for () {}

/// Per-tick mission telemetry, with wall-clock kernel timing turned on.
impl MissionObserver for MissionTelemetry {
    fn start(&mut self, pipeline: &mut PpcPipeline) {
        pipeline.set_timing_enabled(true);
    }

    fn observe(&mut self, view: &TickView<'_>) {
        let TickView { index, end_time_s, tick, pipeline, detector, fault, .. } = *view;
        self.observe_tick(index, end_time_s, tick, pipeline, detector, fault);
    }
}

/// Detector-training telemetry: every tick's monitored states, with a
/// mission boundary marked when the mission ends.
impl MissionObserver for TelemetrySet {
    fn observe(&mut self, view: &TickView<'_>) {
        self.record(&view.tick.monitored);
    }

    fn finish(&mut self) {
        self.end_mission();
    }
}

/// The environment, pipeline and tap of a mission's closed loop, built from
/// its spec — shared by the runner and the replay harness so both fly the
/// identical deterministic half of the loop.
pub(crate) fn closed_loop(
    spec: &MissionSpec,
    fault: Option<FaultSpec>,
    detector: Option<DetectorTap>,
) -> (Environment, PpcPipeline, MissionTap) {
    let environment = spec.environment.build(spec.seed);
    let ppc_config = PpcConfig::new(spec.planner, environment.bounds(), spec.seed);
    let pipeline = PpcPipeline::new(ppc_config, environment.start(), environment.goal());
    let tap = ChainTap::new(fault.map(FaultInjector::new), detector);
    (environment, pipeline, tap)
}

/// Runs missions described by a [`MissionSpec`].
///
/// # Examples
///
/// ```no_run
/// use mavfi::prelude::*;
///
/// let spec = MissionSpec::new(EnvironmentKind::Sparse, 42);
/// let outcome = MissionRunner::new(spec).run_golden();
/// println!("flight time: {:.1} s", outcome.qof.flight_time_s);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissionRunner {
    spec: MissionSpec,
}

impl MissionRunner {
    /// Creates a runner for one mission specification.
    pub fn new(spec: MissionSpec) -> Self {
        Self { spec }
    }

    /// Runs an error-free mission with no protection (a "golden run").
    pub fn run_golden(&self) -> MissionOutcome {
        self.run_internal(None, None, &mut ())
    }

    /// Runs a mission with an optional fault and protection scheme.
    ///
    /// # Errors
    ///
    /// Returns [`MavfiError::MissingDetectors`] if a protection scheme other
    /// than [`Protection::None`] is requested without trained detectors.
    pub fn run(
        &self,
        fault: Option<FaultSpec>,
        protection: Protection,
        detectors: Option<&TrainedDetectors>,
    ) -> Result<MissionOutcome, MavfiError> {
        self.run_observed(fault, protection, detectors, &mut ())
    }

    /// Like [`Self::run`], with `observer` watching every tick.  The
    /// outcome is bit-identical to [`Self::run`]'s: observers only read.
    ///
    /// # Errors
    ///
    /// Returns [`MavfiError::MissingDetectors`] under the same conditions
    /// as [`Self::run`].
    pub fn run_observed(
        &self,
        fault: Option<FaultSpec>,
        protection: Protection,
        detectors: Option<&TrainedDetectors>,
        observer: &mut impl MissionObserver,
    ) -> Result<MissionOutcome, MavfiError> {
        let detector = detector_tap(protection, detectors)?;
        Ok(self.run_internal(fault, detector, observer))
    }

    /// Runs a mission — optionally fault-injected and protected — while
    /// recording its closed-loop topic traffic into a [`MissionTrace`]:
    /// per-tick vehicle states and depth rays (inputs), commands, monitored
    /// states, tick flags, planned paths, detector verdicts and the fault
    /// record (outputs).  The outcome is bit-identical to [`Self::run`]'s.
    ///
    /// Pass `provenance` when the trace should be self-contained: the
    /// replay harness then retrains bit-identical detectors via the global
    /// [`TrainedDetectorCache`](crate::exec::TrainedDetectorCache) instead
    /// of requiring them to be supplied at replay time.
    ///
    /// # Errors
    ///
    /// Returns [`MavfiError::MissingDetectors`] under the same conditions
    /// as [`Self::run`].
    pub fn run_recorded(
        &self,
        fault: Option<FaultSpec>,
        protection: Protection,
        detectors: Option<&TrainedDetectors>,
        provenance: Option<DetectorProvenance>,
    ) -> Result<(MissionOutcome, MissionTrace), MavfiError> {
        let meta = TraceMeta {
            spec: self.spec,
            protection,
            fault,
            camera: DepthCamera::default(),
            detectors: provenance,
        };
        let mut capture = TraceCapture::new(&meta)?;
        let outcome = self.run_observed(fault, protection, detectors, &mut capture)?;
        let trace = capture.into_trace(&outcome.qof, outcome.pipeline.ticks);
        Ok((outcome, trace))
    }

    fn run_internal<O: MissionObserver>(
        &self,
        fault: Option<FaultSpec>,
        detector: Option<DetectorTap>,
        observer: &mut O,
    ) -> MissionOutcome {
        let spec = self.spec;
        let (environment, mut pipeline, mut tap) = closed_loop(&spec, fault, detector);
        let camera = DepthCamera::default();
        let mut world = World::new(environment, spec.vehicle, PowerModel::default(), spec.mission);
        observer.start(&mut pipeline);

        let dt = spec.control_period;
        // One frame and one cull scratch reused for the whole mission: the
        // closed loop performs zero steady-state heap allocations (see
        // docs/PERFORMANCE.md) — the telemetry observer included, its
        // buffers are preallocated at construction.
        let mut frame = DepthFrame::default();
        let mut capture_scratch = CaptureScratch::new();
        let mut ray_hits = RayHits::default();
        let mut tick_index: u64 = 0;
        while world.status() == MissionStatus::InProgress {
            let start_time_s = world.elapsed();
            let pose = world.vehicle().pose();
            let state = world.vehicle().state();
            if O::RAY_FRAMES {
                // Capture the frame in (ray, t) form and resolve it back:
                // the pipeline consumes exactly the point cloud a replay
                // will reconstruct from the trace, so both sides are
                // bit-identical by construction (`resolve_rays` is itself
                // bit-identical to `capture_into`).
                camera.capture_rays_into(
                    world.environment(),
                    &pose,
                    &mut capture_scratch,
                    &mut ray_hits,
                );
                camera.resolve_rays(&pose, &ray_hits, &mut frame);
            } else {
                camera.capture_into(world.environment(), &pose, &mut capture_scratch, &mut frame);
            }
            let tick = pipeline.tick(&frame, &state, dt, &mut tap);
            world.step(&tick.command, dt);
            observer.observe(&TickView {
                index: tick_index,
                start_time_s,
                end_time_s: world.elapsed(),
                state: &state,
                rays: &ray_hits,
                tick: &tick,
                pipeline: &pipeline,
                detector: tap.second.as_ref().map(|detector| detector.stats()),
                fault: tap.first.as_ref().and_then(|injector| injector.record()),
            });
            tick_index += 1;
        }
        observer.finish();

        MissionOutcome {
            qof: QofMetrics {
                status: world.status(),
                flight_time_s: world.elapsed(),
                energy_j: world.energy_joules(),
                distance_m: world.distance_travelled(),
            },
            trail: world.trail().to_vec(),
            fault: tap.first.as_ref().and_then(|injector| injector.record().cloned()),
            detector: tap.second.as_ref().map(|detector| detector.stats().clone()),
            pipeline: pipeline.stats().clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mavfi_fault::target::InjectionTarget;
    use mavfi_ppc::states::Stage;
    use mavfi_sim::env::EnvironmentKind;

    fn quick_spec(kind: EnvironmentKind, seed: u64) -> MissionSpec {
        MissionSpec::new(kind, seed).with_time_budget(200.0)
    }

    #[test]
    fn golden_run_in_sparse_environment_succeeds() {
        let outcome = MissionRunner::new(quick_spec(EnvironmentKind::Sparse, 3)).run_golden();
        assert!(outcome.is_success(), "golden run should succeed: {:?}", outcome.qof.status);
        assert!(outcome.qof.flight_time_s > 5.0);
        assert!(outcome.qof.energy_j > 0.0);
        assert!(outcome.trail.len() > 3);
        assert!(outcome.fault.is_none());
        assert!(outcome.detector.is_none());
        assert!(outcome.pipeline.ticks > 10);
    }

    #[test]
    fn golden_runs_are_deterministic() {
        let spec = quick_spec(EnvironmentKind::Sparse, 8);
        let a = MissionRunner::new(spec).run_golden();
        let b = MissionRunner::new(spec).run_golden();
        assert_eq!(a.qof, b.qof);
        assert_eq!(a.trail, b.trail);
    }

    #[test]
    fn recorded_golden_run_is_bit_identical_and_replays() {
        let spec = quick_spec(EnvironmentKind::Sparse, 3);
        let (outcome, trace) =
            MissionRunner::new(spec).run_recorded(None, Protection::None, None, None).unwrap();
        // Recording is observational: same outcome as the unrecorded run.
        let baseline = MissionRunner::new(spec).run_golden();
        assert_eq!(outcome.qof, baseline.qof);
        assert_eq!(outcome.trail, baseline.trail);
        // And the trace replays bit-identically without the sim.
        let report = crate::replay::ReplayHarness::new(&trace).replay().unwrap();
        assert!(report.is_match(), "diverged: {:?}", report.divergence);
        assert_eq!(report.ticks, outcome.pipeline.ticks);
        assert_eq!(report.status, Some(MissionStatus::Succeeded));
        assert_eq!(report.qof.map(|qof| qof.flight_time_s), Some(outcome.qof.flight_time_s));
    }

    #[test]
    fn recorded_fault_run_replays_bit_identically() {
        let spec = quick_spec(EnvironmentKind::Sparse, 5);
        let fault = FaultSpec::new(InjectionTarget::Stage(Stage::Planning), 20, 123);
        let (outcome, trace) = MissionRunner::new(spec)
            .run_recorded(Some(fault), Protection::None, None, None)
            .unwrap();
        assert!(outcome.fault.is_some());
        let report = crate::replay::ReplayHarness::new(&trace).replay().unwrap();
        assert!(report.is_match(), "diverged: {:?}", report.divergence);
    }

    #[test]
    fn fault_injection_fires_and_is_recorded() {
        let spec = quick_spec(EnvironmentKind::Sparse, 5);
        let fault = FaultSpec::new(InjectionTarget::Stage(Stage::Planning), 20, 123);
        let outcome = MissionRunner::new(spec).run(Some(fault), Protection::None, None).unwrap();
        let record = outcome.fault.expect("fault should have fired");
        assert_eq!(record.field.unwrap().stage(), Stage::Planning);
    }

    #[test]
    fn protection_without_detectors_is_an_error() {
        let spec = quick_spec(EnvironmentKind::Farm, 1);
        let err = MissionRunner::new(spec).run(None, Protection::Gaussian, None).unwrap_err();
        assert!(matches!(err, MavfiError::MissingDetectors { .. }));
    }

    #[test]
    fn telemetry_collection_accumulates_samples() {
        let mut telemetry = TelemetrySet::new();
        let spec = MissionSpec::new(EnvironmentKind::Farm, 2).with_time_budget(30.0);
        let outcome =
            MissionRunner::new(spec).run_observed(None, Protection::None, None, &mut telemetry);
        assert!(telemetry.len() as u64 >= outcome.unwrap().pipeline.ticks);
        assert!(!telemetry.is_empty());
    }

    /// Counts hook calls: `(starts, ticks, last post-step time, finishes)`.
    #[derive(Default)]
    struct Counting<const RAYS: bool>(u32, u64, f64, u32);

    impl<const RAYS: bool> MissionObserver for Counting<RAYS> {
        const RAY_FRAMES: bool = RAYS;

        fn start(&mut self, _pipeline: &mut PpcPipeline) {
            self.0 += 1;
        }

        fn observe(&mut self, view: &TickView<'_>) {
            assert_eq!((self.0, view.index), (1, self.1), "ticks follow start, in order");
            assert!(view.start_time_s < view.end_time_s);
            assert_eq!(view.rays.rays_cast > 0, RAYS, "rays only with RAY_FRAMES");
            self.1 += 1;
            self.2 = view.end_time_s;
        }

        fn finish(&mut self) {
            self.3 += 1;
        }
    }

    #[test]
    fn observers_see_every_tick_once_and_change_nothing() {
        let fault = FaultSpec::new(InjectionTarget::Stage(Stage::Planning), 20, 123);
        let runner = MissionRunner::new(quick_spec(EnvironmentKind::Sparse, 5));
        let plain = runner.run(Some(fault), Protection::None, None).unwrap();

        let mut counting = Counting::<false>::default();
        let outcome = runner.run_observed(Some(fault), Protection::None, None, &mut counting);
        assert_eq!(outcome.unwrap(), plain);
        let Counting(starts, ticks, last_time_s, finishes) = counting;
        assert_eq!((starts, ticks, finishes), (1, plain.pipeline.ticks, 1));
        assert_eq!(last_time_s, plain.qof.flight_time_s);

        let mut rays = Counting::<true>::default();
        let outcome = runner.run_observed(Some(fault), Protection::None, None, &mut rays).unwrap();
        assert_eq!((&outcome.qof, &outcome.trail), (&plain.qof, &plain.trail));
        assert_eq!(outcome.pipeline, plain.pipeline);
    }
}
