//! Detector training on error-free missions in randomized environments
//! (paper §V, "Training Environments").

use mavfi_detect::aad::AadConfig;
use mavfi_detect::gad::CgadConfig;
use mavfi_detect::training::TelemetrySet;
use mavfi_nn::train::TrainConfig;
use mavfi_sim::env::EnvironmentKind;

use crate::config::{MissionSpec, Protection, TrainingSpec};
use crate::runner::{MissionRunner, TrainedDetectors};

/// Trains both detection schemes on telemetry collected from error-free
/// missions flown in randomized environments.
///
/// Returns the trained detectors and the telemetry set they were trained on
/// (useful for threshold inspection and further experiments).
///
/// # Panics
///
/// Panics if `spec.missions` is zero.
///
/// # Examples
///
/// ```no_run
/// use mavfi::prelude::*;
///
/// let (detectors, telemetry) = train_detectors(&TrainingSpec::default());
/// assert!(telemetry.len() > 0);
/// assert!(detectors.aad.threshold() > 0.0);
/// ```
pub fn train_detectors(spec: &TrainingSpec) -> (TrainedDetectors, TelemetrySet) {
    train_detectors_in(EnvironmentKind::Randomized, spec)
}

/// Like [`train_detectors`], but flies the error-free training missions in
/// the given environment kind instead of the paper's default randomized
/// training environments.
///
/// Training is fully deterministic given `(environment, spec)`, which is
/// what lets [`TrainedDetectorCache`](crate::exec::TrainedDetectorCache)
/// share one trained bank across experiments.
///
/// # Panics
///
/// Panics if `spec.missions` is zero.
pub fn train_detectors_in(
    environment: EnvironmentKind,
    spec: &TrainingSpec,
) -> (TrainedDetectors, TelemetrySet) {
    assert!(spec.missions > 0, "training requires at least one mission");
    let mut telemetry = TelemetrySet::new();
    for index in 0..spec.missions {
        let mission = MissionSpec::new(environment, spec.base_seed + index as u64)
            .with_time_budget(spec.mission_time_budget);
        let _ =
            MissionRunner::new(mission).run_observed(None, Protection::None, None, &mut telemetry);
    }

    let gad = telemetry.build_gad(CgadConfig::default());
    let train_config = TrainConfig { epochs: spec.epochs, ..TrainConfig::default() };
    let (aad, _report) = telemetry.train_aad(AadConfig::default(), &train_config);
    (TrainedDetectors { gad, aad }, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_produces_usable_detectors() {
        let spec =
            TrainingSpec { missions: 1, base_seed: 500, mission_time_budget: 20.0, epochs: 5 };
        let (detectors, telemetry) = train_detectors(&spec);
        assert!(!telemetry.is_empty());
        assert!(detectors.aad.threshold() > 0.0);
        assert!(detectors.gad.detectors()[0].samples() > 10);
    }

    #[test]
    #[should_panic(expected = "at least one mission")]
    fn zero_missions_panics() {
        let spec = TrainingSpec { missions: 0, ..TrainingSpec::default() };
        let _ = train_detectors(&spec);
    }
}
