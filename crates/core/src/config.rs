//! Mission and experiment configuration.

use mavfi_ppc::planning::PlannerAlgorithm;
use mavfi_sim::env::EnvironmentKind;
use mavfi_sim::vehicle::QuadrotorParams;
use mavfi_sim::world::MissionConfig;
use serde::{Deserialize, Serialize};

/// Which protection (detection and recovery) scheme supervises the mission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protection {
    /// No protection: faults propagate freely (the paper's "Injection run").
    None,
    /// Gaussian-based detection and recovery (D&R(G)).
    Gaussian,
    /// Autoencoder-based detection and recovery (D&R(A)).
    Autoencoder,
}

impl Protection {
    /// The four experiment settings of Table I / Fig. 6, in paper order,
    /// where `None` here is used both for the golden run (no fault) and the
    /// plain injection run (fault, no protection).
    pub const ALL: [Self; 3] = [Self::None, Self::Gaussian, Self::Autoencoder];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Self::None => "None",
            Self::Gaussian => "Gaussian",
            Self::Autoencoder => "Autoencoder",
        }
    }
}

/// Full description of a single mission run (before any fault or protection
/// is layered on top).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MissionSpec {
    /// Which evaluation environment to fly in.
    pub environment: EnvironmentKind,
    /// Seed controlling environment generation, planner sampling and sensor
    /// noise for this run.
    pub seed: u64,
    /// The motion planner used by the planning stage.
    pub planner: PlannerAlgorithm,
    /// Airframe limits.
    pub vehicle: QuadrotorParams,
    /// Mission-level limits (goal tolerance, time budget).
    pub mission: MissionConfig,
    /// Control-loop period in seconds (the pipeline and world step at this
    /// rate).
    pub control_period: f64,
}

impl MissionSpec {
    /// A mission in the given environment with everything else defaulted.
    pub fn new(environment: EnvironmentKind, seed: u64) -> Self {
        Self {
            environment,
            seed,
            planner: PlannerAlgorithm::RrtStar,
            vehicle: QuadrotorParams::default(),
            mission: MissionConfig::default(),
            control_period: 0.1,
        }
    }

    /// Sets the planner (builder style).
    pub fn with_planner(mut self, planner: PlannerAlgorithm) -> Self {
        self.planner = planner;
        self
    }

    /// Sets the per-run seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the mission time budget in seconds (builder style).
    pub fn with_time_budget(mut self, seconds: f64) -> Self {
        self.mission.max_mission_time = seconds;
        self
    }
}

/// Configuration of detector training (paper §V "Training Environments":
/// error-free runs in randomized environments).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingSpec {
    /// Number of error-free training missions flown in randomized
    /// environments.
    pub missions: usize,
    /// Base seed for the randomized training environments.
    pub base_seed: u64,
    /// Cap on each training mission's duration (s); training missions do
    /// not need to complete, they only need to produce normal telemetry.
    pub mission_time_budget: f64,
    /// Autoencoder training epochs.
    pub epochs: usize,
}

impl Default for TrainingSpec {
    fn default() -> Self {
        Self { missions: 4, base_seed: 9_000, mission_time_budget: 60.0, epochs: 25 }
    }
}

impl TrainingSpec {
    /// Checks that the spec can train detectors: at least one mission, and
    /// a finite, positive mission time budget (under a NaN budget a
    /// training mission that never lands cannot time out).
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.missions == 0 {
            return Err("training needs at least one mission (training.missions is 0)".into());
        }
        if !self.mission_time_budget.is_finite() || self.mission_time_budget <= 0.0 {
            return Err(format!(
                "training.mission_time_budget {} is not positive",
                self.mission_time_budget
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_style_setters() {
        let spec = MissionSpec::new(EnvironmentKind::Dense, 3)
            .with_planner(PlannerAlgorithm::Rrt)
            .with_seed(11)
            .with_time_budget(120.0);
        assert_eq!(spec.environment, EnvironmentKind::Dense);
        assert_eq!(spec.planner, PlannerAlgorithm::Rrt);
        assert_eq!(spec.seed, 11);
        assert_eq!(spec.mission.max_mission_time, 120.0);
        assert_eq!(spec.control_period, 0.1);
    }

    #[test]
    fn protection_labels_are_unique() {
        let labels: std::collections::HashSet<&str> =
            Protection::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), Protection::ALL.len());
    }

    #[test]
    fn training_spec_defaults_are_sane() {
        let spec = TrainingSpec::default();
        assert!(spec.missions > 0);
        assert!(spec.epochs > 0);
        assert!(spec.mission_time_budget > 0.0);
    }
}
