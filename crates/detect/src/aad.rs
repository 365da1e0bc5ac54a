//! Autoencoder-based anomaly detection (AAD, paper §IV-D).

use mavfi_nn::autoencoder::Autoencoder;
use mavfi_nn::network::MlpScratch;
use mavfi_nn::train::{train_autoencoder, TrainConfig, TrainReport};
use mavfi_ppc::states::MonitoredStates;
use serde::{Deserialize, Serialize};

/// Reusable buffers for the per-tick AAD scoring path: the normalised input
/// vector plus the autoencoder's forward-pass scratch.  After the first
/// score the buffers are at capacity and [`AadDetector::score_with`] /
/// [`AadDetector::observe_with`] perform zero heap allocations.
///
/// Scratches hold no semantic state: a fresh scratch and a reused one
/// produce bit-identical scores.
#[derive(Debug, Clone, Default)]
pub struct AadScratch {
    normalized: Vec<f64>,
    mlp: MlpScratch,
}

impl AadScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Configuration of the autoencoder detector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AadConfig {
    /// Multiplier applied to the worst-case training reconstruction error to
    /// form the alarm threshold (the paper takes the training upper bound;
    /// a small margin reduces false alarms on unseen-but-normal data).
    pub threshold_margin: f64,
    /// Scale applied to the per-dimension z-scores before they enter the
    /// network, keeping normal data within the well-conditioned range of
    /// `tanh`.
    pub input_scale: f64,
    /// Floor on each dimension's standard deviation (in preprocessed code
    /// units) used for normalisation, so states that barely move during
    /// training do not blow up the z-scores of benign mantissa-level noise.
    pub min_std: f64,
    /// Seed for weight initialisation.
    pub seed: u64,
}

impl Default for AadConfig {
    fn default() -> Self {
        Self { threshold_margin: 2.0, input_scale: 0.25, min_std: 4.0, seed: 7 }
    }
}

/// The autoencoder-based detector: a single model over all 13 monitored
/// inter-kernel states, exploiting their correlation.
///
/// Inputs are normalised per dimension (z-scores against the training
/// telemetry) before entering the network.  Without this, dimensions with
/// naturally wide delta distributions (for example `time_to_collision`
/// switching between "clear" and "obstacle ahead") dominate the training
/// reconstruction error and mask corruption of the narrow dimensions the
/// paper cares about (way-point coordinates, command velocities).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AadDetector {
    autoencoder: Autoencoder,
    threshold: f64,
    config: AadConfig,
    norm_mean: Vec<f64>,
    norm_std: Vec<f64>,
    alarms: u64,
    observations: u64,
}

impl AadDetector {
    /// Trains a detector on error-free preprocessed telemetry.
    ///
    /// Returns the detector together with the training report.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn train(
        samples: &[[f64; MonitoredStates::DIM]],
        config: AadConfig,
        train_config: &TrainConfig,
    ) -> (Self, TrainReport) {
        assert!(!samples.is_empty(), "AAD training requires error-free telemetry");
        let (norm_mean, norm_std) = normalization_stats(samples, config.min_std);
        let scaled: Vec<Vec<f64>> = samples
            .iter()
            .map(|sample| normalize(sample, &norm_mean, &norm_std, config.input_scale))
            .collect();
        let mut autoencoder = Autoencoder::paper_architecture(config.seed);
        let report = train_autoencoder(&mut autoencoder, &scaled, train_config);
        let threshold = (report.max_reconstruction_error * config.threshold_margin).max(1e-9);
        (
            Self {
                autoencoder,
                threshold,
                config,
                norm_mean,
                norm_std,
                alarms: 0,
                observations: 0,
            },
            report,
        )
    }

    /// Creates a detector from an already trained autoencoder and an explicit
    /// threshold (used when loading persisted models).  The normalisation is
    /// the identity; use [`AadDetector::with_normalization`] to restore the
    /// training statistics.
    pub fn from_parts(autoencoder: Autoencoder, threshold: f64, config: AadConfig) -> Self {
        Self {
            autoencoder,
            threshold,
            config,
            norm_mean: vec![0.0; MonitoredStates::DIM],
            norm_std: vec![1.0; MonitoredStates::DIM],
            alarms: 0,
            observations: 0,
        }
    }

    /// Replaces the per-dimension normalisation statistics (builder style),
    /// typically when reloading a persisted detector.
    ///
    /// # Panics
    ///
    /// Panics if `mean` and `std` are not 13 elements long.
    pub fn with_normalization(mut self, mean: Vec<f64>, std: Vec<f64>) -> Self {
        assert_eq!(mean.len(), MonitoredStates::DIM, "mean must have one entry per state");
        assert_eq!(std.len(), MonitoredStates::DIM, "std must have one entry per state");
        self.norm_mean = mean;
        self.norm_std = std.into_iter().map(|s| s.max(1e-9)).collect();
        self
    }

    /// The per-dimension normalisation statistics `(mean, std)` learned from
    /// the training telemetry.
    pub fn normalization(&self) -> (&[f64], &[f64]) {
        (&self.norm_mean, &self.norm_std)
    }

    /// The alarm threshold on the reconstruction error.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The underlying autoencoder.
    pub fn autoencoder(&self) -> &Autoencoder {
        &self.autoencoder
    }

    /// The detector configuration.
    pub fn config(&self) -> AadConfig {
        self.config
    }

    /// Number of alarms raised so far.
    pub fn alarms(&self) -> u64 {
        self.alarms
    }

    /// Number of vectors observed so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Reconstruction-error anomaly score of one preprocessed delta vector.
    pub fn score(&self, deltas: &[f64; MonitoredStates::DIM]) -> f64 {
        self.score_with(deltas, &mut AadScratch::new())
    }

    /// [`AadDetector::score`] through reusable scratch buffers: zero heap
    /// allocations in steady state, bit-identical score.  This is the path
    /// the detector tap runs every pipeline tick.
    pub fn score_with(
        &self,
        deltas: &[f64; MonitoredStates::DIM],
        scratch: &mut AadScratch,
    ) -> f64 {
        normalize_into(
            deltas,
            &self.norm_mean,
            &self.norm_std,
            self.config.input_scale,
            &mut scratch.normalized,
        );
        self.autoencoder.reconstruction_error_with(&scratch.normalized, &mut scratch.mlp)
    }

    /// Observes one vector; returns `true` when the reconstruction error
    /// exceeds the threshold.
    pub fn observe(&mut self, deltas: &[f64; MonitoredStates::DIM]) -> bool {
        self.observe_with(deltas, &mut AadScratch::new())
    }

    /// [`AadDetector::observe`] through reusable scratch buffers
    /// (allocation-free, bit-identical decisions).
    pub fn observe_with(
        &mut self,
        deltas: &[f64; MonitoredStates::DIM],
        scratch: &mut AadScratch,
    ) -> bool {
        let score = self.score_with(deltas, scratch);
        self.record_score(score)
    }

    /// Records an already computed anomaly score against this detector's
    /// counters and threshold; returns `true` on alarm.  `observe_with(d, s)`
    /// is exactly `record_score(score_with(d, s))`.
    pub fn record_score(&mut self, score: f64) -> bool {
        self.observations += 1;
        let alarm = score > self.threshold;
        if alarm {
            self.alarms += 1;
        }
        alarm
    }
}

/// Per-dimension mean and (floored) standard deviation of the training
/// telemetry.
fn normalization_stats(
    samples: &[[f64; MonitoredStates::DIM]],
    min_std: f64,
) -> (Vec<f64>, Vec<f64>) {
    let count = samples.len() as f64;
    let mut mean = vec![0.0; MonitoredStates::DIM];
    for sample in samples {
        for (slot, value) in mean.iter_mut().zip(sample) {
            *slot += value / count;
        }
    }
    let mut std = vec![0.0; MonitoredStates::DIM];
    if samples.len() > 1 {
        for sample in samples {
            for ((slot, value), mean) in std.iter_mut().zip(sample).zip(&mean) {
                *slot += (value - mean) * (value - mean) / (count - 1.0);
            }
        }
    }
    let floor = min_std.max(1e-9);
    let std = std.into_iter().map(|variance: f64| variance.sqrt().max(floor)).collect();
    (mean, std)
}

/// Normalises a delta vector to scaled per-dimension z-scores.
fn normalize(
    deltas: &[f64; MonitoredStates::DIM],
    mean: &[f64],
    std: &[f64],
    input_scale: f64,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(deltas.len());
    normalize_into(deltas, mean, std, input_scale, &mut out);
    out
}

/// [`normalize`] into a reusable buffer (same element order and arithmetic).
fn normalize_into(
    deltas: &[f64; MonitoredStates::DIM],
    mean: &[f64],
    std: &[f64],
    input_scale: f64,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.extend(deltas.iter().zip(mean).zip(std).map(|((value, mean), std)| {
        let finite = if value.is_finite() { *value } else { 0.0 };
        (finite - mean) / std * input_scale
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use mavfi_ppc::states::StateField;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Correlated normal telemetry: deltas move together as they do when the
    /// vehicle manoeuvres smoothly.
    fn normal_samples(count: usize, seed: u64) -> Vec<[f64; 13]> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let intensity: f64 = rng.gen_range(-6.0..6.0);
                std::array::from_fn(|i| {
                    let coupling = 0.4 + 0.6 * ((i % 5) as f64 / 5.0);
                    intensity * coupling + rng.gen_range(-1.5..1.5)
                })
            })
            .collect()
    }

    fn trained_detector(seed: u64) -> AadDetector {
        let samples = normal_samples(400, seed);
        let train_config = TrainConfig { epochs: 25, ..TrainConfig::default() };
        AadDetector::train(&samples, AadConfig::default(), &train_config).0
    }

    #[test]
    fn normal_data_rarely_alarms_and_corruption_always_does() {
        let mut detector = trained_detector(1);
        let held_out = normal_samples(100, 99);
        let mut false_alarms = 0;
        for sample in &held_out {
            if detector.observe(sample) {
                false_alarms += 1;
            }
        }
        assert!(false_alarms <= 5, "too many false alarms: {false_alarms}/100");

        let mut corrupted = held_out[0];
        corrupted[StateField::WaypointZ.index()] = 12_000.0;
        assert!(detector.observe(&corrupted), "an exponent-flip-sized delta must alarm");
        assert!(detector.alarms() >= 1);
        assert_eq!(detector.observations(), 101);
    }

    #[test]
    fn correlation_violations_are_detected_even_within_per_field_range() {
        // Train on strongly correlated data, then present a sample whose
        // individual values are in range but whose correlation is broken —
        // the advantage the paper attributes to AAD over GAD.
        let mut rng = StdRng::seed_from_u64(5);
        let samples: Vec<[f64; 13]> = (0..500)
            .map(|_| {
                let a: f64 = rng.gen_range(-8.0..8.0);
                std::array::from_fn(|i| if i < 7 { a } else { -a } + rng.gen_range(-0.5..0.5))
            })
            .collect();
        let train_config = TrainConfig { epochs: 40, ..TrainConfig::default() };
        let (mut detector, _) = AadDetector::train(&samples, AadConfig::default(), &train_config);

        // In-range magnitudes, broken correlation: all fields +8.
        let broken: [f64; 13] = [8.0; 13];
        assert!(
            detector.observe(&broken),
            "correlation break should raise the reconstruction error"
        );
    }

    #[test]
    fn score_is_deterministic_and_threshold_positive() {
        let detector = trained_detector(2);
        let sample = normal_samples(1, 3)[0];
        assert_eq!(detector.score(&sample), detector.score(&sample));
        assert!(detector.threshold() > 0.0);
    }

    #[test]
    #[should_panic(expected = "error-free telemetry")]
    fn empty_training_panics() {
        let _ = AadDetector::train(&[], AadConfig::default(), &TrainConfig::default());
    }

    #[test]
    fn narrow_dimension_corruption_is_not_masked_by_a_wide_dimension() {
        // One dimension legitimately swings by hundreds of code units (like
        // time_to_collision flipping between clear and obstructed); the
        // others stay narrow.  A corruption of a narrow dimension must still
        // be detected — the scenario that motivates per-dimension
        // normalisation.
        let mut rng = StdRng::seed_from_u64(21);
        let samples: Vec<[f64; 13]> = (0..500)
            .map(|_| {
                std::array::from_fn(|i| {
                    if i == StateField::TimeToCollision.index() {
                        if rng.gen_bool(0.1) {
                            rng.gen_range(-600.0..600.0)
                        } else {
                            rng.gen_range(-5.0..5.0)
                        }
                    } else {
                        rng.gen_range(-4.0..4.0)
                    }
                })
            })
            .collect();
        let (mut detector, _) = AadDetector::train(
            &samples,
            AadConfig::default(),
            &TrainConfig { epochs: 25, ..TrainConfig::default() },
        );
        // An exponent-flip-to-zero of a ~40 m way-point X: delta ≈ -172.
        let mut corrupted = samples[0];
        corrupted[StateField::WaypointX.index()] = -172.0;
        assert!(
            detector.observe(&corrupted),
            "way-point corruption must not hide behind the wide time-to-collision dimension"
        );
    }

    #[test]
    fn normalization_statistics_are_exposed_and_floored() {
        let samples = normal_samples(200, 4);
        let (detector, _) = AadDetector::train(
            &samples,
            AadConfig::default(),
            &TrainConfig { epochs: 2, ..TrainConfig::default() },
        );
        let (mean, std) = detector.normalization();
        assert_eq!(mean.len(), 13);
        assert_eq!(std.len(), 13);
        assert!(std.iter().all(|s| *s >= AadConfig::default().min_std));
    }

    #[test]
    fn record_score_matches_observe() {
        let detector = trained_detector(7);
        let sample = normal_samples(1, 8)[0];
        let mut via_observe = detector.clone();
        let mut via_record = detector.clone();
        let mut scratch = AadScratch::new();
        let score = detector.score_with(&sample, &mut scratch);
        assert_eq!(via_observe.observe_with(&sample, &mut scratch), via_record.record_score(score));
        assert_eq!(via_observe.alarms(), via_record.alarms());
        assert_eq!(via_observe.observations(), via_record.observations());
    }

    #[test]
    fn from_parts_round_trips_with_normalization() {
        let samples = normal_samples(200, 5);
        let (trained, _) = AadDetector::train(
            &samples,
            AadConfig::default(),
            &TrainConfig { epochs: 2, ..TrainConfig::default() },
        );
        let (mean, std) = trained.normalization();
        let rebuilt = AadDetector::from_parts(
            trained.autoencoder().clone(),
            trained.threshold(),
            trained.config(),
        )
        .with_normalization(mean.to_vec(), std.to_vec());
        let sample = samples[0];
        assert_eq!(rebuilt.score(&sample), trained.score(&sample));
    }
}
