//! `mavfi-detect` implements MAVFI's two low-overhead anomaly detection and
//! recovery schemes: Gaussian-based detection (GAD, per-state online range
//! detectors with per-stage recomputation) and autoencoder-based detection
//! (AAD, one 13-6-3-13 autoencoder over all monitored inter-kernel states
//! with control-stage recomputation), plus the shared data preprocessing and
//! the telemetry collection / training pipeline.
//!
//! # Examples
//!
//! ```
//! use mavfi_detect::prelude::*;
//! use mavfi_ppc::states::{MonitoredStates, StateField};
//!
//! // Collect error-free telemetry and build a Gaussian detector bank.
//! let mut telemetry = TelemetrySet::new();
//! for step in 0..100 {
//!     let mut states = MonitoredStates::default();
//!     states.set_field(StateField::CommandVx, 2.0 + 0.1 * (step as f64 * 0.3).sin());
//!     telemetry.record(&states);
//! }
//! let bank = telemetry.build_gad(CgadConfig::default());
//! let detector = DetectorTap::new(DetectionScheme::Gaussian(bank));
//! assert_eq!(detector.stats().total_alarms(), 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aad;
pub mod calibration;
pub mod detector_node;
pub mod ewma;
pub mod gad;
pub mod mahalanobis;
pub mod metrics;
pub mod preprocess;
pub mod static_range;
pub mod training;
pub mod welford;

pub use aad::{AadConfig, AadDetector, AadScratch};
pub use calibration::{
    best_by_f1, evaluate_stream, roc_curve, score_stream, sweep_aad_threshold, sweep_ewma_alpha,
    sweep_gad_nsigma, AnomalyScorer, CorruptionProfile, LabeledStream, OperatingPoint,
    SyntheticAnomalyConfig,
};
pub use detector_node::{DetectionScheme, DetectorStats, DetectorTap};
pub use ewma::{EwmaBank, EwmaConfig, EwmaDetector};
pub use gad::{Cgad, CgadConfig, GadBank};
pub use mahalanobis::{MahalanobisConfig, MahalanobisDetector};
pub use metrics::{ConfusionMatrix, DetectionLatency, GroundTruth, RocCurve, RocPoint};
pub use preprocess::{magnitude_code, sign_exponent, Preprocessor};
pub use static_range::{FieldRange, StaticRangeBank, StaticRangeConfig};
pub use training::TelemetrySet;
pub use welford::Welford;

/// Commonly used items, suitable for glob import.
pub mod prelude {
    pub use crate::aad::{AadConfig, AadDetector, AadScratch};
    pub use crate::calibration::{
        best_by_f1, evaluate_stream, roc_curve, score_stream, sweep_aad_threshold,
        sweep_ewma_alpha, sweep_gad_nsigma, AnomalyScorer, CorruptionProfile, LabeledStream,
        OperatingPoint, SyntheticAnomalyConfig,
    };
    pub use crate::detector_node::{DetectionScheme, DetectorStats, DetectorTap};
    pub use crate::ewma::{EwmaBank, EwmaConfig, EwmaDetector};
    pub use crate::gad::{Cgad, CgadConfig, GadBank};
    pub use crate::mahalanobis::{MahalanobisConfig, MahalanobisDetector};
    pub use crate::metrics::{ConfusionMatrix, DetectionLatency, GroundTruth, RocCurve, RocPoint};
    pub use crate::preprocess::{magnitude_code, sign_exponent, Preprocessor};
    pub use crate::static_range::{FieldRange, StaticRangeBank, StaticRangeConfig};
    pub use crate::training::TelemetrySet;
    pub use crate::welford::Welford;
}
