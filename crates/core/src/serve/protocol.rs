//! Wire types of the campaign service: requests, tickets, streamed
//! progress, poll responses and the typed [`ServerError`] taxonomy.
//!
//! Everything a client exchanges with the server is plain data with serde
//! derives (diagnosable, loggable) and travels over the in-process
//! middleware as bus messages.  Service and topic names live here too, so
//! client and server cannot drift apart.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use mavfi_sim::env::EnvironmentKind;
use serde::{Deserialize, Serialize};

use crate::campaign::{CampaignConfig, EnvironmentCampaign};
use crate::config::TrainingSpec;
use crate::qof::QofSummary;

/// Name of the submission service ([`CampaignRequest`] →
/// `Result<JobTicket, ServerError>`).
pub const SUBMIT_SERVICE: &str = "campaign/submit";

/// Name of the status/poll service (`u64` job id →
/// `Result<JobStatus, ServerError>`).
pub const STATUS_SERVICE: &str = "campaign/status";

/// The per-job topic incremental [`CampaignProgress`] aggregates stream
/// over.
pub fn progress_topic(job_id: u64) -> String {
    format!("campaign/{job_id:016x}/progress")
}

/// One campaign submission: the campaign itself plus everything the server
/// needs to reproduce its detector bank and checkpoint chunks
/// deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignRequest {
    /// The campaign to fly.
    pub config: CampaignConfig,
    /// Environment the detector training missions fly in (the paper uses
    /// randomized training environments).
    pub training_environment: EnvironmentKind,
    /// Detector training configuration; the server resolves the bank
    /// through the process-global `TrainedDetectorCache`, so equal specs
    /// train once.
    pub training: TrainingSpec,
    /// Campaign jobs per checkpoint chunk, pinned for the job's lifetime so
    /// chunk boundaries stay stable across restarts.  `0` lets the server
    /// pin its own default at admission.  Part of the job id and the
    /// checkpoint format; it never changes the campaign result.
    pub batch_size: usize,
}

impl CampaignRequest {
    /// A small request suitable for tests and smoke runs: a quick campaign
    /// and a single-mission training spec.
    pub fn quick(environment: EnvironmentKind, base_seed: u64) -> Self {
        Self {
            config: CampaignConfig::quick(environment, base_seed),
            training_environment: EnvironmentKind::Randomized,
            training: TrainingSpec {
                missions: 1,
                base_seed: 77,
                mission_time_budget: 25.0,
                epochs: 5,
            },
            batch_size: 0,
        }
    }
}

/// The server's answer to a submission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobTicket {
    /// Content-derived job id: the digest of the admitted request, so
    /// resubmitting the same request (client retry, duplicate delivery)
    /// lands on the same job instead of flying it twice.
    pub job_id: u64,
    /// Topic the job's [`CampaignProgress`] updates stream on.
    pub progress_topic: String,
    /// Total number of checkpointable chunks the job splits into.
    pub chunks_total: u64,
    /// Chunks already folded at admission — non-zero when the job resumed
    /// from a checkpoint written before a server restart.
    pub chunks_done: u64,
    /// `true` when the request matched a job the server already knew
    /// (idempotent duplicate; no new work was enqueued).
    pub duplicate: bool,
}

/// One incremental aggregate streamed on a job's progress topic after every
/// checkpointed stride (and once more on completion).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignProgress {
    /// The job this update belongs to.
    pub job_id: u64,
    /// Chunks folded so far.
    pub chunks_done: u64,
    /// Total chunks of the job.
    pub chunks_total: u64,
    /// Campaign jobs folded so far (a fault job counts once).
    pub jobs_folded: u64,
    /// Golden-run aggregate over the runs folded so far.
    pub golden: QofSummary,
    /// Unprotected-injection aggregate over the runs folded so far.
    pub injected: QofSummary,
    /// D&R(G) aggregate over the runs folded so far.
    pub gaussian: QofSummary,
    /// D&R(A) aggregate over the runs folded so far.
    pub autoencoder: QofSummary,
    /// `true` on the job's final update.
    pub complete: bool,
}

/// Poll response of the status service.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// The job is admitted and (still) executing.
    Pending {
        /// Chunks folded so far.
        chunks_done: u64,
        /// Total chunks of the job.
        chunks_total: u64,
    },
    /// The job finished; the assembled campaign is shared, not copied.
    Complete(Arc<EnvironmentCampaign>),
}

impl JobStatus {
    /// The finished campaign, if the job is complete.
    pub fn result(&self) -> Option<&EnvironmentCampaign> {
        match self {
            Self::Complete(result) => Some(result),
            Self::Pending { .. } => None,
        }
    }
}

/// Typed failure taxonomy of the campaign service.  Every fault the
/// harness injects — corrupt checkpoints, unwritable directories, calls to
/// a dead server, malformed submissions — surfaces as one of these; the
/// server never panics on damaged input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ServerError {
    /// The submitted campaign configuration is unusable.
    InvalidRequest {
        /// What is wrong with it.
        reason: String,
    },
    /// The polled job id is not (or no longer) known to this server.
    UnknownJob {
        /// The unknown id.
        job_id: u64,
    },
    /// A checkpoint failed its digest, magic, version or bounds checks.
    CheckpointCorrupt {
        /// Checkpoint file name.
        file: String,
        /// The underlying trace-layer error, rendered.
        detail: String,
    },
    /// Reading or writing checkpoint files failed at the I/O layer.
    CheckpointIo {
        /// The underlying error, rendered.
        detail: String,
    },
    /// The service could not be reached over the bus (no server advertised,
    /// or a type-incompatible one).
    Unavailable {
        /// The middleware error, rendered.
        detail: String,
    },
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidRequest { reason } => write!(f, "invalid campaign request: {reason}"),
            Self::UnknownJob { job_id } => write!(f, "unknown campaign job {job_id:016x}"),
            Self::CheckpointCorrupt { file, detail } => {
                write!(f, "checkpoint {file} is corrupt: {detail}")
            }
            Self::CheckpointIo { detail } => write!(f, "checkpoint i/o failed: {detail}"),
            Self::Unavailable { detail } => write!(f, "campaign service unavailable: {detail}"),
        }
    }
}

impl Error for ServerError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_topics_are_per_job() {
        assert_eq!(progress_topic(0x2a), "campaign/000000000000002a/progress");
        assert_ne!(progress_topic(1), progress_topic(2));
    }

    #[test]
    fn errors_render_their_context() {
        let err = ServerError::CheckpointCorrupt {
            file: "deadbeef.mvcp".into(),
            detail: "digest mismatch".into(),
        };
        assert!(err.to_string().contains("deadbeef.mvcp"));
        assert!(err.to_string().contains("digest mismatch"));
        assert!(ServerError::UnknownJob { job_id: 0xff }.to_string().contains("00000000000000ff"));
    }

    #[test]
    fn status_exposes_results_only_when_complete() {
        let pending = JobStatus::Pending { chunks_done: 1, chunks_total: 4 };
        assert!(pending.result().is_none());
    }
}
