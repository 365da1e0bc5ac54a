//! The MAVFI benchmark: one command that runs a workload for a fixed time,
//! checks its outputs, and prints every metric with its unit.  The last
//! line of standard output is the JSON result.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload golden_replan --seed 3 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` flies the same
//! inputs with a span around every call into a layer and reports the
//! per-layer ledger.  See `perfbench/README.md` for the layer map.

mod flight;
mod missions;
mod report;
mod served;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use mavfi::exec::TrainedDetectorCache;
use mavfi::train_detectors_in;

use crate::report::{check_counters_across_runs, median, peak_rss_mb, Report};

/// Metrics of an untraced run.
const END_TO_END: &[&str] = &[
    "setup_s",
    "missions_per_s",
    "success_ratio",
    "flight_time_s",
    "job_p50_s",
    "job_p90_s",
    "peak_rss_mb",
];

/// Metrics of a traced run, with units; a layer a workload bypasses reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.capture_s", "s"),
    ("sim.step_s", "s"),
    ("sim.ticks", "count"),
    ("ppc.kernel.RrtStar_s", "s"),
    ("ppc.kernel.RrtStar_calls", "count"),
    ("ppc.kernel.RrtConnect_s", "s"),
    ("ppc.kernel.RrtConnect_calls", "count"),
    ("ppc.kernel.Smoothing_s", "s"),
    ("ppc.kernel.Smoothing_calls", "count"),
    ("ppc.replans", "count"),
    ("ppc.replans_back_to_back", "count"),
    ("ppc.replan_useful_ratio", "ratio"),
    ("ppc.tick_p99_us", "us"),
    ("ppc.kernel.PointCloudGeneration_s", "s"),
    ("ppc.kernel.PointCloudGeneration_calls", "count"),
    ("ppc.kernel.OctoMap_s", "s"),
    ("ppc.kernel.OctoMap_calls", "count"),
    ("ppc.kernel.CollisionCheck_s", "s"),
    ("ppc.kernel.CollisionCheck_calls", "count"),
    ("ppc.kernel.PathTracking_s", "s"),
    ("ppc.kernel.PathTracking_calls", "count"),
    ("ppc.kernel.Pid_s", "s"),
    ("ppc.kernel.Pid_calls", "count"),
    ("ppc.kernel.MissionPlanner_s", "s"),
    ("ppc.kernel.MissionPlanner_calls", "count"),
    ("ppc.collision_cache_hit_ratio", "ratio"),
    ("ppc.recomputations", "count"),
    ("ppc.tick_p50_us", "us"),
    ("ppc.self_s", "s"),
    ("detect.tap_s", "s"),
    ("detect.calls", "count"),
    ("detect.overhead_pct", "%"),
    ("detect.alarms", "count"),
    ("detect.recomputations", "count"),
    ("detect.abandonments", "count"),
    ("fault.tap_s", "s"),
    ("fault.planned", "count"),
    ("fault.fired", "count"),
    ("fault.fire_ratio", "ratio"),
    ("runner.mission_setup_s", "s"),
    ("runner.self_s", "s"),
    ("ledger.traced_wall_s", "s"),
    ("ledger.untraced_wall_s", "s"),
    ("ledger.trace_overhead_s", "s"),
    ("ledger.accounted_pct", "%"),
    ("exec.campaign_s", "s"),
    ("exec.critical_path_s", "s"),
    ("exec.speedup_vs_1w", "x"),
    ("exec.detector_cache_hits", "count"),
    ("exec.detector_cache_misses", "count"),
    ("exec.chunks", "count"),
    ("serve.step_s", "s"),
    ("serve.idle_s", "s"),
    ("serve.accounted_pct", "%"),
    ("serve.overhead_pct", "%"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.dup_submit_ms_p50", "ms"),
    ("serve.status_ms_p50", "ms"),
    ("serve.status_ms_p99", "ms"),
    ("serve.poll_late_ms_p50", "ms"),
    ("serve.poll_late_ms_p99", "ms"),
    ("serve.checkpoints", "count"),
    ("serve.checkpoint_bytes", "bytes"),
    ("serve.progress_updates", "count"),
    ("serve.job_table_len", "count"),
    ("middleware.progress_delivery_ratio", "ratio"),
];

/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    GoldenReplan,
    FarmProtected,
    ServedCampaigns,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "golden_replan" => Some(Self::GoldenReplan),
            "farm_protected" => Some(Self::FarmProtected),
            "served_campaigns" => Some(Self::ServedCampaigns),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::GoldenReplan => "golden_replan",
            Self::FarmProtected => "farm_protected",
            Self::ServedCampaigns => "served_campaigns",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 3;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad(()))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad(()))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(())),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload
        .ok_or("--workload is required (golden_replan, farm_protected, served_campaigns)")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "workload {} seed {} seconds {} trace {} nproc {nproc} (telemetry off)",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let state_dir = Path::new("perfbench/.state");
    let checkpoint_dir = served::checkpoint_dir(state_dir);
    let mut report = Report::default();

    // Set-up: cold detector training, plus server creation when served,
    // repeated; `setup_s` is the median.  The trained bank then seeds the
    // process-wide cache the server resolves detectors through.
    let training = served::request(args.seed, 0);
    let mut setup_samples = Vec::with_capacity(SETUP_REPS);
    let mut detectors = None;
    let mut server = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let trained = train_detectors_in(training.training_environment, &training.training).0;
        if args.workload == Workload::ServedCampaigns {
            server = Some(served::create_server(&checkpoint_dir));
        }
        setup_samples.push(start.elapsed().as_secs_f64());
        detectors = Some(trained);
    }
    let detectors = detectors.expect("at least one set-up");
    report.metric_noted(
        "setup_s",
        median(&setup_samples),
        "s",
        format!("median of {SETUP_REPS} cold set-ups"),
    );
    TrainedDetectorCache::global().insert(
        training.training_environment,
        &training.training,
        detectors.clone(),
    );

    match args.workload {
        Workload::GoldenReplan | Workload::FarmProtected => {
            let set = if args.workload == Workload::GoldenReplan {
                missions::golden_replan(args.seed)
            } else {
                missions::farm_protected(args.seed)
            };
            if args.trace {
                missions::run_traced_passes(&set, &detectors, args.seconds, &mut report);
            } else {
                missions::run_untraced_passes(&set, &detectors, args.seconds, &mut report);
            }
        }
        Workload::ServedCampaigns => match server.expect("served set-up creates a server") {
            Ok(server) => {
                served::run(
                    args.seed,
                    args.seconds,
                    args.trace,
                    server,
                    &checkpoint_dir,
                    &detectors,
                    &mut report,
                );
            }
            Err(error) => report.fail(error),
        },
    }

    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    if args.trace {
        for &(name, unit) in PER_LAYER {
            if !report.has(name) {
                report.metric_noted(name, 0.0, unit, "layer bypassed on this workload".to_owned());
            }
        }
    }
    check_counters_across_runs(&mut report, state_dir, args.workload.name(), args.seed);
    let wanted: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|&(name, _)| name).collect()
    } else {
        END_TO_END.to_vec()
    };
    report.print(&wanted);
    ExitCode::SUCCESS
}
