//! The two mission workloads, `golden_replan` and `farm_protected`: their
//! inputs, the untraced run (end-to-end metrics) and the traced run (the
//! per-layer ledger).

use std::time::{Duration, Instant};

use mavfi::prelude::{CampaignPlan, EnvironmentKind, MissionSpec, PlannerAlgorithm, Protection};
use mavfi::TrainedDetectors;
use mavfi_ppc::kernel::KernelId;

use crate::flight::{run_untraced, traced_pass, Ledger, Mission, MissionSet};
use crate::report::{canonical, digest, median, percentile, Report};

/// Golden missions of the replan probe set: Sparse seeds 3, 4 and 5 and
/// Dense seed 3, RRT* (the default planner), 200 s budget.  Their replan
/// counts differ by 36x, so any seed-chosen set would move host time far
/// more than any bound; the seed therefore only shuffles the flying order.
pub fn golden_replan(seed: u64) -> MissionSet {
    let mut missions: Vec<Mission> = [
        (EnvironmentKind::Sparse, 3),
        (EnvironmentKind::Sparse, 4),
        (EnvironmentKind::Sparse, 5),
        (EnvironmentKind::Dense, 3),
    ]
    .into_iter()
    .map(|(kind, mission_seed)| {
        Mission::golden(MissionSpec::new(kind, mission_seed).with_time_budget(200.0))
    })
    .collect();
    shuffle(&mut missions, seed);
    let jobs = vec![1; missions.len()];
    MissionSet { missions, jobs }
}

/// Injections per stage of `farm_protected`: the paper's 100, giving 300
/// fault triples.
const FARM_INJECTIONS_PER_STAGE: usize = 100;
/// Golden runs of `farm_protected`.
const FARM_GOLDEN_RUNS: u64 = 10;

/// A Table II-shaped Farm campaign with RRT-Connect: golden runs, then
/// every fault of `CampaignPlan::per_stage` flown unprotected, under GAD
/// and under AAD.  Mission seeds follow the campaign engine's convention
/// (`seed + 31 * index + 1`).
pub fn farm_protected(seed: u64) -> MissionSet {
    let spec = |index: u64| {
        MissionSpec::new(EnvironmentKind::Farm, seed.wrapping_add(index * 31 + 1))
            .with_planner(PlannerAlgorithm::RrtConnect)
            .with_time_budget(240.0)
    };
    let mut missions: Vec<Mission> =
        (0..FARM_GOLDEN_RUNS).map(|i| Mission::golden(spec(i))).collect();
    let mut jobs = vec![1; missions.len()];
    let plan = CampaignPlan::per_stage(FARM_INJECTIONS_PER_STAGE, seed);
    for (index, fault) in plan.specs().iter().enumerate() {
        for protection in Protection::ALL {
            missions.push(Mission { spec: spec(index as u64), fault: Some(*fault), protection });
        }
        jobs.push(Protection::ALL.len());
    }
    MissionSet { missions, jobs }
}

/// Fisher-Yates with SplitMix64, so the order depends on the seed alone.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for index in (1..items.len()).rev() {
        items.swap(index, (next() % (index as u64 + 1)) as usize);
    }
}

fn outcome_digest(digests: &[u64]) -> u64 {
    let bytes: Vec<u8> = digests.iter().flat_map(|value| value.to_le_bytes()).collect();
    digest(&bytes)
}

/// Flies whole passes over the set through `MissionRunner::run` until
/// `seconds` have passed, checking every pass reproduces the first one
/// byte for byte, and reports the end-to-end metrics.
pub fn run_untraced_passes(
    set: &MissionSet,
    detectors: &TrainedDetectors,
    seconds: f64,
    report: &mut Report,
) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut first: Vec<u64> = Vec::new();
    let mut first_ledger = Ledger::default();
    let mut run_ns: u64 = 0;
    let mut missions_flown: u64 = 0;
    // Latency samples of each job, one per pass.
    let mut job_seconds: Vec<Vec<f64>> = vec![Vec::new(); set.jobs.len()];
    let mut pass_seconds: Vec<f64> = Vec::new();
    let mut passes = 0;
    while passes == 0 || Instant::now() < deadline {
        let pass_start_ns = run_ns;
        let mut index = 0;
        for (job, &job_len) in set.jobs.iter().enumerate() {
            let mut job_ns = 0;
            for mission in &set.missions[index..index + job_len] {
                report.attempted += 1;
                let start = Instant::now();
                let outcome = run_untraced(mission, detectors);
                let elapsed = start.elapsed().as_nanos() as u64;
                job_ns += elapsed;
                run_ns += elapsed;
                missions_flown += 1;
                match outcome {
                    Ok(outcome) => {
                        let hash = digest(canonical(&outcome).as_bytes());
                        if passes == 0 {
                            first.push(hash);
                            first_ledger.count_outcome(mission, &outcome);
                        } else if first[index] != hash {
                            report.fail(format!(
                                "pass {passes}, mission {index}: outcome differs from pass 0"
                            ));
                        }
                    }
                    Err(error) => {
                        report.fail(format!("mission {index}: {error}"));
                        if passes == 0 {
                            first.push(0);
                        }
                    }
                }
                index += 1;
            }
            job_seconds[job].push(job_ns as f64 * 1e-9);
        }
        pass_seconds.push((run_ns - pass_start_ns) as f64 * 1e-9);
        passes += 1;
    }
    println!("pass seconds {pass_seconds:.3?}");
    for (name, value) in first_ledger.counters(false) {
        report.counter(format!("pass.{name}"), value);
    }
    report.counter("pass.outcome_digest", outcome_digest(&first));
    let run_s = run_ns as f64 * 1e-9;
    println!(
        "passes {passes}, missions {missions_flown}, time inside MissionRunner::run {run_s:.3} s"
    );
    report.metric_noted(
        "missions_per_s",
        missions_flown as f64 / run_s,
        "1/s",
        format!("{missions_flown} MissionRunner::run calls, 1 thread"),
    );
    report.metric(
        "success_ratio",
        first_ledger.successes as f64 / first_ledger.missions as f64,
        "ratio",
    );
    report.metric(
        "flight_time_s",
        first_ledger.success_flight_time_s / first_ledger.successes.max(1) as f64,
        "sim_s",
    );
    // Each job's latency is its median over the passes; the percentiles
    // run across the jobs.
    let job_medians: Vec<f64> = job_seconds.iter().map(|samples| median(samples)).collect();
    let note = format!("{} jobs, each the median of {passes} passes", job_medians.len());
    report.metric_noted("job_p50_s", percentile(&job_medians, 0.5), "s", note.clone());
    report.metric_noted("job_p90_s", percentile(&job_medians, 0.9), "s", note);
}

const NS: f64 = 1e-9;

/// Flies whole traced passes until `seconds` have passed and reports the
/// per-layer ledger, per pass.
pub fn run_traced_passes(
    set: &MissionSet,
    detectors: &TrainedDetectors,
    seconds: f64,
    report: &mut Report,
) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut total = Ledger::default();
    let mut first: Option<Vec<(String, u64)>> = None;
    let mut passes: u64 = 0;
    while passes == 0 || Instant::now() < deadline {
        let before = total.counters(true);
        traced_pass(set, detectors, passes % 2 == 1, &mut total, report);
        let counters: Vec<(String, u64)> = total
            .counters(true)
            .into_iter()
            .zip(before)
            .map(|((name, after), (_, before))| (name, after - before))
            .collect();
        match &first {
            None => {
                for (name, value) in &counters {
                    report.counter(format!("pass.{name}"), *value);
                }
                first = Some(counters);
            }
            Some(first) if *first != counters => {
                report.fail(format!("traced pass {passes}: work counters differ from pass 0"));
            }
            Some(_) => {}
        }
        passes += 1;
    }
    println!("traced passes {passes} over {} missions each", set.missions.len());
    report_ledger(report, &total, passes);
}

/// Reports a mission ledger's per-layer metrics, per pass, and checks that
/// the layer self times add up to the traced wall time.
pub fn report_ledger(report: &mut Report, total: &Ledger, passes: u64) {
    let per_pass = |ns: u64| ns as f64 * NS / passes as f64;
    let per_pass_count = |count: u64| (count / passes) as f64;
    report.metric("sim.capture_s", per_pass(total.capture_ns), "s");
    report.metric("sim.step_s", per_pass(total.step_ns), "s");
    report.metric("sim.ticks", per_pass_count(total.ticks), "count");
    for kernel in [
        KernelId::RrtStar,
        KernelId::RrtConnect,
        KernelId::Smoothing,
        KernelId::PointCloudGeneration,
        KernelId::OctoMap,
        KernelId::CollisionCheck,
        KernelId::PathTracking,
        KernelId::Pid,
        KernelId::MissionPlanner,
    ] {
        let name = format!("ppc.kernel.{kernel:?}");
        report.metric(format!("{name}_s"), per_pass(total.kernel_ns[kernel.index()]), "s");
        report.metric(
            format!("{name}_calls"),
            per_pass_count(total.kernel_calls[kernel.index()]),
            "count",
        );
    }
    report.metric("ppc.self_s", per_pass(total.ppc_self_ns()), "s");
    report.metric("ppc.replans", per_pass_count(total.replans), "count");
    report.metric("ppc.replans_back_to_back", per_pass_count(total.replans_back_to_back), "count");
    let planner_calls = total.kernel_calls[KernelId::RrtStar.index()]
        + total.kernel_calls[KernelId::RrtConnect.index()];
    report.metric_noted(
        "ppc.replan_useful_ratio",
        ratio(total.kernel_calls[KernelId::Smoothing.index()], planner_calls),
        "ratio",
        "plans that produced a path / planner calls".to_owned(),
    );
    let ticks_note = format!("{} ticks", total.tick_samples.len());
    report.metric_noted(
        "ppc.tick_p50_us",
        percentile(&total.tick_samples, 0.5) * 1e-3,
        "us",
        ticks_note.clone(),
    );
    report.metric_noted(
        "ppc.tick_p99_us",
        percentile(&total.tick_samples, 0.99) * 1e-3,
        "us",
        ticks_note,
    );
    report.metric(
        "ppc.collision_cache_hit_ratio",
        ratio(total.cache_hits, total.cache_hits + total.cache_misses),
        "ratio",
    );
    report.metric("ppc.recomputations", per_pass_count(total.recomputations), "count");
    report.metric("detect.tap_s", per_pass(total.detect_tap_ns), "s");
    report.metric("detect.calls", per_pass_count(total.detect_calls), "count");
    report.metric_noted(
        "detect.overhead_pct",
        100.0 * ratio(total.detect_tap_ns, total.protected_wall_ns),
        "%",
        "share of host wall time of the protected missions, not the paper's platform model"
            .to_owned(),
    );
    report.metric("detect.alarms", per_pass_count(total.alarms), "count");
    report.metric("detect.recomputations", per_pass_count(total.detector_recomputations), "count");
    report.metric("detect.abandonments", per_pass_count(total.abandonments), "count");
    report.metric("fault.tap_s", per_pass(total.fault_tap_ns), "s");
    report.metric("fault.planned", per_pass_count(total.faults_planned), "count");
    report.metric("fault.fired", per_pass_count(total.faults_fired), "count");
    report.metric("fault.fire_ratio", ratio(total.faults_fired, total.faults_planned), "ratio");
    report.metric("runner.mission_setup_s", per_pass(total.mission_setup_ns), "s");
    report.metric("runner.self_s", per_pass(total.runner_self_ns), "s");
    report.metric("ledger.traced_wall_s", per_pass(total.traced_wall_ns), "s");
    report.metric("ledger.untraced_wall_s", per_pass(total.untraced_wall_ns), "s");
    report.metric_noted(
        "ledger.trace_overhead_s",
        per_pass(total.traced_wall_ns) - per_pass(total.untraced_wall_ns),
        "s",
        "traced loop minus MissionRunner::run on the same missions".to_owned(),
    );
    let accounted_pct = 100.0 * ratio(total.accounted_ns(), total.traced_wall_ns);
    report.metric_noted(
        "ledger.accounted_pct",
        accounted_pct,
        "%",
        "layer self times / traced wall time; gate 95..105".to_owned(),
    );
    if !(95.0..=105.0).contains(&accounted_pct) {
        report
            .fail(format!("mission ledger accounts for {accounted_pct:.2} % of traced wall time"));
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
