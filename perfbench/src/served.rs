//! The `served_campaigns` workload: a `CampaignServer` on the in-process
//! bus, stepped on its own thread, fed by one client thread that submits
//! small distinct campaigns in a closed loop while polling `status` in an
//! open loop at a fixed rate.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mavfi::exec::{CampaignExecutor, CampaignFoldState, SchemeConfig, TrainedDetectorCache};
use mavfi::prelude::{EnvironmentCampaign, EnvironmentKind, MissionSpec};
use mavfi::serve::{request_job_id, CampaignClient, CampaignRequest, CampaignServer, JobStatus};
use mavfi::TrainedDetectors;
use mavfi_middleware::Bus;

use crate::flight::{traced_pass, Ledger, Mission, MissionSet};
use crate::missions::report_ledger;
use crate::report::{canonical, digest, percentile, tail_percentile, Report};

/// Pool workers of the server's executor (the host has 2 cores).
pub const WORKERS: usize = 2;
/// Interval of the open-loop status poller.
const STATUS_PERIOD: Duration = Duration::from_millis(10);
/// How long the server thread sleeps when a step finds no work.
const IDLE_SLEEP: Duration = Duration::from_micros(500);
/// Served jobs whose missions the traced run also flies through the
/// traced loop, to split their time by layer.
const TRACED_JOBS: usize = 4;

/// The `j`-th campaign of the run: `CampaignRequest::quick(Farm, seed + j)`
/// shrunk to 1 golden run and 1 injection per stage (10 missions).  The
/// batch size is pinned, so the job id is known before submission.
pub fn request(seed: u64, j: u64) -> CampaignRequest {
    let mut request = CampaignRequest::quick(EnvironmentKind::Farm, seed.wrapping_add(j));
    request.config.golden_runs = 1;
    request.config.injections_per_stage = 1;
    request.config.mission_time_budget = 60.0;
    request.batch_size = CampaignExecutor::DEFAULT_BATCH;
    request
}

/// One-time set-up of a served run: cold detector training plus server
/// creation in a fresh checkpoint directory.
pub fn create_server(dir: &Path) -> Result<CampaignServer, String> {
    let _ = std::fs::remove_dir_all(dir);
    CampaignServer::new(CampaignExecutor::new(WORKERS), dir)
        .map_err(|error| format!("CampaignServer::new failed: {error}"))
}

struct Completed {
    request: CampaignRequest,
    result: Arc<EnvironmentCampaign>,
    latency_s: f64,
    chunks_total: u64,
}

#[derive(Default)]
struct ClientLog {
    completed: Vec<Completed>,
    status_ms: Vec<f64>,
    late_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    dup_submit_ms: Vec<f64>,
    progress_received: u64,
    window_s: f64,
}

#[derive(Default)]
struct ServerLog {
    busy_ns: u64,
    idle_ns: u64,
    wall_ns: u64,
    errors: Vec<String>,
}

/// Sets the stop flag when dropped, so the server thread ends even if the
/// client side panics.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

fn server_loop(server: &CampaignServer, bus: &Bus, stop: &AtomicBool) -> ServerLog {
    let mut log = ServerLog::default();
    let start = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        let step = Instant::now();
        match server.step_once(bus) {
            Ok(true) => log.busy_ns += step.elapsed().as_nanos() as u64,
            Ok(false) => {
                std::thread::sleep(IDLE_SLEEP);
                log.idle_ns += step.elapsed().as_nanos() as u64;
            }
            Err(error) => {
                log.busy_ns += step.elapsed().as_nanos() as u64;
                log.errors.push(error.to_string());
            }
        }
    }
    log.wall_ns = start.elapsed().as_nanos() as u64;
    log
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// The client: submits campaign `j + 1` once campaign `j`'s result arrived
/// (closed loop), resubmits each finished campaign once as a duplicate, and
/// polls `status` every `STATUS_PERIOD` regardless (open loop), timing each
/// poll from when it was due.
fn client_loop(client: &CampaignClient, seed: u64, seconds: f64, report: &mut Report) -> ClientLog {
    let mut log = ClientLog::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut next_due = start;
    let mut j = 0;
    let mut last_completion = start;
    'jobs: loop {
        let request = request(seed, j);
        let job_id = request_job_id(&request);
        let progress = client.subscribe_progress(job_id);
        report.attempted += 1;
        let submitted = Instant::now();
        let ticket = client.submit(&request);
        log.submit_ms.push(ms(submitted.elapsed()));
        let chunks_total = match ticket {
            Ok(ticket) if ticket.job_id == job_id && !ticket.duplicate => ticket.chunks_total,
            Ok(ticket) => {
                report.fail(format!(
                    "job {j}: ticket {ticket:?} does not match job id {job_id:016x}"
                ));
                break;
            }
            Err(error) => {
                report.fail(format!("job {j}: submit failed: {error}"));
                break;
            }
        };
        let result = loop {
            let now = Instant::now();
            if next_due > now {
                std::thread::sleep(next_due - now);
            }
            let due = next_due;
            next_due += STATUS_PERIOD;
            let sent = Instant::now();
            let status = client.status(job_id);
            let answered = Instant::now();
            log.late_ms.push(ms(sent - due));
            log.status_ms.push(ms(answered - due));
            match status {
                Ok(JobStatus::Pending { .. }) => {}
                Ok(JobStatus::Complete(result)) => {
                    last_completion = answered;
                    break result;
                }
                Err(error) => {
                    report.fail(format!("job {j}: status failed: {error}"));
                    break 'jobs;
                }
            }
        };
        let latency_s = (last_completion - submitted).as_secs_f64();

        report.attempted += 1;
        let resubmitted = Instant::now();
        let duplicate = client.submit(&request);
        log.dup_submit_ms.push(ms(resubmitted.elapsed()));
        match (duplicate, client.status(job_id)) {
            (Ok(ticket), Ok(JobStatus::Complete(again)))
                if ticket.job_id == job_id
                    && ticket.duplicate
                    && canonical(again.as_ref()) == canonical(result.as_ref()) => {}
            (ticket, status) => report.fail(format!(
                "job {j}: duplicate submission gave {ticket:?} and status {:?}",
                status.map(|status| status.result().is_some())
            )),
        }
        log.progress_received += progress.drain().len() as u64;
        log.completed.push(Completed { request, result, latency_s, chunks_total });
        if Instant::now() >= deadline {
            break;
        }
        j += 1;
    }
    log.window_s = (last_completion - start).as_secs_f64();
    log
}

fn checkpoint_bytes(dir: &Path) -> (u64, u64) {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|entry| entry.metadata().ok())
                .fold((0, 0), |(files, bytes), metadata| (files + 1, bytes + metadata.len()))
        })
        .unwrap_or((0, 0))
}

/// The missions the campaign engine flies for `request`, in run order
/// (golden runs, then each fault under the three schemes), following the
/// engine's seed convention.
fn campaign_missions(request: &CampaignRequest) -> MissionSet {
    let config = request.config;
    let spec = |index: u64| {
        MissionSpec::new(config.environment, config.base_seed.wrapping_add(index * 31 + 1))
            .with_time_budget(config.mission_time_budget)
    };
    let mut set = MissionSet { missions: Vec::new(), jobs: Vec::new() };
    for index in 0..config.golden_runs as u64 {
        set.missions.push(Mission::golden(spec(index)));
        set.jobs.push(1);
    }
    for (index, fault) in CampaignExecutor::plan_faults(&config).into_iter().enumerate() {
        for protection in mavfi::Protection::ALL {
            set.missions.push(Mission { spec: spec(index as u64), fault: Some(fault), protection });
        }
        set.jobs.push(3);
    }
    set
}

/// Checks every served result against the library `run_campaign` on the
/// same request, byte for byte; returns the library's total and slowest
/// per-campaign times.
fn verify_against_library(completed: &[Completed], report: &mut Report) -> (f64, f64) {
    let (mut total_s, mut slowest_s) = (0.0, 0.0_f64);
    for (j, done) in completed.iter().enumerate() {
        let scheme = SchemeConfig::cached(done.request.training_environment, done.request.training);
        let start = Instant::now();
        let library = CampaignExecutor::new(WORKERS)
            .with_batch_size(done.request.batch_size)
            .run_campaign(&done.request.config, &scheme);
        let elapsed = start.elapsed().as_secs_f64();
        total_s += elapsed;
        slowest_s = slowest_s.max(elapsed);
        match library {
            Ok(library) if canonical(&library) == canonical(done.result.as_ref()) => {}
            Ok(_) => report.fail(format!("job {j}: served result differs from run_campaign")),
            Err(error) => report.fail(format!("job {j}: run_campaign failed: {error}")),
        }
    }
    (total_s, slowest_s)
}

/// Re-runs every campaign on one worker, one chunk at a time, checking the
/// fold against the served bytes; returns the total time and the slowest
/// single chunk (the critical path).
fn one_worker_chunks(completed: &[Completed], report: &mut Report) -> (f64, f64) {
    let (mut total_s, mut critical_path_s) = (0.0, 0.0_f64);
    for (j, done) in completed.iter().enumerate() {
        let request = done.request;
        let scheme = SchemeConfig::cached(request.training_environment, request.training);
        let executor = CampaignExecutor::new(1).with_batch_size(request.batch_size);
        let mut state = CampaignFoldState::new(&request.config);
        for chunk in 0..executor.campaign_chunk_count(&request.config) {
            let start = Instant::now();
            let outcome = executor.run_campaign_chunks(
                &request.config,
                &scheme,
                chunk..chunk + 1,
                &mut state,
            );
            let elapsed = start.elapsed().as_secs_f64();
            total_s += elapsed;
            critical_path_s = critical_path_s.max(elapsed);
            if let Err(error) = outcome {
                report.fail(format!("job {j}: chunk {chunk} failed: {error}"));
            }
        }
        if canonical(&state.finish(&request.config)) != canonical(done.result.as_ref()) {
            report.fail(format!("job {j}: one-worker chunked fold differs from the served result"));
        }
    }
    (total_s, critical_path_s)
}

/// Runs the served workload and reports its metrics; `trace` adds the
/// per-layer measurements.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    server: CampaignServer,
    dir: &Path,
    detectors: &TrainedDetectors,
    report: &mut Report,
) {
    let bus = Bus::new();
    server.attach(&bus);
    let client = CampaignClient::new(&bus);
    let stop = AtomicBool::new(false);
    let (client_log, server_log) = std::thread::scope(|scope| {
        let server_thread = scope.spawn(|| server_loop(&server, &bus, &stop));
        let client_log = {
            let _stop = StopOnDrop(&stop);
            client_loop(&client, seed, seconds, report)
        };
        (client_log, server_thread.join().expect("server thread panicked"))
    });
    for error in &server_log.errors {
        report.fail(format!("server step failed: {error}"));
    }
    let counters = server.counters();
    let job_table_len = server.job_count();
    let (checkpoint_files, checkpoint_total_bytes) = checkpoint_bytes(dir);
    drop(server);
    let _ = std::fs::remove_dir_all(dir);

    let completed = &client_log.completed;
    let jobs = completed.len().max(1) as u64;
    for (j, done) in completed.iter().enumerate() {
        report.counter(
            format!("job.{j:04}.result_digest"),
            digest(canonical(done.result.as_ref()).as_bytes()),
        );
        report.counter(format!("job.{j:04}.chunks"), done.chunks_total);
    }
    report.counter("served.checkpoints_per_job", counters.checkpoints_written / jobs);
    report.counter("served.progress_updates_per_job", counters.progress_updates / jobs);
    report.counter("served.chunks_per_job", counters.chunks_executed / jobs);

    let (library_s, slowest_job_s) = verify_against_library(completed, report);
    let one_worker = trace.then(|| one_worker_chunks(completed, report));

    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let missions: usize =
        completed.iter().map(|done| campaign_missions(&done.request).missions.len()).sum();
    let bound = match one_worker {
        Some((_, critical_path_s)) => format!("exec.critical_path_s {critical_path_s:.3} s"),
        None => format!("slowest campaign through run_campaign {slowest_job_s:.3} s"),
    };
    report.metric_noted(
        "missions_per_s",
        missions as f64 / client_log.window_s,
        "1/s",
        format!(
            "nproc {nproc}, {WORKERS} workers, {missions} missions in {:.2} s; {bound}",
            client_log.window_s
        ),
    );
    let runs = completed.iter().flat_map(|done| {
        done.result.settings().into_iter().flat_map(|setting| setting.runs.iter())
    });
    let (successes, success_time) = runs.fold((0_u64, 0.0), |(count, time), qof| {
        if qof.is_success() {
            (count + 1, time + qof.flight_time_s)
        } else {
            (count, time)
        }
    });
    report.metric("success_ratio", successes as f64 / missions.max(1) as f64, "ratio");
    report.metric("flight_time_s", success_time / successes.max(1) as f64, "sim_s");
    let latencies: Vec<f64> = completed.iter().map(|done| done.latency_s).collect();
    let job_note = format!("{} campaigns, closed loop, 1 client", latencies.len());
    report.metric_noted("job_p50_s", percentile(&latencies, 0.5), "s", job_note.clone());
    report.metric_noted("job_p90_s", percentile(&latencies, 0.9), "s", job_note);
    let polls = client_log.status_ms.len();
    let (status_tail, status_label) = tail_percentile(&client_log.status_ms);
    let (late_tail, late_label) = tail_percentile(&client_log.late_ms);
    let poll_note =
        format!("{polls} polls every {} ms, timed from due time", STATUS_PERIOD.as_millis());
    report.metric_noted(
        "serve.status_ms_p50",
        percentile(&client_log.status_ms, 0.5),
        "ms",
        poll_note.clone(),
    );
    report.metric_noted(
        "serve.status_ms_p99",
        status_tail,
        "ms",
        format!("{status_label}; {poll_note}"),
    );
    report.metric_noted(
        "serve.poll_late_ms_p50",
        percentile(&client_log.late_ms, 0.5),
        "ms",
        "how late the poll generator sent".to_owned(),
    );
    report.metric_noted("serve.poll_late_ms_p99", late_tail, "ms", late_label.to_owned());
    let Some((one_worker_s, critical_path_s)) = one_worker else {
        return;
    };

    let per_job = |ns: u64| ns as f64 * 1e-9 / jobs as f64;
    report.metric("serve.step_s", per_job(server_log.busy_ns), "s");
    report.metric("serve.idle_s", per_job(server_log.idle_ns), "s");
    let accounted_pct =
        100.0 * (server_log.busy_ns + server_log.idle_ns) as f64 / server_log.wall_ns.max(1) as f64;
    report.metric_noted(
        "serve.accounted_pct",
        accounted_pct,
        "%",
        "server thread: step + idle spans / its wall time; gate 95..105".to_owned(),
    );
    if !(95.0..=105.0).contains(&accounted_pct) {
        report.fail(format!("server ledger accounts for {accounted_pct:.2} % of its wall time"));
    }
    report.metric_noted(
        "serve.overhead_pct",
        100.0 * (server_log.busy_ns as f64 * 1e-9 / library_s - 1.0),
        "%",
        "busy step_once time over run_campaign on the same requests".to_owned(),
    );
    report.metric("serve.submit_ms_p50", percentile(&client_log.submit_ms, 0.5), "ms");
    report.metric("serve.dup_submit_ms_p50", percentile(&client_log.dup_submit_ms, 0.5), "ms");
    report.metric("serve.checkpoints", (counters.checkpoints_written / jobs) as f64, "count");
    report.metric_noted(
        "serve.checkpoint_bytes",
        checkpoint_total_bytes as f64 / checkpoint_files.max(1) as f64,
        "bytes",
        format!("mean size of {checkpoint_files} checkpoint files"),
    );
    report.metric("serve.progress_updates", (counters.progress_updates / jobs) as f64, "count");
    report.metric("serve.job_table_len", job_table_len as f64, "count");
    report.metric(
        "middleware.progress_delivery_ratio",
        client_log.progress_received as f64 / counters.progress_updates.max(1) as f64,
        "ratio",
    );
    report.metric("exec.campaign_s", library_s / jobs as f64, "s");
    report.metric_noted(
        "exec.critical_path_s",
        critical_path_s,
        "s",
        format!("slowest single chunk; nproc {nproc}, {WORKERS} workers"),
    );
    report.metric("exec.speedup_vs_1w", one_worker_s / library_s, "x");
    let cache = TrainedDetectorCache::global().stats();
    report.metric("exec.detector_cache_hits", cache.hits as f64, "count");
    report.metric("exec.detector_cache_misses", cache.misses as f64, "count");
    report.metric("exec.chunks", (counters.chunks_executed / jobs) as f64, "count");

    // The first campaigns' missions through the traced loop: where their
    // time goes by layer, each outcome checked against MissionRunner::run.
    let mut set = MissionSet { missions: Vec::new(), jobs: Vec::new() };
    for done in completed.iter().take(TRACED_JOBS) {
        let missions = campaign_missions(&done.request);
        set.missions.extend(missions.missions);
        set.jobs.extend(missions.jobs);
    }
    println!(
        "traced loop over the missions of the first {} campaigns ({} missions)",
        completed.len().min(TRACED_JOBS),
        set.missions.len()
    );
    let mut ledger = Ledger::default();
    traced_pass(&set, detectors, false, &mut ledger, report);
    report_ledger(report, &ledger, 1);
}

/// Scratch directory for the server's checkpoints, inside the checkout.
pub fn checkpoint_dir(state_dir: &Path) -> PathBuf {
    state_dir.join(format!("served-{}", std::process::id()))
}
