//! The campaign service must be invisible in the results: a served campaign
//! is bit-identical to the library [`run_campaign`] call across the full
//! matrix of worker counts {1, 2, 8} x batch sizes {1, 8, 32} x concurrent
//! client counts {1, 3}.  Worker count, chunking and submission concurrency
//! may change wall-clock behaviour, never bytes.

use std::sync::OnceLock;

use mavfi_suite::mavfi_middleware::prelude::*;
use mavfi_suite::prelude::*;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];
const BATCH_SIZES: [usize; 3] = [1, 8, 32];

/// A five-job campaign: 2 golden + 3 injections, shared by every cell.
fn quick_request(seed: u64, batch_size: usize) -> CampaignRequest {
    let mut request = CampaignRequest::quick(EnvironmentKind::Farm, seed);
    request.config.golden_runs = 2;
    request.config.injections_per_stage = 1;
    request.config.mission_time_budget = 45.0;
    request.batch_size = batch_size;
    request
}

/// The library reference for `seed`, serialized once: chunk size and worker
/// count are already proven result-neutral for the library path
/// (`tests/parallel_determinism.rs`), so one reference per seed covers the
/// whole matrix.
fn reference_json(seed: u64) -> &'static str {
    static REFERENCES: OnceLock<[(u64, String); 3]> = OnceLock::new();
    let references = REFERENCES.get_or_init(|| {
        [700, 701, 702].map(|seed| {
            let request = quick_request(seed, 1);
            let scheme = SchemeConfig::cached(request.training_environment, request.training);
            let campaign = CampaignExecutor::new(2)
                .run_campaign(&request.config, &scheme)
                .expect("library campaign");
            (seed, serde_json::to_string(&campaign).expect("serialize reference"))
        })
    });
    &references.iter().find(|(s, _)| *s == seed).expect("seed has a reference").1
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mavfi_det_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Steps `server` until it has no unfinished jobs.
fn drive_until_idle(server: &CampaignServer, bus: &Bus) {
    for _ in 0..256 {
        if server.idle() {
            return;
        }
        server.step_once(bus).expect("server step");
    }
    panic!("server did not finish its jobs");
}

#[test]
fn served_campaigns_are_bit_identical_across_the_worker_batch_client_matrix() {
    for workers in WORKER_COUNTS {
        for batch_size in BATCH_SIZES {
            for clients in [1usize, 3] {
                let label = format!("workers {workers}, batch {batch_size}, clients {clients}");
                let dir = fresh_dir(&format!("w{workers}_b{batch_size}_c{clients}"));
                let bus = Bus::new();
                let server = CampaignServer::new(CampaignExecutor::new(workers), dir)
                    .expect("create server");
                server.attach(&bus);
                let request = quick_request(700, batch_size);

                // All clients race their submissions from real threads;
                // exactly one wins admission, the rest get duplicate
                // tickets for the same job.
                let tickets: Vec<JobTicket> = std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..clients)
                        .map(|_| {
                            let client = CampaignClient::new(&bus);
                            scope.spawn(move || client.submit(&request).expect("submit"))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|handle| handle.join().expect("client thread"))
                        .collect()
                });
                assert_eq!(
                    tickets.iter().filter(|ticket| !ticket.duplicate).count(),
                    1,
                    "{label}: exactly one submission is admitted"
                );
                assert!(
                    tickets.iter().all(|ticket| ticket.job_id == tickets[0].job_id),
                    "{label}: all clients land on the same job"
                );
                assert_eq!(server.job_count(), 1, "{label}: no duplicate work enqueued");

                drive_until_idle(&server, &bus);
                let result = CampaignClient::new(&bus)
                    .result(tickets[0].job_id)
                    .expect("status")
                    .expect("complete");
                let served = serde_json::to_string(&*result).expect("serialize served");
                assert_eq!(served, reference_json(700), "{label}: served bytes vs library");
            }
        }
    }
}

/// Three clients submitting three *different* campaigns concurrently: the
/// server executes them as independent jobs and each result matches its own
/// library reference bit-for-bit.
#[test]
fn concurrent_distinct_submissions_each_match_their_library_reference() {
    let bus = Bus::new();
    let server = CampaignServer::new(CampaignExecutor::new(2), fresh_dir("distinct"))
        .expect("create server");
    server.attach(&bus);

    let seeds = [700u64, 701, 702];
    let tickets: Vec<(u64, JobTicket)> = std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .map(|seed| {
                let client = CampaignClient::new(&bus);
                scope.spawn(move || (seed, client.submit(&quick_request(seed, 8)).expect("submit")))
            })
            .into_iter()
            .collect();
        handles.into_iter().map(|handle| handle.join().expect("client thread")).collect()
    });
    assert_eq!(server.job_count(), 3, "three distinct jobs admitted");

    drive_until_idle(&server, &bus);
    let client = CampaignClient::new(&bus);
    for (seed, ticket) in tickets {
        let result = client.result(ticket.job_id).expect("status").expect("complete");
        let served = serde_json::to_string(&*result).expect("serialize served");
        assert_eq!(served, reference_json(seed), "seed {seed}: served bytes vs library");
    }
    assert_eq!(server.counters().jobs_completed, 3);
}
