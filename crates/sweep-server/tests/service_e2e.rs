//! End-to-end tests for the simulation service (ISSUE 8 acceptance):
//!
//! * re-submitting an unchanged suite is 100% cache hits and the
//!   serialized records are byte-identical to the first run's;
//! * editing one axis re-runs exactly the delta cells;
//! * `max_cells` truncation caches the cells it *did* run without
//!   poisoning later full runs;
//! * the whole loop works over the real TCP protocol and the spool
//!   directory, not just in-process calls.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use serde_json::Value;
use sweep_server::{run_job, Client, JobQueue, JobSpec, JobState, RunStore, Server};

/// 2 protocols × 2 failure models = 4 cells.
const SUITE: &str = r#"
[suite]
name = "e2e"

[defaults]
workloads = ["stencil:4x4:face=64:compute_us=5"]
clusters = ["per-rank"]
networks = ["mx"]

[scenario.main]
protocols = ["native", "hydee"]
failure_models = ["none", "fail@2000us:r1"]
"#;

/// Same suite with a third failure model: 6 cells, 4 shared with SUITE.
const SUITE_EDITED: &str = r#"
[suite]
name = "e2e"

[defaults]
workloads = ["stencil:4x4:face=64:compute_us=5"]
clusters = ["per-rank"]
networks = ["mx"]

[scenario.main]
protocols = ["native", "hydee"]
failure_models = ["none", "fail@2000us:r1", "fail@3000us:r2"]
"#;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sweep-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn job(suite_text: &str, max_cells: Option<usize>) -> JobSpec {
    JobSpec {
        name: "e2e".into(),
        suite_text: suite_text.into(),
        origin: "<test>".into(),
        priority: 0,
        max_cells,
    }
}

/// Submit a job on a fresh queue and run it inline; returns the outcome
/// plus the (hits, misses) counters the worker accumulated.
fn run_inline(store: &RunStore, spec: JobSpec) -> (JobState, Vec<String>, usize, usize) {
    let queue = JobQueue::new();
    let id = queue.submit(spec);
    let claimed = queue.next_job().expect("job claimable");
    let outcome = run_job(&claimed, store, None);
    let state = outcome.state;
    let records = outcome.records.clone();
    queue.finish(id, outcome);
    let status = queue.status(id).expect("finished job has status");
    (state, records, status.hits, status.misses)
}

#[test]
fn resubmitted_suite_is_all_hits_with_byte_identical_records() {
    let dir = tmpdir("resubmit");
    let store = RunStore::open(&dir).unwrap();
    let (state, first, hits, misses) = run_inline(&store, job(SUITE, None));
    assert_eq!(state, JobState::Done);
    assert_eq!((hits, misses), (0, 4), "fresh store must miss every cell");
    assert_eq!(first.len(), 4);
    let (state, second, hits, misses) = run_inline(&store, job(SUITE, None));
    assert_eq!(state, JobState::Done);
    assert_eq!((hits, misses), (4, 0), "resubmission must be 100% hits");
    assert_eq!(first, second, "cached records must be byte-identical");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn editing_one_axis_reruns_exactly_the_delta() {
    let dir = tmpdir("delta");
    let store = RunStore::open(&dir).unwrap();
    let (_, first, _, misses) = run_inline(&store, job(SUITE, None));
    assert_eq!(misses, 4);
    let (state, edited, hits, misses) = run_inline(&store, job(SUITE_EDITED, None));
    assert_eq!(state, JobState::Done);
    assert_eq!(
        (hits, misses),
        (4, 2),
        "only the two new failure-model cells may re-run"
    );
    assert_eq!(edited.len(), 6);
    // The shared cells' bytes are served from cache, verbatim.
    for raw in &first {
        assert!(edited.contains(raw), "shared cell missing from edited run");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn max_cells_truncation_does_not_poison_the_cache() {
    let dir = tmpdir("truncate");
    let store = RunStore::open(&dir).unwrap();
    // Smoke run: only the first 2 of 4 cells.
    let (state, smoke, hits, misses) = run_inline(&store, job(SUITE, Some(2)));
    assert_eq!(state, JobState::Done);
    assert_eq!((hits, misses), (0, 2));
    assert_eq!(smoke.len(), 2);
    // Full run afterwards: the 2 smoke cells hit, the rest simulate —
    // and the result equals a from-scratch reference run.
    let (_, full, hits, misses) = run_inline(&store, job(SUITE, None));
    assert_eq!((hits, misses), (2, 2));
    let ref_dir = tmpdir("truncate-ref");
    let ref_store = RunStore::open(&ref_dir).unwrap();
    let (_, reference, _, _) = run_inline(&ref_store, job(SUITE, None));
    assert_eq!(full, reference, "truncated smoke run poisoned the cache");
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&ref_dir).unwrap();
}

#[test]
fn tcp_protocol_round_trips_submit_wait_result() {
    let store_dir = tmpdir("tcp-store");
    let results_dir = tmpdir("tcp-results");
    let store = Arc::new(RunStore::open(&store_dir).unwrap());
    let server = Server::new(Arc::clone(&store), Some(results_dir.clone()));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run_tcp(listener).unwrap())
    };
    let client = Client::new(&addr);

    let id1 = client.submit("e2e", SUITE, 0, None).unwrap();
    let (status, first) = client.wait(id1, Duration::from_secs(120)).unwrap();
    assert_eq!(status.get("state").and_then(Value::as_str), Some("done"));
    assert_eq!(first.len(), 4);

    let id2 = client.submit("e2e", SUITE, 5, None).unwrap();
    let (status, second) = client.wait(id2, Duration::from_secs(120)).unwrap();
    let hits = status.get("hits").and_then(Value::as_u64).unwrap();
    assert_eq!(hits, 4, "resubmission over TCP must be 100% hits");
    assert_eq!(first, second, "TCP-served records must be byte-identical");

    // Store counters travel over the wire too.
    let (entries, hits, misses) = client.stats().unwrap();
    assert_eq!(entries, 4);
    assert_eq!((hits, misses), (4, 4));

    // Finished jobs were published atomically to the results dir.
    let published: Vec<String> = std::fs::read_dir(&results_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with("_records.jsonl"))
        .collect();
    assert_eq!(published.len(), 2, "{published:?}");

    client.shutdown().unwrap();
    handle.join().unwrap();
    std::fs::remove_dir_all(&store_dir).unwrap();
    std::fs::remove_dir_all(&results_dir).unwrap();
}

#[test]
fn spool_directory_accepts_suites_and_stop_sentinel() {
    let store_dir = tmpdir("spool-store");
    let results_dir = tmpdir("spool-results");
    let spool_dir = tmpdir("spool-in");
    std::fs::create_dir_all(&spool_dir).unwrap();
    let store = Arc::new(RunStore::open(&store_dir).unwrap());
    let server = Server::new(store, Some(results_dir.clone()));
    let handle = {
        let server = Arc::clone(&server);
        let spool = spool_dir.clone();
        std::thread::spawn(move || server.run_spool(&spool).unwrap())
    };
    // Priority suffix: `<name>.p7.suite`.
    std::fs::write(spool_dir.join("e2e.p7.suite"), SUITE).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    let published = loop {
        let found: Vec<PathBuf> = std::fs::read_dir(&results_dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .map(|e| e.path())
                    .filter(|p| {
                        p.file_name()
                            .is_some_and(|n| n.to_string_lossy().ends_with("_records.jsonl"))
                    })
                    .collect()
            })
            .unwrap_or_default();
        if !found.is_empty() {
            break found;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "spooled job never published records"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let body = std::fs::read_to_string(&published[0]).unwrap();
    assert_eq!(body.lines().count(), 4);
    // The suite file was moved aside, not left for re-queueing.
    assert!(!spool_dir.join("e2e.p7.suite").exists());
    assert_eq!(
        std::fs::read_dir(spool_dir.join("accepted"))
            .unwrap()
            .count(),
        1
    );
    // Priority suffix reached the queue.
    let status = server.queue().status_all();
    assert_eq!(status.len(), 1);
    assert_eq!(status[0].priority, 7);
    assert_eq!(status[0].name, "e2e");

    std::fs::write(spool_dir.join("stop"), b"").unwrap();
    handle.join().unwrap();
    for dir in [&store_dir, &results_dir, &spool_dir] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}
