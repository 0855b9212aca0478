//! The resident server: job intake (TCP and spool-directory), the
//! worker loop, and result publication.
//!
//! Two intake modes share one [`JobQueue`] + [`RunStore`]:
//!
//! * **TCP** — `std::net::TcpListener`, line-delimited JSON requests
//!   (`submit`/`status`/`cancel`/`result`/`stats`/`shutdown`), one JSON
//!   response line per request. The protocol is plain enough for
//!   `nc`, but [`crate::client::Client`] is the supported consumer.
//! * **Spool** — a watched directory: drop `<name>.suite` files in, the
//!   server moves each to `accepted/` and queues it (an optional
//!   `<name>.p<k>.suite` suffix sets priority `k`); a `stop` sentinel
//!   file shuts the server down.
//!
//! One worker thread drains the queue (priorities order *jobs*; each
//! job's *cells* already fan out across every core via rayon inside
//! [`crate::job::run_job`], so a second worker would only add
//! oversubscription). Finished jobs publish their records atomically —
//! written to a temp file, then renamed — as
//! `<results>/job-<id>-<name>_records.jsonl`.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use scenario::JsonlProgress;
use serde::write_json_str;
use serde_json::Value;

use crate::job::{run_job, JobQueue, JobSpec, JobState};
use crate::store::RunStore;

/// Poll interval for the nonblocking accept loop / spool scan.
const POLL: Duration = Duration::from_millis(25);

/// A resident sweep service: shared store + job queue + worker.
pub struct Server {
    store: Arc<RunStore>,
    queue: Arc<JobQueue>,
    /// Where finished jobs' record files land (`None`: memory only).
    results_dir: Option<PathBuf>,
}

impl Server {
    pub fn new(store: Arc<RunStore>, results_dir: Option<PathBuf>) -> Arc<Server> {
        Arc::new(Server {
            store,
            queue: Arc::new(JobQueue::new()),
            results_dir,
        })
    }

    pub fn queue(&self) -> &Arc<JobQueue> {
        &self.queue
    }

    pub fn store(&self) -> &Arc<RunStore> {
        &self.store
    }

    /// Start the worker thread; it exits after [`JobQueue::shutdown`].
    pub fn spawn_worker(self: &Arc<Self>) -> std::thread::JoinHandle<()> {
        let server = Arc::clone(self);
        std::thread::spawn(move || {
            while let Some(job) = server.queue.next_job() {
                // Stream per-cell progress next to the results file so a
                // dashboard can tail `job-<id>_progress.jsonl` live.
                let progress = server.results_dir.as_deref().and_then(|dir| {
                    JsonlProgress::create(&dir.join(format!("job-{:06}_progress.jsonl", job.id)))
                        .ok()
                });
                let outcome = run_job(
                    &job,
                    &server.store,
                    progress.as_ref().map(|p| p as &dyn scenario::ProgressSink),
                );
                if outcome.state == JobState::Done {
                    server.publish(job.id, &job.spec.name, &outcome.records);
                }
                server.queue.finish(job.id, outcome);
            }
        })
    }

    /// Atomically publish a finished job's records: write whole file to
    /// a temp name, then rename — a reader can never observe half a
    /// record file (the write-then-rename half of the torn-write fix;
    /// store segments use per-line commit markers instead because they
    /// are append-only).
    fn publish(&self, id: u64, name: &str, records: &[String]) {
        let Some(dir) = self.results_dir.as_deref() else {
            return;
        };
        let safe: String = name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let final_path = dir.join(format!("job-{id:06}-{safe}_records.jsonl"));
        let tmp_path = dir.join(format!(".job-{id:06}.tmp"));
        let mut body = String::new();
        for raw in records {
            body.push_str(raw);
            body.push('\n');
        }
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(dir)?;
            std::fs::write(&tmp_path, body.as_bytes())?;
            std::fs::rename(&tmp_path, &final_path)
        };
        if let Err(err) = write() {
            eprintln!("sweep-server: cannot publish job {id} records: {err}");
        }
    }

    /// Serve the TCP line protocol until a `shutdown` request. Binds are
    /// the caller's job so tests can pick port 0 and read the real addr.
    pub fn run_tcp(self: &Arc<Self>, listener: TcpListener) -> std::io::Result<()> {
        let worker = self.spawn_worker();
        listener.set_nonblocking(true)?;
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if self.queue.is_shut_down() {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let server = Arc::clone(self);
                    conns.push(std::thread::spawn(move || server.handle_conn(stream)));
                }
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL);
                }
                Err(err) => return Err(err),
            }
            conns.retain(|h| !h.is_finished());
        }
        for conn in conns {
            let _ = conn.join();
        }
        let _ = worker.join();
        Ok(())
    }

    fn handle_conn(self: Arc<Self>, stream: TcpStream) {
        let Ok(writer) = stream.try_clone() else {
            return;
        };
        let mut writer = writer;
        let reader = BufReader::new(stream);
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            let response = self.handle_request(&line);
            if writer.write_all(response.as_bytes()).is_err() {
                break;
            }
            if self.queue.is_shut_down() {
                break;
            }
        }
    }

    /// One request line in, one response line (with trailing `\n`) out.
    pub fn handle_request(&self, line: &str) -> String {
        match self.dispatch(line) {
            Ok(body) => format!("{{\"ok\":true{body}}}\n"),
            Err(why) => {
                let mut out = String::from("{\"ok\":false,\"error\":");
                write_json_str(&why, &mut out);
                out.push_str("}\n");
                out
            }
        }
    }

    fn dispatch(&self, line: &str) -> Result<String, String> {
        let req: Value = serde_json::from_str(line).map_err(|e| format!("bad request: {e}"))?;
        let cmd = req
            .get("cmd")
            .and_then(Value::as_str)
            .ok_or("missing `cmd`")?;
        match cmd {
            "submit" => {
                let suite_text = req
                    .get("suite")
                    .and_then(Value::as_str)
                    .ok_or("submit needs `suite` (the suite file text)")?
                    .to_owned();
                let name = req
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("job")
                    .to_owned();
                let priority = req
                    .get("priority")
                    .map(|v| {
                        v.as_f64()
                            .map(|f| f as i64)
                            .ok_or("bad `priority`".to_string())
                    })
                    .transpose()?
                    .unwrap_or(0);
                let max_cells = req
                    .get("max_cells")
                    .map(|v| v.as_usize().ok_or("bad `max_cells`".to_string()))
                    .transpose()?;
                let id = self.queue.submit(JobSpec {
                    name,
                    suite_text,
                    origin: "<tcp>".into(),
                    priority,
                    max_cells,
                });
                Ok(format!(",\"job\":{id}"))
            }
            "status" => {
                let statuses = match req.get("job").map(|v| v.as_u64()) {
                    Some(Some(id)) => {
                        vec![self.queue.status(id).ok_or(format!("no such job {id}"))?]
                    }
                    Some(None) => return Err("bad `job`".into()),
                    None => self.queue.status_all(),
                };
                let rows: Vec<String> = statuses
                    .iter()
                    .map(|s| serde_json::to_string(s).expect("status serializes"))
                    .collect();
                Ok(format!(",\"jobs\":[{}]", rows.join(",")))
            }
            "cancel" => {
                let id = self.req_job_id(&req)?;
                Ok(format!(",\"cancelled\":{}", self.queue.cancel(id)))
            }
            "result" => {
                let id = self.req_job_id(&req)?;
                let status = self.queue.status(id).ok_or(format!("no such job {id}"))?;
                let (status, records) = self
                    .queue
                    .result(id)
                    .ok_or(format!("job {id} is {} (not terminal yet)", status.state))?;
                Ok(format!(
                    ",\"status\":{},\"records\":[{}]",
                    serde_json::to_string(&status).expect("status serializes"),
                    records.join(",")
                ))
            }
            "stats" => {
                let (hits, misses) = self.store.counters();
                let load = self.store.load_report();
                Ok(format!(
                    ",\"entries\":{},\"hits\":{hits},\"misses\":{misses},\"loaded\":{},\"skipped\":{},\"segments\":{}",
                    self.store.len(),
                    load.loaded,
                    load.skipped,
                    load.segments
                ))
            }
            "shutdown" => {
                self.queue.shutdown();
                Ok(String::new())
            }
            other => Err(format!("unknown command `{other}`")),
        }
    }

    fn req_job_id(&self, req: &Value) -> Result<u64, String> {
        req.get("job")
            .and_then(Value::as_u64)
            .ok_or_else(|| "missing or bad `job`".into())
    }

    /// Serve a spool directory until a `stop` sentinel file appears.
    /// Suite files dropped into `dir` are moved to `dir/accepted/` and
    /// queued; results land in the server's results dir.
    pub fn run_spool(self: &Arc<Self>, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let accepted = dir.join("accepted");
        std::fs::create_dir_all(&accepted)?;
        let worker = self.spawn_worker();
        let stop = dir.join("stop");
        loop {
            if stop.exists() {
                let _ = std::fs::remove_file(&stop);
                self.queue.shutdown();
                break;
            }
            let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "suite") && p.is_file())
                .collect();
            files.sort();
            for path in files {
                match std::fs::read_to_string(&path) {
                    Ok(suite_text) => {
                        let stem = path
                            .file_stem()
                            .and_then(|s| s.to_str())
                            .unwrap_or("job")
                            .to_owned();
                        let (name, priority) = split_spool_priority(&stem);
                        let id = self.queue.submit(JobSpec {
                            name: name.clone(),
                            suite_text,
                            origin: path.display().to_string(),
                            priority,
                            max_cells: None,
                        });
                        let parked = accepted.join(format!("job-{id:06}-{stem}.suite"));
                        if let Err(err) = std::fs::rename(&path, &parked) {
                            eprintln!(
                                "sweep-server: cannot move spooled {}: {err}",
                                path.display()
                            );
                            let _ = std::fs::remove_file(&path);
                        }
                    }
                    Err(err) => {
                        eprintln!("sweep-server: cannot read {}: {err}", path.display());
                        let _ = std::fs::remove_file(&path);
                    }
                }
            }
            std::thread::sleep(POLL);
        }
        let _ = worker.join();
        Ok(())
    }
}

/// `<name>.p<k>` spool stems carry a priority suffix; everything else is
/// priority 0.
fn split_spool_priority(stem: &str) -> (String, i64) {
    if let Some((name, suffix)) = stem.rsplit_once(".p") {
        if !name.is_empty() && !suffix.is_empty() && suffix.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(priority) = suffix.parse() {
                return (name.to_owned(), priority);
            }
        }
    }
    (stem.to_owned(), 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spool_priority_suffix_parses() {
        assert_eq!(split_spool_priority("example"), ("example".into(), 0));
        assert_eq!(split_spool_priority("example.p7"), ("example".into(), 7));
        assert_eq!(split_spool_priority("a.b.p12"), ("a.b".into(), 12));
        assert_eq!(split_spool_priority(".p5"), (".p5".into(), 0));
        assert_eq!(split_spool_priority("x.pq"), ("x.pq".into(), 0));
    }

    #[test]
    fn handle_request_rejects_malformed_lines() {
        let dir = std::env::temp_dir().join(format!("sweep-srv-req-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(RunStore::open(&dir).unwrap());
        let server = Server::new(store, None);
        // A run of `[` deep enough to overflow a recursive reader's stack.
        let deep = "[".repeat(100_000);
        for bad in [
            "",
            "{",
            "{}",
            "{\"cmd\":\"nope\"}",
            "{\"cmd\":\"result\"}",
            &deep,
        ] {
            let resp = server.handle_request(bad);
            assert!(resp.starts_with("{\"ok\":false"), "`{bad:.40}` → {resp}");
            assert!(resp.ends_with('\n'));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn submit_status_cancel_round_trip_through_the_protocol() {
        let dir = std::env::temp_dir().join(format!("sweep-srv-proto-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(RunStore::open(&dir).unwrap());
        let server = Server::new(store, None);
        // No worker running: the job stays queued, so cancel is immediate.
        let resp = server.handle_request(
            "{\"cmd\":\"submit\",\"name\":\"t\",\"suite\":\"suite \\\"t\\\"\",\"priority\":3}",
        );
        let v = serde_json::from_str(resp.trim()).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{resp}");
        let id = v.get("job").and_then(Value::as_u64).unwrap();
        let resp = server.handle_request(&format!("{{\"cmd\":\"status\",\"job\":{id}}}"));
        let v = serde_json::from_str(resp.trim()).unwrap();
        let jobs = v.get("jobs").and_then(Value::as_array).unwrap();
        assert_eq!(jobs[0].get("state").and_then(Value::as_str), Some("queued"));
        assert_eq!(jobs[0].get("priority").and_then(Value::as_f64), Some(3.0));
        let resp = server.handle_request(&format!("{{\"cmd\":\"cancel\",\"job\":{id}}}"));
        assert!(resp.contains("\"cancelled\":true"));
        let resp = server.handle_request(&format!("{{\"cmd\":\"result\",\"job\":{id}}}"));
        let v = serde_json::from_str(resp.trim()).unwrap();
        assert_eq!(
            v.get("status")
                .and_then(|s| s.get("state"))
                .and_then(Value::as_str),
            Some("cancelled")
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
