//! Client for the TCP line protocol: one connection per request, one
//! JSON line each way. Used by the `sweep submit/status/cancel/result`
//! subcommands and the integration tests.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use serde::write_json_str;
use serde_json::Value;

/// Thin handle on a server address; connections are per-request, so a
/// `Client` is cheap to clone around and never holds a socket open.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
}

/// A decoded `{"ok":true,...}` response body.
pub type Response = Value;

impl Client {
    pub fn new(addr: impl Into<String>) -> Client {
        Client { addr: addr.into() }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Send one request line, read one response line, unwrap `ok`.
    pub fn request(&self, line: &str) -> Result<Response, String> {
        let stream = TcpStream::connect(&self.addr)
            .map_err(|e| format!("cannot connect to {}: {e}", self.addr))?;
        let mut writer = stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?;
        writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("cannot send request: {e}"))?;
        let mut response = String::new();
        BufReader::new(stream)
            .read_line(&mut response)
            .map_err(|e| format!("cannot read response: {e}"))?;
        if response.is_empty() {
            return Err("server closed the connection without responding".into());
        }
        let v = serde_json::from_str(response.trim_end())
            .map_err(|e| format!("malformed response: {e}"))?;
        match v.get("ok").and_then(Value::as_bool) {
            Some(true) => Ok(v),
            _ => Err(v
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("server reported an unspecified error")
                .to_owned()),
        }
    }

    /// Submit a suite (the file *text*, not a path — the server may run
    /// on another machine). Returns the job id.
    pub fn submit(
        &self,
        name: &str,
        suite_text: &str,
        priority: i64,
        max_cells: Option<usize>,
    ) -> Result<u64, String> {
        let mut line = String::from("{\"cmd\":\"submit\",\"name\":");
        write_json_str(name, &mut line);
        line.push_str(",\"suite\":");
        write_json_str(suite_text, &mut line);
        line.push_str(&format!(",\"priority\":{priority}"));
        if let Some(n) = max_cells {
            line.push_str(&format!(",\"max_cells\":{n}"));
        }
        line.push('}');
        self.request(&line)?
            .get("job")
            .and_then(Value::as_u64)
            .ok_or_else(|| "submit response missing `job`".into())
    }

    /// Status of one job (`Some(id)`) or all jobs (`None`), as the raw
    /// `jobs` array from the response.
    pub fn status(&self, job: Option<u64>) -> Result<Vec<Value>, String> {
        let line = match job {
            Some(id) => format!("{{\"cmd\":\"status\",\"job\":{id}}}"),
            None => "{\"cmd\":\"status\"}".to_owned(),
        };
        let resp = self.request(&line)?;
        resp.get("jobs")
            .and_then(Value::as_array)
            .map(<[Value]>::to_vec)
            .ok_or_else(|| "status response missing `jobs`".into())
    }

    /// Request cancellation; `Ok(true)` if the job was still cancellable.
    pub fn cancel(&self, job: u64) -> Result<bool, String> {
        self.request(&format!("{{\"cmd\":\"cancel\",\"job\":{job}}}"))?
            .get("cancelled")
            .and_then(Value::as_bool)
            .ok_or_else(|| "cancel response missing `cancelled`".into())
    }

    /// Fetch a terminal job's status + records. The records come back as
    /// the exact serialized `RunRecord` lines the store persisted.
    pub fn result(&self, job: u64) -> Result<(Value, Vec<String>), String> {
        let resp = self.request(&format!("{{\"cmd\":\"result\",\"job\":{job}}}"))?;
        let status = resp
            .get("status")
            .cloned()
            .ok_or("result response missing `status`")?;
        let records = resp
            .get("records")
            .and_then(Value::as_array)
            .ok_or("result response missing `records`")?
            .iter()
            .map(Value::to_json)
            .collect();
        Ok((status, records))
    }

    /// Store statistics: `(entries, hits, misses)`.
    pub fn stats(&self) -> Result<(u64, u64, u64), String> {
        let resp = self.request("{\"cmd\":\"stats\"}")?;
        let take = |key: &str| {
            resp.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("stats response missing `{key}`"))
        };
        Ok((take("entries")?, take("hits")?, take("misses")?))
    }

    /// Ask the server to stop accepting work and exit its loops.
    pub fn shutdown(&self) -> Result<(), String> {
        self.request("{\"cmd\":\"shutdown\"}").map(|_| ())
    }

    /// Poll `status` until the job reaches a terminal state, then fetch
    /// its result. `timeout` bounds the wait.
    pub fn wait(&self, job: u64, timeout: Duration) -> Result<(Value, Vec<String>), String> {
        let deadline = Instant::now() + timeout;
        loop {
            let rows = self.status(Some(job))?;
            let state = rows
                .first()
                .and_then(|r| r.get("state"))
                .and_then(Value::as_str)
                .ok_or("status row missing `state`")?;
            if matches!(state, "done" | "cancelled" | "failed") {
                return self.result(job);
            }
            if Instant::now() >= deadline {
                return Err(format!("timed out waiting for job {job} (state {state})"));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}
