//! Blocking NDJSON client for `dipe-serve`.
//!
//! The protocol interleaves two kinds of server→client lines on one socket:
//! **responses** (exactly one per request, in request order) and **events**
//! (streamed asynchronously for jobs submitted on this connection). The
//! client demultiplexes them: while waiting for a response, arriving events
//! are stashed in an in-order queue that [`Client::next_event`] and
//! [`Client::wait_result`] later drain.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};

use telemetry::Json;

use crate::lines::BoundedLines;
use crate::protocol::{Event, JobResult, Request};
use crate::spec::JobSpec;

/// A blocking client connection to a running `dipe-serve`.
pub struct Client {
    reader: BoundedLines<TcpStream>,
    writer: TcpStream,
    events: VecDeque<Event>,
    progress_seen: HashMap<u64, u64>,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates socket errors as strings.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone failed: {e}"))?;
        Ok(Client {
            reader: BoundedLines::new(stream),
            writer,
            events: VecDeque::new(),
            progress_seen: HashMap::new(),
        })
    }

    /// Connects to the first reachable endpoint, retrying the whole list up
    /// to `attempts` rounds with capped, deterministically jittered backoff
    /// between rounds (see [`dipe::retry_backoff`]). The failure message
    /// names every endpoint with the last error it produced, so a dead fleet
    /// diagnoses itself.
    ///
    /// # Errors
    ///
    /// When every endpoint stays unreachable across every round.
    pub fn connect_retry(endpoints: &[String], attempts: u32) -> Result<Client, String> {
        if endpoints.is_empty() {
            return Err("no endpoints to connect to".to_string());
        }
        let attempts = attempts.max(1);
        let base = std::time::Duration::from_millis(100);
        let cap = std::time::Duration::from_secs(2);
        let mut last_error: Vec<Option<String>> = vec![None; endpoints.len()];
        for attempt in 0..attempts {
            for (index, endpoint) in endpoints.iter().enumerate() {
                match Client::connect(endpoint.as_str()) {
                    Ok(client) => return Ok(client),
                    Err(error) => last_error[index] = Some(error),
                }
            }
            if attempt + 1 < attempts {
                std::thread::sleep(dipe::retry_backoff(
                    attempt,
                    dipe::remote::endpoint_hash(&endpoints[0]),
                    base,
                    cap,
                ));
            }
        }
        let detail: Vec<String> = endpoints
            .iter()
            .zip(&last_error)
            .map(|(endpoint, error)| {
                format!(
                    "{endpoint}: {}",
                    error.as_deref().unwrap_or("not attempted")
                )
            })
            .collect();
        Err(format!(
            "no server reachable after {attempts} attempt(s) — {}",
            detail.join("; ")
        ))
    }

    /// How many `progress` events have been observed so far for `job_id`
    /// (across every read this client has performed).
    pub fn progress_count(&self, job_id: u64) -> u64 {
        self.progress_seen.get(&job_id).copied().unwrap_or(0)
    }

    fn send(&mut self, request: &Request) -> Result<(), String> {
        let mut line = request.to_json().to_line();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send failed: {e}"))
    }

    fn read_json(&mut self) -> Result<Json, String> {
        loop {
            let line = match self.reader.next_line() {
                Ok(Some(line)) => line,
                Ok(None) => return Err("server closed the connection".to_string()),
                Err(error) => return Err(format!("read failed: {error}")),
            };
            if !line.trim().is_empty() {
                return Json::parse(line.trim()).map_err(|e| e.to_string());
            }
        }
    }

    fn note(&mut self, event: &Event) {
        if let Event::Progress { job_id, .. } = event {
            *self.progress_seen.entry(*job_id).or_insert(0) += 1;
        }
    }

    /// Sends `request` and returns its response, stashing any events that
    /// arrive in between.
    fn request(&mut self, request: &Request) -> Result<Json, String> {
        self.send(request)?;
        loop {
            let value = self.read_json()?;
            match Event::from_json(&value)? {
                Some(event) => {
                    self.note(&event);
                    self.events.push_back(event);
                }
                None => return Ok(value),
            }
        }
    }

    fn expect(response: Json, kind: &str) -> Result<Json, String> {
        match response.get("type").and_then(Json::as_str) {
            Some(t) if t == kind => Ok(response),
            Some("error") => Err(response
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("unspecified server error")
                .to_string()),
            Some(other) => Err(format!("expected a `{kind}` response, got `{other}`")),
            None => Err("malformed response (no type)".to_string()),
        }
    }

    /// Submits a job; returns its server-assigned id.
    ///
    /// # Errors
    ///
    /// Protocol or server-side errors as strings.
    pub fn submit(&mut self, job: &JobSpec) -> Result<u64, String> {
        let response = self.request(&Request::Submit { job: job.clone() })?;
        let response = Self::expect(response, "accepted")?;
        response
            .get("job_id")
            .and_then(Json::as_u64)
            .ok_or_else(|| "accepted response without job_id".to_string())
    }

    /// Resumes a job from a checkpoint file on the *server's* filesystem;
    /// returns the new job id.
    ///
    /// # Errors
    ///
    /// Protocol or server-side errors as strings.
    pub fn resume(&mut self, path: &str) -> Result<u64, String> {
        let response = self.request(&Request::Resume {
            path: path.to_string(),
        })?;
        let response = Self::expect(response, "accepted")?;
        response
            .get("job_id")
            .and_then(Json::as_u64)
            .ok_or_else(|| "accepted response without job_id".to_string())
    }

    /// The next streamed event (stashed or read fresh).
    ///
    /// # Errors
    ///
    /// Protocol errors, or an unexpected bare response.
    pub fn next_event(&mut self) -> Result<Event, String> {
        if let Some(event) = self.events.pop_front() {
            return Ok(event);
        }
        let value = self.read_json()?;
        match Event::from_json(&value)? {
            Some(event) => {
                self.note(&event);
                Ok(event)
            }
            None => Err(format!("unsolicited response: {}", value.to_line())),
        }
    }

    /// Blocks until `job_id` reaches a terminal event. Events belonging to
    /// other jobs are retained for later calls.
    ///
    /// # Errors
    ///
    /// The job's failure message if it failed or was cancelled, or a
    /// protocol error.
    pub fn wait_result(&mut self, job_id: u64) -> Result<JobResult, String> {
        // Check the stash first: the terminal event may already be queued.
        let mut index = 0;
        while index < self.events.len() {
            match &self.events[index] {
                Event::Result(result) if result.job_id == job_id => {
                    let Some(Event::Result(result)) = self.events.remove(index) else {
                        unreachable!("index was just matched");
                    };
                    return Ok(result);
                }
                Event::Failed {
                    job_id: id,
                    message,
                } if *id == job_id => {
                    let message = message.clone();
                    self.events.remove(index);
                    return Err(message);
                }
                Event::Progress { job_id: id, .. } if *id == job_id => {
                    // Progress for the awaited job is consumed here; the
                    // per-job counter already recorded it.
                    self.events.remove(index);
                }
                _ => index += 1,
            }
        }
        loop {
            let value = self.read_json()?;
            let Some(event) = Event::from_json(&value)? else {
                return Err(format!("unsolicited response: {}", value.to_line()));
            };
            self.note(&event);
            match event {
                Event::Result(result) if result.job_id == job_id => return Ok(result),
                Event::Failed {
                    job_id: id,
                    message,
                } if id == job_id => return Err(message),
                Event::Progress { job_id: id, .. } if id == job_id => {}
                other => self.events.push_back(other),
            }
        }
    }

    /// The `stats` response object.
    ///
    /// # Errors
    ///
    /// Protocol or server-side errors as strings.
    pub fn stats(&mut self) -> Result<Json, String> {
        let response = self.request(&Request::Stats)?;
        Self::expect(response, "stats")
    }

    /// The Prometheus-style metrics exposition text.
    ///
    /// # Errors
    ///
    /// Protocol or server-side errors as strings.
    pub fn metrics(&mut self) -> Result<String, String> {
        let response = self.request(&Request::Metrics)?;
        let response = Self::expect(response, "metrics")?;
        response
            .get("text")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| "metrics response without text".to_string())
    }

    /// A job's buffered estimation-trace lines and how many older lines the
    /// bounded buffer had to drop.
    ///
    /// # Errors
    ///
    /// Protocol or server-side errors as strings.
    pub fn trace(&mut self, job_id: u64) -> Result<(Vec<String>, u64), String> {
        let response = self.request(&Request::Trace { job_id })?;
        let response = Self::expect(response, "trace")?;
        let lines = response
            .get("lines")
            .and_then(Json::as_arr)
            .ok_or_else(|| "trace response without lines".to_string())?
            .iter()
            .filter_map(|v| v.as_str().map(str::to_string))
            .collect();
        let dropped = response.get("dropped").and_then(Json::as_u64).unwrap_or(0);
        Ok((lines, dropped))
    }

    /// The `status` response object for a job.
    ///
    /// # Errors
    ///
    /// Protocol or server-side errors as strings.
    pub fn status(&mut self, job_id: u64) -> Result<Json, String> {
        let response = self.request(&Request::Status { job_id })?;
        Self::expect(response, "status")
    }

    /// Round-trip liveness check.
    ///
    /// # Errors
    ///
    /// Protocol or server-side errors as strings.
    pub fn ping(&mut self) -> Result<(), String> {
        self.request(&Request::Ping)
            .and_then(|r| Self::expect(r, "pong"))
            .map(|_| ())
    }

    /// Requests cancellation of a running job (its terminal event will be
    /// `failed`).
    ///
    /// # Errors
    ///
    /// Protocol or server-side errors as strings.
    pub fn cancel(&mut self, job_id: u64) -> Result<(), String> {
        self.request(&Request::Cancel { job_id })
            .and_then(|r| Self::expect(r, "ok"))
            .map(|_| ())
    }

    /// Checkpoints a running job to disk on the server; blocks until the
    /// file is written (the server fulfils the request at the job's next
    /// checkpointable slice boundary). Returns the server-side path. With
    /// `stop`, the job is terminated right after the file lands.
    ///
    /// # Errors
    ///
    /// Protocol or server-side errors as strings.
    pub fn checkpoint(&mut self, job_id: u64, stop: bool) -> Result<String, String> {
        let response = self.request(&Request::Checkpoint { job_id, stop })?;
        let response = Self::expect(response, "checkpointed")?;
        response
            .get("path")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| "checkpointed response without path".to_string())
    }

    /// Asks the server to shut down (it cancels running jobs and exits).
    ///
    /// # Errors
    ///
    /// Protocol or server-side errors as strings.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.request(&Request::Shutdown {
            drain_seconds: None,
        })
        .and_then(|r| Self::expect(r, "bye"))
        .map(|_| ())
    }

    /// Asks the server to shut down after draining: in-flight jobs get
    /// `drain_seconds` to finish before the stragglers are cancelled.
    /// Returns how many jobs missed the deadline and were cancelled (`0`
    /// means the drain was clean).
    ///
    /// # Errors
    ///
    /// Protocol or server-side errors as strings.
    pub fn shutdown_drain(&mut self, drain_seconds: f64) -> Result<u64, String> {
        let response = self.request(&Request::Shutdown {
            drain_seconds: Some(drain_seconds),
        })?;
        let response = Self::expect(response, "bye")?;
        Ok(response
            .get("cancelled")
            .and_then(Json::as_u64)
            .unwrap_or(0))
    }
}
