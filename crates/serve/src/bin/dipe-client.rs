//! Minimal scriptable client for `dipe-serve`, used by the CI smoke tests.
//!
//! ```text
//! dipe-client ADDR submit CIRCUIT [--source FILE] [--seed N]
//!             [--rel-err E] [--confidence C] [--input-model M]
//!             [--delay-model D] [--no-wait]
//! dipe-client ADDR resume PATH
//! dipe-client ADDR checkpoint JOB_ID [--stop]
//! dipe-client ADDR trace JOB_ID
//! dipe-client ADDR metrics [--watch [SECONDS]]
//! dipe-client ADDR stats | ping
//! dipe-client ADDR shutdown [--drain SECONDS]
//! ```
//!
//! `submit` waits for the job's terminal event by default and prints the
//! result event as a single JSON line on stdout; progress events go to
//! stderr. Exit status is non-zero if the job fails.

use std::process::ExitCode;

use dipe_serve::{Client, Event, JobSpec, Json};
use netlist::DelayModel;

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let addr = args.next().ok_or("usage: dipe-client ADDR COMMAND ...")?;
    let command = args.next().ok_or("missing command")?;
    let mut client = Client::connect(&addr)?;
    match command.as_str() {
        "submit" => {
            let circuit = args.next().ok_or("submit: missing circuit name")?;
            let mut spec = JobSpec::named(&circuit);
            let mut wait = true;
            while let Some(arg) = args.next() {
                let mut value_of = |name: &str| {
                    args.next()
                        .ok_or_else(|| format!("{name} requires a value"))
                };
                match arg.as_str() {
                    "--source" => {
                        let path = value_of("--source")?;
                        // The inline format follows the file extension;
                        // extensionless files default to `.bench`. Binary
                        // AIGER cannot travel in a JSON job request.
                        let format = netlist::NetlistFormat::from_path(&path)
                            .unwrap_or(netlist::NetlistFormat::Bench);
                        if !format.is_text() {
                            return Err(format!(
                                "--source {path}: binary AIGER cannot be inlined in a job \
                                 request; convert to ascii .aag first"
                            ));
                        }
                        let source = std::fs::read_to_string(&path)
                            .map_err(|e| format!("--source {path}: {e}"))?;
                        spec.circuit = dipe_serve::CircuitRef::Inline {
                            name: circuit.clone(),
                            source,
                            format,
                        };
                    }
                    "--seed" => {
                        spec.seed = value_of("--seed")?
                            .parse()
                            .map_err(|e| format!("--seed: {e}"))?;
                    }
                    "--rel-err" => {
                        spec.relative_error = value_of("--rel-err")?
                            .parse()
                            .map_err(|e| format!("--rel-err: {e}"))?;
                    }
                    "--confidence" => {
                        spec.confidence = value_of("--confidence")?
                            .parse()
                            .map_err(|e| format!("--confidence: {e}"))?;
                    }
                    "--input-model" => spec.input_model = value_of("--input-model")?,
                    "--delay-model" => {
                        spec.delay_model = DelayModel::parse(&value_of("--delay-model")?)
                            .map_err(|e| format!("--delay-model: {e}"))?;
                    }
                    "--no-wait" => wait = false,
                    other => return Err(format!("submit: unknown argument `{other}`")),
                }
            }
            spec.validate()?;
            let job_id = client.submit(&spec)?;
            eprintln!("accepted job {job_id}");
            if wait {
                wait_and_print(&mut client, job_id)?;
            } else {
                println!(
                    "{}",
                    Json::obj(vec![("job_id", Json::u64(job_id))]).to_line()
                );
            }
        }
        "resume" => {
            let path = args.next().ok_or("resume: missing checkpoint path")?;
            let job_id = client.resume(&path)?;
            eprintln!("accepted resumed job {job_id}");
            wait_and_print(&mut client, job_id)?;
        }
        "checkpoint" => {
            let job_id: u64 = args
                .next()
                .ok_or("checkpoint: missing job id")?
                .parse()
                .map_err(|e| format!("checkpoint: bad job id: {e}"))?;
            let stop = match args.next().as_deref() {
                None => false,
                Some("--stop") => true,
                Some(other) => return Err(format!("checkpoint: unknown argument `{other}`")),
            };
            let path = client.checkpoint(job_id, stop)?;
            println!("{path}");
        }
        "trace" => {
            let job_id: u64 = args
                .next()
                .ok_or("trace: missing job id")?
                .parse()
                .map_err(|e| format!("trace: bad job id: {e}"))?;
            let (lines, dropped) = client.trace(job_id)?;
            if dropped > 0 {
                eprintln!("trace buffer dropped {dropped} older lines");
            }
            for line in lines {
                println!("{line}");
            }
        }
        "metrics" => {
            let mut watch = false;
            let mut interval = std::time::Duration::from_secs(1);
            for arg in args {
                match arg.as_str() {
                    "--watch" => watch = true,
                    other => match other.parse::<f64>() {
                        Ok(seconds) if watch && seconds > 0.0 => {
                            interval = std::time::Duration::from_secs_f64(seconds);
                        }
                        _ => return Err(format!("metrics: unknown argument `{other}`")),
                    },
                }
            }
            if !watch {
                print!("{}", client.metrics()?);
            } else {
                // Live dashboard: redraw the exposition in place until the
                // server goes away (shutdown ends the loop cleanly).
                loop {
                    let text = match client.metrics() {
                        Ok(text) => text,
                        Err(_) => return Ok(()),
                    };
                    print!("\x1b[2J\x1b[H{text}");
                    use std::io::Write as _;
                    let _ = std::io::stdout().flush();
                    std::thread::sleep(interval);
                }
            }
        }
        "stats" => println!("{}", client.stats()?.to_line()),
        "ping" => {
            client.ping()?;
            println!("pong");
        }
        "shutdown" => match args.next() {
            Some(arg) if arg == "--drain" => {
                let seconds: f64 = args
                    .next()
                    .ok_or("--drain requires a value")?
                    .parse()
                    .map_err(|e| format!("--drain: {e}"))?;
                let cancelled = client.shutdown_drain(seconds)?;
                println!("bye ({cancelled} job(s) cancelled at the drain deadline)");
            }
            Some(arg) => return Err(format!("shutdown: unknown argument `{arg}`")),
            None => {
                client.shutdown()?;
                println!("bye");
            }
        },
        other => return Err(format!("unknown command `{other}`")),
    }
    Ok(())
}

/// Streams progress to stderr until the job ends, then prints its result
/// event JSON on stdout.
fn wait_and_print(client: &mut Client, job_id: u64) -> Result<(), String> {
    loop {
        match client.next_event()? {
            Event::Progress {
                job_id: id,
                phase,
                cycles_done,
                samples,
                ..
            } if id == job_id => {
                eprintln!("job {id}: {phase} cycles={cycles_done} samples={samples}");
            }
            Event::Result(result) if result.job_id == job_id => {
                println!("{}", Event::Result(result).to_json().to_line());
                return Ok(());
            }
            Event::Failed {
                job_id: id,
                message,
            } if id == job_id => return Err(format!("job {id} failed: {message}")),
            _ => {}
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("dipe-client: {message}");
            ExitCode::FAILURE
        }
    }
}
