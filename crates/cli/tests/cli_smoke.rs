//! Smoke tests of the `dipe` binary's flag surface, run in CI as part of
//! `cargo test`:
//!
//! * `--help` must document every flag the parser accepts (adding a flag
//!   without documenting it fails here);
//! * bad flag values and invalid flag combinations must exit non-zero with a
//!   one-line diagnostic on stderr, never a panic or a silent success.

use std::path::Path;
use std::process::{Command, Output};

use telemetry::Json;

fn dipe(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dipe"))
        .args(args)
        .output()
        .expect("the dipe binary runs")
}

/// Every flag the CLI parser accepts. Keep in sync with `parse_options` in
/// `src/main.rs` — the test fails when a flag is added without updating the
/// help text (and this list forces the list itself to be updated too,
/// because unknown flags error out in the combination tests below).
const FLAGS: &[&str] = &[
    "--breakdown",
    "--target",
    "--delay-model",
    "--measure-mode",
    "--format",
    "--eval-mode",
    "--lanes",
    "--shards",
    "--top",
    "--seed",
    "--error",
    "--confidence",
    "--node-error",
    "--node-confidence",
    "--top-k",
    "--activity-floor",
    "--json",
    "--trace",
    "--progress",
    "--quiet",
];

#[test]
fn help_documents_every_flag_and_exits_zero() {
    let output = dipe(&["--help"]);
    assert!(output.status.success(), "--help must exit 0");
    let help = String::from_utf8(output.stdout).unwrap();
    for flag in FLAGS {
        assert!(
            help.contains(flag),
            "--help does not document `{flag}`:\n{help}"
        );
    }
    // The delay-model values are spelled out.
    for value in ["zero", "unit", "fanout", "random:"] {
        assert!(
            help.contains(value),
            "--help does not document delay model `{value}`:\n{help}"
        );
    }
    // So are the netlist formats and the eval modes.
    for value in [".bench", ".blif", ".aag", ".aig", "compiled", "partitioned"] {
        assert!(
            help.contains(value),
            "--help does not document `{value}`:\n{help}"
        );
    }
}

/// Asserts a bad invocation exits non-zero with a short stderr diagnostic
/// (and that the diagnostic is a usage error, not a panic backtrace).
fn assert_usage_error(args: &[&str]) {
    let output = dipe(args);
    assert!(!output.status.success(), "{args:?} must fail, but exited 0");
    assert_eq!(
        output.status.code(),
        Some(2),
        "{args:?} should exit with the usage-error code"
    );
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(!stderr.trim().is_empty(), "{args:?} printed no diagnostic");
    assert!(
        !stderr.contains("panicked"),
        "{args:?} panicked instead of reporting a usage error:\n{stderr}"
    );
}

#[test]
fn missing_circuit_is_a_usage_error() {
    assert_usage_error(&[]);
}

#[test]
fn unknown_flags_are_rejected() {
    assert_usage_error(&["s27", "--no-such-flag"]);
}

#[test]
fn bad_flag_values_are_rejected() {
    assert_usage_error(&["s27", "--lanes", "0"]);
    assert_usage_error(&["s27", "--lanes", "65"]);
    assert_usage_error(&["s27", "--lanes", "many"]);
    assert_usage_error(&["s27", "--target", "sideways"]);
    assert_usage_error(&["s27", "--shards", "0"]);
    assert_usage_error(&["s27", "--shards", "257"]);
    assert_usage_error(&["s27", "--shards", "lots"]);
    assert_usage_error(&["s27", "--shards"]); // value missing
    assert_usage_error(&["s27", "--seed"]); // value missing
    assert_usage_error(&["s27", "--node-error", "1.5"]);
    assert_usage_error(&["s27", "--node-confidence", "0"]);
    assert_usage_error(&["s27", "--top-k", "0"]);
    assert_usage_error(&["s27", "--activity-floor", "-1"]);
    assert_usage_error(&["s27", "--activity-floor", "nan"]);
    assert_usage_error(&["s27", "--error", "0"]);
    assert_usage_error(&["s27", "--error", "1.5"]);
    assert_usage_error(&["s27", "--error", "nan"]);
    assert_usage_error(&["s27", "--confidence", "1"]);
    assert_usage_error(&["s27", "--format", "verilog"]);
    assert_usage_error(&["s27", "--format"]); // value missing
    assert_usage_error(&["s27", "--eval-mode", "quantum"]);
    assert_usage_error(&["s27", "--eval-mode"]); // value missing
    assert_usage_error(&["s27", "--measure-mode", "wheel"]);
    assert_usage_error(&["s27", "--measure-mode"]); // value missing
}

#[test]
fn unknown_netlist_extension_is_a_one_line_usage_error() {
    let output = dipe(&["design.vhdl"]);
    assert_eq!(
        output.status.code(),
        Some(2),
        "unknown extensions are usage errors"
    );
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("design.vhdl"), "stderr: {stderr}");
    assert_eq!(
        stderr.trim().lines().count(),
        1,
        "diagnostic must be one line:\n{stderr}"
    );
}

#[test]
fn bad_delay_models_are_rejected() {
    assert_usage_error(&["s27", "--delay-model", "warp"]);
    assert_usage_error(&["s27", "--delay-model", "random:"]);
    assert_usage_error(&["s27", "--delay-model", "random:notanumber"]);
    assert_usage_error(&["s27", "--delay-model", "unit:0"]);
    assert_usage_error(&["s27", "--delay-model", "unit:fast"]);
    // Above the per-gate cap: must be a usage error, not an OOM-sized
    // timing-wheel allocation.
    assert_usage_error(&["s27", "--delay-model", "unit:1000000000"]);
    assert_usage_error(&["s27", "--delay-model", "unit:18446744073709551615"]);
    assert_usage_error(&["s27", "--delay-model"]); // value missing
}

#[test]
fn invalid_flag_combinations_are_rejected() {
    assert_usage_error(&["s27", "--lanes", "2", "--breakdown"]);
    assert_usage_error(&["s27", "--lanes", "2", "--json", "out.json"]);
    assert_usage_error(&["s27", "--lanes", "2", "--shards", "2"]);
    assert_usage_error(&["s27", "--lanes", "2", "--trace", "out.jsonl"]);
    assert_usage_error(&["s27", "--trace"]); // value missing
}

#[test]
fn trace_runs_write_a_reconstructable_jsonl_file() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let trace = dir.join(format!("dipe_smoke_{pid}.trace.jsonl"));
    let json = dir.join(format!("dipe_smoke_{pid}.trace.json"));
    let output = dipe(&[
        "s27",
        "--quiet",
        "--shards",
        "1",
        "--trace",
        trace.to_str().unwrap(),
        "--json",
        json.to_str().unwrap(),
    ]);
    assert!(
        output.status.success(),
        "traced run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let lines = std::fs::read_to_string(&trace).unwrap();
    let report = std::fs::read_to_string(&json).unwrap();
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&json).ok();
    // Every line is versioned; the run's whole lifecycle is present.
    assert!(!lines.is_empty());
    for line in lines.lines() {
        assert!(line.contains("\"trace_version\":1"), "unversioned: {line}");
    }
    for event in [
        "warmup_start",
        "warmup_end",
        "interval_trial",
        "interval_accepted",
        "sampling_start",
        "stopping_eval",
        "session_done",
    ] {
        assert!(
            lines.contains(&format!("\"event\":\"{event}\"")),
            "trace lacks {event}:\n{lines}"
        );
    }
    // The closing record carries the exact bits the --json report carries:
    // the trace reconstructs the estimate bit-for-bit.
    let bits = report
        .lines()
        .find(|l| l.contains("\"mean_power_w_bits\""))
        .and_then(|l| {
            l.trim()
                .trim_end_matches(',')
                .rsplit(' ')
                .next()
                .map(str::to_string)
        })
        .expect("json report has mean_power_w_bits");
    let done = lines
        .lines()
        .find(|l| l.contains("\"event\":\"session_done\""))
        .expect("trace has session_done");
    assert!(
        done.contains(&format!("\"mean_power_w_bits\":{bits}")),
        "trace bits disagree with the json report:\ntrace: {done}\nbits: {bits}"
    );
}

#[test]
fn progress_flag_is_accepted_and_silent_when_stderr_is_piped() {
    // stderr is a pipe here, so the refreshing line auto-disables; with
    // --quiet the run must print nothing at all to stderr.
    let output = dipe(&["s27", "--quiet", "--progress", "--shards", "1"]);
    assert!(
        output.status.success(),
        "progress run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(
        !stderr.contains('\r'),
        "refresh control characters leaked into a piped stderr: {stderr:?}"
    );
}

#[test]
fn sharded_runs_succeed_in_both_modes() {
    for args in [
        vec!["s27", "--quiet", "--shards", "2"],
        vec![
            "s27",
            "--quiet",
            "--shards",
            "2",
            "--breakdown",
            "--top",
            "3",
        ],
        vec!["s27", "--quiet", "--shards", "1"],
    ] {
        let output = dipe(&args);
        assert!(
            output.status.success(),
            "{args:?} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8(output.stdout).unwrap();
        assert!(stdout.contains("average power"), "stdout: {stdout}");
    }
}

#[test]
fn unknown_circuits_fail_with_exit_one() {
    let output = dipe(&["not_a_circuit"]);
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("failed to load"), "stderr: {stderr}");
}

#[test]
fn missing_netlist_files_fail_with_exit_one() {
    // Recognised extension, nonexistent file: a load error, not a usage one.
    for path in ["no_such_file.blif", "no_such_file.aag", "no_such_file.aig"] {
        let output = dipe(&[path]);
        assert_eq!(output.status.code(), Some(1), "{path}");
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert!(stderr.contains("failed to load"), "stderr: {stderr}");
    }
}

#[test]
fn netlist_files_load_by_extension_and_with_format_override() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    // One tiny circuit in all three text formats; the binary AIGER toggle
    // exercised separately below with raw bytes.
    let bench = dir.join(format!("dipe_smoke_{pid}.bench"));
    std::fs::write(&bench, "INPUT(a)\nOUTPUT(y)\nq = DFF(y)\ny = NAND(a, q)\n").unwrap();
    let blif = dir.join(format!("dipe_smoke_{pid}.blif"));
    std::fs::write(
        &blif,
        ".model t\n.inputs a\n.outputs y\n.latch y q 0\n.names a q y\n0- 1\n-0 1\n.end\n",
    )
    .unwrap();
    // An .aag source parsed under --format override from a neutral extension:
    // q' = NOT(a AND q).
    let renamed = dir.join(format!("dipe_smoke_{pid}.net"));
    std::fs::write(&renamed, "aag 3 1 1 1 1\n2\n4 7\n6\n6 2 4\n").unwrap();
    for (path, extra) in [
        (&bench, &[][..]),
        (&blif, &[][..]),
        (&renamed, &["--format", "aag"][..]),
    ] {
        let mut args = vec![path.to_str().unwrap(), "--quiet", "--error", "0.2"];
        args.extend_from_slice(extra);
        let output = dipe(&args);
        assert!(
            output.status.success(),
            "{args:?} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8(output.stdout).unwrap();
        assert!(stdout.contains("average power"), "stdout: {stdout}");
    }
    for path in [&bench, &blif, &renamed] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn partitioned_eval_mode_matches_compiled() {
    let compiled = dipe(&["s298", "--quiet", "--eval-mode", "compiled"]);
    let partitioned = dipe(&["s298", "--quiet", "--eval-mode", "partitioned"]);
    assert!(compiled.status.success());
    assert!(partitioned.status.success());
    // Same seed, bit-identical backends: everything but the wall-clock time
    // agrees verbatim.
    let digest = |output: &std::process::Output| {
        let stdout = String::from_utf8_lossy(&output.stdout).to_string();
        let power = stdout
            .lines()
            .find(|l| l.starts_with("average power"))
            .expect("summary reports a power line")
            .to_string();
        let samples = stdout
            .lines()
            .find(|l| l.starts_with("samples:"))
            .expect("summary reports a samples line")
            .split(" measured")
            .next()
            .unwrap()
            .to_string();
        (power, samples)
    };
    assert_eq!(digest(&compiled), digest(&partitioned));
}

#[test]
fn json_reports_identify_their_delay_model() {
    let path = std::env::temp_dir().join(format!("dipe_smoke_{}.json", std::process::id()));
    let path_str = path.to_str().unwrap();
    let output = dipe(&[
        "s27",
        "--quiet",
        "--delay-model",
        "unit:70",
        "--json",
        path_str,
    ]);
    assert!(
        output.status.success(),
        "json run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let json = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(
        json.contains("\"delay_model\": \"unit:70\""),
        "report does not identify its delay model:\n{json}"
    );
}

/// Runs `dipe` with `--json` into `path` and parses the report.
fn json_report(args: &[&str], path: &Path) -> Json {
    let mut args = args.to_vec();
    args.extend(["--quiet", "--json", path.to_str().unwrap()]);
    let output = dipe(&args);
    assert!(
        output.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(path).unwrap();
    std::fs::remove_file(path).ok();
    let report = Json::parse(&text).unwrap_or_else(|e| panic!("{args:?}: {e}\n{text}"));
    // Reports are written in the codec's indented layout.
    assert_eq!(report.to_pretty(), text);
    report
}

#[test]
fn json_reports_escape_the_circuit_name() {
    // A file netlist is named after its file stem, which may hold any
    // character JSON must escape.
    let dir = std::env::temp_dir().join(format!("dipe_smoke_names_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let netlist = dir.join("q\"uote\\back.bench");
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/mix3.bench"
    );
    std::fs::copy(fixture, &netlist).unwrap();
    let report = dir.join("report.json");
    let netlist = netlist.to_str().unwrap();
    for extra in [&[][..], &["--breakdown"][..]] {
        let mut args = vec![netlist, "--error", "0.2"];
        args.extend_from_slice(extra);
        let json = json_report(&args, &report);
        assert_eq!(
            json.get("circuit").and_then(Json::as_str),
            Some("q\"uote\\back"),
            "{args:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn breakdown_json_reports_carry_groups_nets_and_glitch_fields() {
    let path = std::env::temp_dir().join(format!("dipe_smoke_{}.bd.json", std::process::id()));
    let report = json_report(&["s27", "--breakdown", "--delay-model", "unit"], &path);
    let breakdown = report.get("breakdown").expect("breakdown object");
    let f64_of = |value: &Json, key: &str| {
        value
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("missing number `{key}`"))
    };
    assert_eq!(breakdown.get("circuit").and_then(Json::as_str), Some("s27"));
    assert_eq!(
        f64_of(breakdown, "total_power_w").to_bits(),
        f64_of(&report, "breakdown_total_power_w").to_bits()
    );
    let glitch_fraction = f64_of(breakdown, "glitch_fraction");
    assert!(glitch_fraction > 0.0 && glitch_fraction < 1.0);
    assert!(f64_of(breakdown, "total_glitch_power_w") > 0.0);

    let circuit = netlist::iscas89::load("s27").unwrap();
    let nets = breakdown.get("nets").and_then(Json::as_arr).expect("nets");
    assert_eq!(nets.len(), circuit.num_nets());
    let groups = breakdown
        .get("groups")
        .and_then(Json::as_arr)
        .expect("groups");
    let class = |g: &Json| g.get("class").and_then(Json::as_str).map(str::to_string);
    assert!(groups
        .iter()
        .any(|g| class(g).as_deref() == Some("sequential")));
    let grouped: usize = groups
        .iter()
        .map(|g| g.get("nets").and_then(Json::as_usize).unwrap())
        .sum();
    assert_eq!(grouped, nets.len());
    for net in nets {
        let (power, functional, glitch) = (
            f64_of(net, "power_w"),
            f64_of(net, "functional_power_w"),
            f64_of(net, "glitch_power_w"),
        );
        assert!(f64_of(net, "glitch_activity") >= 0.0);
        assert!((functional + glitch - power).abs() <= 1e-12 * power.max(f64::MIN_POSITIVE));
        if net.get("driver").and_then(Json::as_str) != Some("combinational") {
            assert_eq!(glitch, 0.0, "{}", net.to_line());
        }
    }
}

#[test]
fn tiny_total_run_succeeds_under_every_delay_model() {
    for model in ["zero", "unit", "unit:50", "fanout", "random:3"] {
        let output = dipe(&["s27", "--quiet", "--delay-model", model]);
        assert!(
            output.status.success(),
            "s27 --delay-model {model} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8(output.stdout).unwrap();
        assert!(stdout.contains("average power"), "stdout: {stdout}");
        assert!(stdout.contains("delay model"), "stdout: {stdout}");
    }
}

#[test]
fn replicated_lanes_compose_with_delay_models_and_print_glitch_columns() {
    // `--lanes` + a slot-representable annotation runs on the time-sliced
    // word backend and reports the pooled glitch decomposition.
    let output = dipe(&["s27", "--quiet", "--lanes", "3", "--delay-model", "unit"]);
    assert!(
        output.status.success(),
        "--lanes 3 --delay-model unit failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("time-sliced"), "stdout: {stdout}");
    for column in ["Glitch tr.", "Glitch p̄ (mW)", "Total tr.", "Settled tr."] {
        assert!(
            stdout.contains(column),
            "missing glitch column `{column}`:\n{stdout}"
        );
    }
    assert!(stdout.contains("pooled mean"), "stdout: {stdout}");

    // Forcing the scalar reference backend is also accepted and prints the
    // same decomposition table (the numbers are bit-identical by contract).
    let forced = dipe(&[
        "s27",
        "--quiet",
        "--lanes",
        "3",
        "--delay-model",
        "unit",
        "--measure-mode",
        "event-driven",
    ]);
    assert!(
        forced.status.success(),
        "forced event-driven lanes failed: {}",
        String::from_utf8_lossy(&forced.stderr)
    );
    let forced_stdout = String::from_utf8(forced.stdout).unwrap();
    assert!(forced_stdout.contains("event-driven"), "{forced_stdout}");
    assert!(forced_stdout.contains("Glitch tr."), "{forced_stdout}");
    // The lane estimates and the glitch decomposition must agree between
    // backends; only the backend label line differs.
    let numbers = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| !l.contains("backend"))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(numbers(&stdout), numbers(&forced_stdout));
}

#[test]
fn time_sliced_measurement_without_lanes_is_a_one_line_usage_error() {
    // A single run measures each sample on the event-driven wheel, so it
    // cannot honour a forced time-sliced backend: the error names `--lanes`.
    let output = dipe(&["s27", "--quiet", "--measure-mode", "time-sliced"]);
    assert_eq!(output.status.code(), Some(2), "time-sliced without --lanes");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert_eq!(
        stderr.trim().lines().count(),
        1,
        "diagnostic must be one line:\n{stderr}"
    );
    assert!(stderr.contains("--lanes"), "stderr: {stderr}");
    // `auto` and `event-driven` stay accepted on a single run, and
    // `time-sliced` on a lane group.
    for (mode, lanes) in [("auto", "1"), ("event-driven", "1"), ("time-sliced", "2")] {
        let output = dipe(&["s27", "--quiet", "--lanes", lanes, "--measure-mode", mode]);
        assert!(
            output.status.success(),
            "--measure-mode {mode} --lanes {lanes} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
}

#[test]
fn non_representable_annotations_with_lanes_exit_two_naming_the_fallback() {
    // The random annotation has gcd ~1 ps, far past the 63-slot horizon, so
    // the word backend cannot take it: a one-line usage error that names the
    // event-driven fallback, not a silent scalar run.
    let output = dipe(&["s27", "--lanes", "2", "--delay-model", "random:7"]);
    assert_eq!(
        output.status.code(),
        Some(2),
        "non-representable --lanes runs are usage errors"
    );
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert_eq!(
        stderr.trim().lines().count(),
        1,
        "diagnostic must be one line:\n{stderr}"
    );
    assert!(stderr.contains("random:7"), "stderr: {stderr}");
    assert!(
        stderr.contains("event-driven"),
        "the error must name the fallback backend:\n{stderr}"
    );

    // Selecting the named fallback explicitly makes the same flags run.
    let fallback = dipe(&[
        "s27",
        "--quiet",
        "--lanes",
        "2",
        "--delay-model",
        "random:7",
        "--measure-mode",
        "event-driven",
    ]);
    assert!(
        fallback.status.success(),
        "the documented fallback failed: {}",
        String::from_utf8_lossy(&fallback.stderr)
    );
}
