//! Flag errors of the bench binaries exit 2 with a one-line diagnostic,
//! never a panic.

use std::process::Command;

#[test]
fn simulators_rejects_bad_cycle_counts_as_usage_errors() {
    for bad in ["0", "abc", "-1"] {
        let output = Command::new(env!("CARGO_BIN_EXE_simulators"))
            .args(["--cycles", bad, "--circuits", "s27", "--no-scaling"])
            .output()
            .expect("the simulators binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "--cycles {bad}: {stderr}");
        assert_eq!(stderr.trim().lines().count(), 1, "--cycles {bad}: {stderr}");
        assert!(stderr.starts_with("--cycles:"), "--cycles {bad}: {stderr}");
    }
}
