//! The benchmark's own end-to-end checks, at the benchmark's scale.

use s2s_perfbench::workloads::reference_digest;
use s2s_perfbench::Workload;
use std::path::PathBuf;
use std::process::Command;

#[test]
fn digests_repeat_per_seed_and_differ_across_seeds() {
    let a = reference_digest(Workload::Fabric, 5);
    assert_eq!(
        a,
        reference_digest(Workload::Fabric, 5),
        "same seed, same digest"
    );
    // The epoch-by-epoch executor is the independent path `batch` is
    // checked against; it must land on the batch campaign's digest.
    assert_eq!(a, reference_digest(Workload::Batch, 5), "paths disagree");
    assert_ne!(
        a,
        reference_digest(Workload::Fabric, 6),
        "seeds 5 and 6 collide"
    );
}

/// Runs a short `batch` run at seed 3, against the pin file `pins` or the
/// built-in pins; returns (exit code, last stdout line).
fn run_batch(pins: Option<PathBuf>) -> (i32, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_s2s-perfbench"));
    cmd.args([
        "--workload",
        "batch",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    if let Some(p) = pins {
        cmd.arg("--pins").arg(p);
    }
    let out = cmd.output().expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.code().unwrap_or(-1), last)
}

#[test]
fn a_wrong_pinned_digest_fails_the_command() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("wrong.pins");
    std::fs::write(&path, "batch 3 0000000000000bad\n").expect("write pin file");
    let (code, last) = run_batch(Some(path));
    assert_ne!(code, 0);
    assert!(last.starts_with("{\"correct\": false"), "{last}");
    assert!(
        !last.contains("\"failed\": 0,"),
        "the mismatch must count as failed: {last}"
    );
}

#[test]
fn the_built_in_pin_passes_and_reports_every_metric() {
    let (code, last) = run_batch(None);
    assert_eq!(code, 0, "{last}");
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    for (name, unit) in s2s_perfbench::runner::END_TO_END {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing: {last}"
        );
        assert!(
            last.contains(&format!("\"unit\": \"{unit}\"")),
            "{unit} missing: {last}"
        );
    }
}
