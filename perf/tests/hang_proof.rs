//! End-to-end proof of the hang-proof process model: a run in which a
//! measuring child parks forever (as the executor's lost wakeup makes it
//! do) still produces every metric, with `failed = 0` and the kill
//! counted.

use std::process::Command;

fn last_json_line(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .last()
        .expect("a result line")
        .to_string()
}

fn number_after(line: &str, key: &str) -> f64 {
    let at = line.find(key).unwrap_or_else(|| panic!("{key} in {line}"));
    let rest = &line[at + key.len()..];
    let rest = rest.trim_start_matches(|c: char| !(c.is_ascii_digit() || c == '-'));
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .unwrap_or_else(|_| panic!("number after {key} in {line}"))
}

fn perf(marker: &std::path::Path, trace: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--workload", "spmv3_nell", "--seed", "5", "--seconds", "1"])
        .args(["--trace", trace, "--extra-div", "10"])
        .env("PERF_HANG_ONCE", marker)
        .output()
        .expect("running perf")
}

#[test]
fn a_parked_child_is_killed_retried_and_nothing_fails() {
    let marker = std::env::temp_dir().join(format!("perf-hang-once-{}", std::process::id()));
    let _ = std::fs::remove_file(&marker);

    // Untraced pass: the first child hangs after its warm-up run.
    let out = perf(&marker, "0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(marker.exists(), "the hook never fired");
    assert!(stderr.contains("fell silent and was killed"), "{stderr}");
    // (≥ 1: the real lost wakeup may add kills of its own.)
    assert!(
        number_after(&stderr, "timed repetitions,") >= 1.0,
        "{stderr}"
    );
    let line = last_json_line(&out.stdout);
    assert!(line.contains("\"correct\": true"), "{line}");
    assert_eq!(number_after(&line, "\"failed\":"), 0.0);
    for metric in [
        "wall_s",
        "iter_s",
        "setup_s",
        "peak_rss_mb",
        "shuffle_bytes_iter",
        "jobs_per_s",
    ] {
        assert!(
            number_after(&line, &format!("\"{metric}\": {{\"value\":")) > 0.0,
            "{metric}"
        );
    }

    // Traced pass, same hook: the kill shows up as a per-layer count.
    std::fs::remove_file(&marker).unwrap();
    let out = perf(&marker, "1");
    let _ = std::fs::remove_file(&marker);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = last_json_line(&out.stdout);
    assert_eq!(number_after(&line, "\"failed\":"), 0.0, "{line}");
    assert!(
        number_after(&line, "\"dataflow.executor.watchdog_kills\": {\"value\":") >= 1.0,
        "{line}"
    );
    assert!(number_after(&line, "\"core.trace.overhead_share\": {\"value\":").is_finite());
}
