//! The parent: generates inputs, runs measuring children under a
//! watchdog, and turns their samples into metrics.
//!
//! The parent never calls into the engine. It spawns `perf child …`,
//! reads its stdout line by line, and kills it when it falls silent —
//! which is what a child parked by the executor's lost wakeup does. A
//! killed child's remaining repetitions are re-attempted by a fresh
//! child; a repetition counts as failed only if it never completes or
//! fails a check.

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::{median, Summary};
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A child is never given up on for less silence than this.
const STALL_FLOOR: Duration = Duration::from_secs(4);
/// …nor for less than this many times the longest silence seen so far.
const STALL_FACTOR: f64 = 5.0;
/// Consecutive failed attempts (kills or crashes that produced no new
/// sample) after which a child's repetitions count as failed.
const MAX_ATTEMPTS: usize = 3;
/// Fewest timed repetitions a measuring child makes.
const MIN_REPS: usize = 2;

/// Decides when a silent child is a stalled one.
pub struct Watchdog {
    floor: Duration,
    longest_gap: Duration,
    pub kills: usize,
}

pub enum ChildEnd {
    /// Printed `done` and exited with code 0.
    Done,
    /// Fell silent and was killed.
    Killed,
    /// Exited by itself without finishing (panic, abort).
    Crashed(String),
}

impl Watchdog {
    pub fn new(floor: Duration) -> Self {
        Watchdog {
            floor,
            longest_gap: Duration::ZERO,
            kills: 0,
        }
    }

    fn timeout(&self) -> Duration {
        self.floor.max(self.longest_gap.mul_f64(STALL_FACTOR))
    }

    /// Runs `command` to completion, handing every protocol line to
    /// `sink`. Kills the child (and reaps it) when no line arrives within
    /// the stall timeout.
    pub fn run(&mut self, mut command: Command, sink: &mut dyn FnMut(&Json)) -> ChildEnd {
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawning the measuring child");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel::<String>();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });

        let mut done = false;
        let mut last = Instant::now();
        let killed = loop {
            match rx.recv_timeout(self.timeout()) {
                Ok(line) => {
                    self.longest_gap = self.longest_gap.max(last.elapsed());
                    last = Instant::now();
                    match Json::parse(&line) {
                        Ok(event) => {
                            done |= event.get("ev").and_then(Json::as_str) == Some("done");
                            sink(&event);
                        }
                        Err(_) => eprintln!("perf: child says: {line}"),
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    let _ = child.kill();
                    self.kills += 1;
                    break true;
                }
                // End of the child's output: it exited by itself.
                Err(mpsc::RecvTimeoutError::Disconnected) => break false,
            }
        };
        let status = child.wait().expect("waiting for the child");
        reader.join().expect("reader thread panicked");
        if killed {
            ChildEnd::Killed
        } else if done && status.success() {
            ChildEnd::Done
        } else {
            ChildEnd::Crashed(status.to_string())
        }
    }
}

/// `perf/out`: everything a run writes goes below it — inputs in
/// `data/`, spans, summaries, and `tmp/` for the engine's spill files
/// (it honours `TMPDIR`), so a run stays inside its checkout.
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
        .join("out")
}

/// Settings shared by every child of one run.
pub struct RunSpec<'a> {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Length of the measuring window, split evenly between the children.
    pub seconds: f64,
    pub children: usize,
    /// Extra divisor on the input size (`quick` uses 10).
    pub extra_div: f64,
    pub out: &'a Path,
}

fn child_command(spec: &RunSpec, prepared: &Prepared, mode: &str) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("own executable path"));
    cmd.arg("child")
        .args(["--workload", spec.workload.name, "--mode", mode])
        .arg("--inputs")
        .arg(
            prepared
                .inputs
                .iter()
                .map(|p| p.to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join(","),
        )
        .env("TMPDIR", spec.out.join("tmp"));
    if let Some(bytes) = prepared.budget {
        cmd.args(["--budget", &bytes.to_string()]);
    }
    cmd
}

/// `(name, ok, detail)` of a `check` event.
pub type Check = (String, bool, String);

fn parse_check(event: &Json) -> Check {
    let text = |key: &str, default: &str| {
        event
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or(default)
            .to_string()
    };
    (
        text("name", "?"),
        event.get("ok").and_then(Json::as_bool).unwrap_or(false),
        text("detail", ""),
    )
}

/// Everything the untraced children of one run reported.
#[derive(Default)]
pub struct Samples {
    pub wall_s: Vec<f64>,
    pub run0_s: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
    pub bytes_full: Vec<f64>,
    pub bytes_zero: Vec<f64>,
    pub iterations: usize,
    pub jobs: usize,
    pub hashes: Vec<String>,
    pub not_finite: usize,
    /// Every check a child ran.
    pub checks: Vec<Check>,
    /// Child slots whose repetitions never completed.
    pub unrecovered: usize,
    pub watchdog_kills: usize,
    pub threads: usize,
    pub nproc: usize,
}

impl Samples {
    fn take(&mut self, event: &Json) {
        let num = |k: &str| event.num(k).unwrap_or(f64::NAN);
        let note_result = |s: &mut Samples| {
            if let Some(h) = event.get("hash").and_then(Json::as_str) {
                s.hashes.push(h.to_string());
            }
            if event.get("finite").and_then(Json::as_bool) == Some(false) {
                s.not_finite += 1;
            }
        };
        match event.get("ev").and_then(Json::as_str) {
            Some("hello") => {
                self.threads = num("threads") as usize;
                self.nproc = num("nproc") as usize;
            }
            Some("warm") => note_result(self),
            Some("zero") => {
                self.setup_s.push(num("setup_s"));
                self.run0_s.push(num("run0_s"));
                self.bytes_zero.push(num("shuffle_bytes"));
            }
            Some("full") => {
                self.wall_s.push(num("wall_s"));
                self.peak_rss_mb.push(num("peak_rss_mb"));
                self.bytes_full.push(num("shuffle_bytes"));
                self.iterations = num("iterations") as usize;
                self.jobs = num("jobs") as usize;
                note_result(self);
            }
            Some("check") => self.checks.push(parse_check(event)),
            _ => {}
        }
    }

    /// Factors must be bit-identical across every repetition of a run.
    fn hash_mismatches(&self) -> usize {
        match self.hashes.first() {
            Some(first) => self.hashes.iter().filter(|h| *h != first).count(),
            None => 0,
        }
    }

    /// Repetitions and checks attempted, and how many of them failed.
    pub fn attempted_failed(&self) -> (usize, usize) {
        let attempted = self.wall_s.len() + self.checks.len() + self.unrecovered;
        let failed = self.not_finite
            + self.hash_mismatches()
            + self.checks.iter().filter(|c| !c.1).count()
            + self.unrecovered;
        (attempted.max(1), failed)
    }

    /// Per-sample values of every end-to-end metric (in `END_TO_END`
    /// order). Differences use the median of the 0-iteration runs.
    pub fn end_to_end(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out = BTreeMap::new();
        if self.wall_s.is_empty() || self.run0_s.is_empty() {
            return out;
        }
        let iters = self.iterations.max(1) as f64;
        let run0 = median(&self.run0_s);
        let bytes0 = median(&self.bytes_zero);
        out.insert("wall_s", self.wall_s.clone());
        out.insert(
            "iter_s",
            self.wall_s.iter().map(|w| (w - run0) / iters).collect(),
        );
        out.insert("setup_s", self.setup_s.clone());
        out.insert("peak_rss_mb", self.peak_rss_mb.clone());
        out.insert(
            "shuffle_bytes_iter",
            self.bytes_full
                .iter()
                .map(|b| (b - bytes0) / iters)
                .collect(),
        );
        out.insert(
            "jobs_per_s",
            self.wall_s.iter().map(|w| self.jobs as f64 / w).collect(),
        );
        debug_assert_eq!(out.len(), END_TO_END.len());
        out
    }

    pub fn summaries(&self) -> BTreeMap<&'static str, Summary> {
        self.end_to_end()
            .into_iter()
            .filter_map(|(k, v)| Summary::of(&v).map(|s| (k, s)))
            .collect()
    }
}

/// What every child of a run is given: the generated inputs and, for a
/// budgeted workload, the budget learnt from a probe child.
struct Prepared {
    inputs: Vec<PathBuf>,
    budget: Option<u64>,
}

/// Generates the run's inputs and probes the budget; `None` when a
/// budgeted workload's probe never finished.
fn prepare(spec: &RunSpec, dog: &mut Watchdog) -> Option<Prepared> {
    std::fs::create_dir_all(spec.out.join("tmp")).expect("creating perf/out/tmp");
    let inputs = spec
        .workload
        .write_inputs(&spec.out.join("data"), spec.seed, spec.extra_div)
        .expect("writing inputs");
    let mut prepared = Prepared {
        inputs,
        budget: None,
    };
    if let Some(share) = spec.workload.budget_share {
        let mut peak = None;
        for _ in 0..MAX_ATTEMPTS {
            let end = dog.run(child_command(spec, &prepared, "probe"), &mut |e| {
                peak = e.num("peak_cache_bytes").or(peak);
            });
            if matches!(end, ChildEnd::Done) {
                break;
            }
        }
        prepared.budget = Some(((peak? * share) as u64).max(1));
    }
    Some(prepared)
}

/// The untraced pass: `children` measuring children, each with a fresh
/// process image, timing repetitions until the window is used.
pub fn measure(spec: &RunSpec) -> Samples {
    let mut dog = Watchdog::new(STALL_FLOOR);
    let mut samples = Samples::default();
    let Some(prepared) = prepare(spec, &mut dog) else {
        samples.unrecovered = spec.children;
        samples.watchdog_kills = dog.kills;
        return samples;
    };
    let window = spec.seconds / spec.children as f64;
    // Seconds of the window the samples so far account for.
    let measured = |s: &Samples| s.wall_s.iter().chain(&s.run0_s).sum::<f64>();
    for slot in 0..spec.children {
        let (spent_at_start, reps_at_start) = (measured(&samples), samples.wall_s.len());
        let mut attempts = 0;
        loop {
            let reps_before = samples.wall_s.len();
            let left = (window - (measured(&samples) - spent_at_start)).max(0.0);
            let min_reps = MIN_REPS.saturating_sub(reps_before - reps_at_start);
            // The checks run once per run, in its first child.
            let checks = slot == 0 && samples.checks.is_empty();
            let mut cmd = child_command(spec, &prepared, "timed");
            cmd.args(["--seconds", &left.to_string()])
                .args(["--min-reps", &min_reps.to_string()])
                .args(["--checks", if checks { "1" } else { "0" }]);
            let end = dog.run(cmd, &mut |e| samples.take(e));
            let gained = samples.wall_s.len() - reps_before;
            match end {
                ChildEnd::Done => break,
                ChildEnd::Killed => eprintln!(
                    "perf: {}: child {slot} fell silent and was killed ({gained} repetitions kept)",
                    spec.workload.name
                ),
                ChildEnd::Crashed(why) => {
                    eprintln!("perf: {}: child {slot} crashed: {why}", spec.workload.name)
                }
            }
            attempts = if gained > 0 { 0 } else { attempts + 1 };
            if attempts >= MAX_ATTEMPTS {
                samples.unrecovered += 1;
                break;
            }
        }
    }
    samples.watchdog_kills = dog.kills;
    let _ = std::fs::remove_dir_all(spec.out.join("tmp"));
    samples
}

/// Result of the traced pass.
#[derive(Default)]
pub struct Layers {
    pub metrics: Vec<(String, f64)>,
    pub checks: Vec<Check>,
    pub watchdog_kills: usize,
    pub completed: bool,
}

/// The traced pass: one child measures every layer on this workload.
pub fn trace(spec: &RunSpec) -> Layers {
    let mut dog = Watchdog::new(STALL_FLOOR);
    let mut layers = Layers::default();
    if let Some(prepared) = prepare(spec, &mut dog) {
        let spans = spec.out.join(format!("trace-{}.jsonl", spec.workload.name));
        for _ in 0..MAX_ATTEMPTS {
            let mut cmd = child_command(spec, &prepared, "trace");
            cmd.args(["--seconds", &spec.seconds.to_string()])
                .args(["--min-reps", &MIN_REPS.to_string()])
                .arg("--spans-out")
                .arg(&spans);
            let (mut metrics, mut checks) = (Vec::new(), Vec::new());
            let end = dog.run(cmd, &mut |e| match e.get("ev").and_then(Json::as_str) {
                Some("layers") => {
                    metrics = e
                        .get("metrics")
                        .map_or(&[][..], Json::members)
                        .iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                        .collect();
                }
                Some("check") => checks.push(parse_check(e)),
                _ => {}
            });
            if matches!(end, ChildEnd::Done) {
                layers.metrics = metrics;
                layers.checks = checks;
                layers.completed = true;
                break;
            }
            eprintln!(
                "perf: {}: traced child did not finish; retrying",
                spec.workload.name
            );
        }
    }
    layers.watchdog_kills = dog.kills;
    layers
        .metrics
        .push(("dataflow.executor.watchdog_kills".into(), dog.kills as f64));
    let _ = std::fs::remove_dir_all(spec.out.join("tmp"));
    layers
}

/// Facts about the host and the run, recorded with every summary.
pub fn host_facts(dir: &Path, seed: u64, threads: usize, nproc: usize) -> Json {
    let run = |program: &str, args: &[&str]| -> String {
        Command::new(program)
            .args(args)
            .current_dir(dir)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into())
    };
    crate::json::obj([
        (
            "git_rev",
            Json::from(run("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", Json::from(run("rustc", &["--version"]))),
        ("nproc", Json::from(nproc)),
        ("threads", Json::from(threads)),
        ("seed", Json::from(seed)),
        ("scale_div", Json::from(crate::workloads::SCALE_DIV)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Command {
        let mut c = Command::new("sh");
        c.args(["-c", script]);
        c
    }

    #[test]
    fn a_finishing_child_is_done_and_its_lines_are_delivered() {
        let mut dog = Watchdog::new(Duration::from_secs(5));
        let mut seen = Vec::new();
        let end = dog.run(
            sh(r#"echo '{"ev":"full","wall_s":0.5}'; echo not json; echo '{"ev":"done"}'"#),
            &mut |e| seen.push(e.clone()),
        );
        assert!(matches!(end, ChildEnd::Done));
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].num("wall_s"), Some(0.5));
        assert_eq!(dog.kills, 0);
    }

    #[test]
    fn a_sleeping_child_is_killed_and_a_retry_succeeds() {
        // First attempt: one line, then silence — the shape of a child
        // parked by the lost wakeup. The retry finds the marker and ends.
        // (`exec`: like the real child, the sleeper has no descendants
        // that would keep the pipe open after the kill.)
        let marker = std::env::temp_dir().join(format!("perf-dog-{}", std::process::id()));
        let _ = std::fs::remove_file(&marker);
        let script = format!(
            r#"if [ -e {m} ]; then echo '{{"ev":"done"}}'; else : > {m}; echo '{{"ev":"hello"}}'; exec sleep 600; fi"#,
            m = marker.display()
        );
        let mut dog = Watchdog::new(Duration::from_millis(300));
        let started = Instant::now();
        let mut ends = Vec::new();
        for _ in 0..MAX_ATTEMPTS {
            let end = dog.run(sh(&script), &mut |_| {});
            let finished = matches!(end, ChildEnd::Done);
            ends.push(end);
            if finished {
                break;
            }
        }
        let _ = std::fs::remove_file(&marker);
        assert!(matches!(ends[..], [ChildEnd::Killed, ChildEnd::Done]));
        assert_eq!(dog.kills, 1);
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "the kill must not wait for sleep"
        );
    }

    #[test]
    fn a_crashing_child_is_reported_not_retried_forever() {
        let mut dog = Watchdog::new(Duration::from_secs(5));
        let end = dog.run(sh("echo '{\"ev\":\"hello\"}'; exit 3"), &mut |_| {});
        assert!(matches!(end, ChildEnd::Crashed(_)));
        let end = dog.run(sh("echo '{\"ev\":\"done\"}'; exit 3"), &mut |_| {});
        assert!(matches!(end, ChildEnd::Crashed(_)));
    }

    #[test]
    fn samples_turn_into_every_end_to_end_metric() {
        let mut s = Samples::default();
        for line in [
            r#"{"ev":"hello","nproc":2,"threads":2}"#,
            r#"{"ev":"warm","hash":"ab","finite":true}"#,
            r#"{"ev":"zero","setup_s":0.3,"run0_s":0.2,"shuffle_bytes":1000}"#,
            r#"{"ev":"full","wall_s":1.2,"peak_rss_mb":100.0,"shuffle_bytes":5000,"iterations":2,"jobs":1,"hash":"ab","finite":true}"#,
            r#"{"ev":"zero","setup_s":0.5,"run0_s":0.4,"shuffle_bytes":1000}"#,
            r#"{"ev":"full","wall_s":1.4,"peak_rss_mb":120.0,"shuffle_bytes":5000,"iterations":2,"jobs":1,"hash":"ab","finite":true}"#,
            r#"{"ev":"check","name":"ref_final_fit","ok":true,"detail":""}"#,
        ] {
            s.take(&Json::parse(line).unwrap());
        }
        let m = s.summaries();
        assert_eq!(m.len(), END_TO_END.len());
        assert!(END_TO_END.iter().all(|e| m.contains_key(e.name)));
        assert!((m["wall_s"].median - 1.3).abs() < 1e-12);
        assert!((m["iter_s"].median - (1.3 - 0.3) / 2.0).abs() < 1e-12);
        assert!((m["setup_s"].median - 0.4).abs() < 1e-12);
        assert_eq!(m["shuffle_bytes_iter"].median, 2000.0);
        assert_eq!(m["peak_rss_mb"].median, 110.0);
        assert!((m["jobs_per_s"].median - (1.0 / 1.2 + 1.0 / 1.4) / 2.0).abs() < 1e-12);
        assert_eq!(s.attempted_failed(), (3, 0));

        s.take(&Json::parse(r#"{"ev":"full","wall_s":1.0,"peak_rss_mb":1.0,"shuffle_bytes":5000,"iterations":2,"jobs":1,"hash":"cd","finite":false}"#).unwrap());
        s.take(&Json::parse(r#"{"ev":"check","name":"x","ok":false,"detail":"bad"}"#).unwrap());
        s.unrecovered = 1;
        assert_eq!(s.attempted_failed(), (6, 4));
    }
}
