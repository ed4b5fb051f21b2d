//! `perf`: one measured, hang-proof benchmark for CSTF's CP-ALS, end to
//! end and layer by layer. See `perf/README.md`.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one JSON line
//! perf all   [--seed 1] [--seconds 10]     every workload, both passes, every metric
//! perf quick [--seed 1]                    the same at 1/10 size in < 30 s
//! perf compare <a.json> <b.json>           apply the bounds; non-zero exit on regression
//! perf describe                            print BENCHMARK.json from the metric tables
//! ```

mod alloc;
mod child;
mod compare;
mod json;
mod layers;
mod metrics;
mod reference;
mod run;
mod spans;
mod stats;
mod workloads;

use json::{obj, Json};
use metrics::{END_TO_END, PER_LAYER};
use run::{Layers, RunSpec, Samples};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;
/// Measuring children per untraced pass.
const CHILDREN: usize = 3;

/// `--key value` arguments after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{name}: {v:?}")),
            None => Ok(default),
        }
    }

    fn workload(&self) -> Result<&'static Workload, String> {
        let name = self.get("workload").ok_or("--workload is required")?;
        workloads::by_name(name).ok_or_else(|| {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; one of {}", names.join(", "))
        })
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => Flags::parse(&args[1..]).and_then(|f| child_main(&f)),
        Some("all") => Flags::parse(&args[1..]).and_then(|f| all(&f, false)),
        Some("quick") => Flags::parse(&args[1..]).and_then(|f| all(&f, true)),
        Some("compare") => compare_main(&args[1..]),
        Some("describe") => {
            println!("{}", describe());
            Ok(ExitCode::SUCCESS)
        }
        _ => Flags::parse(&args).and_then(|f| driver_run(&f)),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}

fn child_main(flags: &Flags) -> Result<ExitCode, String> {
    let mode = match flags.get("mode") {
        Some("timed") => child::Mode::Timed,
        Some("trace") => child::Mode::Trace,
        Some("probe") => child::Mode::Probe,
        other => return Err(format!("bad --mode {other:?}")),
    };
    child::main(child::ChildArgs {
        workload: *flags.workload()?,
        inputs: flags
            .get("inputs")
            .ok_or("--inputs is required")?
            .split(',')
            .map(PathBuf::from)
            .collect(),
        seconds: flags.parsed("seconds", 0.0)?,
        min_reps: flags.parsed("min-reps", 1)?,
        mode,
        checks: flags.parsed("checks", 0u8)? != 0,
        budget: flags
            .get("budget")
            .map(|b| b.parse().map_err(|_| "bad --budget"))
            .transpose()?,
        spans_out: flags.get("spans-out").map(PathBuf::from),
    });
    Ok(ExitCode::SUCCESS)
}

/// The result line of one driver run: exactly the keys `correct`,
/// `attempted`, `failed`, `metrics`.
fn result_line(attempted: usize, failed: usize, metrics: Vec<(String, Json)>) -> String {
    debug_assert!(metrics.iter().all(|(name, _)| json::valid_name(name)));
    obj([
        ("correct", Json::from(failed == 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_line()
}

fn value_with_unit(value: f64, unit: &str) -> Json {
    obj([("value", Json::from(value)), ("unit", Json::from(unit))])
}

fn report_checks(workload: &str, checks: &[run::Check]) {
    for (name, ok, detail) in checks {
        if !ok {
            eprintln!("perf: {workload}: CHECK FAILED {name}: {detail}");
        }
    }
}

/// Per-layer metrics in table order; a metric the traced child did not
/// report is NaN (printed as null) and makes the run incorrect.
fn layer_values(layers: &Layers) -> Vec<(&'static metrics::PerLayer, f64)> {
    PER_LAYER
        .iter()
        .map(|m| {
            let v = layers
                .metrics
                .iter()
                .find(|(k, _)| k == m.name)
                .map_or(f64::NAN, |(_, v)| *v);
            (m, v)
        })
        .collect()
}

fn layers_attempted_failed(layers: &Layers) -> (usize, usize) {
    let missing = layer_values(layers)
        .iter()
        .filter(|(_, v)| v.is_nan())
        .count();
    let failed =
        layers.checks.iter().filter(|c| !c.1).count() + missing + usize::from(!layers.completed);
    (layers.checks.len().max(1) + missing, failed)
}

/// `perf --workload W --seed N --seconds S --trace 0|1`: one run, whose
/// last stdout line is the result object.
fn driver_run(flags: &Flags) -> Result<ExitCode, String> {
    let out = run::out_dir();
    let spec = RunSpec {
        workload: flags.workload()?,
        seed: flags.parsed("seed", 1)?,
        seconds: flags.parsed("seconds", RUN_SECONDS as f64)?,
        children: CHILDREN,
        extra_div: flags.parsed("extra-div", 1.0)?,
        out: &out,
    };
    let (attempted, failed, metrics) = if flags.parsed("trace", 0u8)? == 0 {
        let samples = run::measure(&spec);
        report_checks(spec.workload.name, &samples.checks);
        eprintln!(
            "perf: {}: {} timed repetitions, {} watchdog kills, T={} nproc={}",
            spec.workload.name,
            samples.wall_s.len(),
            samples.watchdog_kills,
            samples.threads,
            samples.nproc
        );
        let summaries = samples.summaries();
        let (attempted, mut failed) = samples.attempted_failed();
        let mut metrics = Vec::new();
        for m in END_TO_END.iter() {
            match summaries.get(m.name) {
                Some(s) => metrics.push((m.name.to_string(), value_with_unit(s.median, m.unit))),
                None => failed += 1,
            }
        }
        (attempted, failed, metrics)
    } else {
        let layers = run::trace(&spec);
        report_checks(spec.workload.name, &layers.checks);
        let (attempted, failed) = layers_attempted_failed(&layers);
        let metrics = layer_values(&layers)
            .into_iter()
            .map(|(m, v)| (m.name.to_string(), value_with_unit(v, m.unit)))
            .collect();
        (attempted, failed, metrics)
    };
    // A run that printed its result exits 0; `correct` carries failures.
    println!("{}", result_line(attempted, failed.min(attempted), metrics));
    Ok(ExitCode::SUCCESS)
}

/// `perf all` / `perf quick`: every workload, untraced then traced, every
/// metric printed by name with its unit; the summary goes to `perf/out/`.
fn all(flags: &Flags, quick: bool) -> Result<ExitCode, String> {
    let out = run::out_dir();
    let seed: u64 = flags.parsed("seed", 1)?;
    let seconds: f64 = flags.parsed("seconds", if quick { 1.0 } else { RUN_SECONDS as f64 })?;
    let mut workloads_json = Vec::new();
    let (mut total_failed, mut threads, mut nproc) = (0, 0, 0);
    for w in WORKLOADS.iter() {
        let spec = RunSpec {
            workload: w,
            seed,
            seconds,
            children: if quick { 1 } else { CHILDREN },
            extra_div: if quick { 10.0 } else { 1.0 },
            out: &out,
        };
        let samples: Samples = run::measure(&spec);
        let layers: Layers = run::trace(&spec);
        report_checks(w.name, &samples.checks);
        report_checks(w.name, &layers.checks);
        (threads, nproc) = (samples.threads, samples.nproc);

        let (attempted, failed) = samples.attempted_failed();
        let (l_attempted, l_failed) = layers_attempted_failed(&layers);
        let kills = samples.watchdog_kills + layers.watchdog_kills;
        total_failed += failed + l_failed;

        println!("== {} — {}", w.name, w.why);
        println!(
            "   repetitions+checks attempted {} failed {}  (failed_share {})  watchdog_kills {}",
            attempted + l_attempted,
            failed + l_failed,
            (failed + l_failed) as f64 / (attempted + l_attempted) as f64,
            kills
        );
        let summaries = samples.summaries();
        let mut e2e = Vec::new();
        for m in END_TO_END.iter() {
            let Some(s) = summaries.get(m.name) else {
                println!("   {:<44} missing", m.name);
                total_failed += 1;
                continue;
            };
            println!(
                "   {:<44} {:>14.6} {:<7} q1 {:.6} q3 {:.6} n {}",
                m.name, s.median, m.unit, s.q1, s.q3, s.n
            );
            e2e.push((
                m.name.to_string(),
                obj([
                    ("unit", Json::from(m.unit)),
                    ("median", Json::from(s.median)),
                    ("q1", Json::from(s.q1)),
                    ("q3", Json::from(s.q3)),
                    ("min", Json::from(s.min)),
                    ("max", Json::from(s.max)),
                    ("n", Json::from(s.n)),
                ]),
            ));
        }
        let mut per_layer = Vec::new();
        for (m, v) in layer_values(&layers) {
            println!("   {:<44} {:>14.6} {}", m.name, v, m.unit);
            per_layer.push((m.name.to_string(), value_with_unit(v, m.unit)));
        }
        workloads_json.push((
            w.name.to_string(),
            obj([
                ("why", Json::from(w.why)),
                ("attempted", Json::from(attempted + l_attempted)),
                ("failed", Json::from(failed + l_failed)),
                ("watchdog_kills", Json::from(kills)),
                ("end_to_end", Json::Obj(e2e)),
                ("per_layer", Json::Obj(per_layer)),
            ]),
        ));
    }

    let manifest = out.parent().expect("perf/out has a parent").to_path_buf();
    let summary = obj([
        ("host", run::host_facts(&manifest, seed, threads, nproc)),
        ("quick", Json::from(quick)),
        ("run_seconds", Json::from(seconds)),
        ("workloads", Json::Obj(workloads_json)),
    ]);
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let name = format!("{}-seed{seed}.json", if quick { "quick" } else { "all" });
    let path = out.join(name);
    std::fs::write(&path, summary.to_line() + "\n").map_err(|e| e.to_string())?;
    if !quick {
        // The trajectory: one line per full run, keyed by its host facts.
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out.join("trajectory.jsonl"))
            .map_err(|e| e.to_string())?;
        writeln!(file, "{}", summary.to_line()).map_err(|e| e.to_string())?;
    }
    println!("summary written to {}", path.display());
    Ok(if total_failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `BENCHMARK.json`, generated from the workload and metric tables so
/// the file and the binary cannot drift apart (a unit test compares them).
fn describe() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| obj([("name", Json::from(w.name)), ("why", Json::from(w.why))]).to_line())
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            obj([
                ("name", Json::from(m.name)),
                ("unit", Json::from(m.unit)),
                ("better", Json::from(m.better.as_str())),
                ("bound", Json::from(m.bound)),
            ])
            .to_line()
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            obj([
                ("name", Json::from(m.name)),
                ("unit", Json::from(m.unit)),
                ("better", Json::from(m.better.as_str())),
            ])
            .to_line()
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"perf/Cargo.toml\", \"--\"],\n  \"paths\": [\"perf\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}",
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

fn compare_main(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: perf compare <a.json> <b.json>".into());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (report, regressed) = compare::compare(&load(a)?, &load(b)?);
    print!("{report}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
