//! The runner: one run of one workload.
//!
//! ```text
//! perfbench --workload <batch|fabric|reopen|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It settles the digest the run must reproduce (pinned, or from an
//! independent path), writes the `reopen` fixture, then starts one
//! workload process per iteration, a first warm-up one and then as many
//! as fit in `--seconds`. With `--trace 0` it reports the end-to-end
//! metrics: times as means over the iterations, latency percentiles per
//! iteration and then their mean, memory and set-up as medians. With
//! `--trace 1` it alternates untraced and traced iterations and reports
//! the per-layer metrics. The last stdout line is the JSON result; the
//! exit code is 0 only when every check passed.

use crate::report::Report;
use crate::stats::{mean, median, percentile, relative_range, tail_percentile};
use crate::trace::{self, Span};
use crate::workloads::{threads, FABRIC_WORKERS};
use crate::Workload;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Untraced iterations an end-to-end run makes at least, so each reported
/// median has three samples behind it.
const MIN_ITERS: usize = 3;
/// Untraced and traced iterations a traced run makes at least, each.
const MIN_TRACED_ITERS: usize = 2;
/// No new iteration starts after this many seconds of a run.
const HARD_STOP_S: f64 = 120.0;
/// Where traced runs write their spans.
const SPANS_DIR: &str = ".bench_out";
/// Scratch space for fixtures and checkpoints, removed after each run.
const SCRATCH_DIR: &str = ".bench_scratch";

/// The end-to-end metrics, with units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
];

/// The per-layer metrics, with units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("scenario.build_s", "s"),
    ("routing.route_compute_n", "count"),
    ("routing.route_compute_spread", "ratio"),
    ("routing.route_compute_cpu_s", "s"),
    ("routing.cache_hit_ratio", "ratio"),
    ("routing.epoch_configs_n", "count"),
    ("netsim.probes_n", "count"),
    ("netsim.probes_per_trace", "count"),
    ("netsim.pings_n", "count"),
    ("campaign.longterm_s", "s"),
    ("campaign.ping_s", "s"),
    ("store.arena_mb", "MB"),
    ("store.dedup_ratio", "ratio"),
    ("dataset.digest_s", "s"),
    ("analysis.timelines_s", "s"),
    ("analysis.memo_hit_ratio", "ratio"),
    ("analysis.congestion_s", "s"),
    ("figures.longterm_s", "s"),
    ("snapshot.open_s", "s"),
    ("snapshot.read_s", "s"),
    ("snapshot.read_mb_per_s", "MB/s"),
    ("snapshot.skipped_traces", "count"),
    ("snapshot.fixture_write_s", "s"),
    ("fabric.collect_s", "s"),
    ("fabric.merge_ms", "ms"),
    ("fabric.launches", "count"),
    ("fabric.retries", "count"),
    ("fabric.worker_cpu_s", "s"),
    ("service.advance_ms_p50", "ms"),
    ("service.advance_ms_p99", "ms"),
    ("service.checkpoint_s", "s"),
    ("service.checkpoint_mb", "MB"),
    ("service.answer_us_p50", "us"),
    ("service.digest_s", "s"),
    ("incremental.update_cpu_s", "s"),
    ("loadgen.queries_n", "count"),
    ("loadgen.late_ms_max", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

/// Layer metrics that are the total time of the benchmark's spans.
const SPAN_TOTALS: [(&str, &[&str]); 11] = [
    ("campaign.longterm_s", &["campaign.longterm"]),
    ("campaign.ping_s", &["campaign.ping"]),
    ("dataset.digest_s", &["dataset.digest", "service.digest"]),
    ("analysis.timelines_s", &["analysis.timelines"]),
    ("analysis.congestion_s", &["analysis.congestion"]),
    ("figures.longterm_s", &["figures.longterm"]),
    ("snapshot.open_s", &["snapshot.open"]),
    ("snapshot.read_s", &["snapshot.read"]),
    ("fabric.collect_s", &["fabric.collect"]),
    ("service.checkpoint_s", &["service.checkpoint"]),
    ("service.digest_s", &["service.digest"]),
];

/// The digests pinned for the benchmark's own seeds.
const PINS: &str = include_str!("../pins.txt");

/// Parsed command line of a run.
#[derive(Debug, PartialEq)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Benchmark seed.
    pub seed: u64,
    /// Seconds of iterations to measure.
    pub seconds: f64,
    /// Per-layer (traced) run.
    pub trace: bool,
    /// A pin file to use instead of the built-in one.
    pub pins: Option<PathBuf>,
}

/// `--key value` pairs, each key at most once.
pub fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{k}'"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        if out.insert(key.to_string(), v.clone()).is_some() {
            return Err(format!("--{key} given twice"));
        }
    }
    Ok(out)
}

/// Takes `--key` from `f` and parses it.
pub fn take<T>(
    f: &mut BTreeMap<String, String>,
    key: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<T, String> {
    let raw = f.remove(key).ok_or_else(|| format!("missing --{key}"))?;
    parse(&raw).ok_or_else(|| format!("bad --{key} '{raw}'"))
}

impl Options {
    /// Parses the run's command line.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut f = flags(args)?;
        let opts = Options {
            workload: take(&mut f, "workload", Workload::parse)?,
            seed: take(&mut f, "seed", |s| s.parse().ok())?,
            seconds: take(&mut f, "seconds", |s| {
                s.parse::<f64>().ok().filter(|v| *v > 0.0)
            })?,
            trace: take(&mut f, "trace", |s| match s {
                "0" => Some(false),
                "1" => Some(true),
                _ => None,
            })?,
            pins: f.remove("pins").map(PathBuf::from),
        };
        match f.keys().next() {
            Some(k) => Err(format!("unknown flag --{k}")),
            None => Ok(opts),
        }
    }
}

/// The pinned digest of `(workload, seed)` in a pin file: lines of
/// `<workload> <seed> <digest hex>`, `#` comments.
pub fn pinned(pins: &str, workload: Workload, seed: u64) -> Option<u64> {
    pins.lines()
        .map(str::trim)
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let w: Vec<&str> = l.split_whitespace().collect();
            match w.as_slice() {
                [name, s, d] if *name == workload.name() && s.parse() == Ok(seed) => {
                    u64::from_str_radix(d, 16).ok()
                }
                _ => None,
            }
        })
}

/// Runs a subcommand of this executable as its own process and returns
/// its parsed report. Inherited `S2S_*` knobs are removed so that only
/// the benchmark's settings reach the program.
fn child(args: &[String]) -> Result<Report, String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate the benchmark executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(args).stdin(Stdio::null()).stderr(Stdio::inherit());
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("S2S_") {
            cmd.env_remove(k);
        }
    }
    cmd.env("S2S_THREADS", threads().0.to_string());
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {}: {e}", args[0]))?;
    if !out.status.success() {
        return Err(format!("{} process failed: {}", args[0], out.status));
    }
    Report::parse(&String::from_utf8_lossy(&out.stdout))
}

/// A metric's value, or the reason it could not be measured.
type Metric = Result<f64, String>;

/// Everything a run measured.
struct Outcome {
    metrics: Vec<(&'static str, &'static str, Metric)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// Runs one run with `args`; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let opts = match Options::parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <batch|fabric|reopen|serve> --seed <n> --seconds <s> --trace <0|1>");
            return 2;
        }
    };
    let pins = match &opts.pins {
        Some(p) => match std::fs::read_to_string(p) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("perfbench: cannot read {}: {e}", p.display());
                return 2;
            }
        },
        None => PINS.to_string(),
    };
    let scratch =
        Path::new(SCRATCH_DIR).join(format!("{}-{}", opts.workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return 2;
    }
    let out = run(&opts, &pins, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(SCRATCH_DIR); // only if no other run uses it
    for e in &out.errors {
        eprintln!("perfbench: FAILED CHECK: {e}");
    }
    let correct = out.failed == 0 && out.errors.is_empty();
    println!("{}", result_json(correct, &out));
    if correct {
        0
    } else {
        1
    }
}

fn run(opts: &Options, pins: &str, scratch: &Path) -> Outcome {
    let (nproc, worker_threads) = threads();
    let w = opts.workload;
    println!(
        "perfbench: workload {} seed {} — {} cores; campaign threads {nproc}; fabric {} workers × {} thread(s)",
        w.name(),
        opts.seed,
        nproc,
        FABRIC_WORKERS,
        worker_threads
    );
    let mut out = Outcome {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let base = |cmd: &str| -> Vec<String> {
        let mut a = vec![cmd.to_string()];
        for (k, v) in [
            ("workload", w.name().to_string()),
            ("seed", opts.seed.to_string()),
        ] {
            a.push(format!("--{k}"));
            a.push(v);
        }
        a
    };

    // The digest every iteration must reproduce.
    let pin = pinned(pins, w, opts.seed);
    let mut expected = pin;
    let mut fixture = None;
    let mut fixture_write_s = None;
    if w == Workload::Reopen {
        let path = scratch.join("fixture.snap");
        let mut args = base("fixture");
        args.extend(["--out".to_string(), path.display().to_string()]);
        match child(&args) {
            Ok(r) => {
                // The fixture's digest comes from the in-process campaign,
                // a path independent of the snapshot reader under test.
                fixture_write_s = r.scalar("snapshot.fixture_write_s");
                expect_digest(&mut out, &mut expected, r.digest, "fixture");
                fixture = Some(path);
            }
            Err(e) => out.errors.push(e),
        }
    } else if expected.is_none() {
        match child(&base("reference")) {
            Ok(r) => expected = r.digest,
            Err(e) => out.errors.push(format!("reference digest: {e}")),
        }
    }
    if expected.is_none() || (w == Workload::Reopen && fixture.is_none()) {
        out.errors
            .push("no digest to check against; nothing measured".to_string());
        return out;
    }
    println!(
        "perfbench: expected dataset digest {:016x} ({})",
        expected.unwrap_or(0),
        if pin.is_some() {
            "pinned"
        } else {
            "independent path"
        }
    );

    // Iterations, each in its own process.
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // The longest iteration so far: once there are enough, no iteration
    // starts that would likely end past `--seconds`.
    let mut longest_s = 0.0f64;
    for i in 0.. {
        let elapsed = start.elapsed().as_secs_f64();
        let enough = if opts.trace {
            plain.len() >= MIN_TRACED_ITERS && traced.len() >= MIN_TRACED_ITERS
        } else {
            plain.len() >= MIN_ITERS
        };
        if (enough && elapsed + longest_s > opts.seconds) || elapsed >= HARD_STOP_S {
            break;
        }
        // Iteration 0 is a warm-up (the executable and the fixture into
        // the page cache); it is checked but not measured.
        let trace_this = opts.trace && i > 0 && i % 2 == 0;
        let mut args = base("iter");
        args.extend([
            "--trace".to_string(),
            u8::from(trace_this).to_string(),
            "--scratch".to_string(),
            scratch.display().to_string(),
            "--iter".to_string(),
            i.to_string(),
        ]);
        if let Some(f) = &fixture {
            args.extend(["--fixture".to_string(), f.display().to_string()]);
        }
        let began = Instant::now();
        let r = child(&args);
        longest_s = longest_s.max(began.elapsed().as_secs_f64());
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                out.check(false, || format!("iteration {i}: {e}"));
                continue;
            }
        };
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.errors
            .extend(r.errors.iter().map(|e| format!("iteration {i}: {e}")));
        let d = r.digest;
        out.check(d == expected, || {
            format!(
                "iteration {i}: dataset digest {} != expected {:016x}",
                hex(d),
                expected.unwrap_or(0)
            )
        });
        if i == 0 {
            continue;
        }
        if trace_this {
            traced.push(r)
        } else {
            plain.push(r)
        }
    }
    println!(
        "perfbench: 1 warm-up + {} untraced + {} traced iteration(s) in {:.1} s; untraced run_s: {}",
        plain.len(),
        traced.len(),
        start.elapsed().as_secs_f64(),
        plain
            .iter()
            .filter_map(|r| r.scalar("run_s"))
            .map(|v| format!("{v:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    if opts.trace {
        per_layer(opts, &plain, &traced, fixture_write_s, &mut out);
    } else {
        end_to_end(&plain, &mut out);
    }
    out
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }
}

fn hex(d: Option<u64>) -> String {
    d.map_or("(none)".to_string(), |d| format!("{d:016x}"))
}

fn expect_digest(out: &mut Outcome, expected: &mut Option<u64>, got: Option<u64>, what: &str) {
    match *expected {
        Some(e) => out.check(got == Some(e), || {
            format!("{what} digest {} != pinned {e:016x}", hex(got))
        }),
        None => *expected = got,
    }
}

/// Median of scalar `name` over `reports`.
fn median_of(reports: &[Report], name: &str) -> Metric {
    let v: Vec<f64> = reports.iter().filter_map(|r| r.scalar(name)).collect();
    median(&v).ok_or_else(|| format!("no {name} measured"))
}

/// Every sample of series `name` over `reports`.
fn pooled(reports: &[Report], name: &str) -> Vec<f64> {
    reports
        .iter()
        .filter_map(|r| r.values.get(name))
        .flatten()
        .copied()
        .collect()
}

/// Mean of scalar `name` over `reports`: for a time, the timed total
/// over the iterations run.
fn mean_of(reports: &[Report], name: &str) -> Metric {
    let v: Vec<f64> = reports.iter().filter_map(|r| r.scalar(name)).collect();
    mean(&v).ok_or_else(|| format!("no {name} measured"))
}

/// Mean over the iterations of each iteration's query-latency percentile
/// `pct`. A tail percentile of an iteration with fewer than ten samples
/// beyond it refuses the metric.
fn query_percentile(plain: &[Report], pct: u32) -> Metric {
    let mut per_iter = Vec::new();
    for (i, r) in plain.iter().enumerate() {
        let lat = r.values.get("latency_ms").map_or(&[][..], Vec::as_slice);
        per_iter.push(tail_percentile(lat, pct).map_err(|e| format!("iteration {i}: {e}"))?);
    }
    mean(&per_iter).ok_or_else(|| "no queries".to_string())
}

/// Times are means over the iterations, not medians: a shared host can
/// switch between a fast and a slow state every few seconds, so a run's
/// iteration times fall into two groups, and their median jumps from one
/// group to the other with the share of slow seconds in the run. The mean
/// moves only in proportion to that share.
fn end_to_end(plain: &[Report], out: &mut Outcome) {
    for (name, unit) in END_TO_END {
        let m = match name {
            "run_s" | "cpu_s" => mean_of(plain, name),
            "query_p50_ms" => query_percentile(plain, 50),
            "query_p99_ms" => query_percentile(plain, 99),
            // Several world builds per iteration; their median.
            "setup_s" => median(&pooled(plain, name)).ok_or_else(|| "no set-up".to_string()),
            _ => median_of(plain, name),
        };
        out.metrics.push((name, unit, m));
    }
    let samples: Vec<usize> = plain
        .iter()
        .map(|r| r.values.get("latency_ms").map_or(0, Vec::len))
        .collect();
    println!(
        "perfbench: query latency percentiles: mean over {} iterations of {}–{} samples each (due → reply)",
        samples.len(),
        samples.iter().min().unwrap_or(&0),
        samples.iter().max().unwrap_or(&0)
    );
}

fn per_layer(
    opts: &Options,
    plain: &[Report],
    traced: &[Report],
    fixture_write_s: Option<f64>,
    out: &mut Outcome,
) {
    // Span totals first, so the per-process medians below see them.
    let mut traced = traced.to_vec();
    for r in &mut traced {
        for (metric, spans) in SPAN_TOTALS {
            let t: f64 = spans.iter().map(|s| trace::total(&r.spans, s)).sum();
            r.set(metric, t);
        }
        if let Some(root) = r.spans.iter().position(|s| s.parent.is_none()) {
            let run = r.spans[root].dur_s();
            let covered: f64 = trace::child_split(&r.spans, root)
                .iter()
                .map(|(_, t)| t)
                .sum();
            r.set(
                "trace.unattributed_frac",
                if run > 0.0 {
                    (run - covered) / run
                } else {
                    0.0
                },
            );
        }
    }
    let computes: Vec<f64> = traced
        .iter()
        .filter_map(|r| r.scalar("routing.route_compute_n"))
        .collect();
    for (name, unit) in PER_LAYER {
        let m = match name {
            "routing.route_compute_spread" => Ok(relative_range(&computes)),
            "snapshot.fixture_write_s" => Ok(fixture_write_s.unwrap_or(0.0)),
            "scenario.build_s" => Ok(median(&pooled(&traced, "setup_s")).unwrap_or(0.0)),
            "service.advance_ms_p50" => {
                Ok(percentile(&pooled(&traced, "service.advance_ms"), 50).unwrap_or(0.0))
            }
            "service.advance_ms_p99" => {
                Ok(percentile(&pooled(&traced, "service.advance_ms"), 99).unwrap_or(0.0))
            }
            "service.answer_us_p50" => {
                Ok(percentile(&pooled(&traced, "service.answer_us"), 50).unwrap_or(0.0))
            }
            "trace.overhead_frac" => {
                mean_of(&traced, "run_s").and_then(|t| mean_of(plain, "run_s").map(|u| t / u - 1.0))
            }
            // A layer the workload does not use reads 0.
            _ => Ok(median_of(&traced, name).unwrap_or(0.0)),
        };
        out.metrics.push((name, unit, m));
    }
    print_split(&traced);
    if let Err(e) = write_spans(opts, &traced) {
        eprintln!("perfbench: cannot write spans: {e}");
    }
}

/// Prints the traced run's wall-clock split by top-level span, averaged
/// over the traced iterations.
fn print_split(traced: &[Report]) {
    let mut sums: Vec<(String, f64)> = Vec::new();
    let mut run_total = 0.0;
    for r in traced {
        let Some(root) = r.spans.iter().position(|s| s.parent.is_none()) else {
            continue;
        };
        run_total += r.spans[root].dur_s();
        for (name, t) in trace::child_split(&r.spans, root) {
            match sums.iter_mut().find(|(n, _)| n == name) {
                Some((_, s)) => *s += t,
                None => sums.push((name.to_string(), t)),
            }
        }
    }
    if traced.is_empty() || run_total == 0.0 {
        return;
    }
    let n = traced.len() as f64;
    println!(
        "perfbench: wall-clock split of the traced run (mean of {} iterations)",
        traced.len()
    );
    let mut covered = 0.0;
    for (name, t) in &sums {
        covered += t;
        println!(
            "  {name:<22} {:>9.4} s  {:>5.1}%",
            t / n,
            100.0 * t / run_total
        );
    }
    println!(
        "  {:<22} {:>9.4} s  {:>5.1}%",
        "(unattributed)",
        (run_total - covered) / n,
        100.0 * (run_total - covered) / run_total
    );
}

/// Writes every traced span, one line each, to `.bench_out/`.
fn write_spans(opts: &Options, traced: &[Report]) -> std::io::Result<()> {
    std::fs::create_dir_all(SPANS_DIR)?;
    let path = Path::new(SPANS_DIR).join(format!(
        "spans-{}-seed{}.tsv",
        opts.workload.name(),
        opts.seed
    ));
    let mut text = String::from("run\tspan\tparent\tname\tstart_s\tend_s\tself_s\n");
    for (run, r) in traced.iter().enumerate() {
        let own = trace::self_times(&r.spans);
        for (i, s) in r.spans.iter().enumerate() {
            let Span {
                name,
                start_s,
                end_s,
                parent,
            } = s;
            let parent = parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{run}\t{i}\t{parent}\t{name}\t{start_s}\t{end_s}\t{}",
                own[i]
            );
        }
    }
    std::fs::write(&path, text)?;
    println!("perfbench: spans written to {}", path.display());
    Ok(())
}

/// The result line. A metric that could not be measured fails the run.
fn result_json(correct: bool, out: &Outcome) -> String {
    let mut metrics = Vec::new();
    let mut correct = correct;
    for (name, unit, m) in &out.metrics {
        match m {
            // `+ 0.0` prints an empty sum's -0 as 0.
            Ok(v) if v.is_finite() => metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                v + 0.0
            )),
            Ok(v) => {
                eprintln!("perfbench: {name} is not finite ({v})");
                correct = false;
            }
            Err(e) => {
                eprintln!("perfbench: {name} not measured: {e}");
                correct = false;
            }
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn options_parse_the_command_line() {
        let o = Options::parse(&args("--workload serve --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Workload::Serve, 3, 10.0, true)
        );
        assert!(Options::parse(&args("--workload nope --seed 3 --seconds 10 --trace 1")).is_err());
        assert!(Options::parse(&args("--workload batch --seed 3 --seconds 10 --trace 2")).is_err());
        assert!(Options::parse(&args("--workload batch --seed 3 --seconds 10")).is_err());
        assert!(Options::parse(&args(
            "--workload batch --seed 3 --seconds 10 --trace 0 --x 1"
        ))
        .is_err());
    }

    #[test]
    fn pins_are_per_workload_and_seed() {
        let pins = "# comment\nbatch 1 00000000000000ab\nserve 1 00000000000000cd\n";
        assert_eq!(pinned(pins, Workload::Batch, 1), Some(0xab));
        assert_eq!(pinned(pins, Workload::Serve, 1), Some(0xcd));
        assert_eq!(pinned(pins, Workload::Batch, 2), None);
        assert_eq!(pinned(pins, Workload::Fabric, 1), None);
    }

    #[test]
    fn built_in_pins_agree_across_workloads() {
        // The long-term workloads share one world per seed, so every
        // workload's pin at a seed is the same digest.
        let mut by_seed: BTreeMap<u64, u64> = BTreeMap::new();
        for l in PINS
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        {
            let w: Vec<&str> = l.split_whitespace().collect();
            assert!(Workload::parse(w[0]).is_some(), "unknown workload in '{l}'");
            let (seed, d) = (
                w[1].parse().unwrap(),
                u64::from_str_radix(w[2], 16).unwrap(),
            );
            assert_eq!(
                *by_seed.entry(seed).or_insert(d),
                d,
                "seed {seed} pins disagree"
            );
        }
        assert!(!by_seed.is_empty());
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        // Whitespace-free, so the check does not depend on the layout.
        let json: String = include_str!("../../BENCHMARK.json")
            .split_whitespace()
            .collect();
        let entries = json.matches("\"name\":").count();
        assert_eq!(
            entries,
            Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for w in Workload::ALL {
            assert!(
                json.contains(&format!("\"name\":\"{}\",\"why\":", w.name())),
                "{w:?}"
            );
        }
        for (name, unit) in END_TO_END.into_iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(
                json.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
    }

    #[test]
    fn query_percentiles_are_per_iteration_then_mean() {
        let iter = |scale: f64, n: usize| {
            let mut r = Report::default();
            r.extend("latency_ms", (1..=n).map(|k| k as f64 * scale));
            r
        };
        let runs = [iter(1.0, 1000), iter(3.0, 1000), iter(2.0, 1000)];
        // Each iteration's nearest-rank p99 is rank 990: 990, 2970, 1980.
        assert_eq!(query_percentile(&runs, 99), Ok(1980.0));
        assert_eq!(
            query_percentile(&[iter(1.0, 1000), iter(2.0, 1000)], 50),
            Ok(750.0)
        );
        // One iteration with fewer than ten samples beyond its p99
        // refuses the metric, however many the others have.
        let short = [iter(1.0, 1000), iter(1.0, 999)];
        assert!(query_percentile(&short, 99).is_err());
        assert!(query_percentile(&[], 50).is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let out = Outcome {
            metrics: vec![("run_s", "s", Ok(1.5)), ("setup_s", "s", Ok(0.25))],
            attempted: 10,
            failed: 0,
            errors: Vec::new(),
        };
        assert_eq!(
            result_json(true, &out),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"run_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        let missing = Outcome {
            metrics: vec![("query_p99_ms", "ms", Err("few".into()))],
            ..out
        };
        assert!(result_json(true, &missing).starts_with("{\"correct\": false"));
    }
}
