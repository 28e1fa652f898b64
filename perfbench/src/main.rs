//! `perfbench` — the s2s benchmark command.
//!
//! ```text
//! perfbench --workload <w> --seed <n> --seconds <s> --trace <0|1>   # one run
//! perfbench pin --seeds <a>-<b>                                    # print digest pins
//! ```
//!
//! The other subcommands are the processes a run starts: `iter` (one
//! workload iteration), `fixture` (writes the `reopen` snapshot),
//! `reference` (a digest along an independent path) and `worker` (a
//! fabric worker).

use s2s_perfbench::runner::{self, flags, take};
use s2s_perfbench::workloads::{self, IterArgs};
use s2s_perfbench::{report::Report, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let code = match args.first().map(String::as_str) {
        Some("worker") => worker(),
        Some("iter") => sub(rest, iter),
        Some("fixture") => sub(rest, fixture),
        Some("reference") => sub(rest, reference),
        Some("pin") => sub(rest, pin),
        _ => runner::main(&args),
    };
    std::process::exit(code);
}

/// Runs subcommand `f` over its flags; a bad flag exits 2.
fn sub(args: &[String], f: fn(&mut BTreeMap<String, String>) -> Result<(), String>) -> i32 {
    let result = flags(args).and_then(|mut fl| {
        f(&mut fl)?;
        match fl.keys().next() {
            Some(k) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    });
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    }
}

fn common(f: &mut BTreeMap<String, String>) -> Result<(Workload, u64), String> {
    Ok((
        take(f, "workload", Workload::parse)?,
        take(f, "seed", |s| s.parse().ok())?,
    ))
}

fn iter(f: &mut BTreeMap<String, String>) -> Result<(), String> {
    let (workload, seed) = common(f)?;
    let a = IterArgs {
        workload,
        seed,
        trace: take(f, "trace", |s| Some(s == "1"))?,
        scratch: take(f, "scratch", |s| Some(PathBuf::from(s)))?,
        iter: take(f, "iter", |s| s.parse().ok())?,
        fixture: f.remove("fixture").map(PathBuf::from),
    };
    print!("{}", workloads::run_iteration(&a).emit());
    Ok(())
}

fn fixture(f: &mut BTreeMap<String, String>) -> Result<(), String> {
    let (_, seed) = common(f)?;
    let out = take(f, "out", |s| Some(PathBuf::from(s)))?;
    let (digest, write_s) = workloads::write_fixture(seed, &out)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    let mut r = Report {
        digest: Some(digest),
        ..Report::default()
    };
    r.set("snapshot.fixture_write_s", write_s);
    print!("{}", r.emit());
    Ok(())
}

fn reference(f: &mut BTreeMap<String, String>) -> Result<(), String> {
    let (workload, seed) = common(f)?;
    let r = Report {
        digest: Some(workloads::reference_digest(workload, seed)),
        ..Report::default()
    };
    print!("{}", r.emit());
    Ok(())
}

/// Prints a pin line per workload for every seed in `--seeds a-b`, after
/// checking the two independent paths agree on each digest.
fn pin(f: &mut BTreeMap<String, String>) -> Result<(), String> {
    let (a, b) = take(f, "seeds", |s| {
        let (a, b) = s.split_once('-')?;
        Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?))
    })?;
    println!("# Long-term dataset digests of the benchmark's own seeds at its own scale");
    println!("# (workloads::scale): <workload> <seed> <digest>. Regenerate with");
    println!("# `perfbench pin --seeds 0-40` after a change to the scale or the dataset.");
    for seed in a..=b {
        let epoch = workloads::reference_digest(Workload::Batch, seed);
        let batch = workloads::reference_digest(Workload::Fabric, seed);
        if epoch != batch {
            return Err(format!(
                "seed {seed}: epoch path {epoch:016x} != batch path {batch:016x}"
            ));
        }
        for w in Workload::ALL {
            println!("{} {seed} {epoch:016x}", w.name());
        }
    }
    Ok(())
}

/// A fabric worker. Traced runs name a directory in
/// `PERFBENCH_WORKER_TRACE`: the worker then installs a registry and
/// leaves its routing counts there when its shard is done.
fn worker() -> i32 {
    let dir = std::env::var_os(workloads::WORKER_TRACE_ENV).map(PathBuf::from);
    let registry = dir.as_ref().map(|_| {
        let r = std::sync::Arc::new(s2s_obs::Registry::new());
        s2s_obs::install(std::sync::Arc::clone(&r));
        r
    });
    let code = s2s_bench::fabric::worker_main();
    if let (Some(dir), Some(reg)) = (dir, registry) {
        if let Err(e) = workloads::write_worker_layers(&dir, &reg.snapshot()) {
            eprintln!("perfbench worker: cannot write routing counts: {e}");
        }
    }
    code
}
