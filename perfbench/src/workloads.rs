//! The four workloads, one iteration each, as run inside a workload
//! process (`perfbench iter`), plus the fixture and reference-digest
//! helpers the runner starts once per run.
//!
//! Every call into a layer goes through [`Tracer::span`], so the same code
//! is the untraced measurement (tracer off, no registry) and the traced one
//! (tracer on, an `s2s_obs` registry installed and `net.observe` called).

use crate::report::Report;
use crate::rusage;
use crate::trace::{self, Tracer};
use crate::{loadgen, Workload};
use s2s_bench::experiments::{congestion, dualstack, longterm, LongTermData};
use s2s_bench::service::{self, Service, ServiceConfig};
use s2s_bench::{fabric, Scale, Scenario};
use s2s_core::congestion::DetectParams;
use s2s_core::timeline::TraceTimeline;
use s2s_core::Analysis;
use s2s_probe::{
    Campaign, CampaignConfig, CampaignReport, FabricConfig, FaultProfile, PairProfile,
    PairProfileSink, RetryPolicy, Snapshot,
};
use s2s_types::{ClusterId, ExitCode, Protocol, SimTime};
use std::collections::HashSet;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Fabric worker subprocesses on the `fabric` workload.
pub const FABRIC_WORKERS: usize = 2;
/// `serve` checkpoints every this many epochs (the service default).
pub const SNAP_EVERY: usize = 8;
/// Environment variable naming the directory a traced fabric worker
/// writes its registry counts to.
pub const WORKER_TRACE_ENV: &str = "PERFBENCH_WORKER_TRACE";
/// World builds per iteration. `setup_s` is the median of them all, so
/// one slow build (the first, cold one of a process) does not set it.
pub const SETUP_BUILDS: usize = 10;
/// Latency samples per iteration on the workloads without a live front
/// door: enough that at least ten lie beyond each iteration's p99.
pub const AFTER_RUN_QUERIES: usize = 2000;
/// Longest query schedule the generator will send, seconds: a guard
/// against a service that never reports its last epoch.
const LOADGEN_CAP_S: f64 = 150.0;

/// The world every long-term workload runs on. One scale for all of them,
/// so their dataset digests at one seed must agree.
pub fn scale(seed: u64) -> Scale {
    // 240 directed pairs × 2 protocols × 64 three-hourly epochs (8 days)
    // = 30,720 traces; 6 ping pairs × 2 × 672 = 8,064 pings.
    Scale {
        seed,
        clusters: 80,
        days: 8,
        pairs: 240,
        ping_pairs: 6,
        cong_pairs: 4,
    }
}

/// The scale as the `S2S_*` knobs a fabric worker rebuilds its world from.
pub fn scale_envs(s: &Scale) -> Vec<(String, String)> {
    [
        ("S2S_SEED", s.seed.to_string()),
        ("S2S_CLUSTERS", s.clusters.to_string()),
        ("S2S_DAYS", s.days.to_string()),
        ("S2S_PAIRS", s.pairs.to_string()),
        ("S2S_PING_PAIRS", s.ping_pairs.to_string()),
        ("S2S_CONG_PAIRS", s.cong_pairs.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// How one workload process is asked to run.
pub struct IterArgs {
    /// Which workload.
    pub workload: Workload,
    /// Benchmark seed (world seed and query schedule).
    pub seed: u64,
    /// Traced run: registry installed, spans recorded.
    pub trace: bool,
    /// Scratch directory for checkpoints and worker files.
    pub scratch: PathBuf,
    /// The snapshot `reopen` streams.
    pub fixture: Option<PathBuf>,
    /// Iteration index within the run (names scratch files).
    pub iter: usize,
}

/// Threads the benchmark's processes use: campaign threads in one
/// process, and fabric workers × threads per worker, both `nproc`.
pub fn threads() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    (nproc, (nproc / FABRIC_WORKERS).max(1))
}

/// Runs one iteration: world builds (timed as set-up), then the workload
/// (timed as the run), then the correctness checks.
pub fn run_iteration(a: &IterArgs) -> Report {
    let mut rep = Report::default();
    let mut scenario = None;
    for _ in 0..SETUP_BUILDS {
        drop(scenario.take());
        let t = Instant::now();
        scenario = Some(Scenario::build(scale(a.seed)));
        rep.extend("setup_s", [t.elapsed().as_secs_f64()]);
    }
    let scenario = scenario.expect("at least one world build");
    let registry = a.trace.then(|| {
        let r = Arc::new(s2s_obs::Registry::new());
        scenario.net.observe(&r);
        s2s_obs::install(Arc::clone(&r));
        r
    });

    let mut tracer = Tracer::new(a.trace);
    let (own0, kids0) = (rusage::own(), rusage::children());
    let start = Instant::now();
    tracer.span("run", |t| match a.workload {
        Workload::Batch => batch(&scenario, t, &mut rep),
        Workload::Fabric => fabric_collect(&scenario, a, t, &mut rep),
        Workload::Reopen => reopen(&scenario, a, t, &mut rep),
        Workload::Serve => serve(&scenario, a, t, start, &mut rep),
    });
    let run_s = start.elapsed().as_secs_f64();
    let (own1, kids1) = (rusage::own(), rusage::children());
    rep.set("run_s", run_s);
    rep.set(
        "cpu_s",
        (own1.cpu_s - own0.cpu_s) + (kids1.cpu_s - kids0.cpu_s),
    );
    rep.set("peak_rss_mb", own1.maxrss_kb / 1024.0);
    if a.workload == Workload::Fabric {
        rep.set("fabric.worker_cpu_s", kids1.cpu_s - kids0.cpu_s);
    }
    if a.workload != Workload::Serve {
        latency_after_run(start, run_s, &mut rep);
    }
    if let Some(reg) = registry {
        s2s_obs::uninstall();
        registry_layers(&reg.snapshot(), &mut rep);
    }
    if a.trace && a.workload == Workload::Reopen {
        // The bypass, proven rather than assumed: reading a snapshot
        // must never probe or compute a route.
        for name in ["netsim.probes_n", "routing.route_compute_n"] {
            let v = rep.scalar(name).unwrap_or(0.0);
            rep.check(v == 0.0, || {
                format!("reopen ran {v} {name}; it must run none")
            });
        }
    }
    rep.spans = tracer.spans().to_vec();
    rep
}

/// The long-term figures of a `reproduce run` (Table 1, Figs. 2–6, 10a).
fn figures(d: &LongTermData) {
    for p in [Protocol::V4, Protocol::V6] {
        longterm::table1(d, p);
        longterm::fig2a(d, p);
        longterm::fig2b(d, p);
        longterm::fig3a(d, p);
        longterm::fig3b(d, p);
        longterm::fig45(d, p, false);
        longterm::fig45(d, p, true);
        longterm::fig6(d, p);
    }
    dualstack::fig10a(d);
}

/// The §5.1 week of 15-minute pings through the streaming sink, mid-study:
/// the first half of `congestion::sec51`, which the traced run times apart
/// from the verdicts and checks for full slot delivery.
fn ping_week(sc: &Scenario, start: SimTime) -> (Vec<PairProfile>, CampaignReport) {
    let all = sc.sample_pair_list(sc.scale.ping_pairs, 0x5EC5);
    let pairs: Vec<(ClusterId, ClusterId)> = all.chunks(2).map(|c| c[0]).collect();
    let cfg = CampaignConfig::ping_week(start);
    let sink = PairProfileSink::for_config(&cfg);
    Campaign::new(cfg)
        .faults(FaultProfile::default())
        .sink(sink)
        .run_ping(&sc.net, &pairs)
        .expect("in-memory campaign cannot fail")
}

fn batch(sc: &Scenario, t: &mut Tracer, rep: &mut Report) {
    let pairs = fabric::longterm_pairs(sc);
    let (store, report) = t.span("campaign.longterm", |_| {
        sc.long_term_store_faulty(&pairs, &FaultProfile::default(), &RetryPolicy::default())
    });
    let digest = t.span("dataset.digest", |_| fabric::store_digest(&store));
    let timelines = t.span("analysis.timelines", |_| {
        Analysis::new(&store).timelines(&sc.ip2asn)
    });
    let stats = store.stats();
    drop(store);
    rep.digest = Some(digest);
    rep.slots_delivered(&report, "long-term campaign");
    rep.set("store.arena_mb", stats.arena_bytes as f64 / MB);
    rep.set("store.dedup_ratio", stats.dedup_ratio);
    rep.set("traces_n", stats.traces as f64);
    timeline_slots(&timelines, &pairs, rep);
    let data = LongTermData {
        pairs,
        timelines,
        report,
        arena: Some(stats),
    };
    t.span("figures.longterm", |_| figures(&data));
    drop(data);

    let mid_study = SimTime::from_days(sc.scale.days / 2);
    if !t.on() {
        // The untraced run times the program's own §5.1 experiment.
        let (results, _) = congestion::sec51(sc, mid_study);
        let analysed = results.len() == 2 && results.iter().all(|r| r.analyzed_pairs > 0);
        rep.check(analysed, || {
            "§5.1 analysed no pair for a protocol".to_string()
        });
        return;
    }
    let (profiles, ping_report) = t.span("campaign.ping", |_| ping_week(sc, mid_study));
    let verdicts = t.span("analysis.congestion", |_| {
        let params = DetectParams::default();
        // The paper's 600-of-672 gate as a coverage floor, as `sec51` runs it.
        let floor = params.min_valid_samples as f64 / 672.0;
        Analysis::new(profiles.as_slice())
            .checked(floor)
            .congestion_checked(&params)
    });
    rep.slots_delivered(&ping_report, "ping campaign");
    // A pair below the coverage floor is refused by design (unreachable
    // spells); what must hold is one verdict per profile.
    rep.check(verdicts.len() == profiles.len(), || {
        format!(
            "{} congestion verdicts for {} profiles",
            verdicts.len(),
            profiles.len()
        )
    });
}

fn fabric_collect(sc: &Scenario, a: &IterArgs, t: &mut Tracer, rep: &mut Report) {
    let ckpt = a.scratch.join(format!("fabric-ckpt-{}", a.iter));
    let trace_dir = a.scratch.join(format!("fabric-trace-{}", a.iter));
    for dir in [&ckpt, &trace_dir] {
        std::fs::create_dir_all(dir).expect("create fabric scratch directory");
    }
    let mut envs = scale_envs(&sc.scale);
    envs.push(("S2S_THREADS".to_string(), threads().1.to_string()));
    if a.trace {
        envs.push((
            WORKER_TRACE_ENV.to_string(),
            trace_dir.display().to_string(),
        ));
    }
    let program = std::env::current_exe().expect("locate the benchmark executable");
    let launcher = fabric::worker_launcher(
        program,
        vec!["worker".to_string()],
        "longterm",
        FABRIC_WORKERS,
        &ckpt,
        envs,
    );
    let cfg = FabricConfig::from_env(FABRIC_WORKERS);
    let run = t.span("fabric.collect", |_| {
        fabric::collect_longterm_fabric(sc, cfg, launcher)
    });
    let _ = std::fs::remove_dir_all(&ckpt);
    if a.trace {
        worker_layers(&trace_dir, rep);
    }
    let _ = std::fs::remove_dir_all(&trace_dir);
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            rep.check(false, || format!("fabric collection failed: {e}"));
            return;
        }
    };
    let s = &run.outcome.stats;
    rep.check(s.lost == 0 && s.retries == 0, || {
        format!(
            "fabric lost {} shard(s) after {} retries",
            s.lost, s.retries
        )
    });
    rep.set("fabric.merge_ms", s.merge_ms);
    rep.set("fabric.launches", s.launches as f64);
    rep.set("fabric.retries", s.retries as f64);
    let stats = run.store.stats();
    rep.set("store.arena_mb", stats.arena_bytes as f64 / MB);
    rep.set("store.dedup_ratio", stats.dedup_ratio);
    rep.digest = Some(run.digest);
    rep.slots_delivered(&run.data.report, "fabric campaign");
    timeline_slots(&run.data.timelines, &run.data.pairs, rep);
}

fn reopen(sc: &Scenario, a: &IterArgs, t: &mut Tracer, rep: &mut Report) {
    let path = a
        .fixture
        .as_deref()
        .expect("reopen needs a fixture snapshot");
    let options = Snapshot::options().lossy(true).stream(true);
    // Pass 1: fold the digest batch by batch, as `reproduce run --snapshot`.
    let mut reader = match t.span("snapshot.open", |_| options.open(path)) {
        Ok(r) => r,
        Err(e) => {
            rep.check(false, || format!("cannot open {}: {e}", path.display()));
            return;
        }
    };
    let mut digest = s2s_probe::fabric::FNV64_OFFSET;
    loop {
        match t.span("snapshot.read", |_| reader.next_batch()) {
            Ok(Some(b)) => {
                digest = t.span("dataset.digest", |_| fabric::store_digest_fold(digest, b))
            }
            Ok(None) => break,
            Err(e) => {
                rep.check(false, || format!("snapshot read failed: {e}"));
                return;
            }
        }
    }
    let report = reader.report().clone();
    drop(reader);
    // Pass 2: the streamed analysis front door.
    let timelines = t
        .span("snapshot.open", |_| options.open(path))
        .and_then(|r| {
            t.span("analysis.timelines", |_| {
                Analysis::new(r).timelines(&sc.ip2asn)
            })
        });
    let timelines = match timelines {
        Ok(tl) => tl,
        Err(e) => {
            rep.check(false, || format!("streamed analysis failed: {e}"));
            return;
        }
    };
    rep.digest = Some(digest);
    rep.ops(report.traces + report.skipped_traces, report.skipped_traces);
    rep.check(report.clean(), || {
        format!("snapshot damage: {:?}", report.first_errors)
    });
    rep.set("snapshot.skipped_traces", report.skipped_traces as f64);
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0) as f64;
    let read_s = trace::total(t.spans(), "snapshot.read");
    if read_s > 0.0 {
        rep.set("snapshot.read_mb_per_s", bytes / MB / read_s);
    }
    timeline_slots(&timelines, &fabric::longterm_pairs(sc), rep);
}

fn service_config(path: &Path) -> ServiceConfig {
    ServiceConfig {
        cadence_ms: 0,
        snap_every: SNAP_EVERY,
        // Above any query count a run can reach: no query is refused.
        query_budget: usize::MAX,
        snapshot_path: Some(path.to_path_buf()),
        profile: FaultProfile::default(),
        retry: RetryPolicy::default(),
    }
}

/// `serve` with the open-loop generator feeding its query channel. The
/// untraced run drives `service::serve` itself; the traced run drives the
/// same loop through the `Service` calls so each can be timed.
fn serve(sc: &Scenario, a: &IterArgs, t: &mut Tracer, start: Instant, rep: &mut Report) {
    let path = a.scratch.join(format!("serve-{}.snap", a.iter));
    let _ = std::fs::remove_file(&path);
    let cfg = service_config(&path);
    let n_epochs = CampaignConfig::long_term(sc.scale.days).n_samples();
    let schedule = loadgen::Schedule::new(a.seed, fabric::longterm_pairs(sc), loadgen::RATE_HZ);
    let done = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<String>();
    let mut log = loadgen::ReplyLog::new(start, n_epochs, &done);
    let (digest, sent) = std::thread::scope(|s| {
        let generator = s.spawn(|| loadgen::drive(schedule, start, tx, &done, LOADGEN_CAP_S));
        let digest = if a.trace {
            serve_traced(sc, cfg, &path, t, rx, &done, &mut log, rep)
        } else {
            let input = BufReader::new(loadgen::ChannelReader::new(rx));
            match service::serve(sc, cfg, None, input, &mut log) {
                Ok(o) => {
                    rep.check(o.exit == ExitCode::Ok, || {
                        format!("serve exited {:?}", o.exit)
                    });
                    Some(o.digest)
                }
                Err(e) => {
                    rep.check(false, || format!("serve failed: {e}"));
                    None
                }
            }
        };
        // Stops the generator if the service ended early.
        done.store(true, Ordering::SeqCst);
        (digest, generator.join().expect("query generator panicked"))
    });
    let _ = std::fs::remove_file(&path);
    rep.digest = digest;
    let not_ok = log.replies.iter().filter(|r| !r.1).count();
    rep.ops(log.replies.len(), not_ok);
    if not_ok > 0 {
        rep.errors.push(format!(
            "{not_ok} of {} queries not answered ok",
            log.replies.len()
        ));
    }
    match loadgen::latencies_ms(&sent.due_s, &log.replies) {
        Ok(l) => rep.extend("latency_ms", l),
        Err(e) => rep.check(false, || e),
    }
    rep.set("loadgen.queries_n", sent.due_s.len() as f64);
    rep.set("loadgen.late_ms_max", sent.late_ms_max);
}

#[allow(clippy::too_many_arguments)] // the serve loop's whole state
fn serve_traced(
    sc: &Scenario,
    cfg: ServiceConfig,
    path: &Path,
    t: &mut Tracer,
    rx: mpsc::Receiver<String>,
    done: &AtomicBool,
    log: &mut loadgen::ReplyLog,
    rep: &mut Report,
) -> Option<u64> {
    let mut svc = t.span("service.new", |_| Service::new(sc, cfg));
    let target = svc.n_epochs();
    let mut written = 0u64;
    let mut answer = |t: &mut Tracer, svc: &mut Service, line: &str| {
        let reply = t.span("service.answer", |_| svc.answer(line));
        log.reply(&reply);
    };
    while svc.next_epoch() < target {
        while let Ok(line) = rx.try_recv() {
            answer(t, &mut svc, &line);
        }
        t.span("service.advance", |_| svc.advance());
        if svc.next_epoch() % SNAP_EVERY == 0 && svc.next_epoch() < target {
            match t.span("service.checkpoint", |_| svc.checkpoint(path)) {
                Ok(b) => written += b,
                Err(e) => rep.check(false, || format!("checkpoint failed: {e}")),
            }
        }
    }
    done.store(true, Ordering::SeqCst);
    for line in rx.iter() {
        answer(t, &mut svc, &line);
    }
    match t.span("service.checkpoint", |_| svc.checkpoint(path)) {
        Ok(b) => written += b,
        Err(e) => rep.check(false, || format!("final checkpoint failed: {e}")),
    }
    let digest = t.span("service.digest", |_| svc.digest());
    rep.slots_delivered(svc.report(), "service campaign");
    let spans = t.spans();
    rep.extend(
        "service.advance_ms",
        trace::durations(spans, "service.advance")
            .iter()
            .map(|d| d * 1e3),
    );
    rep.extend(
        "service.answer_us",
        trace::durations(spans, "service.answer")
            .iter()
            .map(|d| d * 1e6),
    );
    rep.set(
        "service.checkpoint_s",
        trace::total(spans, "service.checkpoint"),
    );
    rep.set("service.checkpoint_mb", written as f64 / MB);
    rep.set("service.digest_s", trace::total(spans, "service.digest"));
    rep.set("traces_n", (svc.n_epochs() * svc.profiles().len()) as f64);
    Some(digest)
}

/// Bytes per MB (2^20) in every size this benchmark reports.
pub const MB: f64 = 1024.0 * 1024.0;

/// Checks the data set holds exactly one timeline per (pair, protocol).
fn timeline_slots(timelines: &[TraceTimeline], pairs: &[(ClusterId, ClusterId)], rep: &mut Report) {
    let slots: HashSet<(ClusterId, ClusterId, Protocol)> = timelines
        .iter()
        .map(|tl| (tl.src, tl.dst, tl.proto))
        .collect();
    let want = pairs.len() * 2;
    let all_present = pairs.iter().all(|&(s, d)| {
        slots.contains(&(s, d, Protocol::V4)) && slots.contains(&(s, d, Protocol::V6))
    });
    rep.check(
        timelines.len() == want && slots.len() == want && all_present,
        || {
            format!(
                "{} timelines over {} distinct slots; want one per (pair, protocol) = {want}",
                timelines.len(),
                slots.len()
            )
        },
    );
}

/// A workload without a live front door answers a query only once its
/// run has produced the data set: every query due during the run waits
/// for the end of it. The due times are [`AFTER_RUN_QUERIES`] instants
/// spread evenly over the run, so every iteration, however short, has
/// enough samples for its own p99.
fn latency_after_run(start: Instant, run_s: f64, rep: &mut Report) {
    let n = AFTER_RUN_QUERIES;
    let lat: Vec<f64> = (0..n)
        .map(|k| (start.elapsed().as_secs_f64() - run_s * k as f64 / n as f64) * 1e3)
        .collect();
    rep.set("loadgen.queries_n", n as f64);
    rep.set("loadgen.late_ms_max", 0.0);
    rep.extend("latency_ms", lat);
}

/// Per-layer numbers from the installed registry.
fn registry_layers(snap: &s2s_obs::Snapshot, rep: &mut Report) {
    let counter = |n: &str| snap.counters.get(n).copied().unwrap_or(0) as f64;
    let span = |n: &str| {
        snap.spans
            .get(n)
            .map(|s| (s.count as f64, s.total.as_secs_f64()))
    };
    let (computes, compute_s) = span("oracle.route_compute").unwrap_or((0.0, 0.0));
    // `add`: a traced fabric run has already booked its workers' routing.
    rep.add("routing.route_compute_n", computes);
    rep.add("routing.route_compute_cpu_s", compute_s);
    rep.add(
        "routing.epoch_configs_n",
        counter("oracle.cache.epoch_configs"),
    );
    let (hits, misses) = (counter("oracle.cache.hits"), counter("oracle.cache.misses"));
    rep.set("routing.cache_hit_ratio", ratio(hits, hits + misses));
    let probes = counter("netsim.probes");
    rep.set("netsim.probes_n", probes);
    rep.set("netsim.pings_n", counter("netsim.pings"));
    rep.set(
        "netsim.probes_per_trace",
        ratio(probes, rep.scalar("traces_n").unwrap_or(0.0)),
    );
    let memo = counter("analysis.annotation_memo_hits");
    rep.set(
        "analysis.memo_hit_ratio",
        ratio(memo, memo + counter("analysis.annotations_computed")),
    );
    rep.set(
        "incremental.update_cpu_s",
        span("analysis.update").map_or(0.0, |s| s.1),
    );
}

/// Routing counts the traced fabric workers left in `dir`, summed. A
/// worker's oracle is out of reach, so its cache hits are not counted.
fn worker_layers(dir: &Path, rep: &mut Report) {
    let (mut computes, mut compute_s, mut configs) = (0.0, 0.0, 0.0);
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let text = std::fs::read_to_string(entry.path()).unwrap_or_default();
        for line in text.lines() {
            let mut w = line.split_whitespace();
            let (Some(k), Some(v)) = (w.next(), w.next().and_then(|v| v.parse::<f64>().ok()))
            else {
                continue;
            };
            match k {
                "route_compute_n" => computes += v,
                "route_compute_cpu_s" => compute_s += v,
                "epoch_configs_n" => configs += v,
                _ => {}
            }
        }
    }
    rep.add("routing.route_compute_n", computes);
    rep.add("routing.route_compute_cpu_s", compute_s);
    rep.add("routing.epoch_configs_n", configs);
}

/// Writes a traced fabric worker's routing counts: called by the
/// benchmark's `worker` entry after the shard is done.
pub fn write_worker_layers(dir: &Path, snap: &s2s_obs::Snapshot) -> std::io::Result<()> {
    let span = |n: &str| {
        snap.spans
            .get(n)
            .map_or((0, 0.0), |s| (s.count, s.total.as_secs_f64()))
    };
    let (n, cpu) = span("oracle.route_compute");
    let (configs, _) = span("oracle.epoch_config");
    let text =
        format!("route_compute_n {n}\nroute_compute_cpu_s {cpu}\nepoch_configs_n {configs}\n");
    std::fs::write(dir.join(format!("worker-{}.txt", std::process::id())), text)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Writes the long-term corpus of `seed` as the `reopen` fixture; returns
/// its digest and the write time. Fixture work, outside every timed run.
pub fn write_fixture(seed: u64, path: &Path) -> std::io::Result<(u64, f64)> {
    let sc = Scenario::build(scale(seed));
    let (store, _) = sc.long_term_store_faulty(
        &fabric::longterm_pairs(&sc),
        &FaultProfile::default(),
        &RetryPolicy::default(),
    );
    let digest = fabric::store_digest(&store);
    let t = Instant::now();
    s2s_probe::snapshot::write_file(path, &store, &[])?;
    Ok((digest, t.elapsed().as_secs_f64()))
}

/// The dataset digest of `seed` along a path independent of the one
/// `workload` measures: the in-process batch campaign for `fabric`,
/// `serve` and `reopen`; the service's epoch-by-epoch executor for `batch`.
pub fn reference_digest(workload: Workload, seed: u64) -> u64 {
    let sc = Scenario::build(scale(seed));
    match workload {
        Workload::Batch => {
            let cfg = ServiceConfig {
                snapshot_path: None,
                ..service_config(Path::new(""))
            };
            let mut svc = Service::new(&sc, cfg);
            while svc.advance() {}
            svc.digest()
        }
        _ => {
            let (store, _) = sc.long_term_store_faulty(
                &fabric::longterm_pairs(&sc),
                &FaultProfile::default(),
                &RetryPolicy::default(),
            );
            fabric::store_digest(&store)
        }
    }
}
