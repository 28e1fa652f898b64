//! Bench-side driver for the scale-out campaign fabric.
//!
//! `s2s_probe::fabric` owns the mechanism — shard math, the framed stdout
//! protocol, the coordinator's retry/timeout loop. This module owns the
//! policy: what a worker process actually measures for its shard, and how
//! the coordinator turns accepted shard payloads back into the same
//! [`LongTermData`] the in-process collector produces.
//!
//! Two worker modes ship (selected by `S2S_FABRIC_MODE`):
//!
//! * `longterm` — the paper's 3-hourly dual-protocol traceroute mesh. The
//!   payload is the shard's records in archived line form
//!   ([`s2s_probe::dataset`]), which since the lossless-float change
//!   round-trips bit-exactly — so the merged dataset is byte-identical to
//!   one process, pinned by `tests/tests/fabric_equivalence.rs`.
//! * `ping` — the §5 short-term mesh through a [`PairProfileSink`]; the
//!   payload is one serialized sink state per (pair, protocol).
//!
//! Every worker rebuilds the world from the same `S2S_*` scale knobs it
//! inherits from the coordinator, computes its own slice with
//! [`shard_range`], and checkpoints to `<S2S_FABRIC_CKPT_DIR>/shard-<i>`
//! so a retried attempt resumes instead of remeasuring. A shard that
//! exhausts the retry budget is *degraded, never dropped*: the merge
//! synthesizes a [`lost_record`] for every slot it owned (the dataset
//! stays dense) and books the slots under
//! [`CampaignReport::lost_slots`] — the accounting identities hold and
//! coverage floors surface the loss.

use crate::experiments::LongTermData;
use crate::scenario::Scenario;
use s2s_core::Analysis;
use s2s_probe::campaign::lost_record;
use s2s_probe::dataset::{traceroute_from_line, traceroute_to_line, write_traceroute_line};
use s2s_probe::fabric::{
    emit_shard, fnv64_bytes, shard_range, Frame, HeartbeatHandle, WorkerAssignment,
    ENV_CKPT_DIR, ENV_MODE, ENV_SHARDS, FNV64_OFFSET,
};
use s2s_probe::{
    Campaign, CampaignConfig, CampaignReport, Coordinator, FabricConfig,
    FabricFaultProfile, FabricOutcome, FaultProfile, PairProfileSink, ProcessLauncher,
    RetryPolicy, ShardPayload, StreamSink, TraceStore, WorkerFault, WorkerLauncher,
};
use s2s_types::{ClusterId, SimTime};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Clean run: every shard accepted. Alias of
/// [`ExitCode::Ok`](s2s_types::ExitCode::Ok) — the shared process exit
/// vocabulary lives in [`s2s_types::ExitCode`]; these constants remain
/// for callers that want the raw `i32`.
pub const EXIT_OK: i32 = s2s_types::ExitCode::Ok.code();
/// Configuration error: bad flags, bad worker assignment, unknown mode.
/// Alias of [`ExitCode::Config`](s2s_types::ExitCode::Config).
pub const EXIT_CONFIG: i32 = s2s_types::ExitCode::Config.code();
/// Campaign or worker failure: a checkpoint I/O error, a coordinator
/// launch failure, or a worker that could not finish its shard. Alias of
/// [`ExitCode::Campaign`](s2s_types::ExitCode::Campaign).
pub const EXIT_CAMPAIGN: i32 = s2s_types::ExitCode::Campaign.code();
/// Degraded result: the run completed but at least one shard was lost
/// after the retry budget, so coverage is below the offered schedule.
/// Alias of [`ExitCode::Degraded`](s2s_types::ExitCode::Degraded).
pub const EXIT_DEGRADED: i32 = s2s_types::ExitCode::Degraded.code();

/// The pair sample the long-term fabric campaign runs over — the same
/// list (same salt) [`LongTermData::collect`] uses, so the fabric and the
/// in-process collector measure the identical mesh.
pub fn longterm_pairs(scenario: &Scenario) -> Vec<(ClusterId, ClusterId)> {
    scenario.sample_pair_list(scenario.scale.pairs / 2, 0x10e6)
}

/// The pair sample and schedule of the fabric's short-term ping mesh:
/// `ping_pairs` unordered pairs, one week of 15-minute samples starting
/// mid-study (routing dynamics and congestion in full swing).
pub fn ping_mesh(scenario: &Scenario) -> (CampaignConfig, Vec<(ClusterId, ClusterId)>) {
    let cfg = CampaignConfig::ping_week(SimTime::from_days(scenario.scale.days / 2));
    let pairs = scenario.sample_pair_list(scenario.scale.ping_pairs / 2, 0x5EC5);
    (cfg, pairs)
}

/// FNV-64 digest over a store's records in archived line form — the
/// byte-identity fingerprint `reproduce run --workers` prints and the CI
/// crash matrix compares against the one-process run. Line form (not
/// arena bytes) so the fingerprint pins the observable record sequence,
/// independent of intern-table layout. Streams each record's line through
/// one reused buffer (folding the same `\n`
/// [`s2s_probe::fabric::fnv64_lines`] folds), so a
/// digest never materializes the dataset as a `Vec<String>`.
pub fn store_digest(store: &TraceStore) -> u64 {
    store_digest_fold(FNV64_OFFSET, store)
}

/// The folding core of [`store_digest`]: continues a digest across
/// several stores. Because the digest streams record lines in order,
/// folding per-batch buffers from a `SnapshotReader` in stream order
/// yields exactly the digest of the materialized store — what lets
/// `reproduce` fingerprint a snapshot it never holds in memory.
pub fn store_digest_fold(h: u64, store: &TraceStore) -> u64 {
    let mut h = h;
    let mut buf = String::new();
    for v in store.iter() {
        buf.clear();
        write_traceroute_line(&mut buf, &v.to_record());
        h = fnv64_bytes(h, buf.as_bytes());
        h = fnv64_bytes(h, b"\n");
    }
    h
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Entry point for a fabric worker process (`reproduce worker`, or the
/// integration suite's `fabric-worker` binary). Reads the assignment and
/// mode from the environment, measures its shard, and emits the framed
/// result stream on stdout. Returns the process exit code.
pub fn worker_main() -> i32 {
    let assign = match WorkerAssignment::from_env() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fabric worker: {e}");
            return EXIT_CONFIG;
        }
    };
    let mode = std::env::var(ENV_MODE).unwrap_or_else(|_| "longterm".to_string());
    match mode.as_str() {
        "longterm" => run_worker(assign, LongTermMode),
        "ping" => run_worker(assign, PingMode),
        other => {
            eprintln!("fabric worker: unknown {ENV_MODE} '{other}' (longterm|ping)");
            EXIT_CONFIG
        }
    }
}

/// What one worker mode measures: its pair universe and schedule, and the
/// shard campaign producing payload lines plus a report.
trait WorkerMode {
    /// Whether a work unit — what a [`WorkerFault::Kill`] counts — is a
    /// schedule instant rather than a pair: the unit the mode's
    /// checkpointed campaign archives one block per.
    const UNITS_ARE_INSTANTS: bool;
    /// The full (unsharded) pair list of this mode's campaign.
    fn pairs(&self, scenario: &Scenario) -> Vec<(ClusterId, ClusterId)>;
    /// The schedule a shard runs under (must match what the merge side
    /// assumes when synthesizing lost slots).
    fn config(&self, scenario: &Scenario) -> CampaignConfig;
    /// Runs the shard campaign over `my_pairs` and returns the payload
    /// lines (archived records or serialized sink states) and the report.
    fn run(
        &self,
        scenario: &Scenario,
        my_pairs: &[(ClusterId, ClusterId)],
        campaign: Campaign,
    ) -> io::Result<(Vec<String>, CampaignReport)>;
}

struct LongTermMode;

impl WorkerMode for LongTermMode {
    const UNITS_ARE_INSTANTS: bool = true;

    fn pairs(&self, scenario: &Scenario) -> Vec<(ClusterId, ClusterId)> {
        longterm_pairs(scenario)
    }

    fn config(&self, scenario: &Scenario) -> CampaignConfig {
        CampaignConfig::long_term(scenario.scale.days)
    }

    fn run(
        &self,
        scenario: &Scenario,
        my_pairs: &[(ClusterId, ClusterId)],
        campaign: Campaign,
    ) -> io::Result<(Vec<String>, CampaignReport)> {
        let (stores, report) = campaign.run_traceroute_with(
            &scenario.net,
            my_pairs,
            scenario.long_term_opts_of(),
            |_, _, _| TraceStore::new(),
            |st, rec| st.push(&rec),
        )?;
        // Archived line form, in accumulator order — exactly the record
        // sequence the one-process absorb loop sees for this slice.
        let lines = stores
            .iter()
            .flat_map(|st| st.to_records())
            .map(|rec| traceroute_to_line(&rec))
            .collect();
        Ok((lines, report))
    }
}

struct PingMode;

impl WorkerMode for PingMode {
    const UNITS_ARE_INSTANTS: bool = false;

    fn pairs(&self, scenario: &Scenario) -> Vec<(ClusterId, ClusterId)> {
        ping_mesh(scenario).1
    }

    fn config(&self, scenario: &Scenario) -> CampaignConfig {
        ping_mesh(scenario).0
    }

    fn run(
        &self,
        scenario: &Scenario,
        my_pairs: &[(ClusterId, ClusterId)],
        campaign: Campaign,
    ) -> io::Result<(Vec<String>, CampaignReport)> {
        let (cfg, _) = ping_mesh(scenario);
        let sink = PairProfileSink::for_config(&cfg);
        let (states, report) = campaign.sink(sink).run_ping(&scenario.net, my_pairs)?;
        let sink = PairProfileSink::for_config(&cfg);
        Ok((states.iter().map(|st| sink.save(st)).collect(), report))
    }
}

fn run_worker<M: WorkerMode>(assign: WorkerAssignment, mode: M) -> i32 {
    // HELLO first — the coordinator's liveness clock starts here.
    println!(
        "{}",
        Frame::Hello { shard: assign.shard, attempt: assign.attempt }.to_line()
    );
    let _ = io::stdout().flush();

    let faults = FabricFaultProfile::from_env();
    // The fate *kind* is independent of the planned-unit count (only a
    // rate-drawn kill point uses it), so cheap fates resolve before the
    // world is built.
    match faults.decide(assign.shard, assign.attempt, 0) {
        WorkerFault::Stall => loop {
            // Injected hang: hello then silence, until the coordinator's
            // heartbeat timeout reaps us.
            std::thread::sleep(std::time::Duration::from_millis(50));
        },
        WorkerFault::ExitNonzero => return EXIT_CAMPAIGN,
        _ => {}
    }

    // Heartbeats cover the expensive part (world build + measurement).
    let hb = HeartbeatHandle::start(assign.shard, s2s_probe::env::fabric_hb_interval());

    let scenario = Scenario::from_env();
    let all_pairs = mode.pairs(&scenario);
    let range = shard_range(all_pairs.len(), assign.shards, assign.shard);
    let mut my_pairs = all_pairs[range].to_vec();
    let mut cfg = mode.config(&scenario);
    let times = cfg.times();
    let planned = if M::UNITS_ARE_INSTANTS { times.len() } else { my_pairs.len() };

    let fate = faults.decide(assign.shard, assign.attempt, planned);
    let kill_at = match fate {
        WorkerFault::Kill { after_units } => Some(after_units.min(planned)),
        _ => None,
    };
    if let Some(k) = kill_at {
        // A kill landing after unit k: measure (and checkpoint) exactly
        // the first k units — schedule instants or pairs — then die
        // without emitting results. The retry resumes those units from
        // the checkpoint bit-identically.
        if M::UNITS_ARE_INSTANTS {
            cfg.end = times.get(k).copied().unwrap_or(cfg.end);
        } else {
            my_pairs.truncate(k);
        }
    }

    // The worker's routing and wire counters ride the METRICS frame as
    // `worker.*` (netsim counts only under an installed global registry).
    let registry = Arc::new(s2s_obs::Registry::new());
    scenario.net.observe(&registry);
    let mut campaign = Campaign::new(cfg)
        .faults(FaultProfile::from_env())
        .retry(RetryPolicy::default())
        .observe(Arc::clone(&registry));
    if let Ok(dir) = std::env::var(ENV_CKPT_DIR) {
        campaign = campaign
            .checkpoint(Path::new(&dir).join(format!("shard-{}.ckpt", assign.shard)));
    }

    let run = mode.run(&scenario, &my_pairs, campaign);
    // Heartbeats must stop before the result stream: an HB line landing
    // inside a DATA payload region would corrupt the payload count.
    hb.stop();
    let (lines, report) = match run {
        Ok(v) => v,
        Err(e) => {
            eprintln!("fabric worker: shard {} failed: {e}", assign.shard);
            return EXIT_CAMPAIGN;
        }
    };
    if kill_at.is_some() {
        return EXIT_CAMPAIGN;
    }

    let snap = registry.snapshot();
    let payload = ShardPayload {
        lines,
        report,
        counters: snap.counters.into_iter().collect(),
    };
    let stdout = io::stdout();
    match emit_shard(
        &mut stdout.lock(),
        assign.shard,
        &payload,
        fate == WorkerFault::CorruptFrame,
    ) {
        Ok(()) => EXIT_OK,
        Err(e) => {
            eprintln!("fabric worker: emit failed: {e}");
            EXIT_CAMPAIGN
        }
    }
}

// ---------------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------------

/// A fabric collection run's outputs: the merged data set, the fabric's
/// per-shard results and stats, and the dataset byte-identity digest.
pub struct FabricCollection {
    /// The merged long-term data set — what [`LongTermData::collect`]
    /// would have produced in one process (plus synthesized lost rows for
    /// degraded shards).
    pub data: LongTermData,
    /// Per-shard results and fabric accounting.
    pub outcome: FabricOutcome,
    /// [`store_digest`] of the merged store.
    pub digest: u64,
    /// The merged columnar store itself, so callers can persist it
    /// ([`s2s_probe::snapshot::write_file`]) without a re-import.
    pub store: TraceStore,
}

/// A [`ProcessLauncher`] that spawns `program args…` as fabric workers in
/// `mode`, sharing `ckpt_dir` for worker-local checkpoints. Scale and
/// fault knobs travel by env inheritance; `extra_envs` lets tests pin a
/// fault plan per launcher without touching the parent process env.
pub fn worker_launcher(
    program: PathBuf,
    args: Vec<String>,
    mode: &str,
    shards: usize,
    ckpt_dir: &Path,
    extra_envs: Vec<(String, String)>,
) -> ProcessLauncher {
    let mut envs = vec![
        (ENV_SHARDS.to_string(), shards.to_string()),
        (ENV_MODE.to_string(), mode.to_string()),
        (ENV_CKPT_DIR.to_string(), ckpt_dir.display().to_string()),
    ];
    envs.extend(extra_envs);
    ProcessLauncher { program, args, envs }
}

/// Collects the long-term data set through the fabric: one shard per
/// worker slot, merged in shard order. Lost shards synthesize a
/// [`lost_record`] per slot — (pair, protocol)-major, time-minor, the
/// accumulator order of the one-process campaign — so the dataset stays
/// dense and the loss is pure accounting ([`CampaignReport::lost_slots`]
/// plus the coverage floor).
///
/// Each shard's payload builds a per-shard [`TraceStore`] which the merge
/// [`TraceStore::absorb`]s in shard order — identical to pushing every
/// record sequentially (the absorb-order identity pinned in the store's
/// proptests). When `S2S_SNAPSHOT_DIR` is set, every shard store is also
/// written as `shard-<i>.snap` there and **the snapshot file, streamed
/// back through [`s2s_probe::snapshot::absorb_files`]**, is what gets
/// absorbed — so a fabric run exercises, and its digest certifies, the
/// out-of-core persistence round trip without ever rematerializing a
/// shard.
pub fn collect_longterm_fabric<L: WorkerLauncher>(
    scenario: &Scenario,
    cfg: FabricConfig,
    launcher: L,
) -> io::Result<FabricCollection> {
    let n_shards = cfg.workers;
    let pairs = longterm_pairs(scenario);
    let camp_cfg = CampaignConfig::long_term(scenario.scale.days);
    let mut outcome = Coordinator::new(cfg, launcher).run(n_shards)?;

    let snap_dir = s2s_probe::env::snapshot_dir();
    if let Some(dir) = &snap_dir {
        std::fs::create_dir_all(dir)?;
    }

    let t_merge = Instant::now();
    let times = camp_cfg.times();
    let mut store = TraceStore::new();
    let mut report = CampaignReport::default();
    for s in &outcome.shards {
        let mut shard_store = TraceStore::new();
        if s.lost {
            let range = shard_range(pairs.len(), n_shards, s.shard);
            let slots = range.len() * camp_cfg.protocols.len() * times.len();
            for &(src, dst) in &pairs[range] {
                for &proto in &camp_cfg.protocols {
                    for &t in &times {
                        shard_store.push(&lost_record(src, dst, proto, t));
                    }
                }
            }
            report.merge(&CampaignReport {
                offered: slots,
                lost_slots: slots,
                ..CampaignReport::default()
            });
        } else {
            for (i, line) in s.lines.iter().enumerate() {
                let rec = traceroute_from_line(line, i + 1).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("shard {} payload: {e}", s.shard),
                    )
                })?;
                shard_store.push(&rec);
            }
            if let Some(r) = &s.report {
                report.merge(r);
            }
        }
        match &snap_dir {
            Some(dir) => {
                let path = dir.join(format!("shard-{}.snap", s.shard));
                s2s_probe::snapshot::write_file(&path, &shard_store, &[])?;
                // Stream the shard back instead of reopening it whole:
                // byte-identical to full-reopen + absorb, resident bytes
                // bounded by one shard's arena plus one batch.
                let options = s2s_probe::Snapshot::options().stream(true);
                s2s_probe::snapshot::absorb_files(&mut store, &[&path], &options)?;
            }
            None => store.absorb(&shard_store),
        }
    }
    // The coordinator timed its (trivial) line concatenation; the real
    // merge cost is re-interning the records, so overwrite with that.
    outcome.stats.merge_ms = t_merge.elapsed().as_secs_f64() * 1e3;

    if let Some(reg) = s2s_obs::installed() {
        outcome.stats.publish(&reg, &outcome.shards);
    }
    let digest = store_digest(&store);
    let timelines = Analysis::new(&store).timelines(&scenario.ip2asn);
    let data =
        LongTermData { pairs, timelines, report, arena: Some(store.stats()) };
    Ok(FabricCollection { data, outcome, digest, store })
}

/// One-process long-term collection plus the dataset digest — the
/// baseline the CI crash matrix compares `--workers N` digests against.
/// Identical to [`LongTermData::collect_with`] except the store's digest
/// is fingerprinted before analysis, and the store itself is returned so
/// callers can persist it as a snapshot without a re-import.
pub fn collect_longterm_digest(
    scenario: &Scenario,
    profile: &FaultProfile,
) -> (LongTermData, u64, TraceStore) {
    let pairs = longterm_pairs(scenario);
    let (store, report) =
        scenario.long_term_store_faulty(&pairs, profile, &RetryPolicy::default());
    let digest = store_digest(&store);
    let timelines = Analysis::new(&store).timelines(&scenario.ip2asn);
    let data = LongTermData { pairs, timelines, report, arena: Some(store.stats()) };
    (data, digest, store)
}

/// Collects the short-term ping mesh through the fabric: the merged
/// output is the serialized [`PairProfileSink`] state lines in shard
/// order — byte-identical to saving the one-process run's states. Lost
/// shards contribute no states, only accounting.
pub fn collect_ping_fabric<L: WorkerLauncher>(
    scenario: &Scenario,
    cfg: FabricConfig,
    launcher: L,
) -> io::Result<(Vec<String>, CampaignReport, FabricOutcome)> {
    let n_shards = cfg.workers;
    let (camp_cfg, pairs) = ping_mesh(scenario);
    let outcome = Coordinator::new(cfg, launcher).run(n_shards)?;
    let mut report = CampaignReport::default();
    for s in &outcome.shards {
        if s.lost {
            let range = shard_range(pairs.len(), n_shards, s.shard);
            let slots = range.len() * camp_cfg.protocols.len() * camp_cfg.n_samples();
            report.merge(&CampaignReport {
                offered: slots,
                lost_slots: slots,
                ..CampaignReport::default()
            });
        } else if let Some(r) = &s.report {
            report.merge(r);
        }
    }
    if let Some(reg) = s2s_obs::installed() {
        outcome.stats.publish(&reg, &outcome.shards);
    }
    Ok((outcome.merged_lines(), report, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    fn micro_scenario() -> Scenario {
        Scenario::build(Scale {
            seed: 3,
            clusters: 12,
            days: 6,
            pairs: 8,
            ping_pairs: 12,
            cong_pairs: 4,
        })
    }

    /// An in-process launcher that runs the long-term shard campaign on a
    /// thread and streams real frames — the worker path without the
    /// subprocess (subprocess equivalence lives in the integration suite).
    struct InProcess {
        scenario: Arc<Scenario>,
        shards: usize,
        lose: Vec<usize>,
    }

    impl WorkerLauncher for InProcess {
        fn launch(
            &self,
            shard: usize,
            attempt: u32,
        ) -> io::Result<s2s_probe::fabric::LaunchedWorker> {
            use s2s_probe::fabric::WorkerEvent;
            let (tx, rx) = std::sync::mpsc::channel();
            let scenario = Arc::clone(&self.scenario);
            let shards = self.shards;
            let lose = self.lose.contains(&shard);
            std::thread::spawn(move || {
                let hello = Frame::Hello { shard, attempt }.to_line();
                let _ = tx.send(WorkerEvent::Line(hello));
                if lose {
                    let _ = tx.send(WorkerEvent::Exit(Some(EXIT_CAMPAIGN)));
                    return;
                }
                let all = longterm_pairs(&scenario);
                let mine = &all[shard_range(all.len(), shards, shard)];
                let (lines, report) = LongTermMode
                    .run(
                        &scenario,
                        mine,
                        Campaign::new(CampaignConfig::long_term(scenario.scale.days)),
                    )
                    .expect("in-memory campaign cannot fail");
                let mut buf = Vec::new();
                let payload =
                    ShardPayload { lines, report, counters: Vec::new() };
                emit_shard(&mut buf, shard, &payload, false).unwrap();
                for l in String::from_utf8(buf).unwrap().lines() {
                    let _ = tx.send(WorkerEvent::Line(l.to_string()));
                }
                let _ = tx.send(WorkerEvent::Exit(Some(0)));
            });
            Ok(s2s_probe::fabric::LaunchedWorker {
                events: rx,
                kill: Box::new(|| {}),
            })
        }
    }

    fn fabric_cfg(workers: usize) -> FabricConfig {
        FabricConfig {
            workers,
            max_attempts: 2,
            heartbeat_timeout: std::time::Duration::from_secs(30),
            ..FabricConfig::default()
        }
    }

    #[test]
    fn store_digest_streams_identically_to_line_materialization() {
        // Regression pin: the digest used to materialize every record as
        // a String and hash the Vec; the streaming path must produce the
        // exact same value.
        let scenario = micro_scenario();
        let (store, _) = scenario.long_term_store_faulty(
            &longterm_pairs(&scenario),
            &FaultProfile::default(),
            &RetryPolicy::default(),
        );
        assert!(!store.is_empty());
        let lines: Vec<String> =
            store.to_records().iter().map(traceroute_to_line).collect();
        assert_eq!(store_digest(&store), s2s_probe::fabric::fnv64_lines(&lines));
        assert_eq!(store_digest(&TraceStore::new()), FNV64_OFFSET);
    }

    #[test]
    fn snapshot_write_reopen_absorb_matches_direct_merge() {
        // The mechanism behind S2S_SNAPSHOT_DIR: per-shard stores written
        // as snapshots, reopened, and absorbed must merge byte-identically
        // to absorbing the in-memory shard stores.
        let scenario = micro_scenario();
        let (full, _) = scenario.long_term_store_faulty(
            &longterm_pairs(&scenario),
            &FaultProfile::default(),
            &RetryPolicy::default(),
        );
        let records = full.to_records();
        let cut = records.len() / 2;
        let shards =
            [TraceStore::from_records(&records[..cut]), TraceStore::from_records(&records[cut..])];
        let dir = std::path::Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/tmp/fabric-snap-merge"
        ));
        std::fs::create_dir_all(dir).expect("create target/tmp");
        let mut direct = TraceStore::new();
        let mut via_snapshot = TraceStore::new();
        for (i, shard) in shards.iter().enumerate() {
            direct.absorb(shard);
            let path = dir.join(format!("shard-{i}.snap"));
            s2s_probe::snapshot::write_file(&path, shard, &[]).expect("write snapshot");
            let reopened = s2s_probe::snapshot::open_file(&path).expect("reopen");
            via_snapshot.absorb(&reopened.store);
        }
        assert_eq!(store_digest(&via_snapshot), store_digest(&direct));
        assert_eq!(via_snapshot.stats(), direct.stats());
        // And the sequential-push identity the merge relies on.
        assert_eq!(store_digest(&direct), store_digest(&full));
        // The streaming absorb (what the merge actually runs now) must
        // match the full-reopen reference at any batch budget, and the
        // per-batch digest fold must equal the whole-store digest.
        let paths: Vec<_> = (0..shards.len())
            .map(|i| dir.join(format!("shard-{i}.snap")))
            .collect();
        for budget in [1usize, 7, 1 << 20] {
            let options =
                s2s_probe::Snapshot::options().stream(true).block_budget(budget);
            let mut streamed = TraceStore::new();
            let (report, _sinks) =
                s2s_probe::snapshot::absorb_files(&mut streamed, &paths, &options)
                    .expect("streaming absorb");
            assert!(report.clean(), "budget {budget}");
            assert_eq!(store_digest(&streamed), store_digest(&direct), "budget {budget}");
            assert_eq!(streamed.stats(), direct.stats(), "budget {budget}");
            let mut folded = FNV64_OFFSET;
            for path in &paths {
                let mut reader = options.open(path).expect("open shard");
                while let Some(batch) = reader.next_batch().expect("batch") {
                    folded = store_digest_fold(folded, batch);
                }
            }
            assert_eq!(folded, store_digest(&direct), "budget {budget} digest fold");
        }
    }

    #[test]
    fn fabric_collection_matches_in_process_collection() {
        let scenario = Arc::new(micro_scenario());
        let baseline = LongTermData::collect(&scenario);
        let (base_store, _) = scenario.long_term_store_faulty(
            &longterm_pairs(&scenario),
            &FaultProfile::default(),
            &RetryPolicy::default(),
        );
        for workers in [1usize, 3] {
            let launcher = InProcess {
                scenario: Arc::clone(&scenario),
                shards: workers,
                lose: Vec::new(),
            };
            let got =
                collect_longterm_fabric(&scenario, fabric_cfg(workers), launcher)
                    .unwrap();
            assert_eq!(
                got.digest,
                store_digest(&base_store),
                "{workers}-worker dataset must be byte-identical to one process"
            );
            assert_eq!(got.data.timelines, baseline.timelines);
            assert_eq!(got.data.report.delivered, baseline.report.delivered);
            assert_eq!(got.outcome.stats.lost, 0);
        }
    }

    #[test]
    fn lost_shard_degrades_to_dense_lost_rows() {
        let scenario = Arc::new(micro_scenario());
        let workers = 3;
        let launcher = InProcess {
            scenario: Arc::clone(&scenario),
            shards: workers,
            lose: vec![1],
        };
        let got =
            collect_longterm_fabric(&scenario, fabric_cfg(workers), launcher).unwrap();
        assert_eq!(got.outcome.stats.lost, 1);
        let baseline = LongTermData::collect(&scenario);
        // The dataset stays dense: same timeline count, same slot count.
        assert_eq!(got.data.timelines.len(), baseline.timelines.len());
        let r = &got.data.report;
        assert!(r.lost_slots > 0);
        assert_eq!(
            r.offered,
            r.delivered + r.truncated + r.gave_up + r.agent_down_slots + r.lost_slots,
            "accounting identity must hold in degraded mode"
        );
        // Coverage is strictly below the clean run's.
        assert!(got.data.coverage().fraction() < baseline.coverage().fraction());
    }
}
