//! Campaign scheduling and parallel execution.
//!
//! Campaigns sweep a pair list at a fixed cadence over a time window,
//! exactly like the CDN's measurement schedule (§2): full-mesh traceroutes
//! every 3 hours, pings every 15 minutes, focused traceroutes every 30
//! minutes. Because a 16-month full-mesh campaign produces millions of
//! records, execution is *streaming*: each worker folds its pairs' records
//! into a caller-supplied accumulator instead of materializing everything.
//!
//! Work is partitioned by pair: the pair list splits into one contiguous
//! chunk per worker thread, and each (pair, protocol) accumulator is folded
//! by one worker only, so accumulators never need locking. Every traceroute
//! campaign — in memory or checkpointed — runs through one executor,
//! `traceroute_sweep_impl`: each panic-isolated chunk worker walks the
//! schedule instant by instant, resolving its slots of one instant with
//! `traceroute_epoch_impl` (the always-on service's per-epoch step), and
//! never waits for the other chunks. Routing is piecewise-constant between
//! link-failure breakpoints, so a worker sweeping instants in order needs
//! only the availability configurations live at its current instant, and
//! each route table stays cached while it is probed. With a checkpoint set,
//! workers hand each instant's archived lines to the calling thread, which
//! appends block `B|<instant>|…`/`E|<instant>` once every chunk has
//! delivered that instant. Each (pair, protocol) accumulator folds its
//! records in time order and probes and fault decisions are content-keyed,
//! so the dataset is byte-identical to the sequential reference executor
//! regardless of thread count.

use crate::dataset::{traceroute_from_line, traceroute_to_line};
use crate::faults::{FaultInjector, FaultProfile, ProbeFault};
use crate::records::{PingRecord, TracerouteRecord};
use crate::stream::StreamSink;
use crate::tracer::{trace, TraceOptions};
use s2s_netsim::Network;
use s2s_types::time::sample_times;
use s2s_types::{ClusterId, Coverage, Protocol, SimDuration, SimTime};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::mpsc;

/// When and how often to measure.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// First sample instant.
    pub start: SimTime,
    /// End of the window (exclusive).
    pub end: SimTime,
    /// Sampling cadence.
    pub interval: SimDuration,
    /// Protocols to probe (each pair is measured over all of them).
    pub protocols: Vec<Protocol>,
    /// Worker threads.
    pub threads: usize,
}

impl CampaignConfig {
    /// The paper's long-term schedule: every 3 hours, both protocols.
    pub fn long_term(days: u32) -> Self {
        CampaignConfig {
            start: SimTime::T0,
            end: SimTime::from_days(days),
            interval: SimDuration::from_hours(3),
            protocols: vec![Protocol::V4, Protocol::V6],
            threads: default_threads(),
        }
    }

    /// The paper's short-term ping schedule: every 15 minutes for a week.
    pub fn ping_week(start: SimTime) -> Self {
        CampaignConfig {
            start,
            end: start + SimDuration::from_days(7),
            interval: SimDuration::from_minutes(15),
            protocols: vec![Protocol::V4, Protocol::V6],
            threads: default_threads(),
        }
    }

    /// The paper's focused traceroute schedule: every 30 minutes.
    pub fn focused_traceroute(start: SimTime, days: u32) -> Self {
        CampaignConfig {
            start,
            end: start + SimDuration::from_days(days),
            interval: SimDuration::from_minutes(30),
            protocols: vec![Protocol::V4, Protocol::V6],
            threads: default_threads(),
        }
    }

    /// Number of sampling instants.
    pub fn n_samples(&self) -> usize {
        sample_times(self.start, self.end, self.interval).count()
    }

    /// The sampling instants themselves, in schedule order — what the
    /// fabric's degraded mode iterates to synthesize lost records for an
    /// abandoned shard's slots.
    pub fn times(&self) -> Vec<SimTime> {
        sample_times(self.start, self.end, self.interval).collect()
    }
}

/// Worker-thread default: the `S2S_THREADS` environment knob when set to
/// a valid integer ≥ 1 (malformed values warn and fall back), otherwise
/// the machine's available parallelism. An alias for
/// [`crate::env::threads`], kept here because campaign configs are where
/// the value lands.
pub fn default_threads() -> usize {
    crate::env::threads()
}

/// All ordered (directed) cluster pairs — the full mesh of §2.1.
pub fn full_mesh_pairs(n_clusters: usize) -> Vec<(ClusterId, ClusterId)> {
    let mut v = Vec::with_capacity(n_clusters * n_clusters.saturating_sub(1));
    for a in 0..n_clusters {
        for b in 0..n_clusters {
            if a != b {
                v.push((ClusterId::from(a), ClusterId::from(b)));
            }
        }
    }
    v
}

/// Directed pairs of clusters sharing a city — the colocated full-mesh
/// campaign of §2.2.
pub fn colocated_pairs(topo: &s2s_topology::Topology) -> Vec<(ClusterId, ClusterId)> {
    let mut v = Vec::new();
    for a in 0..topo.clusters.len() {
        for b in 0..topo.clusters.len() {
            if a != b && topo.clusters[a].city == topo.clusters[b].city {
                v.push((ClusterId::from(a), ClusterId::from(b)));
            }
        }
    }
    v
}

/// One (pair, protocol) ping timeline: a slot per sampling instant, `NaN`
/// for lost probes (kept dense so FFTs index by time directly).
#[derive(Clone, Debug)]
pub struct PingTimeline {
    /// Source vantage point.
    pub src: ClusterId,
    /// Destination vantage point.
    pub dst: ClusterId,
    /// Protocol.
    pub proto: Protocol,
    /// First sample instant.
    pub start: SimTime,
    /// Sampling cadence.
    pub interval: SimDuration,
    /// RTTs in ms; `NaN` marks a lost or unreachable sample.
    pub rtts: Vec<f32>,
}

impl PingTimeline {
    /// Number of successful samples.
    pub fn valid_samples(&self) -> usize {
        self.rtts.iter().filter(|r| !r.is_nan()).count()
    }

    /// The valid RTTs as f64 (for the stats toolkit).
    pub fn valid_rtts(&self) -> Vec<f64> {
        self.rtts.iter().filter(|r| !r.is_nan()).map(|&r| f64::from(r)).collect()
    }

    /// RTTs with lost samples interpolated from the previous valid sample
    /// (FFT input must be regular). Leading losses take the first valid
    /// value. `None` when no sample is valid.
    pub fn filled_rtts(&self) -> Option<Vec<f64>> {
        let first = self.rtts.iter().find(|r| !r.is_nan())?;
        let mut last = f64::from(*first);
        Some(
            self.rtts
                .iter()
                .map(|&r| {
                    if r.is_nan() {
                        last
                    } else {
                        last = f64::from(r);
                        last
                    }
                })
                .collect(),
        )
    }
}

/// Convenience: a single ping as a [`PingRecord`].
pub fn ping_once(
    net: &Network,
    src: ClusterId,
    dst: ClusterId,
    proto: Protocol,
    t: SimTime,
) -> PingRecord {
    PingRecord { src, dst, proto, t, rtt_ms: net.ping(src, dst, proto, t, 0) }
}

/// Retry and timeout policy for the hardened campaign runners.
///
/// The backoff and deadline fields are *accounting* quantities: the
/// simulator's clock is the campaign schedule, so a retry re-probes the
/// same nominal instant, but the time an operator would have lost to
/// backoffs and wedged probes is tallied in the [`CampaignReport`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per probe slot (first try + retries), ≥ 1.
    pub max_attempts: u32,
    /// Deadline after which a stuck probe is abandoned, ms.
    pub probe_deadline_ms: f64,
    /// First retry backoff, ms; doubles per subsequent retry.
    pub backoff_base_ms: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3, probe_deadline_ms: 5_000.0, backoff_base_ms: 100.0 }
    }
}

/// What a fault-aware campaign did, slot by slot. A *slot* is one
/// (pair, protocol, instant) in the schedule.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CampaignReport {
    /// Slots the schedule offered to this process run.
    pub offered: usize,
    /// Probe attempts launched, including retries.
    pub attempted: usize,
    /// Slots that delivered a clean record.
    pub delivered: usize,
    /// Slots that delivered a truncated record (tail hops and destination
    /// echo lost in flight).
    pub truncated: usize,
    /// Retry attempts performed after a failed attempt.
    pub retried: usize,
    /// Slots abandoned after exhausting every attempt.
    pub gave_up: usize,
    /// Attempts lost to dropped results.
    pub dropped_probes: usize,
    /// Attempts lost to probes wedging past their deadline.
    pub stuck_probes: usize,
    /// Slots skipped because the source agent was crashed.
    pub agent_down_slots: usize,
    /// Slots replayed from a checkpoint instead of being re-measured
    /// (never counted in `offered`): `offered + resumed_slots` is the
    /// schedule's slot count.
    pub resumed_slots: usize,
    /// Operator time spent in retry backoffs, ms.
    pub backoff_ms: f64,
    /// Operator time lost waiting out stuck-probe deadlines, ms.
    pub deadline_ms_lost: f64,
    /// Workers that panicked (their pairs are in `poisoned_pairs`).
    pub worker_panics: usize,
    /// Pairs whose worker panicked; their accumulators are empty.
    pub poisoned_pairs: Vec<(ClusterId, ClusterId)>,
    /// Slots on shards the fabric abandoned after its retry budget: the
    /// schedule offered them, no process ever measured them. Dataset rows
    /// exist (synthetic lost records keep the timeline dense) but carry no
    /// signal, so they count against coverage like `agent_down_slots`.
    pub lost_slots: usize,
}

impl CampaignReport {
    /// Folds another report in (order-independent except for the poisoned
    /// pair list, which concatenates).
    pub fn merge(&mut self, other: &CampaignReport) {
        self.offered += other.offered;
        self.attempted += other.attempted;
        self.delivered += other.delivered;
        self.truncated += other.truncated;
        self.retried += other.retried;
        self.gave_up += other.gave_up;
        self.dropped_probes += other.dropped_probes;
        self.stuck_probes += other.stuck_probes;
        self.agent_down_slots += other.agent_down_slots;
        self.resumed_slots += other.resumed_slots;
        self.backoff_ms += other.backoff_ms;
        self.deadline_ms_lost += other.deadline_ms_lost;
        self.worker_panics += other.worker_panics;
        self.poisoned_pairs.extend(other.poisoned_pairs.iter().copied());
        self.lost_slots += other.lost_slots;
    }

    /// Coverage of the slots this run measured itself: clean deliveries
    /// over offered slots (truncated and abandoned slots are gaps).
    pub fn coverage(&self) -> Coverage {
        Coverage::new(self.delivered, self.offered)
    }

    /// Serializes the report to one `R|`-tagged line for the fabric's
    /// framed worker protocol. Floats render shortest-round-trip, so
    /// [`CampaignReport::from_line`] restores the exact values; the
    /// poisoned pair list rides along as `src,dst` entries.
    pub fn to_line(&self) -> String {
        let pairs: Vec<String> =
            self.poisoned_pairs.iter().map(|(s, d)| format!("{},{}", s.0, d.0)).collect();
        format!(
            "R|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
            self.offered,
            self.attempted,
            self.delivered,
            self.truncated,
            self.retried,
            self.gave_up,
            self.dropped_probes,
            self.stuck_probes,
            self.agent_down_slots,
            self.resumed_slots,
            self.backoff_ms,
            self.deadline_ms_lost,
            self.worker_panics,
            self.lost_slots,
            pairs.join(";")
        )
    }

    /// Parses a line produced by [`CampaignReport::to_line`].
    pub fn from_line(line: &str) -> Result<CampaignReport, String> {
        let mut it = line.split('|');
        if it.next() != Some("R") {
            return Err(format!("expected R-tagged report line, got '{line}'"));
        }
        let mut field = |name: &str| {
            it.next().ok_or_else(|| format!("report line missing field {name}"))
        };
        fn num<T: std::str::FromStr>(s: &str, name: &str) -> Result<T, String> {
            s.parse().map_err(|_| format!("bad report field {name}='{s}'"))
        }
        let mut r = CampaignReport {
            offered: num(field("offered")?, "offered")?,
            attempted: num(field("attempted")?, "attempted")?,
            delivered: num(field("delivered")?, "delivered")?,
            truncated: num(field("truncated")?, "truncated")?,
            retried: num(field("retried")?, "retried")?,
            gave_up: num(field("gave_up")?, "gave_up")?,
            dropped_probes: num(field("dropped_probes")?, "dropped_probes")?,
            stuck_probes: num(field("stuck_probes")?, "stuck_probes")?,
            agent_down_slots: num(field("agent_down_slots")?, "agent_down_slots")?,
            resumed_slots: num(field("resumed_slots")?, "resumed_slots")?,
            backoff_ms: num(field("backoff_ms")?, "backoff_ms")?,
            deadline_ms_lost: num(field("deadline_ms_lost")?, "deadline_ms_lost")?,
            worker_panics: num(field("worker_panics")?, "worker_panics")?,
            lost_slots: num(field("lost_slots")?, "lost_slots")?,
            poisoned_pairs: Vec::new(),
        };
        let pairs = field("poisoned_pairs")?;
        if it.next().is_some() {
            return Err(format!("trailing fields in report line '{line}'"));
        }
        for entry in pairs.split(';').filter(|e| !e.is_empty()) {
            let (s, d) = entry
                .split_once(',')
                .ok_or_else(|| format!("bad poisoned pair '{entry}'"))?;
            r.poisoned_pairs.push((
                ClusterId::new(num::<u32>(s, "poisoned src")?),
                ClusterId::new(num::<u32>(d, "poisoned dst")?),
            ));
        }
        Ok(r)
    }
}

/// How one slot resolved under fault injection.
enum SlotOutcome {
    /// A record to fold (clean or truncated).
    Record(TracerouteRecord),
    /// Nothing came back; the caller folds a synthetic lost record so the
    /// timeline stays dense (a gap, not a hole, in the schedule).
    Lost,
}

/// A record standing in for a slot that produced nothing: the schedule
/// offered the measurement, the plane lost it. Public so the fabric's
/// degraded mode can synthesize byte-identical rows for shards abandoned
/// after the retry budget.
pub fn lost_record(
    src: ClusterId,
    dst: ClusterId,
    proto: Protocol,
    t: SimTime,
) -> TracerouteRecord {
    TracerouteRecord {
        src,
        dst,
        proto,
        t,
        hops: Vec::new(),
        reached: false,
        e2e_rtt_ms: None,
        src_addr: None,
        dst_addr: None,
    }
}

/// Resolves one traceroute slot under the fault plane: crash check, then
/// up to `retry.max_attempts` probes with exponential backoff accounting.
#[allow(clippy::too_many_arguments)]
fn traceroute_slot(
    net: &Network,
    injector: &FaultInjector,
    retry: &RetryPolicy,
    src: ClusterId,
    dst: ClusterId,
    proto: Protocol,
    t: SimTime,
    epoch: u64,
    opts: TraceOptions,
    report: &mut CampaignReport,
) -> SlotOutcome {
    report.offered += 1;
    if injector.agent_down(src, epoch) {
        // A crashed agent launches nothing this epoch; retrying from the
        // same dead box is pointless.
        report.agent_down_slots += 1;
        return SlotOutcome::Lost;
    }
    let attempts = retry.max_attempts.max(1);
    for attempt in 0..attempts {
        report.attempted += 1;
        match injector.probe_fault(src, dst, proto, t, attempt) {
            ProbeFault::None => {
                report.delivered += 1;
                return SlotOutcome::Record(trace(net, src, dst, proto, t, opts));
            }
            ProbeFault::Truncated => {
                // The probe completed but its result lost the tail in
                // flight: deliver what survived. No retry — the agent got
                // *a* result and moves on.
                let mut rec = trace(net, src, dst, proto, t, opts);
                let keep = injector.truncated_hop_count(src, dst, t, rec.hops.len());
                rec.hops.truncate(keep);
                rec.reached = false;
                rec.e2e_rtt_ms = None;
                rec.dst_addr = None;
                report.truncated += 1;
                return SlotOutcome::Record(rec);
            }
            ProbeFault::Dropped => report.dropped_probes += 1,
            ProbeFault::Stuck => {
                report.stuck_probes += 1;
                report.deadline_ms_lost += retry.probe_deadline_ms;
            }
        }
        if attempt + 1 < attempts {
            report.retried += 1;
            report.backoff_ms += retry.backoff_base_ms * f64::from(1u32 << attempt.min(20));
        }
    }
    report.gave_up += 1;
    SlotOutcome::Lost
}

/// The one traceroute execution core, in memory or checkpointed (see
/// [`Campaign::run_traceroute_with`] for the public front door).
///
/// The pair list splits into one contiguous chunk per worker thread. Each
/// panic-isolated chunk worker sweeps the schedule instant by instant,
/// resolving its chunk's slots of each instant with
/// [`traceroute_epoch_impl`], and never waits for the other chunks. The
/// measurement plane sits behind a [`FaultProfile`]: crashed agents skip
/// their epochs, dropped and stuck probes retry under `retry`, truncated
/// results are delivered as incomplete records, and slots that produce
/// nothing fold a synthetic lost record so every timeline stays dense. A
/// panicking worker poisons only its own pairs (reported, with empty
/// accumulators) instead of taking the campaign down. Fault decisions are
/// content-keyed on the profile seed and the global sample index, so the
/// outcome is independent of thread count and execution order.
///
/// With `checkpoint` set, the complete leading blocks the file already
/// holds are replayed instead of re-measured, and every later instant is
/// appended as one framed block in slot order (pair-major, protocol-minor)
/// and flushed: `B|<instant>|<n_slots>`, the records as `T|…` lines, then
/// `E|<instant>`. Workers hand each instant's lines to the calling thread,
/// which appends a block once every chunk has delivered that instant; a
/// chunk whose worker panicked delivers nothing more, so the file stops at
/// the last instant every chunk finished.
///
/// **Bit-identical dataset guarantee.** Kill this process at any instant
/// and rerun with the same arguments: the finished checkpoint file is
/// byte-identical to the one an uninterrupted run writes, and the returned
/// accumulators are equal. Three properties make that true: fault
/// decisions are content-keyed (never order- or wallclock-dependent);
/// blocks are written in schedule order and a partial trailing block is
/// discarded on resume; and *every* record of a checkpointed run — fresh
/// or replayed — is folded through the archive line format, so a replayed
/// slot folds exactly the bytes a fresh slot would have archived. The
/// file grows one instant at a time, so a kill loses only the instants not
/// yet appended. Replay checks every record against its
/// slot's (src, dst, protocol, instant); the first block that fails —
/// written for another pair list or schedule — ends the accepted prefix
/// and is truncated and re-measured.
#[allow(clippy::too_many_arguments)]
pub(crate) fn traceroute_sweep_impl<A, O, I, S>(
    net: &Network,
    pairs: &[(ClusterId, ClusterId)],
    cfg: &CampaignConfig,
    opts_of: O,
    profile: &FaultProfile,
    retry: &RetryPolicy,
    checkpoint: Option<&Path>,
    init: I,
    step: S,
) -> io::Result<(Vec<A>, CampaignReport)>
where
    A: Send,
    O: Fn(SimTime, Protocol) -> TraceOptions + Sync,
    I: Fn(ClusterId, ClusterId, Protocol) -> A + Sync,
    S: Fn(&mut A, TracerouteRecord) + Sync,
{
    let t_exec = std::time::Instant::now();
    let times = cfg.times();
    let n_protos = cfg.protocols.len();
    let slots = pairs.len() * n_protos;
    let injector = FaultInjector::new(*profile);

    let (replayed, archive) = match checkpoint {
        Some(path) => {
            let (blocks, out) = open_checkpoint(path, slots, |ti, lines| {
                let t = *times.get(ti)?;
                let slot_records = lines.iter().enumerate().map(|(si, line)| {
                    let rec = traceroute_from_line(line, si + 1).ok()?;
                    let (src, dst) = pairs[si / n_protos];
                    let slot = (src, dst, cfg.protocols[si % n_protos], t);
                    ((rec.src, rec.dst, rec.proto, rec.t) == slot).then_some(rec)
                });
                slot_records.collect::<Option<Vec<_>>>()
            })?;
            (blocks, Some(out))
        }
        None => (Vec::new(), None),
    };
    let done = replayed.len();
    let archiving = archive.is_some();
    let chunk = chunk_len(pairs.len(), cfg.threads);
    let (tx, rx) = mpsc::channel();
    let init = &init;
    let init_chunk = |chunk_pairs: &[(ClusterId, ClusterId)]| -> Vec<A> {
        chunk_pairs
            .iter()
            .flat_map(|&(s, d)| cfg.protocols.iter().map(move |&p| init(s, d, p)))
            .collect()
    };

    let (accs, mut report, written) = run_chunks(
        pairs,
        cfg,
        |c, chunk_pairs| {
            // First, so that even a panic in `init` or a replayed fold
            // tells the writer this chunk delivers nothing more.
            let feed = archiving.then(|| BlockFeed { tx: tx.clone(), chunk: c });
            let mut accs = init_chunk(chunk_pairs);
            let first_slot = c * chunk * n_protos;
            for block in &replayed {
                for (acc, rec) in accs.iter_mut().zip(&block[first_slot..]) {
                    step(acc, rec.clone());
                }
            }
            let mut report = CampaignReport::default();
            for (ti, &t) in times.iter().enumerate().skip(done) {
                let mut lines = Vec::new();
                let r = traceroute_epoch_impl(
                    net, chunk_pairs, cfg, &opts_of, &injector, retry, ti, t,
                    |slot, rec| {
                        let rec = if archiving {
                            // Fold the archived form, not the live one:
                            // replay and fresh paths must fold identical
                            // bytes.
                            let line = traceroute_to_line(&rec);
                            let archived = traceroute_from_line(&line, 0)
                                .expect("own format must round-trip");
                            lines.push(line);
                            archived
                        } else {
                            rec
                        };
                        step(&mut accs[slot], rec);
                    },
                );
                report.merge(&r);
                if let Some(feed) = &feed {
                    // A closed writer (an I/O error, or another chunk's
                    // panic) drops the lines; measuring goes on.
                    let _ = feed.tx.send((c, Some(lines)));
                }
            }
            (accs, report)
        },
        init_chunk,
        || match archive {
            Some(out) => {
                let n_chunks = pairs.len().div_ceil(chunk);
                append_blocks(out, rx, n_chunks, done..times.len(), slots)
            }
            None => Ok(()),
        },
    );
    written?;
    report.resumed_slots += done * slots;
    if let Some(reg) = s2s_obs::installed() {
        reg.span("campaign.execute").record(t_exec.elapsed());
    }
    Ok((accs, report))
}

/// One chunk worker's line feed to the checkpoint writer. Dropping it —
/// when the worker returns or unwinds — tells the writer the chunk will
/// deliver no further instant.
struct BlockFeed {
    tx: mpsc::Sender<(usize, Option<Vec<String>>)>,
    chunk: usize,
}

impl Drop for BlockFeed {
    fn drop(&mut self) {
        let _ = self.tx.send((self.chunk, None));
    }
}

/// The checkpoint writer of [`traceroute_sweep_impl`], run on the calling
/// thread: appends and flushes block `B|ti|…E|ti` for each instant of
/// `instants` once all `n_chunks` chunks have delivered their lines for
/// it, in chunk order. Returns once the last block is written, or early
/// when a chunk ends short of the schedule (its worker panicked), so the
/// file stays a byte prefix of an uninterrupted run's.
fn append_blocks(
    mut out: BufWriter<File>,
    rx: mpsc::Receiver<(usize, Option<Vec<String>>)>,
    n_chunks: usize,
    instants: std::ops::Range<usize>,
    slots: usize,
) -> io::Result<()> {
    let mut pending: Vec<VecDeque<Vec<String>>> = vec![VecDeque::new(); n_chunks];
    let mut ended = vec![false; n_chunks];
    for ti in instants {
        while pending.iter().any(VecDeque::is_empty) {
            if pending.iter().zip(&ended).any(|(q, &e)| e && q.is_empty()) {
                return Ok(());
            }
            let Ok((c, lines)) = rx.recv() else { return Ok(()) };
            match lines {
                Some(lines) => pending[c].push_back(lines),
                None => ended[c] = true,
            }
        }
        writeln!(out, "B|{ti}|{slots}")?;
        for q in &mut pending {
            for line in q.pop_front().into_iter().flatten() {
                writeln!(out, "{line}")?;
            }
        }
        writeln!(out, "E|{ti}")?;
        out.flush()?;
    }
    Ok(())
}

/// The sequential fault-aware execution core — the reference side of the
/// byte-identity suites and of [`Campaign::reference`]: validates that the
/// chunked parallel sweep changes neither the accumulators nor the
/// [`CampaignReport`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn traceroute_faulty_reference_impl<A, O, I, S>(
    net: &Network,
    pairs: &[(ClusterId, ClusterId)],
    cfg: &CampaignConfig,
    opts_of: O,
    profile: &FaultProfile,
    retry: &RetryPolicy,
    init: I,
    step: S,
) -> (Vec<A>, CampaignReport)
where
    O: Fn(SimTime, Protocol) -> TraceOptions,
    I: Fn(ClusterId, ClusterId, Protocol) -> A,
    S: Fn(&mut A, TracerouteRecord),
{
    let times: Vec<SimTime> = sample_times(cfg.start, cfg.end, cfg.interval).collect();
    let injector = FaultInjector::new(*profile);
    let mut report = CampaignReport::default();
    let init = &init;
    let mut accs: Vec<A> = pairs
        .iter()
        .flat_map(|&(s, d)| cfg.protocols.iter().map(move |&p| init(s, d, p)))
        .collect();
    for (ti, &t) in times.iter().enumerate() {
        for (pi, &(src, dst)) in pairs.iter().enumerate() {
            for (qi, &proto) in cfg.protocols.iter().enumerate() {
                let outcome = traceroute_slot(
                    net,
                    &injector,
                    retry,
                    src,
                    dst,
                    proto,
                    t,
                    ti as u64,
                    opts_of(t, proto),
                    &mut report,
                );
                let rec = match outcome {
                    SlotOutcome::Record(rec) => rec,
                    SlotOutcome::Lost => lost_record(src, dst, proto, t),
                };
                step(&mut accs[pi * cfg.protocols.len() + qi], rec);
            }
        }
    }
    (accs, report)
}

/// The single-epoch execution core behind the always-on service (see
/// [`Campaign::run_traceroute_epoch`]) and every chunk worker of
/// [`traceroute_sweep_impl`]: resolves every (pair, protocol) slot
/// of **one** schedule instant, in the reference executor's slot order
/// (pair-major, protocol in `cfg.protocols` order).
///
/// Fault decisions are keyed on the *global* sample index `epoch` — the
/// same key the reference executor uses — so driving the schedule epoch by
/// epoch reproduces the batch outcome exactly: folding each epoch's
/// records into per-slot accumulators yields byte-identical accumulators,
/// and [merging](CampaignReport::merge) the per-epoch reports yields the
/// batch [`CampaignReport`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn traceroute_epoch_impl<O, S>(
    net: &Network,
    pairs: &[(ClusterId, ClusterId)],
    cfg: &CampaignConfig,
    opts_of: O,
    injector: &FaultInjector,
    retry: &RetryPolicy,
    epoch: usize,
    t: SimTime,
    mut step: S,
) -> CampaignReport
where
    O: Fn(SimTime, Protocol) -> TraceOptions,
    S: FnMut(usize, TracerouteRecord),
{
    let mut report = CampaignReport::default();
    for (pi, &(src, dst)) in pairs.iter().enumerate() {
        for (qi, &proto) in cfg.protocols.iter().enumerate() {
            let outcome = traceroute_slot(
                net,
                injector,
                retry,
                src,
                dst,
                proto,
                t,
                epoch as u64,
                opts_of(t, proto),
                &mut report,
            );
            let rec = match outcome {
                SlotOutcome::Record(rec) => rec,
                SlotOutcome::Lost => lost_record(src, dst, proto, t),
            };
            step(pi * cfg.protocols.len() + qi, rec);
        }
    }
    report
}

/// One ping slot under the fault plane (the agent is known to be up).
#[allow(clippy::too_many_arguments)]
fn ping_slot(
    net: &Network,
    injector: &FaultInjector,
    retry: &RetryPolicy,
    src: ClusterId,
    dst: ClusterId,
    proto: Protocol,
    t: SimTime,
    seq: usize,
    report: &mut CampaignReport,
) -> Option<f64> {
    let attempts = retry.max_attempts.max(1);
    for attempt in 0..attempts {
        report.attempted += 1;
        match injector.probe_fault(src, dst, proto, t, attempt) {
            // Pings have no tail to truncate; a truncated reply is a
            // delivered reply.
            ProbeFault::None | ProbeFault::Truncated => {
                report.delivered += 1;
                return net.ping(src, dst, proto, t, seq as u64);
            }
            ProbeFault::Dropped => report.dropped_probes += 1,
            ProbeFault::Stuck => {
                report.stuck_probes += 1;
                report.deadline_ms_lost += retry.probe_deadline_ms;
            }
        }
        if attempt + 1 < attempts {
            report.retried += 1;
            report.backoff_ms += retry.backoff_base_ms * f64::from(1u32 << attempt.min(20));
        }
    }
    report.gave_up += 1;
    None
}

/// Pairs per worker chunk: `threads` contiguous chunks (at most one per
/// pair), never empty.
fn chunk_len(n_pairs: usize, threads: usize) -> usize {
    let threads = threads.max(1).min(n_pairs.max(1));
    n_pairs.div_ceil(threads).max(1)
}

/// Partitions pairs into [`chunk_len`] chunks and runs `work(index, chunk)`
/// for each on its own scoped thread while the calling thread runs
/// `coordinate`. Per-chunk accumulators concatenate in pair order and
/// reports merge in chunk order. Workers are panic-isolated: a panicking
/// worker contributes empty accumulators (built by `mk_empty`) and marks
/// its pairs poisoned instead of aborting the campaign.
fn run_chunks<A, F, E, R>(
    pairs: &[(ClusterId, ClusterId)],
    cfg: &CampaignConfig,
    work: F,
    mk_empty: E,
    coordinate: impl FnOnce() -> R,
) -> (Vec<A>, CampaignReport, R)
where
    A: Send,
    F: Fn(usize, &[(ClusterId, ClusterId)]) -> (Vec<A>, CampaignReport) + Sync,
    E: Fn(&[(ClusterId, ClusterId)]) -> Vec<A> + Sync,
{
    let chunk_size = chunk_len(pairs.len(), cfg.threads);
    let (chunk_results, coordinated): (Vec<(Vec<A>, CampaignReport)>, R) =
        std::thread::scope(|scope| {
            let handles: Vec<_> = pairs
                .chunks(chunk_size)
                .enumerate()
                .map(|(c, chunk)| {
                    let (work, mk_empty) = (&work, &mk_empty);
                    scope.spawn(move || match catch_unwind(AssertUnwindSafe(|| work(c, chunk))) {
                        Ok(result) => result,
                        Err(_) => {
                            let report = CampaignReport {
                                worker_panics: 1,
                                poisoned_pairs: chunk.to_vec(),
                                ..CampaignReport::default()
                            };
                            (mk_empty(chunk), report)
                        }
                    })
                })
                .collect();
            let coordinated = coordinate();
            let results = handles
                .into_iter()
                .map(|h| h.join().expect("isolated campaign worker cannot panic"))
                .collect();
            (results, coordinated)
        });
    let mut report = CampaignReport::default();
    let mut accs = Vec::new();
    for (chunk_accs, chunk_report) in chunk_results {
        report.merge(&chunk_report);
        accs.extend(chunk_accs);
    }
    (accs, report, coordinated)
}

// ---------------------------------------------------------------------------
// Streaming sinks
// ---------------------------------------------------------------------------

/// One scheduled ping sample under the fault plane, as a sink folds it:
/// books the slot in `report` and returns the delivered RTT (`None` for a
/// crashed agent or a lost probe), rounded through `f32` so sink state sees
/// exactly the values a materialized timeline stores.
#[allow(clippy::too_many_arguments)]
fn ping_sample(
    net: &Network,
    injector: &FaultInjector,
    retry: &RetryPolicy,
    src: ClusterId,
    dst: ClusterId,
    proto: Protocol,
    t: SimTime,
    ti: usize,
    report: &mut CampaignReport,
) -> Option<f64> {
    report.offered += 1;
    let rtt = if injector.agent_down(src, ti as u64) {
        report.agent_down_slots += 1;
        None
    } else {
        ping_slot(net, injector, retry, src, dst, proto, t, ti, report)
    };
    rtt.map(|r| f64::from(r as f32))
}

/// The fault-aware parallel ping executor over a [`StreamSink`] (see
/// [`Campaign::run_ping`]): every slot is folded into per-(pair, protocol)
/// sink state — a dense [`PingTimeline`] through
/// [`TimelineSink`](crate::stream::TimelineSink), a constant-size profile
/// through [`PairProfileSink`](crate::stream::PairProfileSink) — so memory
/// follows the sink, not the sample count. Lost slots (crashes, drops,
/// stuck probes) fold as `None`. States are ordered pair-major, then
/// protocol in `cfg.protocols` order, like every other campaign
/// accumulator.
pub(crate) fn ping_sink_impl<K: StreamSink>(
    net: &Network,
    pairs: &[(ClusterId, ClusterId)],
    cfg: &CampaignConfig,
    profile: &FaultProfile,
    retry: &RetryPolicy,
    sink: &K,
) -> (Vec<K::State>, CampaignReport) {
    let times = cfg.times();
    let injector = FaultInjector::new(*profile);
    let (states, report, ()) = run_chunks(
        pairs,
        cfg,
        |_, chunk| {
            let mut report = CampaignReport::default();
            let mut out: Vec<K::State> = empty_sink_states(chunk, cfg, sink);
            for (ti, &t) in times.iter().enumerate() {
                for (pi, &(src, dst)) in chunk.iter().enumerate() {
                    for (qi, &proto) in cfg.protocols.iter().enumerate() {
                        let rtt = ping_sample(
                            net, &injector, retry, src, dst, proto, t, ti, &mut report,
                        );
                        sink.fold(&mut out[pi * cfg.protocols.len() + qi], ti as u64, t, rtt);
                    }
                }
            }
            for st in &mut out {
                sink.finish(st);
            }
            (out, report)
        },
        |chunk| empty_sink_states(chunk, cfg, sink),
        || (),
    );
    (states, report)
}

fn empty_sink_states<K: StreamSink>(
    chunk: &[(ClusterId, ClusterId)],
    cfg: &CampaignConfig,
    sink: &K,
) -> Vec<K::State> {
    chunk
        .iter()
        .flat_map(|&(s, d)| cfg.protocols.iter().map(move |&p| sink.init(s, d, p)))
        .collect()
}

/// The checkpoint/resume ping executor over a [`StreamSink`] — the same
/// bit-identical-resume guarantee as [`traceroute_sweep_impl`], with
/// serialized sink states as the block payload: per pair,
/// `B|<pair_index>|<n_states>`, one [`StreamSink::save`] line per
/// protocol, then `E|<pair_index>`. On resume, complete leading blocks are
/// [`StreamSink::load`]ed instead of re-measured (each books its instants
/// × protocols as `resumed_slots`; its per-probe report counters are not
/// reconstructed). Replay checks every state's
/// [series](StreamSink::series) against its slot's (src, dst, protocol);
/// the first block that fails — torn, unparseable, or written for another
/// pair list — ends the accepted prefix and is truncated and re-measured.
/// Because fault decisions are content-keyed and `save`/`load` round-trip
/// bit-exactly, the finished file and the returned states match an
/// uninterrupted run's.
pub(crate) fn ping_sink_resumable_impl<K: StreamSink>(
    net: &Network,
    pairs: &[(ClusterId, ClusterId)],
    cfg: &CampaignConfig,
    profile: &FaultProfile,
    retry: &RetryPolicy,
    checkpoint: &Path,
    sink: &K,
) -> io::Result<(Vec<K::State>, CampaignReport)> {
    let times = cfg.times();
    let states_per_pair = cfg.protocols.len();
    let injector = FaultInjector::new(*profile);
    let mut report = CampaignReport::default();

    let (replayed, mut out) = open_checkpoint(checkpoint, states_per_pair, |pi, lines| {
        let &(src, dst) = pairs.get(pi)?;
        let slot_states = lines.iter().zip(&cfg.protocols).map(|(line, &proto)| {
            let st = sink.load(line).ok()?;
            (sink.series(&st) == (src, dst, proto)).then_some(st)
        });
        slot_states.collect::<Option<Vec<_>>>()
    })?;
    let done_pairs = replayed.len();
    let mut accs: Vec<K::State> = Vec::with_capacity(pairs.len() * states_per_pair);
    for states in replayed {
        accs.extend(states);
        report.resumed_slots += states_per_pair * times.len();
    }

    // Measure the rest in batches of `threads` pairs, blocks appended in
    // pair order after each batch — a kill loses at most one batch.
    let threads = cfg.threads.max(1);
    let remaining = &pairs[done_pairs..];
    for (bi, batch) in remaining.chunks(threads).enumerate() {
        let batch_base = done_pairs + bi * threads;
        let batch_results: Vec<(Vec<K::State>, CampaignReport)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = batch
                    .iter()
                    .map(|&(src, dst)| {
                        let (injector, times) = (&injector, &times);
                        scope.spawn(move || {
                            let mut rep = CampaignReport::default();
                            let mut pair_states: Vec<K::State> = cfg
                                .protocols
                                .iter()
                                .map(|&p| sink.init(src, dst, p))
                                .collect();
                            for (ti, &t) in times.iter().enumerate() {
                                for (qi, &proto) in cfg.protocols.iter().enumerate() {
                                    let rtt = ping_sample(
                                        net, injector, retry, src, dst, proto, t, ti, &mut rep,
                                    );
                                    sink.fold(&mut pair_states[qi], ti as u64, t, rtt);
                                }
                            }
                            for st in &mut pair_states {
                                sink.finish(st);
                            }
                            (pair_states, rep)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("resumable ping worker panicked"))
                    .collect()
            });
        for (off, (pair_states, rep)) in batch_results.into_iter().enumerate() {
            let pair_index = batch_base + off;
            report.merge(&rep);
            writeln!(out, "B|{}|{}", pair_index, pair_states.len())?;
            for st in &pair_states {
                writeln!(out, "{}", sink.save(st))?;
            }
            writeln!(out, "E|{pair_index}")?;
            accs.extend(pair_states);
        }
        out.flush()?;
    }
    Ok((accs, report))
}

// ---------------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------------

/// Opens a checkpoint for resuming: reads its complete leading blocks
/// through [`load_checkpoint_prefix`], truncates the file after them, and
/// returns what `accept` made of each block with the file positioned for
/// appending.
fn open_checkpoint<T>(
    path: &Path,
    lines_per_block: usize,
    accept: impl FnMut(usize, Vec<String>) -> Option<T>,
) -> io::Result<(Vec<T>, BufWriter<File>)> {
    let (blocks, keep_bytes) = load_checkpoint_prefix(path, lines_per_block, accept)?;
    let file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .read(true)
        // Not truncated on open: the accepted blocks are kept and set_len
        // below discards only the rejected tail.
        .truncate(false)
        .open(path)?;
    file.set_len(keep_bytes)?;
    let mut out = BufWriter::new(file);
    out.seek(SeekFrom::End(0))?;
    Ok((blocks, out))
}

/// Reads the complete leading blocks of a checkpoint file, passing each
/// block's index and lines to `accept`. Returns what `accept` made of each
/// block (in block order) and the byte length of the accepted prefix; the
/// first block `accept` rejects ends the prefix, and everything from it on
/// — a torn block from a mid-write kill, a foreign block, or trailing
/// garbage — is for the caller to truncate.
fn load_checkpoint_prefix<T>(
    path: &std::path::Path,
    lines_per_block: usize,
    mut accept: impl FnMut(usize, Vec<String>) -> Option<T>,
) -> std::io::Result<(Vec<T>, u64)> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok((Vec::new(), 0));
        }
        Err(e) => return Err(e),
    };
    let mut blocks: Vec<T> = Vec::new();
    let mut accepted: u64 = 0;
    let mut lines = text.split_inclusive('\n');
    'blocks: while let Some(header) = lines.next() {
        let h = header.trim_end();
        let mut parts = h.split('|');
        let (Some("B"), Some(idx), Some(n), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            break;
        };
        // Blocks are written in order; anything out of sequence is a torn
        // or foreign tail.
        if idx.parse::<usize>() != Ok(blocks.len()) {
            break;
        }
        let Ok(n) = n.parse::<usize>() else { break };
        if n != lines_per_block {
            break; // written under a different shape — don't trust it
        }
        let mut block_bytes = header.len() as u64;
        let mut body = Vec::with_capacity(n);
        for _ in 0..n {
            let Some(line) = lines.next() else { break 'blocks };
            block_bytes += line.len() as u64;
            body.push(line.trim_end().to_string());
        }
        let Some(footer) = lines.next() else { break };
        block_bytes += footer.len() as u64;
        if footer.trim_end() != format!("E|{}", blocks.len()) {
            break;
        }
        // Only a block whose footer landed on disk intact counts.
        if !footer.ends_with('\n') {
            break;
        }
        let Some(block) = accept(blocks.len(), body) else { break };
        accepted += block_bytes;
        blocks.push(block);
    }
    Ok((blocks, accepted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Campaign;
    use s2s_netsim::{CongestionModel, NetworkParams};
    use s2s_routing::{Dynamics, DynamicsParams, RouteOracle};
    use s2s_topology::{build_topology, TopologyParams};
    use std::sync::Arc;

    fn network(seed: u64) -> Network {
        let topo = Arc::new(build_topology(&TopologyParams::tiny(seed)));
        let oracle = Arc::new(RouteOracle::new(
            Arc::clone(&topo),
            Arc::new(Dynamics::all_up(&topo, SimTime::from_days(10))),
        ));
        Network::new(
            oracle,
            CongestionModel::none(),
            NetworkParams { loss_prob: 0.0, spike_prob: 0.0, ..NetworkParams::default() },
        )
    }

    /// A network whose availability timeline has many epochs, so the
    /// executors actually cross routing-epoch boundaries.
    fn dynamic_network(seed: u64) -> Network {
        let topo = Arc::new(build_topology(&TopologyParams::tiny(seed)));
        let dynamics = Arc::new(Dynamics::generate(
            &topo,
            &DynamicsParams {
                seed: seed ^ 0xD1CE,
                horizon: SimTime::from_days(10),
                stable_fraction: 0.25,
                mean_episodes: 4.0,
                ..DynamicsParams::default()
            },
        ));
        assert!(
            dynamics.epoch_count() > 3,
            "test world must span several epochs, got {}",
            dynamics.epoch_count()
        );
        let oracle = Arc::new(RouteOracle::new(Arc::clone(&topo), dynamics));
        Network::new(
            oracle,
            CongestionModel::none(),
            NetworkParams { loss_prob: 0.0, spike_prob: 0.0, ..NetworkParams::default() },
        )
    }

    /// The plain fault-free traceroute baseline: a sequential time-outer
    /// loop with no fault plane, independent of every executor.
    fn traceroute_with_impl<A>(
        net: &Network,
        pairs: &[(ClusterId, ClusterId)],
        cfg: &CampaignConfig,
        opts_of: impl Fn(SimTime, Protocol) -> TraceOptions,
        init: impl Fn(ClusterId, ClusterId, Protocol) -> A,
        step: impl Fn(&mut A, TracerouteRecord),
    ) -> Vec<A> {
        let init = &init;
        let mut accs: Vec<A> = pairs
            .iter()
            .flat_map(|&(s, d)| cfg.protocols.iter().map(move |&p| init(s, d, p)))
            .collect();
        for t in cfg.times() {
            for (pi, &(src, dst)) in pairs.iter().enumerate() {
                for (qi, &proto) in cfg.protocols.iter().enumerate() {
                    let rec = trace(net, src, dst, proto, t, opts_of(t, proto));
                    step(&mut accs[pi * cfg.protocols.len() + qi], rec);
                }
            }
        }
        accs
    }

    /// The plain fault-free ping baseline: a sequential time-outer loop
    /// building dense timelines, independent of every executor.
    fn ping_impl(
        net: &Network,
        pairs: &[(ClusterId, ClusterId)],
        cfg: &CampaignConfig,
    ) -> Vec<PingTimeline> {
        let mut out: Vec<PingTimeline> = pairs
            .iter()
            .flat_map(|&(src, dst)| {
                cfg.protocols.iter().map(move |&proto| PingTimeline {
                    src,
                    dst,
                    proto,
                    start: cfg.start,
                    interval: cfg.interval,
                    rtts: Vec::new(),
                })
            })
            .collect();
        for (ti, t) in cfg.times().into_iter().enumerate() {
            for (pi, &(src, dst)) in pairs.iter().enumerate() {
                for (qi, &proto) in cfg.protocols.iter().enumerate() {
                    let rtt = net.ping(src, dst, proto, t, ti as u64);
                    out[pi * cfg.protocols.len() + qi]
                        .rtts
                        .push(rtt.map(|r| r as f32).unwrap_or(f32::NAN));
                }
            }
        }
        out
    }

    #[test]
    fn report_line_round_trips_exactly() {
        let r = CampaignReport {
            offered: 120,
            attempted: 131,
            delivered: 101,
            truncated: 7,
            retried: 11,
            gave_up: 3,
            dropped_probes: 9,
            stuck_probes: 2,
            agent_down_slots: 5,
            resumed_slots: 4,
            backoff_ms: 1234.5678901,
            deadline_ms_lost: 0.1 + 0.2, // a value that would betray rounding
            worker_panics: 1,
            poisoned_pairs: vec![(ClusterId::new(3), ClusterId::new(9))],
            lost_slots: 4,
        };
        let back = CampaignReport::from_line(&r.to_line()).unwrap();
        assert_eq!(back, r, "report codec must be the identity");
        // And an all-default report survives too (empty poisoned list).
        let d = CampaignReport::default();
        assert_eq!(CampaignReport::from_line(&d.to_line()).unwrap(), d);
    }

    #[test]
    fn report_line_rejects_malformed_input() {
        assert!(CampaignReport::from_line("X|1|2").is_err());
        assert!(CampaignReport::from_line("R|1|2").is_err(), "too few fields");
        let good = CampaignReport::default().to_line();
        assert!(CampaignReport::from_line(&format!("{good}|extra")).is_err());
        let mangled = good.replace("R|0", "R|zero");
        assert!(CampaignReport::from_line(&mangled).is_err());
    }

    #[test]
    fn merge_folds_lost_slots_and_preserves_identities() {
        let mut a = CampaignReport {
            offered: 10,
            attempted: 10,
            delivered: 10,
            ..CampaignReport::default()
        };
        let b = CampaignReport { offered: 6, lost_slots: 6, ..CampaignReport::default() };
        a.merge(&b);
        assert_eq!(a.offered, 16);
        assert_eq!(a.lost_slots, 6);
        // offered = delivered + truncated + gave_up + agent_down + lost
        assert_eq!(
            a.offered,
            a.delivered + a.truncated + a.gave_up + a.agent_down_slots + a.lost_slots
        );
        // lost slots launched nothing, so attempted excludes them
        assert_eq!(a.attempted, a.offered - a.agent_down_slots - a.lost_slots + a.retried);
    }

    #[test]
    fn full_mesh_has_n_times_n_minus_one() {
        let pairs = full_mesh_pairs(5);
        assert_eq!(pairs.len(), 20);
        assert!(pairs.iter().all(|(a, b)| a != b));
    }

    #[test]
    fn campaign_counts_match_schedule() {
        let net = network(42);
        let pairs = vec![
            (ClusterId::new(0), ClusterId::new(1)),
            (ClusterId::new(2), ClusterId::new(3)),
        ];
        let cfg = CampaignConfig {
            start: SimTime::T0,
            end: SimTime::from_days(1),
            interval: SimDuration::from_hours(3),
            protocols: vec![Protocol::V4, Protocol::V6],
            threads: 2,
        };
        assert_eq!(cfg.n_samples(), 8);
        let (counts, report) = Campaign::new(cfg)
            .run_traceroute(&net, &pairs, TraceOptions::default(), |_, _, _| 0usize, |acc, _| {
                *acc += 1
            })
            .unwrap();
        // 2 pairs × 2 protocols accumulators, 8 records each.
        assert_eq!(counts, vec![8, 8, 8, 8]);
        assert_eq!(report.offered, 32);
        assert_eq!(report.delivered, 32, "quiet default profile delivers every slot");
    }

    #[test]
    fn accumulators_are_pair_major_proto_minor() {
        let net = network(42);
        let pairs =
            vec![(ClusterId::new(0), ClusterId::new(1)), (ClusterId::new(1), ClusterId::new(2))];
        let cfg = CampaignConfig {
            start: SimTime::T0,
            end: SimTime::from_hours(3),
            interval: SimDuration::from_hours(3),
            protocols: vec![Protocol::V4, Protocol::V6],
            threads: 1,
        };
        let (ids, _) = Campaign::new(cfg)
            .run_traceroute(&net, &pairs, TraceOptions::default(), |s, d, p| (s, d, p), |_, _| {})
            .unwrap();
        assert_eq!(ids[0], (ClusterId::new(0), ClusterId::new(1), Protocol::V4));
        assert_eq!(ids[1], (ClusterId::new(0), ClusterId::new(1), Protocol::V6));
        assert_eq!(ids[2], (ClusterId::new(1), ClusterId::new(2), Protocol::V4));
    }

    #[test]
    fn parallel_equals_serial() {
        let net = network(42);
        let pairs = full_mesh_pairs(6);
        let mk_cfg = |threads| CampaignConfig {
            start: SimTime::T0,
            end: SimTime::from_hours(9),
            interval: SimDuration::from_hours(3),
            protocols: vec![Protocol::V4],
            threads,
        };
        let collect = |cfg: &CampaignConfig| {
            Campaign::new(cfg.clone())
                .run_traceroute(
                    &net,
                    &pairs,
                    TraceOptions::default(),
                    |_, _, _| Vec::new(),
                    |acc: &mut Vec<Option<f64>>, rec| acc.push(rec.e2e_rtt_ms),
                )
                .unwrap()
                .0
        };
        assert_eq!(collect(&mk_cfg(1)), collect(&mk_cfg(4)));
    }

    #[test]
    fn ping_campaign_produces_dense_timelines() {
        let net = network(42);
        let pairs = vec![(ClusterId::new(0), ClusterId::new(2))];
        let cfg = CampaignConfig {
            start: SimTime::T0,
            end: SimTime::from_hours(2),
            interval: SimDuration::from_minutes(15),
            protocols: vec![Protocol::V4],
            threads: 1,
        };
        let (tl, _) = Campaign::new(cfg).run_ping(&net, &pairs).unwrap();
        assert_eq!(tl.len(), 1);
        assert_eq!(tl[0].rtts.len(), 8);
        assert_eq!(tl[0].valid_samples(), 8, "no loss configured");
        assert!(tl[0].valid_rtts().iter().all(|&r| r > 0.0));
    }

    #[test]
    fn filled_rtts_interpolates_losses() {
        let tl = PingTimeline {
            src: ClusterId::new(0),
            dst: ClusterId::new(1),
            proto: Protocol::V4,
            start: SimTime::T0,
            interval: SimDuration::from_minutes(15),
            rtts: vec![f32::NAN, 10.0, f32::NAN, 12.0, f32::NAN],
        };
        assert_eq!(tl.filled_rtts().unwrap(), vec![10.0, 10.0, 10.0, 12.0, 12.0]);
        assert_eq!(tl.valid_samples(), 2);
        let empty = PingTimeline { rtts: vec![f32::NAN], ..tl };
        assert!(empty.filled_rtts().is_none());
    }

    #[test]
    fn colocated_pairs_share_cities() {
        let topo = build_topology(&TopologyParams::tiny(42));
        let pairs = colocated_pairs(&topo);
        for (a, b) in &pairs {
            assert_eq!(topo.clusters[a.index()].city, topo.clusters[b.index()].city);
        }
    }

    #[test]
    fn ping_once_returns_record() {
        let net = network(42);
        let r = ping_once(&net, ClusterId::new(0), ClusterId::new(1), Protocol::V4, SimTime::T0);
        assert!(r.rtt_ms.is_some());
        assert_eq!(r.src, ClusterId::new(0));
    }

    // -- hardened / fault-aware runners ------------------------------------

    fn small_cfg(threads: usize) -> CampaignConfig {
        CampaignConfig {
            start: SimTime::T0,
            end: SimTime::from_hours(12),
            interval: SimDuration::from_hours(3),
            protocols: vec![Protocol::V4, Protocol::V6],
            threads,
        }
    }

    fn lossy_profile() -> FaultProfile {
        FaultProfile {
            crash_rate: 0.02,
            drop_rate: 0.15,
            stuck_rate: 0.05,
            truncate_rate: 0.05,
            ..FaultProfile::default()
        }
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp"));
        std::fs::create_dir_all(dir).expect("create target/tmp");
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn zero_faults_match_plain_traceroute_runner() {
        let net = network(42);
        let pairs = full_mesh_pairs(5);
        let cfg = small_cfg(3);
        let quiet = FaultProfile::default();
        assert!(quiet.is_quiet());
        // The independent fault-free baseline: the plain runner, which the
        // builder never calls (it always routes through the fault plane).
        let plain = traceroute_with_impl(
            &net,
            &pairs,
            &cfg,
            |_, _| TraceOptions::default(),
            |_, _, _| Vec::new(),
            |acc: &mut Vec<Option<f64>>, rec| acc.push(rec.e2e_rtt_ms),
        );
        let (faulty, report) = Campaign::new(cfg)
            .run_traceroute(
                &net,
                &pairs,
                TraceOptions::default(),
                |_, _, _| Vec::new(),
                |acc: &mut Vec<Option<f64>>, rec| acc.push(rec.e2e_rtt_ms),
            )
            .unwrap();
        assert_eq!(plain, faulty, "quiet profile must not change the dataset");
        assert_eq!(report.delivered, report.offered);
        assert_eq!(report.attempted, report.offered, "no retries under a quiet profile");
        assert_eq!(report.gave_up, 0);
        assert_eq!(report.worker_panics, 0);
        assert!((report.coverage().fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_faults_match_plain_ping_runner() {
        let net = network(42);
        let pairs = full_mesh_pairs(4);
        let cfg = CampaignConfig {
            interval: SimDuration::from_minutes(30),
            ..small_cfg(2)
        };
        let plain = ping_impl(&net, &pairs, &cfg);
        let (faulty, report) = Campaign::new(cfg).run_ping(&net, &pairs).unwrap();
        assert_eq!(plain.len(), faulty.len());
        for (a, b) in plain.iter().zip(&faulty) {
            assert_eq!(a.src, b.src);
            assert_eq!(a.proto, b.proto);
            let bits =
                |v: &[f32]| v.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.rtts), bits(&b.rtts));
        }
        assert_eq!(report.delivered, report.offered);
    }

    #[test]
    fn epoch_sweep_matches_batch_run_under_faults() {
        let net = dynamic_network(42);
        let pairs = full_mesh_pairs(5);
        let cfg = small_cfg(3);
        // Per-measurement options, so the sweep exercises opts_of too.
        let opts_of = |t: SimTime, proto: Protocol| TraceOptions {
            mode: if proto == Protocol::V4 && t >= SimTime::from_hours(6) {
                crate::tracer::TracerouteMode::Paris
            } else {
                crate::tracer::TracerouteMode::Classic
            },
            ..TraceOptions::default()
        };
        let campaign = Campaign::new(cfg.clone()).faults(lossy_profile());
        let (batch, batch_report) = campaign
            .run_traceroute_with(
                &net,
                &pairs,
                opts_of,
                |_, _, _| Vec::new(),
                |acc: &mut Vec<TracerouteRecord>, rec| acc.push(rec),
            )
            .unwrap();
        let slots = pairs.len() * cfg.protocols.len();
        let mut swept: Vec<Vec<TracerouteRecord>> = vec![Vec::new(); slots];
        let mut swept_report = CampaignReport::default();
        for epoch in 0..cfg.n_samples() {
            let r = campaign.run_traceroute_epoch(&net, &pairs, opts_of, epoch, |slot, rec| {
                swept[slot].push(rec)
            });
            swept_report.merge(&r);
        }
        assert_eq!(swept, batch, "epoch sweep must reproduce the batch dataset exactly");
        assert_eq!(swept_report, batch_report, "merged per-epoch reports must equal batch");
        assert!(swept_report.gave_up > 0, "profile must actually lose slots");
    }

    #[test]
    #[should_panic(expected = "out of schedule range")]
    fn epoch_past_schedule_end_panics() {
        let net = network(7);
        let pairs = vec![(ClusterId::new(0), ClusterId::new(1))];
        let cfg = small_cfg(1);
        let n = cfg.n_samples();
        Campaign::new(cfg).run_traceroute_epoch(
            &net,
            &pairs,
            |_, _| TraceOptions::default(),
            n,
            |_, _| {},
        );
    }

    #[test]
    fn fault_accounting_is_internally_consistent() {
        let net = network(42);
        let pairs = full_mesh_pairs(6);
        let cfg = small_cfg(3);
        let retry = RetryPolicy::default();
        let (accs, report) = Campaign::new(cfg)
            .faults(lossy_profile())
            .retry(retry)
            .run_traceroute(&net, &pairs, TraceOptions::default(), |_, _, _| 0usize, |acc, _| {
                *acc += 1
            })
            .unwrap();
        // Every slot folds exactly one record (real or synthetic): dense.
        let slots_per_acc = 4; // 12h at 3h intervals, end-exclusive -> t = 0,3,6,9
        assert!(accs.iter().all(|&n| n == slots_per_acc), "timelines must stay dense");
        // Every offered slot resolves exactly one way.
        assert_eq!(
            report.offered,
            report.delivered + report.truncated + report.gave_up + report.agent_down_slots
        );
        // Every attempt resolves exactly one way.
        assert_eq!(
            report.attempted,
            report.delivered + report.truncated + report.dropped_probes + report.stuck_probes
        );
        assert!(report.dropped_probes > 0, "15% drop rate over {} slots", report.offered);
        assert!(report.coverage().fraction() < 1.0);
        assert!(report.stuck_probes as f64 * retry.probe_deadline_ms <= report.deadline_ms_lost + 1e-9);
    }

    #[test]
    fn faulty_runner_is_thread_count_invariant() {
        let net = network(42);
        let pairs = full_mesh_pairs(6);
        let run = |threads| {
            Campaign::new(small_cfg(threads))
                .faults(lossy_profile())
                .run_traceroute(
                    &net,
                    &pairs,
                    TraceOptions::default(),
                    |_, _, _| Vec::new(),
                    |acc: &mut Vec<Option<f64>>, rec| acc.push(rec.e2e_rtt_ms),
                )
                .unwrap()
        };
        let (a1, r1) = run(1);
        let (a4, r4) = run(4);
        assert_eq!(a1, a4, "fault decisions are content-keyed, not order-keyed");
        assert_eq!(r1, r4);
    }

    #[test]
    fn worker_panic_poisons_only_its_pairs() {
        let net = network(42);
        let pairs = full_mesh_pairs(3); // 6 ordered pairs
        let bad = pairs[2];
        let cfg = CampaignConfig { protocols: vec![Protocol::V4], threads: pairs.len(), ..small_cfg(1) };
        let (accs, report) = Campaign::new(cfg)
            .run_traceroute(
                &net,
                &pairs,
                TraceOptions::default(),
                |_, _, _| 0usize,
                |acc: &mut usize, rec| {
                    assert!(
                        ((rec.src, rec.dst) != bad),
                        "injected worker failure for pair {:?}",
                        bad
                    );
                    *acc += 1;
                },
            )
            .unwrap();
        assert_eq!(report.worker_panics, 1);
        assert_eq!(report.poisoned_pairs, vec![bad]);
        for (i, &n) in accs.iter().enumerate() {
            if pairs[i] == bad {
                assert_eq!(n, 0, "poisoned pair contributes an empty accumulator");
            } else {
                assert_eq!(n, 4, "healthy pairs are untouched by the panic");
            }
        }
    }

    // -- the chunked sweep against the reference -------------------------

    #[test]
    fn batched_parallel_matches_sequential_reference_byte_identical() {
        // The executor invariant: the chunked, multi-threaded instant sweep
        // serializes to exactly the bytes of the plain sequential
        // time-outer runner, for several worlds and thread counts.
        for seed in [7u64, 21, 42] {
            let net = dynamic_network(seed);
            let pairs = full_mesh_pairs(5);
            let mk_cfg = |threads| CampaignConfig {
                start: SimTime::T0,
                end: SimTime::from_days(5),
                interval: SimDuration::from_hours(6),
                protocols: vec![Protocol::V4, Protocol::V6],
                threads,
            };
            let init = |_, _, _| Vec::new();
            let step = |acc: &mut Vec<String>, rec: TracerouteRecord| {
                acc.push(traceroute_to_line(&rec))
            };
            let (reference, _) = Campaign::new(mk_cfg(1))
                .reference()
                .run_traceroute_with(&net, &pairs, |_, _| TraceOptions::default(), init, step)
                .unwrap();
            for threads in [1usize, 3] {
                let (batched, _) = Campaign::new(mk_cfg(threads))
                    .run_traceroute_with(&net, &pairs, |_, _| TraceOptions::default(), init, step)
                    .unwrap();
                assert_eq!(
                    batched, reference,
                    "seed {seed}, {threads} threads: batched runner diverged"
                );
            }
        }
    }

    #[test]
    fn faulty_batched_matches_faulty_reference() {
        // Fault decisions key on the sample index, so chunking the pairs
        // must not move any slot's fault outcome — dataset and report both match
        // for every fault profile shape the S2S_FAULT_* knobs can express.
        let net = dynamic_network(42);
        let pairs = full_mesh_pairs(5);
        let retry = RetryPolicy::default();
        let opts = |_, _| TraceOptions::default();
        let init = |_, _, _| Vec::new();
        let step =
            |acc: &mut Vec<String>, rec: TracerouteRecord| acc.push(traceroute_to_line(&rec));
        let cfg = CampaignConfig {
            start: SimTime::T0,
            end: SimTime::from_days(5),
            interval: SimDuration::from_hours(6),
            protocols: vec![Protocol::V4, Protocol::V6],
            threads: 3,
        };
        let crash_heavy = FaultProfile {
            crash_rate: 0.2,
            crash_mean_epochs: 3.0,
            drop_rate: 0.02,
            ..FaultProfile::default()
        };
        for profile in [FaultProfile::default(), lossy_profile(), crash_heavy] {
            let (ref_accs, ref_report) = Campaign::new(cfg.clone())
                .reference()
                .faults(profile)
                .retry(retry)
                .run_traceroute_with(&net, &pairs, opts, init, step)
                .unwrap();
            let (accs, report) = Campaign::new(cfg.clone())
                .faults(profile)
                .retry(retry)
                .run_traceroute_with(&net, &pairs, opts, init, step)
                .unwrap();
            assert_eq!(accs, ref_accs, "faulty batched runner diverged from reference");
            assert_eq!(report, ref_report);
            // The report's coverage identities survive chunking + faults.
            assert_eq!(
                report.offered,
                report.delivered + report.truncated + report.gave_up + report.agent_down_slots
            );
            assert_eq!(
                report.attempted,
                report.delivered + report.truncated + report.dropped_probes + report.stuck_probes
            );
            assert!(report.coverage().fraction() <= 1.0);
        }
    }

    #[test]
    fn killed_and_resumed_checkpoint_is_bit_identical() {
        let net = network(42);
        let pairs = full_mesh_pairs(5); // 20 ordered pairs
        let cfg = small_cfg(3);
        let profile = lossy_profile();
        let retry = RetryPolicy::default();
        let run = |path: &std::path::Path| {
            Campaign::new(cfg.clone())
                .faults(profile)
                .retry(retry)
                .checkpoint(path)
                .run_traceroute(
                    &net,
                    &pairs,
                    TraceOptions::default(),
                    |_, _, _| Vec::new(),
                    |acc: &mut Vec<Option<f64>>, rec| acc.push(rec.e2e_rtt_ms),
                )
                .expect("resumable campaign")
        };

        let full_path = tmp_path("ckpt_uninterrupted.txt");
        let (full_accs, full_report) = run(&full_path);
        let full_bytes = std::fs::read(&full_path).unwrap();
        assert_eq!(full_report.resumed_slots, 0);
        let scheduled = pairs.len() * cfg.n_samples() * cfg.protocols.len();

        // Kill the campaign at several points, including mid-line, and
        // resume: the finished file must match the uninterrupted one.
        for cut in [0usize, 1, full_bytes.len() / 3, full_bytes.len() / 2, full_bytes.len() - 7] {
            let path = tmp_path(&format!("ckpt_killed_at_{cut}.txt"));
            std::fs::write(&path, &full_bytes[..cut]).unwrap();
            let (accs, report) = run(&path);
            let resumed_bytes = std::fs::read(&path).unwrap();
            assert_eq!(
                resumed_bytes, full_bytes,
                "kill at byte {cut}: resumed checkpoint must be bit-identical"
            );
            assert_eq!(accs, full_accs, "kill at byte {cut}: accumulators must match");
            assert_eq!(
                report.resumed_slots + report.offered,
                scheduled,
                "kill at byte {cut}: every slot is either replayed or re-measured"
            );
            let _ = std::fs::remove_file(&path);
        }

        // Resuming a finished checkpoint re-measures nothing.
        let (accs, report) = run(&full_path);
        assert_eq!(accs, full_accs);
        assert_eq!(report.resumed_slots, scheduled);
        assert_eq!(report.offered, 0);
        assert_eq!(std::fs::read(&full_path).unwrap(), full_bytes);
        let _ = std::fs::remove_file(&full_path);
    }

    // -- the builder front door --------------------------------------------

    fn timeline_bits(tls: &[PingTimeline]) -> Vec<Vec<u32>> {
        tls.iter().map(|tl| tl.rtts.iter().map(|r| r.to_bits()).collect()).collect()
    }

    /// Ping campaigns checkpoint through serialized sink state: a
    /// checkpointed run matches the in-memory one, and a run killed at any
    /// byte resumes to a bit-identical file and bit-identical timelines.
    #[test]
    fn ping_checkpoint_resumes_bit_identically() {
        let net = network(42);
        let pairs = full_mesh_pairs(4);
        let cfg = small_cfg(2);
        let profile = lossy_profile();
        let campaign =
            |path: &std::path::Path| Campaign::new(cfg.clone()).faults(profile).checkpoint(path);

        let (memory, memory_report) =
            Campaign::new(cfg.clone()).faults(profile).run_ping(&net, &pairs).unwrap();

        let full_path = tmp_path("ping_ckpt_full.txt");
        let (full, full_report) = campaign(&full_path).run_ping(&net, &pairs).unwrap();
        let full_bytes = std::fs::read(&full_path).unwrap();
        assert_eq!(timeline_bits(&full), timeline_bits(&memory));
        assert_eq!(full_report, memory_report);
        let scheduled = pairs.len() * cfg.n_samples() * cfg.protocols.len();

        for cut in [0usize, 1, full_bytes.len() / 3, full_bytes.len() - 5] {
            let path = tmp_path(&format!("ping_ckpt_cut_{cut}.txt"));
            std::fs::write(&path, &full_bytes[..cut]).unwrap();
            let (resumed, report) = campaign(&path).run_ping(&net, &pairs).unwrap();
            assert_eq!(
                std::fs::read(&path).unwrap(),
                full_bytes,
                "kill at byte {cut}: resumed checkpoint must be bit-identical"
            );
            assert_eq!(timeline_bits(&resumed), timeline_bits(&memory));
            assert_eq!(report.resumed_slots + report.offered, scheduled, "kill at byte {cut}");
            let _ = std::fs::remove_file(&path);
        }

        // Resuming a finished checkpoint re-measures nothing.
        let (replayed, report) = campaign(&full_path).run_ping(&net, &pairs).unwrap();
        assert_eq!(timeline_bits(&replayed), timeline_bits(&memory));
        assert_eq!(report.resumed_slots, scheduled);
        assert_eq!(report.offered, 0);
        let _ = std::fs::remove_file(&full_path);
    }

    /// The sink path folds exactly what the materializing path stores:
    /// a `PairProfileSink` run agrees with profiles rebuilt from the
    /// in-memory timelines, and its states are identical across thread
    /// counts.
    #[test]
    fn sink_campaign_matches_materialized_run() {
        let net = network(42);
        let pairs = full_mesh_pairs(4);
        let profile = lossy_profile();
        // A longer schedule so PSD ratios exist (≥ 2 days of slots).
        let cfg = CampaignConfig {
            start: SimTime::T0,
            end: SimTime::from_days(3),
            interval: SimDuration::from_hours(3),
            protocols: vec![Protocol::V4, Protocol::V6],
            threads: 2,
        };
        let sink = crate::stream::PairProfileSink::with_shape(&cfg, 64, 32);

        let (timelines, tl_report) =
            Campaign::new(cfg.clone()).faults(profile).run_ping(&net, &pairs).unwrap();
        let (profiles, pf_report) = Campaign::new(cfg.clone())
            .faults(profile)
            .sink(sink.clone())
            .run_ping(&net, &pairs)
            .unwrap();
        assert_eq!(tl_report, pf_report);
        assert_eq!(profiles.len(), timelines.len());

        for (tl, pf) in timelines.iter().zip(&profiles) {
            assert_eq!((pf.src, pf.dst, pf.proto), (tl.src, tl.dst, tl.proto));
            assert_eq!(pf.valid_samples(), tl.valid_samples());
            assert_eq!(pf.offered() as usize, tl.rtts.len());
            // Refold the materialized timeline through the sink: the state
            // must come out identical — the executor fed the same values.
            let mut refold = sink.init(tl.src, tl.dst, tl.proto);
            let times: Vec<SimTime> =
                sample_times(cfg.start, cfg.end, cfg.interval).collect();
            for (ti, (&r, &t)) in tl.rtts.iter().zip(&times).enumerate() {
                let rtt = (!r.is_nan()).then(|| f64::from(r));
                sink.fold(&mut refold, ti as u64, t, rtt);
            }
            assert_eq!(*pf, refold);
        }

        // Thread-count determinism of sink states.
        for threads in [1usize, 4] {
            let mut cfg_t = cfg.clone();
            cfg_t.threads = threads;
            let (p2, _) = Campaign::new(cfg_t)
                .faults(profile)
                .sink(sink.clone())
                .run_ping(&net, &pairs)
                .unwrap();
            assert_eq!(p2, profiles, "sink states must not depend on thread count");
        }
    }

    /// Re-running the builder with identical arguments must reproduce the
    /// dataset bit for bit — the determinism the checkpoint/resume and
    /// sink-state guarantees are built on.
    #[test]
    fn repeated_builder_runs_are_bit_identical() {
        let net = network(42);
        let pairs = full_mesh_pairs(4);
        let cfg = small_cfg(2);
        let profile = lossy_profile();
        let init = |_, _, _| Vec::new();
        let step = |acc: &mut Vec<String>, rec: TracerouteRecord| {
            acc.push(traceroute_to_line(&rec))
        };

        let collect = || {
            Campaign::new(cfg.clone())
                .faults(profile)
                .run_traceroute_with(&net, &pairs, |_, _| TraceOptions::default(), init, step)
                .unwrap()
        };
        let (a, report_a) = collect();
        let (b, report_b) = collect();
        assert_eq!(a, b);
        assert_eq!(report_a, report_b);

        let bits = |v: &[f32]| v.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        let (p1, _) = Campaign::new(cfg.clone()).run_ping(&net, &pairs).unwrap();
        let (p2, _) = Campaign::new(cfg).run_ping(&net, &pairs).unwrap();
        for (x, y) in p1.iter().zip(&p2) {
            assert_eq!(bits(&x.rtts), bits(&y.rtts));
        }
    }

    /// A run publishes its report into an explicitly observed registry —
    /// and observation must not change the dataset.
    #[test]
    fn observed_run_publishes_report_and_changes_nothing() {
        let net = network(42);
        let pairs = full_mesh_pairs(4);
        let cfg = small_cfg(2);
        let collect = |c: Campaign| {
            c.run_traceroute(
                &net,
                &pairs,
                TraceOptions::default(),
                |_, _, _| Vec::new(),
                |acc: &mut Vec<String>, rec| acc.push(traceroute_to_line(&rec)),
            )
            .unwrap()
        };
        let (bare, bare_report) = collect(Campaign::new(cfg.clone()).faults(lossy_profile()));
        let reg = Arc::new(s2s_obs::Registry::new());
        let (observed, report) = collect(
            Campaign::new(cfg).faults(lossy_profile()).observe(Arc::clone(&reg)),
        );
        assert_eq!(bare, observed, "observing a campaign must not perturb its dataset");
        assert_eq!(bare_report, report);
        assert_eq!(reg.counter("campaign.offered").get(), report.offered as u64);
        assert_eq!(reg.counter("campaign.delivered").get(), report.delivered as u64);
        assert_eq!(reg.counter("campaign.runs").get(), 1);
        if report.gave_up > 0 {
            let labels: Vec<String> =
                reg.events().into_iter().map(|e| e.label).collect();
            assert!(labels.iter().any(|l| l == "campaign.retry_exhausted"), "{labels:?}");
        }
    }
}
