//! The one front door for campaigns: [`Campaign`].
//!
//! Every campaign — plain or fault-injected, parallel or
//! sequential-reference, in-memory or checkpoint/resumed — is launched by
//! building a [`Campaign`] and calling one of its `run_*` methods. A
//! traceroute campaign runs through one executor, in memory or
//! checkpointed: each pair chunk's worker sweeps the schedule instant by
//! instant (see the `campaign` module docs). A ping campaign folds every
//! sample through a [`StreamSink`]: [`TimelineSink`] for
//! [`Campaign::run_ping`], the caller's sink for [`Campaign::sink`] runs.
//!
//! ```no_run
//! # use s2s_probe::{Campaign, CampaignConfig, FaultProfile, RetryPolicy};
//! # use s2s_probe::tracer::TraceOptions;
//! # fn demo(net: &s2s_netsim::Network, pairs: &[(s2s_types::ClusterId, s2s_types::ClusterId)]) {
//! let (timelines, report) = Campaign::new(CampaignConfig::long_term(30))
//!     .faults(FaultProfile::from_env())
//!     .retry(RetryPolicy::default())
//!     .threads(8)
//!     .run_traceroute(net, pairs, TraceOptions::default(), |s, d, p| (s, d, p, 0u64), |a, _r| a.3 += 1)
//!     .unwrap();
//! # let _ = (timelines, report);
//! # }
//! ```
//!
//! The builder always routes through the fault-aware execution cores: with
//! no [`Campaign::faults`] call the profile is the all-zero default, under
//! which the fault plane provably changes nothing (the internal zero-fault
//! equivalence tests pin the accumulators byte-for-byte against plain
//! sequential loops). That means every run returns a real
//! [`CampaignReport`] — no variant-specific report synthesis.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::campaign::{
    ping_sink_impl, ping_sink_resumable_impl, traceroute_epoch_impl,
    traceroute_faulty_reference_impl, traceroute_sweep_impl, CampaignConfig, CampaignReport,
    PingTimeline, RetryPolicy,
};
use crate::faults::{FaultInjector, FaultProfile};
use crate::records::TracerouteRecord;
use crate::stream::{StreamSink, TimelineSink};
use crate::tracer::TraceOptions;
use s2s_netsim::Network;
use s2s_types::{ClusterId, Protocol, SimTime};

/// A configured-but-not-yet-run campaign.
///
/// Construction is pure; nothing happens until a `run_*` method fires.
/// All `run_*` methods return `io::Result<(accumulators, CampaignReport)>`
/// uniformly — in-memory runs cannot actually fail, only
/// [checkpointed](Campaign::checkpoint) ones can, but one signature keeps
/// call sites stable when a checkpoint is added later.
#[derive(Clone, Debug)]
pub struct Campaign {
    cfg: CampaignConfig,
    profile: FaultProfile,
    retry: RetryPolicy,
    checkpoint: Option<PathBuf>,
    reference: bool,
    registry: Option<Arc<s2s_obs::Registry>>,
}

impl Campaign {
    /// Starts a builder from a schedule. Faults default to the all-zero
    /// profile (a fault-free run), retry to [`RetryPolicy::default`].
    pub fn new(cfg: CampaignConfig) -> Self {
        Campaign {
            cfg,
            profile: FaultProfile::default(),
            retry: RetryPolicy::default(),
            checkpoint: None,
            reference: false,
            registry: None,
        }
    }

    /// Injects faults from `profile` (content-keyed on its seed, so results
    /// are independent of thread count and execution order).
    pub fn faults(mut self, profile: FaultProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the retry/timeout policy for faulted probe slots.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Checkpoints completed work to `path` and resumes from it on rerun.
    /// The finished file and the accumulators are bit-identical to an
    /// uninterrupted run's. Traceroute campaigns run the same
    /// instant-by-instant sweep as in memory and append one record block
    /// per schedule instant, once every pair chunk has measured it; ping
    /// campaigns (including [`Campaign::sink`] runs) archive serialized
    /// sink state per pair. Replay trusts only leading blocks whose records
    /// or states sit in their own slots; the rest of the file is
    /// re-measured.
    pub fn checkpoint(mut self, path: impl AsRef<Path>) -> Self {
        self.checkpoint = Some(path.as_ref().to_path_buf());
        self
    }

    /// Overrides the worker-thread count (defaults to the `S2S_THREADS`
    /// knob, see [`crate::env::threads`]).
    pub fn threads(mut self, n: usize) -> Self {
        self.cfg.threads = n.max(1);
        self
    }

    /// Folds the run's [`CampaignReport`] counters and rare events into
    /// `registry` when the run finishes. Without this call the report is
    /// published to the globally [installed](s2s_obs::install) registry,
    /// if any. (Span timings inside the execution cores always go to the
    /// global registry — install one to capture them.)
    pub fn observe(mut self, registry: Arc<s2s_obs::Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Uses the sequential reference executor: one thread, time-outer
    /// pair-inner loops over all pairs — the seed implementation's exact
    /// execution order. The validation baseline the chunked parallel sweep
    /// must match byte for byte. Ignored when a checkpoint is set.
    pub fn reference(mut self) -> Self {
        self.reference = true;
        self
    }

    /// Runs a traceroute campaign with fixed tool options, folding each
    /// (pair, protocol) timeline into an accumulator: `init(src, dst,
    /// proto)` creates it, `step(acc, record)` folds one record in.
    /// Accumulators are ordered pair-major, then protocol in
    /// `cfg.protocols` order.
    pub fn run_traceroute<A, I, S>(
        &self,
        net: &Network,
        pairs: &[(ClusterId, ClusterId)],
        opts: TraceOptions,
        init: I,
        step: S,
    ) -> std::io::Result<(Vec<A>, CampaignReport)>
    where
        A: Send,
        I: Fn(ClusterId, ClusterId, Protocol) -> A + Sync,
        S: Fn(&mut A, TracerouteRecord) + Sync,
    {
        self.run_traceroute_with(net, pairs, move |_, _| opts, init, step)
    }

    /// Like [`Campaign::run_traceroute`], with per-measurement tool
    /// options: `opts_of(t, proto)` picks the traceroute flavor per run —
    /// how the paper's platform behaved (classic traceroute until November
    /// 2014, then Paris traceroute for IPv4, §2.1).
    pub fn run_traceroute_with<A, O, I, S>(
        &self,
        net: &Network,
        pairs: &[(ClusterId, ClusterId)],
        opts_of: O,
        init: I,
        step: S,
    ) -> std::io::Result<(Vec<A>, CampaignReport)>
    where
        A: Send,
        O: Fn(SimTime, Protocol) -> TraceOptions + Sync,
        I: Fn(ClusterId, ClusterId, Protocol) -> A + Sync,
        S: Fn(&mut A, TracerouteRecord) + Sync,
    {
        let result = if self.reference && self.checkpoint.is_none() {
            Ok(traceroute_faulty_reference_impl(
                net, pairs, &self.cfg, opts_of, &self.profile, &self.retry, init, step,
            ))
        } else {
            traceroute_sweep_impl(
                net,
                pairs,
                &self.cfg,
                opts_of,
                &self.profile,
                &self.retry,
                self.checkpoint.as_deref(),
                init,
                step,
            )
        };
        if let Ok((_, report)) = &result {
            self.publish(report);
        }
        result
    }

    /// Resolves every (pair, protocol) slot of **one** schedule instant —
    /// the always-on service's per-epoch advance. `epoch` indexes the
    /// schedule (`0..cfg.n_samples()`; out of range panics), and
    /// `step(slot, record)` receives each record with its slot index
    /// (pair-major, protocol in `cfg.protocols` order — the same indexing
    /// as [`Campaign::run_traceroute`]'s accumulators).
    ///
    /// Fault decisions are content-keyed on the global sample index, so
    /// sweeping epochs `0..n_samples` and [merging](CampaignReport::merge)
    /// the per-epoch reports is byte-identical — records, slot order
    /// within each (pair, protocol), and report — to one
    /// [`Campaign::run_traceroute_with`] batch run over the same schedule.
    /// Unlike the batch runners, the per-epoch report is *not* published
    /// to the observability registry (a long-running service would melt
    /// `campaign.runs`); callers merge and publish at their own cadence.
    pub fn run_traceroute_epoch(
        &self,
        net: &Network,
        pairs: &[(ClusterId, ClusterId)],
        opts_of: impl Fn(SimTime, Protocol) -> TraceOptions,
        epoch: usize,
        step: impl FnMut(usize, TracerouteRecord),
    ) -> CampaignReport {
        let t = s2s_types::time::sample_times(self.cfg.start, self.cfg.end, self.cfg.interval)
            .nth(epoch)
            .unwrap_or_else(|| {
                panic!("epoch {epoch} out of schedule range 0..{}", self.cfg.n_samples())
            });
        // Construction is pure and the injector is content-keyed on the
        // profile seed, so rebuilding it per epoch changes nothing.
        let injector = FaultInjector::new(self.profile);
        traceroute_epoch_impl(
            net, pairs, &self.cfg, opts_of, &injector, &self.retry, epoch, t, step,
        )
    }

    /// Runs a ping campaign, returning a dense timeline per
    /// (pair, protocol): one slot per scheduled instant, `NaN` for lost
    /// samples. The run folds through [`TimelineSink`], so with
    /// [`Campaign::checkpoint`] set completed pairs are archived as
    /// serialized timeline state and replayed on rerun, with the same
    /// bit-identical-resume guarantee as traceroute campaigns.
    pub fn run_ping(
        &self,
        net: &Network,
        pairs: &[(ClusterId, ClusterId)],
    ) -> std::io::Result<(Vec<PingTimeline>, CampaignReport)> {
        let sink = TimelineSink::for_config(&self.cfg);
        let result = self.run_ping_sink(net, pairs, &sink);
        if let Ok((_, report)) = &result {
            self.publish(report);
        }
        result
    }

    /// Runs a ping campaign through `sink`: the resumable executor with a
    /// checkpoint set, else the parallel one (on one thread in reference
    /// mode). Publishes nothing.
    fn run_ping_sink<K: StreamSink>(
        &self,
        net: &Network,
        pairs: &[(ClusterId, ClusterId)],
        sink: &K,
    ) -> std::io::Result<(Vec<K::State>, CampaignReport)> {
        if let Some(path) = &self.checkpoint {
            return ping_sink_resumable_impl(
                net, pairs, &self.cfg, &self.profile, &self.retry, path, sink,
            );
        }
        let mut cfg = self.cfg.clone();
        if self.reference {
            // The reference executor is single-threaded by definition.
            cfg.threads = 1;
        }
        Ok(ping_sink_impl(net, pairs, &cfg, &self.profile, &self.retry, sink))
    }

    /// Attaches a streaming sink: the returned [`SinkCampaign`] folds every
    /// sample into per-(pair, protocol) sink state as it is measured,
    /// instead of materializing timelines — campaign memory proportional
    /// to pairs, not samples (the §5 mesh at paper scale). All other
    /// builder settings (faults, retry, threads, checkpoint, observability,
    /// reference mode) carry over.
    pub fn sink<K: StreamSink>(self, sink: K) -> SinkCampaign<K> {
        SinkCampaign { campaign: self, sink }
    }

    /// The registry this run reports into: the explicit
    /// [`Campaign::observe`] one, else the globally installed one.
    fn effective_registry(&self) -> Option<Arc<s2s_obs::Registry>> {
        self.registry.clone().or_else(s2s_obs::installed)
    }

    /// Folds a finished run's report into the effective registry:
    /// `campaign.*` counters mirror the [`CampaignReport`] fields, and the
    /// rare outcomes (worker panics, retry-exhausted slots, checkpoint
    /// resume) land in the event log.
    fn publish(&self, report: &CampaignReport) {
        let Some(reg) = self.effective_registry() else { return };
        for (name, v) in [
            ("campaign.offered", report.offered),
            ("campaign.attempted", report.attempted),
            ("campaign.delivered", report.delivered),
            ("campaign.truncated", report.truncated),
            ("campaign.retried", report.retried),
            ("campaign.gave_up", report.gave_up),
            ("campaign.dropped_probes", report.dropped_probes),
            ("campaign.stuck_probes", report.stuck_probes),
            ("campaign.agent_down_slots", report.agent_down_slots),
            ("campaign.resumed_slots", report.resumed_slots),
            ("campaign.worker_panics", report.worker_panics),
            ("campaign.lost_slots", report.lost_slots),
        ] {
            if v > 0 {
                reg.counter(name).add(v as u64);
            }
        }
        reg.counter("campaign.runs").inc();
        if report.worker_panics > 0 {
            reg.event(
                "campaign.worker_panic",
                format!(
                    "{} worker(s) panicked; {} pair(s) poisoned",
                    report.worker_panics,
                    report.poisoned_pairs.len()
                ),
            );
        }
        if report.gave_up > 0 {
            reg.event(
                "campaign.retry_exhausted",
                format!("{} slot(s) abandoned after exhausting retries", report.gave_up),
            );
        }
        if let Some(path) = &self.checkpoint {
            reg.event(
                "campaign.checkpoint_write",
                format!(
                    "checkpoint {} complete ({} slot(s) replayed from it)",
                    path.display(),
                    report.resumed_slots
                ),
            );
        }
    }
}

/// A [`Campaign`] with a [`StreamSink`] attached (built by
/// [`Campaign::sink`]): its runs return folded sink states instead of
/// materialized timelines.
#[derive(Clone, Debug)]
pub struct SinkCampaign<K: StreamSink> {
    campaign: Campaign,
    sink: K,
}

impl<K: StreamSink> SinkCampaign<K> {
    /// The attached sink.
    pub fn sink_ref(&self) -> &K {
        &self.sink
    }

    /// Runs the ping campaign through the sink, returning one folded state
    /// per (pair, protocol) — pair-major, protocol in `cfg.protocols`
    /// order, exactly like [`Campaign::run_ping`]'s timelines. Schedule,
    /// fault decisions, and report accounting are identical to the
    /// materializing path; only the fold differs. With
    /// [`Campaign::checkpoint`] set, completed pairs are archived as
    /// serialized sink state and replayed on rerun (bit-identical resume).
    pub fn run_ping(
        &self,
        net: &Network,
        pairs: &[(ClusterId, ClusterId)],
    ) -> std::io::Result<(Vec<K::State>, CampaignReport)> {
        let result = self.campaign.run_ping_sink(net, pairs, &self.sink);
        if let Ok((states, report)) = &result {
            self.campaign.publish(report);
            self.publish_sink(states, report);
        }
        result
    }

    /// Folds the sink-specific series into the effective registry:
    /// `sink.states` / `sink.samples` / `sink.lost` counters and the
    /// `sink.sketch_bytes` gauge (total resident sink-state bytes — the
    /// number that stays flat as sample counts grow).
    fn publish_sink(&self, states: &[K::State], report: &CampaignReport) {
        let Some(reg) = self.campaign.effective_registry() else { return };
        reg.counter("sink.states").add(states.len() as u64);
        reg.counter("sink.samples").add(report.offered as u64);
        reg.counter("sink.lost").add(report.offered.saturating_sub(report.delivered) as u64);
        let bytes: usize = states.iter().map(|s| self.sink.state_bytes(s)).sum();
        reg.gauge("sink.sketch_bytes").set(bytes as u64);
    }
}
