//! Streaming campaign sinks: fold samples as they are produced.
//!
//! The §5 short-term plane pings ~3 M pairs every 15 minutes for a week —
//! ~2 B samples. Materializing that as [`PingTimeline`]s before analysis
//! costs memory proportional to *samples*; a [`StreamSink`] folds each
//! sample into per-(pair, protocol) state the moment it is measured, so a
//! campaign's resident size is proportional to *pairs* only.
//!
//! * [`StreamSink`] — the fold contract a sink implements; plugged into
//!   the builder via [`Campaign::sink`](crate::Campaign::sink),
//! * [`PairProfileSink`] → [`PairProfile`] — the constant-memory RTT
//!   profile (quantile sketch, Welford moments, diurnal ring bins, and a
//!   streamed filled-series PSD) that `s2s-core`'s streamed congestion
//!   classification consumes,
//! * [`TimelineSink`] → [`PingTimeline`] — the materializing sink; what
//!   [`Campaign::run_ping`](crate::Campaign::run_ping) folds through, in
//!   memory or checkpointed (which makes ping campaigns resumable like
//!   traceroute ones).
//!
//! Sink state is single-writer: the campaign partitions pairs across
//! workers and every (pair, protocol) state sees only its own samples, in
//! schedule order — so results are byte-identical across thread counts by
//! construction. `save`/`load` round-trip state bit-exactly; that is the
//! ping checkpoint format (see the `campaign` module docs for the framing
//! and the bit-identical-resume guarantee).

use crate::campaign::PingTimeline;
use s2s_stats::sketch::{DiurnalProfile, FilledSpectrum, QuantileSketch, StreamingMoments};
use s2s_types::{ClusterId, Coverage, Protocol, SimDuration, SimTime, MINUTES_PER_DAY};

/// A streaming fold over a ping campaign's samples.
///
/// The campaign calls [`init`](StreamSink::init) once per
/// (pair, protocol), then [`fold`](StreamSink::fold) for **every**
/// scheduled slot in time order (`None` marks a lost sample — the slot
/// was offered but nothing came back), then [`finish`](StreamSink::finish)
/// when the pair's schedule is exhausted.
///
/// [`save`](StreamSink::save) and [`load`](StreamSink::load) serialize a
/// finished state to one line of text and back, *bit-exactly* — the
/// checkpoint path replays saved states instead of re-measuring, and the
/// resumed campaign must be indistinguishable from an uninterrupted one.
pub trait StreamSink: Sync {
    /// Per-(pair, protocol) accumulator.
    type State: Send;

    /// Creates the accumulator for one (pair, protocol) series.
    fn init(&self, src: ClusterId, dst: ClusterId, proto: Protocol) -> Self::State;

    /// The (src, dst, protocol) series a state belongs to — what
    /// checkpoint replay checks each loaded state against its slot with.
    fn series(&self, state: &Self::State) -> (ClusterId, ClusterId, Protocol);

    /// Folds one scheduled slot: `seq` is the global sample index, `t` the
    /// nominal instant, `rtt_ms` the delivered RTT (`None` for a lost
    /// slot). Called once per slot, in schedule order.
    fn fold(&self, state: &mut Self::State, seq: u64, t: SimTime, rtt_ms: Option<f64>);

    /// Called once after the last slot of the series. Default: no-op.
    fn finish(&self, _state: &mut Self::State) {}

    /// Serializes a state to a single line (no `'\n'`); must round-trip
    /// bit-exactly through [`load`](StreamSink::load).
    fn save(&self, state: &Self::State) -> String;

    /// Parses a [`save`](StreamSink::save) line back into a state.
    fn load(&self, line: &str) -> std::io::Result<Self::State>;

    /// Resident bytes of one state (for the `sink.sketch_bytes` gauge and
    /// the bench's peak-memory accounting).
    fn state_bytes(&self, state: &Self::State) -> usize;
}

fn proto_tag(p: Protocol) -> &'static str {
    match p {
        Protocol::V4 => "4",
        Protocol::V6 => "6",
    }
}

fn parse_proto(s: &str) -> Result<Protocol, String> {
    match s {
        "4" => Ok(Protocol::V4),
        "6" => Ok(Protocol::V6),
        other => Err(format!("bad protocol {other:?}")),
    }
}

fn data_err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

// ---------------------------------------------------------------------------
// PairProfile
// ---------------------------------------------------------------------------

/// The constant-memory RTT profile of one (pair, protocol) series.
///
/// Everything §5.1–§5.2 needs from a ping timeline, in `O(1)` state per
/// pair: offered/valid slot counts (coverage), a mergeable quantile
/// sketch (the 95th−5th spread), Welford moments, time-of-day ring bins
/// (busy/quiet structure), and a streamed filled-series PSD (the diurnal
/// frequency signature). `s2s-core::congestion::streamed` classifies
/// straight from this type.
#[derive(Clone, Debug, PartialEq)]
pub struct PairProfile {
    /// Source vantage point.
    pub src: ClusterId,
    /// Destination vantage point.
    pub dst: ClusterId,
    /// Protocol.
    pub proto: Protocol,
    /// First sample instant of the schedule.
    pub start: SimTime,
    /// Sampling cadence.
    pub interval: SimDuration,
    offered: u64,
    valid: u64,
    sketch: QuantileSketch,
    moments: StreamingMoments,
    diurnal: DiurnalProfile,
    spectrum: FilledSpectrum,
}

impl PairProfile {
    /// Slots the schedule offered this series.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Slots that delivered a valid RTT.
    pub fn valid_samples(&self) -> usize {
        self.valid as usize
    }

    /// Delivered-over-offered coverage of this series.
    pub fn coverage(&self) -> Coverage {
        Coverage::new(self.valid as usize, self.offered as usize)
    }

    /// Samples per day at this cadence (≥ 1).
    pub fn samples_per_day(&self) -> usize {
        (MINUTES_PER_DAY / self.interval.minutes().max(1)).max(1) as usize
    }

    /// RTT quantile estimate for `q ∈ [0, 1]` (see
    /// [`QuantileSketch::quantile`] for the error bound).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.sketch.quantile(q)
    }

    /// The §5.1 95th−5th percentile RTT spread, ms.
    pub fn spread_95_5(&self) -> Option<f64> {
        self.sketch.spread(0.05, 0.95)
    }

    /// Mean RTT, ms.
    pub fn mean(&self) -> Option<f64> {
        self.moments.mean()
    }

    /// Population standard deviation of the RTT, ms.
    pub fn stddev(&self) -> Option<f64> {
        self.moments.stddev()
    }

    /// Diurnal power ratio of the filled series — the streamed equivalent
    /// of `diurnal_psd_ratio(filled_rtts(), samples_per_day)`.
    pub fn psd_ratio(&self) -> Option<f64> {
        self.spectrum.ratio()
    }

    /// The time-of-day ring bins (one per schedule slot of the day).
    pub fn diurnal(&self) -> &DiurnalProfile {
        &self.diurnal
    }

    /// The quantile sketch itself (for merging into aggregate views).
    pub fn sketch(&self) -> &QuantileSketch {
        &self.sketch
    }

    /// Resident bytes of this profile.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() - std::mem::size_of::<QuantileSketch>()
            - std::mem::size_of::<DiurnalProfile>()
            - std::mem::size_of::<FilledSpectrum>()
            + self.sketch.memory_bytes()
            + self.diurnal.memory_bytes()
            + self.spectrum.memory_bytes()
    }

    /// Serializes to one line; bit-exact round trip through
    /// [`PairProfile::parse`].
    pub fn to_line(&self) -> String {
        format!(
            "S|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
            self.src.0,
            self.dst.0,
            proto_tag(self.proto),
            self.start.minutes(),
            self.interval.minutes(),
            self.offered,
            self.valid,
            self.sketch.encode(),
            self.moments.encode(),
            self.diurnal.encode(),
            self.spectrum.encode(),
        )
    }

    /// Parses a [`PairProfile::to_line`] line.
    pub fn parse(line: &str) -> std::io::Result<PairProfile> {
        let mut it = line.split('|');
        if it.next() != Some("S") {
            return Err(data_err(format!("not a profile line: {line:?}")));
        }
        let mut next = |what: &str| {
            it.next().ok_or_else(|| data_err(format!("profile line missing {what}")))
        };
        let src = ClusterId::new(
            next("src")?.parse().map_err(|e| data_err(format!("bad src: {e}")))?,
        );
        let dst = ClusterId::new(
            next("dst")?.parse().map_err(|e| data_err(format!("bad dst: {e}")))?,
        );
        let proto = parse_proto(next("proto")?).map_err(data_err)?;
        let start = SimTime::from_minutes(
            next("start")?.parse().map_err(|e| data_err(format!("bad start: {e}")))?,
        );
        let interval = SimDuration::from_minutes(
            next("interval")?.parse().map_err(|e| data_err(format!("bad interval: {e}")))?,
        );
        let offered: u64 =
            next("offered")?.parse().map_err(|e| data_err(format!("bad offered: {e}")))?;
        let valid: u64 =
            next("valid")?.parse().map_err(|e| data_err(format!("bad valid: {e}")))?;
        let sketch = QuantileSketch::decode(next("sketch")?).map_err(data_err)?;
        let moments = StreamingMoments::decode(next("moments")?).map_err(data_err)?;
        let diurnal = DiurnalProfile::decode(next("diurnal")?).map_err(data_err)?;
        let spectrum = FilledSpectrum::decode(next("spectrum")?).map_err(data_err)?;
        if it.next().is_some() {
            return Err(data_err("trailing fields on profile line"));
        }
        Ok(PairProfile {
            src,
            dst,
            proto,
            start,
            interval,
            offered,
            valid,
            sketch,
            moments,
            diurnal,
            spectrum,
        })
    }
}

// ---------------------------------------------------------------------------
// PairProfileSink
// ---------------------------------------------------------------------------

/// The sink producing [`PairProfile`]s: the §5 mesh as a bounded-memory
/// workload.
///
/// Shaped by the campaign schedule (slot count, cadence) plus the sketch
/// knobs (`S2S_SKETCH_CENTROIDS`, `S2S_SKETCH_EXACT` — see
/// [`crate::env::sketch_centroids`]).
#[derive(Clone, Debug)]
pub struct PairProfileSink {
    start: SimTime,
    interval: SimDuration,
    expected_len: usize,
    samples_per_day: usize,
    sketch_capacity: usize,
    sketch_exact: usize,
}

impl PairProfileSink {
    /// A sink for `cfg`'s schedule, sketch shape from the `S2S_SKETCH_*`
    /// knobs.
    pub fn for_config(cfg: &crate::campaign::CampaignConfig) -> PairProfileSink {
        PairProfileSink::with_shape(cfg, crate::env::sketch_centroids(), crate::env::sketch_exact())
    }

    /// A sink for `cfg`'s schedule with an explicit sketch shape.
    pub fn with_shape(
        cfg: &crate::campaign::CampaignConfig,
        sketch_capacity: usize,
        sketch_exact: usize,
    ) -> PairProfileSink {
        let spd = (MINUTES_PER_DAY / cfg.interval.minutes().max(1)).max(1) as usize;
        PairProfileSink {
            start: cfg.start,
            interval: cfg.interval,
            expected_len: cfg.n_samples(),
            samples_per_day: spd,
            sketch_capacity,
            sketch_exact,
        }
    }

    /// Samples per day at the sink's cadence.
    pub fn samples_per_day(&self) -> usize {
        self.samples_per_day
    }
}

impl StreamSink for PairProfileSink {
    type State = PairProfile;

    fn init(&self, src: ClusterId, dst: ClusterId, proto: Protocol) -> PairProfile {
        PairProfile {
            src,
            dst,
            proto,
            start: self.start,
            interval: self.interval,
            offered: 0,
            valid: 0,
            sketch: QuantileSketch::with_shape(self.sketch_capacity, self.sketch_exact),
            moments: StreamingMoments::new(),
            diurnal: DiurnalProfile::new(self.samples_per_day),
            spectrum: FilledSpectrum::new(self.expected_len, self.samples_per_day),
        }
    }

    fn series(&self, st: &PairProfile) -> (ClusterId, ClusterId, Protocol) {
        (st.src, st.dst, st.proto)
    }

    fn fold(&self, st: &mut PairProfile, _seq: u64, t: SimTime, rtt_ms: Option<f64>) {
        st.offered += 1;
        st.spectrum.fold(rtt_ms);
        if let Some(v) = rtt_ms {
            st.valid += 1;
            st.sketch.push(v);
            st.moments.push(v);
            let bin = t.minute_of_day() / self.interval.minutes().max(1);
            st.diurnal.fold_slot(u64::from(bin), v);
        }
    }

    fn save(&self, st: &PairProfile) -> String {
        st.to_line()
    }

    fn load(&self, line: &str) -> std::io::Result<PairProfile> {
        PairProfile::parse(line)
    }

    fn state_bytes(&self, st: &PairProfile) -> usize {
        st.memory_bytes()
    }
}

// ---------------------------------------------------------------------------
// TimelineSink
// ---------------------------------------------------------------------------

/// The materializing sink: folds every slot into a dense [`PingTimeline`]
/// (lost slots as `NaN`).
///
/// [`Campaign::run_ping`](crate::Campaign::run_ping) folds through this
/// sink, in memory or checkpointed. Its `save` format keeps the raw f32 bits
/// (`K|src|dst|proto|start|interval|hex;hex;…`), unlike the human-readable
/// dataset line format which rounds; checkpoint resume must be
/// bit-identical.
#[derive(Clone, Debug)]
pub struct TimelineSink {
    start: SimTime,
    interval: SimDuration,
    expected_len: usize,
}

impl TimelineSink {
    /// A sink for `cfg`'s schedule.
    pub fn for_config(cfg: &crate::campaign::CampaignConfig) -> TimelineSink {
        TimelineSink { start: cfg.start, interval: cfg.interval, expected_len: cfg.n_samples() }
    }
}

impl StreamSink for TimelineSink {
    type State = PingTimeline;

    fn init(&self, src: ClusterId, dst: ClusterId, proto: Protocol) -> PingTimeline {
        PingTimeline {
            src,
            dst,
            proto,
            start: self.start,
            interval: self.interval,
            rtts: Vec::with_capacity(self.expected_len),
        }
    }

    fn series(&self, st: &PingTimeline) -> (ClusterId, ClusterId, Protocol) {
        (st.src, st.dst, st.proto)
    }

    fn fold(&self, st: &mut PingTimeline, _seq: u64, _t: SimTime, rtt_ms: Option<f64>) {
        st.rtts.push(rtt_ms.map(|r| r as f32).unwrap_or(f32::NAN));
    }

    fn save(&self, st: &PingTimeline) -> String {
        let rtts: Vec<String> =
            st.rtts.iter().map(|r| format!("{:08x}", r.to_bits())).collect();
        format!(
            "K|{}|{}|{}|{}|{}|{}",
            st.src.0,
            st.dst.0,
            proto_tag(st.proto),
            st.start.minutes(),
            st.interval.minutes(),
            rtts.join(";")
        )
    }

    fn load(&self, line: &str) -> std::io::Result<PingTimeline> {
        let mut it = line.split('|');
        if it.next() != Some("K") {
            return Err(data_err(format!("not a timeline-state line: {line:?}")));
        }
        let mut next = |what: &str| {
            it.next().ok_or_else(|| data_err(format!("timeline line missing {what}")))
        };
        let src = ClusterId::new(
            next("src")?.parse().map_err(|e| data_err(format!("bad src: {e}")))?,
        );
        let dst = ClusterId::new(
            next("dst")?.parse().map_err(|e| data_err(format!("bad dst: {e}")))?,
        );
        let proto = parse_proto(next("proto")?).map_err(data_err)?;
        let start = SimTime::from_minutes(
            next("start")?.parse().map_err(|e| data_err(format!("bad start: {e}")))?,
        );
        let interval = SimDuration::from_minutes(
            next("interval")?.parse().map_err(|e| data_err(format!("bad interval: {e}")))?,
        );
        let field = next("rtts")?;
        let rtts = if field.is_empty() {
            Vec::new()
        } else {
            field
                .split(';')
                .map(|tok| {
                    u32::from_str_radix(tok, 16)
                        .map(f32::from_bits)
                        .map_err(|e| data_err(format!("bad rtt token {tok:?}: {e}")))
                })
                .collect::<std::io::Result<Vec<f32>>>()?
        };
        if it.next().is_some() {
            return Err(data_err("trailing fields on timeline-state line"));
        }
        Ok(PingTimeline { src, dst, proto, start, interval, rtts })
    }

    fn state_bytes(&self, st: &PingTimeline) -> usize {
        std::mem::size_of::<PingTimeline>() + st.rtts.capacity() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignConfig;
    use s2s_stats::percentile::Summary;

    fn cfg_days(days: u32) -> CampaignConfig {
        let mut cfg = CampaignConfig::ping_week(SimTime::T0);
        cfg.end = SimTime::T0 + SimDuration::from_days(days);
        cfg
    }

    /// Synthetic diurnal series with content-keyed losses.
    fn run_series(sink: &PairProfileSink, cfg: &CampaignConfig, lossy: bool) -> PairProfile {
        let mut st = sink.init(ClusterId::new(1), ClusterId::new(2), Protocol::V4);
        let times: Vec<SimTime> =
            s2s_types::time::sample_times(cfg.start, cfg.end, cfg.interval).collect();
        for (ti, &t) in times.iter().enumerate() {
            let lost = lossy && ti % 9 == 4;
            let rtt = if lost {
                None
            } else {
                let phase = 2.0 * std::f64::consts::PI * ti as f64 / 96.0;
                Some(((50.0 + 12.0 * phase.sin() + (ti % 5) as f64) as f32) as f64)
            };
            sink.fold(&mut st, ti as u64, t, rtt);
        }
        sink.finish(&mut st);
        st
    }

    #[test]
    fn profile_matches_materialized_stats() {
        let cfg = cfg_days(7);
        let sink = PairProfileSink::with_shape(&cfg, 256, 128);
        let st = run_series(&sink, &cfg, true);

        // Rebuild the materialized equivalent and compare.
        let times: Vec<SimTime> =
            s2s_types::time::sample_times(cfg.start, cfg.end, cfg.interval).collect();
        let rtts: Vec<f32> = (0..times.len())
            .map(|ti| {
                if ti % 9 == 4 {
                    f32::NAN
                } else {
                    let phase = 2.0 * std::f64::consts::PI * ti as f64 / 96.0;
                    (50.0 + 12.0 * phase.sin() + (ti % 5) as f64) as f32
                }
            })
            .collect();
        let tl = PingTimeline {
            src: ClusterId::new(1),
            dst: ClusterId::new(2),
            proto: Protocol::V4,
            start: cfg.start,
            interval: cfg.interval,
            rtts,
        };

        assert_eq!(st.valid_samples(), tl.valid_samples());
        assert_eq!(st.offered(), times.len() as u64);
        let summary = Summary::of(&tl.valid_rtts()).unwrap();
        let spread = st.spread_95_5().unwrap();
        assert!(
            (spread - summary.spread_95_5()).abs() < 0.5,
            "sketch spread {spread} vs exact {}",
            summary.spread_95_5()
        );
        assert!((st.mean().unwrap() - summary.mean).abs() < 1e-9);
        let exact_psd = s2s_stats::fft::diurnal_psd_ratio(
            &tl.filled_rtts().unwrap(),
            sink.samples_per_day(),
        )
        .unwrap();
        let streamed_psd = st.psd_ratio().unwrap();
        assert!(
            (streamed_psd - exact_psd).abs() < 1e-6,
            "psd {streamed_psd} vs exact {exact_psd}"
        );
        // The diurnal ring sees the daily swing.
        assert!(st.diurnal().amplitude().unwrap() > 10.0);
    }

    #[test]
    fn profile_round_trips_bit_exactly() {
        let cfg = cfg_days(7);
        let sink = PairProfileSink::with_shape(&cfg, 64, 32);
        for lossy in [false, true] {
            let st = run_series(&sink, &cfg, lossy);
            let line = sink.save(&st);
            assert!(!line.contains('\n'));
            let back = sink.load(&line).unwrap();
            assert_eq!(st, back);
            assert_eq!(sink.save(&back), line);
        }
        // An untouched state round-trips too.
        let fresh = sink.init(ClusterId::new(0), ClusterId::new(3), Protocol::V6);
        let back = sink.load(&sink.save(&fresh)).unwrap();
        assert_eq!(fresh, back);
        assert!(sink.load("garbage").is_err());
        assert!(sink.load("S|1|2|4|0").is_err());
    }

    #[test]
    fn profile_memory_is_sample_count_independent() {
        let short_cfg = cfg_days(7);
        let long_cfg = cfg_days(70);
        let sink_short = PairProfileSink::with_shape(&short_cfg, 64, 32);
        let sink_long = PairProfileSink::with_shape(&long_cfg, 64, 32);
        let a = run_series(&sink_short, &short_cfg, true);
        let b = run_series(&sink_long, &long_cfg, true);
        assert!(b.offered() >= 9 * a.offered());
        // 10x the samples, same-order state size.
        assert!(
            b.memory_bytes() < 2 * a.memory_bytes(),
            "{} vs {} bytes",
            b.memory_bytes(),
            a.memory_bytes()
        );
    }

    #[test]
    fn all_lost_series_has_no_stats() {
        let cfg = cfg_days(7);
        let sink = PairProfileSink::with_shape(&cfg, 64, 32);
        let mut st = sink.init(ClusterId::new(1), ClusterId::new(2), Protocol::V4);
        let times: Vec<SimTime> =
            s2s_types::time::sample_times(cfg.start, cfg.end, cfg.interval).collect();
        for (ti, &t) in times.iter().enumerate() {
            sink.fold(&mut st, ti as u64, t, None);
        }
        assert_eq!(st.valid_samples(), 0);
        assert_eq!(st.offered(), times.len() as u64);
        assert_eq!(st.spread_95_5(), None);
        assert_eq!(st.psd_ratio(), None);
        assert_eq!(st.mean(), None);
        assert!((st.coverage().fraction() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn timeline_sink_reproduces_the_dense_timeline() {
        let cfg = cfg_days(7);
        let sink = TimelineSink::for_config(&cfg);
        let mut st = sink.init(ClusterId::new(3), ClusterId::new(4), Protocol::V6);
        let times: Vec<SimTime> =
            s2s_types::time::sample_times(cfg.start, cfg.end, cfg.interval).collect();
        for (ti, &t) in times.iter().enumerate() {
            let rtt =
                if ti % 4 == 1 { None } else { Some(f64::from((40.0 + ti as f64) as f32)) };
            sink.fold(&mut st, ti as u64, t, rtt);
        }
        assert_eq!(st.rtts.len(), times.len());
        assert!(st.rtts[1].is_nan());
        assert_eq!(st.rtts[0], 40.0);

        let line = sink.save(&st);
        let back = sink.load(&line).unwrap();
        // NaN payload bits included.
        let bits: Vec<u32> = st.rtts.iter().map(|r| r.to_bits()).collect();
        let back_bits: Vec<u32> = back.rtts.iter().map(|r| r.to_bits()).collect();
        assert_eq!(bits, back_bits);
        assert_eq!((back.src, back.dst, back.proto), (st.src, st.dst, st.proto));
        assert_eq!((back.start, back.interval), (st.start, st.interval));
        assert!(sink.load("K|1|2|9|0|15|").is_err());
        assert!(sink.load("P|1|2|4|0|15|1.0").is_err());
    }
}
