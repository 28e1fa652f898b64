//! The streaming short-term plane must be invisible in the verdicts: a
//! `PairProfileSink` campaign (constant-memory sketches) classifies
//! congestion the same way as the materialized ping timelines it replaces,
//! across seeds and fault profiles; sink states are thread-count
//! deterministic; and a killed checkpointed ping campaign resumes to the
//! bit-identical dataset.

use s2s_bench::{Scale, Scenario};
use s2s_core::congestion::DetectParams;
use s2s_core::Analysis;
use s2s_probe::{
    Campaign, CampaignConfig, FaultProfile, PairProfile, PairProfileSink, PingTimeline,
};
use s2s_types::{ClusterId, SimTime};

fn micro(seed: u64) -> Scenario {
    Scenario::build(Scale {
        seed,
        clusters: 12,
        days: 12,
        pairs: 16,
        ping_pairs: 20,
        cong_pairs: 8,
    })
}

fn profiles() -> Vec<(&'static str, FaultProfile)> {
    vec![
        ("quiet", FaultProfile::default()),
        (
            "noisy",
            FaultProfile {
                crash_rate: 0.02,
                drop_rate: 0.05,
                stuck_rate: 0.02,
                truncate_rate: 0.05,
                ..FaultProfile::default()
            },
        ),
    ]
}

fn mesh(scenario: &Scenario) -> Vec<(ClusterId, ClusterId)> {
    scenario.sample_pair_list(scenario.scale.ping_pairs, 0x5EC5)
}

fn run_materialized(
    scenario: &Scenario,
    cfg: &CampaignConfig,
    profile: FaultProfile,
    pairs: &[(ClusterId, ClusterId)],
) -> Vec<PingTimeline> {
    Campaign::new(cfg.clone())
        .faults(profile)
        .run_ping(&scenario.net, pairs)
        .expect("in-memory campaign cannot fail")
        .0
}

fn run_streamed(
    scenario: &Scenario,
    cfg: &CampaignConfig,
    profile: FaultProfile,
    pairs: &[(ClusterId, ClusterId)],
) -> Vec<PairProfile> {
    Campaign::new(cfg.clone())
        .faults(profile)
        .sink(PairProfileSink::for_config(cfg))
        .run_ping(&scenario.net, pairs)
        .expect("in-memory campaign cannot fail")
        .0
}

/// The acceptance invariant: streamed classification agrees with the
/// materialized path on >= 99% of (pair, protocol) timelines for every
/// seed × fault profile combination — and the constant-memory state stays
/// a fraction of the dense timelines it replaces.
#[test]
fn streamed_congestion_matches_materialized_across_seeds_and_profiles() {
    let params = DetectParams::default();
    for seed in [3u64, 11, 29] {
        let scenario = micro(seed);
        let pairs = mesh(&scenario);
        let cfg = CampaignConfig::ping_week(SimTime::T0);
        for (name, profile) in profiles() {
            let timelines = run_materialized(&scenario, &cfg, profile, &pairs);
            let streamed = run_streamed(&scenario, &cfg, profile, &pairs);
            assert_eq!(timelines.len(), streamed.len());

            // Both planes see the same offered/valid counts per timeline.
            for (tl, pf) in timelines.iter().zip(&streamed) {
                assert_eq!((tl.src, tl.dst, tl.proto), (pf.src, pf.dst, pf.proto));
                assert_eq!(
                    tl.valid_samples(),
                    pf.valid_samples(),
                    "seed {seed} {name}: valid-sample counts diverged"
                );
            }

            let exact = Analysis::new(timelines.as_slice()).congestion(&params);
            let sketched = Analysis::new(streamed.as_slice()).congestion(&params);
            let agreeing = exact
                .iter()
                .zip(&sketched)
                .filter(|(a, b)| match (a, b) {
                    (None, None) => true,
                    (Some(x), Some(y)) => x.consistent == y.consistent,
                    _ => false,
                })
                .count();
            let agreement = agreeing as f64 / exact.len().max(1) as f64;
            assert!(
                agreement >= 0.99,
                "seed {seed} {name}: streamed verdicts agree on only \
                 {:.1}% of {} timelines",
                100.0 * agreement,
                exact.len()
            );

            // The constant-memory claim: every per-(pair, protocol) state is
            // bounded by the sketch shape, never by the sample count (the
            // bench pins the flatness across window lengths; here we pin
            // the absolute bound at the default shape).
            for pf in &streamed {
                assert!(
                    pf.memory_bytes() < 32 * 1024,
                    "seed {seed} {name}: sink state for {:?}->{:?} grew to \
                     {} B — no longer constant-memory",
                    pf.src,
                    pf.dst,
                    pf.memory_bytes()
                );
            }
        }
    }
}

/// Sink states are a deterministic function of the schedule and the fault
/// profile — never of the worker count.
#[test]
fn sink_states_are_thread_count_deterministic() {
    let scenario = micro(7);
    let pairs = mesh(&scenario);
    let (_, noisy) = profiles().remove(1);
    let base = CampaignConfig::ping_week(SimTime::T0);
    let baseline = run_streamed(
        &scenario,
        &CampaignConfig { threads: 1, ..base.clone() },
        noisy,
        &pairs,
    );
    for threads in [2usize, 4] {
        let cfg = CampaignConfig { threads, ..base.clone() };
        let got = run_streamed(&scenario, &cfg, noisy, &pairs);
        assert_eq!(
            baseline, got,
            "{threads}-thread sink states diverged from the single-thread run"
        );
        // The serialized form is the state the checkpoint writes — pin the
        // bytes, not just structural equality.
        for (a, b) in baseline.iter().zip(&got) {
            assert_eq!(a.to_line(), b.to_line());
        }
    }
}

/// A checkpointed ping campaign killed mid-write resumes to the exact
/// bytes — and the resumed dataset classifies identically.
#[test]
fn killed_ping_checkpoint_resumes_bit_identically() {
    let scenario = micro(13);
    let pairs = mesh(&scenario);
    let (_, noisy) = profiles().remove(1);
    let cfg = CampaignConfig::ping_week(SimTime::T0);
    let bits = |tls: &[PingTimeline]| {
        tls.iter()
            .map(|t| t.rtts.iter().map(|r| r.to_bits()).collect::<Vec<_>>())
            .collect::<Vec<_>>()
    };

    let memory = run_materialized(&scenario, &cfg, noisy, &pairs);

    let dir = std::env::temp_dir();
    let full_path = dir.join("s2s_stream_equiv_full.ckpt");
    let _ = std::fs::remove_file(&full_path);
    let (full, _) = Campaign::new(cfg.clone())
        .faults(noisy)
        .checkpoint(&full_path)
        .run_ping(&scenario.net, &pairs)
        .expect("checkpointed campaign");
    assert_eq!(bits(&full), bits(&memory));
    let full_bytes = std::fs::read(&full_path).unwrap();

    for cut in [0usize, full_bytes.len() / 2, full_bytes.len() - 3] {
        let path = dir.join(format!("s2s_stream_equiv_cut_{cut}.ckpt"));
        std::fs::write(&path, &full_bytes[..cut]).unwrap();
        let (resumed, report) = Campaign::new(cfg.clone())
            .faults(noisy)
            .checkpoint(&path)
            .run_ping(&scenario.net, &pairs)
            .expect("resumed campaign");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            full_bytes,
            "kill at byte {cut}: resumed checkpoint must be bit-identical"
        );
        assert_eq!(bits(&resumed), bits(&memory), "kill at byte {cut}");
        assert_eq!(
            report.offered + report.resumed_slots,
            pairs.len() * cfg.n_samples() * cfg.protocols.len(),
            "kill at byte {cut}: every slot is measured or replayed once"
        );
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_file(&full_path);
}
