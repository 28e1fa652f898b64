//! The checkpointed traceroute campaign sweeps the schedule one instant at
//! a time: it computes no more route tables than the in-memory executor,
//! its replay trusts only blocks whose records sit in their own slots, and
//! a worker panic leaves a file an uninterrupted rerun finishes.

use s2s_netsim::{CongestionModel, Network, NetworkParams};
use s2s_probe::dataset::traceroute_to_line;
use s2s_probe::{
    full_mesh_pairs, Campaign, CampaignConfig, CampaignReport, FaultProfile, TraceOptions,
};
use s2s_routing::{Dynamics, DynamicsParams, RouteOracle};
use s2s_topology::{build_topology, TopologyParams};
use s2s_types::{ClusterId, Protocol, SimDuration, SimTime};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A world whose availability timeline has many epochs over the schedule,
/// more distinct configurations than the oracle's config cache holds.
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
    let oracle = Arc::new(RouteOracle::new(Arc::clone(&topo), dynamics));
    Network::new(
        oracle,
        CongestionModel::none(),
        NetworkParams { loss_prob: 0.0, spike_prob: 0.0, ..NetworkParams::default() },
    )
}

fn schedule(days: u32) -> CampaignConfig {
    CampaignConfig {
        start: SimTime::T0,
        end: SimTime::from_days(days),
        interval: SimDuration::from_hours(3),
        protocols: vec![Protocol::V4, Protocol::V6],
        threads: 1,
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

fn tmp_path(name: &str) -> PathBuf {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp"));
    std::fs::create_dir_all(dir).expect("create target/tmp");
    let p = dir.join(name);
    let _ = std::fs::remove_file(&p);
    p
}

/// Runs `campaign`, archiving each (pair, protocol) timeline as lines.
fn run(
    campaign: &Campaign,
    net: &Network,
    pairs: &[(ClusterId, ClusterId)],
) -> (Vec<Vec<String>>, CampaignReport) {
    campaign
        .run_traceroute_with(
            net,
            pairs,
            |_, _| TraceOptions::default(),
            |_, _, _| Vec::new(),
            |acc: &mut Vec<String>, rec| acc.push(traceroute_to_line(&rec)),
        )
        .expect("campaign")
}

#[test]
fn checkpointed_campaign_computes_no_more_route_tables_than_in_memory() {
    let pairs = full_mesh_pairs(8);
    let route_tables = |campaign: Campaign| {
        // A fresh world each time: the oracle's cache starts cold.
        let net = dynamic_network(42);
        run(&campaign, &net, &pairs);
        net.oracle().cache_stats().misses
    };
    let in_memory = route_tables(Campaign::new(schedule(10)));
    let path = tmp_path("ckpt_route_tables.txt");
    let checkpointed = route_tables(Campaign::new(schedule(10)).checkpoint(&path));
    assert!(in_memory > 0);
    assert_eq!(
        checkpointed, in_memory,
        "a checkpointed campaign must compute each route table once, like the in-memory one"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_of_another_pair_list_is_remeasured_not_replayed() {
    let net = dynamic_network(7);
    let mesh = full_mesh_pairs(6);
    let (list_a, list_b) = (&mesh[..10], &mesh[10..20]);
    let campaign =
        |path: &Path| Campaign::new(schedule(2)).faults(lossy_profile()).checkpoint(path);

    let fresh_path = tmp_path("ckpt_fresh_b.txt");
    let (want, want_report) = run(&campaign(&fresh_path), &net, list_b);

    // Same block size (pairs × protocols), same schedule, other pairs.
    let path = tmp_path("ckpt_stale_a.txt");
    run(&campaign(&path), &net, list_a);
    let (got, report) = run(&campaign(&path), &net, list_b);
    assert_eq!(got, want, "a foreign block must not be folded into list B's timelines");
    assert_eq!(report, want_report);
    assert_eq!(report.resumed_slots, 0);
    assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&fresh_path).unwrap());
    for p in [path, fresh_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn worker_panic_in_checkpointed_run_poisons_its_pairs_and_leaves_a_prefix() {
    let net = dynamic_network(11);
    let pairs = full_mesh_pairs(4); // 12 pairs: three chunks of four
    let bad = pairs[5];
    let cfg = CampaignConfig { threads: 3, ..schedule(2) };
    let campaign = |path: &Path| Campaign::new(cfg.clone()).faults(lossy_profile()).checkpoint(path);
    let panic_from = SimTime::from_hours(24); // instant 8 of 16
    let panicking = |c: Campaign| {
        c.run_traceroute_with(
            &net,
            &pairs,
            |_, _| TraceOptions::default(),
            |_, _, _| Vec::new(),
            |acc: &mut Vec<String>, rec| {
                assert!(
                    (rec.src, rec.dst) != bad || rec.t < panic_from,
                    "injected worker failure for pair {bad:?}"
                );
                acc.push(traceroute_to_line(&rec));
            },
        )
        .expect("a worker panic is not a campaign failure")
    };

    let full_path = tmp_path("ckpt_panic_full.txt");
    let (want, _) = run(&campaign(&full_path), &net, &pairs);
    let full = std::fs::read(&full_path).unwrap();

    // The panicking worker poisons only its own chunk, exactly as in memory.
    let path = tmp_path("ckpt_panic.txt");
    let (accs, report) = panicking(campaign(&path));
    let in_memory = panicking(Campaign::new(cfg.clone()).faults(lossy_profile()));
    assert_eq!((&accs, &report), (&in_memory.0, &in_memory.1));
    assert_eq!(report.worker_panics, 1);
    assert_eq!(report.poisoned_pairs, pairs[4..8].to_vec());
    for (slot, acc) in accs.iter().enumerate() {
        if report.poisoned_pairs.contains(&pairs[slot / 2]) {
            assert!(acc.is_empty(), "slot {slot}: a poisoned pair folds nothing");
        } else {
            assert_eq!(acc, &want[slot], "slot {slot}: healthy pairs are untouched");
        }
    }

    // The file holds exactly the instants every chunk finished: a byte
    // prefix of the uninterrupted run's file.
    let partial = std::fs::read(&path).unwrap();
    assert!(full.starts_with(&partial) && partial.len() < full.len());
    assert!(partial.ends_with(b"E|7\n"), "blocks 0..8 precede the panic");

    // A rerun without the panic replays the prefix and finishes the file.
    let (accs, report) = run(&campaign(&path), &net, &pairs);
    assert_eq!(accs, want);
    assert_eq!(report.resumed_slots, 8 * pairs.len() * 2);
    assert_eq!(std::fs::read(&path).unwrap(), full);
    for p in [path, full_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn ping_checkpoint_of_another_pair_list_is_remeasured_not_replayed() {
    let net = dynamic_network(7);
    let mesh = full_mesh_pairs(6);
    let (list_a, list_b) = (&mesh[..10], &mesh[10..20]);
    let cfg = CampaignConfig { interval: SimDuration::from_minutes(30), ..schedule(1) };
    let campaign = |path: &Path| Campaign::new(cfg.clone()).faults(lossy_profile()).checkpoint(path);
    let series = |tls: &[s2s_probe::PingTimeline]| -> Vec<_> {
        tls.iter()
            .map(|tl| (tl.src, tl.dst, tl.proto, tl.rtts.iter().map(|r| r.to_bits()).collect::<Vec<_>>()))
            .collect()
    };

    let fresh_path = tmp_path("ping_ckpt_fresh_b.txt");
    let (want, want_report) = campaign(&fresh_path).run_ping(&net, list_b).unwrap();

    // Same block size (protocols per pair), same schedule, other pairs.
    let path = tmp_path("ping_ckpt_stale_a.txt");
    campaign(&path).run_ping(&net, list_a).unwrap();
    let (got, report) = campaign(&path).run_ping(&net, list_b).unwrap();
    assert_eq!(series(&got), series(&want), "a foreign block must not be replayed");
    assert_eq!(report, want_report);
    assert_eq!(report.resumed_slots, 0);
    assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&fresh_path).unwrap());
    for p in [path, fresh_path] {
        let _ = std::fs::remove_file(p);
    }
}
