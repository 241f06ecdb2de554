//! Integration: the extended task suite (gossip, election, construction,
//! exploration) across crates — every §1.1/§1.2 task end to end, with
//! outputs verified by independent checkers.

use oraclesize::core::construction::{
    collect_parent_ports, verify_bfs_tree, verify_mst, verify_spanning, BfsTreeOracle,
    DistributedBfs, MstOracle, ZeroMessageTree,
};
use oraclesize::core::election::{verify_election, AnnouncedLeader, ElectionOracle, FloodMax};
use oraclesize::core::gossip::{decode_gossip_output, GossipOracle, TreeGossip};
use oraclesize::core::spanner::{collect_port_sets, verify_spanner};
use oraclesize::explore::agent::{walk, WalkConfig};
use oraclesize::explore::oracle::tour_advice;
use oraclesize::explore::strategies::{DfsBacktrack, GuidedTour};
use oraclesize::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn all_tasks_complete_on_the_same_network() {
    let mut rng = StdRng::seed_from_u64(101);
    let g = families::random_connected(72, 0.15, &mut rng);
    let n = g.num_nodes();

    // Gossip: everyone learns everything, 2(n−1) messages.
    let gossip = execute(
        &g,
        0,
        &GossipOracle::default(),
        &TreeGossip,
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(gossip.outcome.metrics.messages, 2 * (n as u64 - 1));
    assert_eq!(gossip.outcome.outputs.len(), n);
    for out in &gossip.outcome.outputs {
        let set = decode_gossip_output(out.as_ref().unwrap()).unwrap();
        assert_eq!(set.len(), n);
    }

    // Election: n−1 messages with the oracle, agreement verified.
    let election = execute(
        &g,
        5,
        &ElectionOracle,
        &AnnouncedLeader,
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(election.outcome.metrics.messages, n as u64 - 1);
    assert_eq!(
        verify_election(&g, &election.outcome.outputs, false).unwrap(),
        g.label(5)
    );

    // Construction: zero messages, verified BFS tree and MST.
    let bfs = execute(
        &g,
        0,
        &BfsTreeOracle,
        &ZeroMessageTree,
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(bfs.outcome.metrics.messages, 0);
    verify_bfs_tree(&g, 0, &collect_parent_ports(&bfs.outcome.outputs).unwrap()).unwrap();

    let mst = execute(&g, 0, &MstOracle, &ZeroMessageTree, &SimConfig::default()).unwrap();
    verify_mst(&g, 0, &collect_parent_ports(&mst.outcome.outputs).unwrap()).unwrap();

    // Exploration: exactly 2(n−1) moves with the tour oracle.
    let tour = walk(
        &g,
        0,
        &tour_advice(&g, 0),
        &mut GuidedTour::new(),
        &WalkConfig::default(),
    );
    assert!(tour.covered_all);
    assert_eq!(tour.moves, 2 * (n as u64 - 1));
}

#[test]
fn task_oracle_sizes_ranked_by_information_content() {
    // On a fixed dense network: election flag+tree ≈ wakeup tree <
    // gossip (adds parent ports) ≪ neighborhood(1) ≪ full map.
    use oraclesize::core::neighborhood::NeighborhoodOracle;
    let g = families::complete_rotational(64);
    let broadcast = advice_size(&LightTreeOracle.advise(&g, 0));
    let wakeup = advice_size(&SpanningTreeOracle::default().advise(&g, 0));
    let gossip = advice_size(&GossipOracle::default().advise(&g, 0));
    let ball1 = advice_size(&NeighborhoodOracle::new(1).advise(&g, 0));
    let full = advice_size(&FullMapOracle.advise(&g, 0));
    assert!(broadcast < wakeup, "{broadcast} vs {wakeup}");
    assert!(wakeup < gossip + 8 * 64, "{wakeup} vs {gossip}");
    assert!(gossip < ball1, "{gossip} vs {ball1}");
    // On K_n the radius-1 ball IS the whole graph; the two full-topology
    // encodings differ only by codec (γ vs fixed-width), within 2×.
    assert!(ball1 <= 2 * full, "{ball1} vs {full}");
    assert!(full <= 2 * ball1, "{full} vs {ball1}");
}

#[test]
fn advice_free_comparators_cost_strictly_more_messages() {
    let mut rng = StdRng::seed_from_u64(102);
    let g = families::random_connected(48, 0.3, &mut rng);
    let n = g.num_nodes() as u64;

    let floodmax = execute(&g, 0, &EmptyOracle, &FloodMax, &SimConfig::default()).unwrap();
    verify_election(&g, &floodmax.outcome.outputs, true).unwrap();
    assert!(floodmax.outcome.metrics.messages > 4 * n);

    let dbfs = execute(&g, 0, &EmptyOracle, &DistributedBfs, &SimConfig::default()).unwrap();
    verify_bfs_tree(&g, 0, &collect_parent_ports(&dbfs.outcome.outputs).unwrap()).unwrap();
    assert!(dbfs.outcome.metrics.messages > 2 * n);

    let empty = vec![oraclesize::bits::BitString::new(); g.num_nodes()];
    let dfs = walk(
        &g,
        0,
        &empty,
        &mut DfsBacktrack::new(),
        &WalkConfig::default(),
    );
    assert!(dfs.covered_all);
    assert!(dfs.moves > 2 * (n - 1));
}

#[test]
fn tasks_work_async_and_with_every_scheduler() {
    let mut rng = StdRng::seed_from_u64(103);
    let g = families::random_connected(40, 0.2, &mut rng);
    let n = g.num_nodes();
    for kind in SchedulerKind::sweep(21) {
        let cfg = SimConfig::broadcast().with_scheduler(kind);
        let gossip = execute(&g, 0, &GossipOracle::default(), &TreeGossip, &cfg).unwrap();
        assert_eq!(
            gossip.outcome.metrics.messages,
            2 * (n as u64 - 1),
            "{}",
            kind.name()
        );
        let election = execute(&g, 3, &ElectionOracle, &AnnouncedLeader, &cfg).unwrap();
        verify_election(&g, &election.outcome.outputs, false).unwrap();
        let floodmax = execute(&g, 0, &EmptyOracle, &FloodMax, &cfg).unwrap();
        verify_election(&g, &floodmax.outcome.outputs, true).unwrap();
    }
}

#[test]
fn single_node_degenerate_cases() {
    let g = PortGraph::from_adjacency(vec![vec![]]).unwrap();
    let gossip = execute(
        &g,
        0,
        &GossipOracle::default(),
        &TreeGossip,
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(gossip.outcome.metrics.messages, 0);
    let election = execute(
        &g,
        0,
        &ElectionOracle,
        &AnnouncedLeader,
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(
        verify_election(&g, &election.outcome.outputs, true).unwrap(),
        0
    );
    let bfs = execute(
        &g,
        0,
        &BfsTreeOracle,
        &ZeroMessageTree,
        &SimConfig::default(),
    )
    .unwrap();
    verify_bfs_tree(&g, 0, &collect_parent_ports(&bfs.outcome.outputs).unwrap()).unwrap();
}

#[test]
fn every_verifier_rejects_empty_outputs() {
    // A run in which no node outputs returns an empty `outputs`: a check
    // over every node's output must fail on its length, not pass
    // vacuously.
    let g = families::cycle(6);
    let flood = execute(&g, 0, &EmptyOracle, &FloodOnce, &SimConfig::broadcast()).unwrap();
    let outputs = &flood.outcome.outputs;
    assert!(outputs.is_empty());
    assert!(verify_election(&g, outputs, false).is_err());
    assert!(verify_election(&g, outputs, true).is_err());
    let ports = collect_parent_ports(outputs).unwrap();
    assert!(verify_spanning(&g, 0, &ports).is_err());
    assert!(verify_bfs_tree(&g, 0, &ports).is_err());
    assert!(verify_mst(&g, 0, &ports).is_err());
    let sets = collect_port_sets(outputs).unwrap();
    assert!(verify_spanner(&g, &sets, 3).is_err());
}
