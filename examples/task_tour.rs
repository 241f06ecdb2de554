//! A tour of every task in the library on one network: the oracle-size
//! measure applied across the paper's §1.1/§1.2 task list.
//!
//! For each task, the knowledge cost (oracle bits) and the communication
//! cost (messages) of the advice-assisted solution, next to its advice-free
//! comparator.
//!
//! Run with: `cargo run --release --example task_tour`

use oraclesize::core::construction::{
    collect_parent_ports, verify_bfs_tree, BfsTreeOracle, DistributedBfs, ZeroMessageTree,
};
use oraclesize::core::election::{verify_election, AnnouncedLeader, ElectionOracle, FloodMax};
use oraclesize::core::gossip::{decode_gossip_output, GossipOracle, TreeGossip};
use oraclesize::prelude::*;

fn main() -> Result<(), oraclesize::sim::SimError> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(2006);
    let g = families::random_connected(96, 0.12, &mut rng);
    let n = g.num_nodes();
    println!(
        "network: random connected, n = {n}, m = {}\n",
        g.num_edges()
    );
    println!(
        "{:<14} | {:>12} {:>9} | {:>16} {:>9}",
        "task", "oracle bits", "messages", "comparator", "messages"
    );

    // Broadcast.
    let b = execute(&g, 0, &LightTreeOracle, &SchemeB, &SimConfig::default())?;
    let bf = execute(&g, 0, &EmptyOracle, &FloodOnce, &SimConfig::default())?;
    assert!(b.outcome.all_informed() && bf.outcome.all_informed());
    println!(
        "{:<14} | {:>12} {:>9} | {:>16} {:>9}",
        "broadcast",
        b.oracle_bits,
        b.outcome.metrics.messages,
        "flooding",
        bf.outcome.metrics.messages
    );

    // Wakeup.
    let w = execute(
        &g,
        0,
        &SpanningTreeOracle::default(),
        &TreeWakeup,
        &SimConfig::wakeup(),
    )?;
    let wf = execute(&g, 0, &EmptyOracle, &FloodOnce, &SimConfig::wakeup())?;
    println!(
        "{:<14} | {:>12} {:>9} | {:>16} {:>9}",
        "wakeup",
        w.oracle_bits,
        w.outcome.metrics.messages,
        "flooding",
        wf.outcome.metrics.messages
    );

    // Gossip.
    let go = execute(
        &g,
        0,
        &GossipOracle::default(),
        &TreeGossip,
        &SimConfig::default(),
    )?;
    let complete = go.outcome.outputs.len() == n
        && go.outcome.outputs.iter().all(|o| {
            o.as_ref()
                .and_then(decode_gossip_output)
                .is_some_and(|s| s.len() == n)
        });
    assert!(complete);
    println!(
        "{:<14} | {:>12} {:>9} | {:>16} {:>9}",
        "gossip", go.oracle_bits, go.outcome.metrics.messages, "(no comparator)", "-"
    );

    // Leader election.
    let e = execute(
        &g,
        0,
        &ElectionOracle,
        &AnnouncedLeader,
        &SimConfig::default(),
    )?;
    verify_election(&g, &e.outcome.outputs, false).expect("agreement");
    let ef = execute(&g, 0, &EmptyOracle, &FloodMax, &SimConfig::default())?;
    verify_election(&g, &ef.outcome.outputs, true).expect("max elected");
    println!(
        "{:<14} | {:>12} {:>9} | {:>16} {:>9}",
        "election",
        e.oracle_bits,
        e.outcome.metrics.messages,
        "flood-max",
        ef.outcome.metrics.messages
    );

    // BFS-tree construction.
    let c = execute(
        &g,
        0,
        &BfsTreeOracle,
        &ZeroMessageTree,
        &SimConfig::default(),
    )?;
    let ports = collect_parent_ports(&c.outcome.outputs).expect("outputs decode");
    verify_bfs_tree(&g, 0, &ports).expect("valid BFS tree");
    let cf = execute(&g, 0, &EmptyOracle, &DistributedBfs, &SimConfig::default())?;
    println!(
        "{:<14} | {:>12} {:>9} | {:>16} {:>9}",
        "bfs-tree",
        c.oracle_bits,
        c.outcome.metrics.messages,
        "distributed-bfs",
        cf.outcome.metrics.messages
    );

    println!(
        "\nacross every task, the oracle converts Θ(m)-and-worse communication into \
         linear (or zero) messages;\nthe *size* of the advice needed is the paper's \
         measure of how hard the task is."
    );
    Ok(())
}
