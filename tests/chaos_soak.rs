//! Chaos soak: random interleavings of calls, deferred increments,
//! migrations, pulls, adaptation passes and crash/restart cycles over a
//! pool of counter objects, checked against the exact single-address-space
//! oracle. Whatever the boundary history, every op must return exactly what
//! a single-address-space run would have — the paper's interchangeability
//! claim under adversarial schedules.
//!
//! Each property is one distribution policy plus a drop rate over the E16
//! soak application's `Item`/`Acct`/`Tally` counters, driven by the same
//! [`SoakHarness`] the production-day gate (`tests/soak.rs`) uses: the
//! coordinator (the highest node id) creates the pool and issues every op,
//! each value-returning op is checked against the oracle as it returns, and
//! the run ends with the harness finale — restart, touch every object,
//! quiescent invariant sweep with all monitors armed. Schedules come from
//! the shared op vocabulary ([`rafda::corpus::ops`]) at per-feature mixes.

use proptest::prelude::*;
use rafda::corpus::ops::{ChurnConfig, OpMix, SoakOp};
use rafda::soak::{soak_app, SoakHarness};
use rafda::{NodeId, Placement, RuntimeStats, StaticPolicy};

const POOL: usize = 4;
const NODES: u32 = 3;

const FO_NODES: u32 = 4;
const FO_POOL: usize = 6;

/// A cluster of `nodes` nodes (the last one the coordinator) driving a
/// pool laid out as `[items][accts][tallys]`.
fn shape(seed: u64, nodes: u32, [items, accts, tallys]: [usize; 3]) -> ChurnConfig {
    ChurnConfig {
        nodes: nodes as u8,
        items,
        accts,
        tallys,
        ..ChurnConfig::production_day(seed, 0)
    }
}

/// Deploy the soak application under `policy` with `drop` of all frames
/// lost, drive `ops` through the harness and end with its finale. Returns
/// the run's counters and final simulated clock.
fn run(
    cfg: &ChurnConfig,
    policy: StaticPolicy,
    drop: f64,
    ops: &[SoakOp],
) -> Result<(RuntimeStats, u64), TestCaseError> {
    let cluster = soak_app()
        .transform(&["RMI"])
        .expect("soak app transforms")
        .deploy(u32::from(cfg.nodes), cfg.seed, Box::new(policy));
    cluster.network().fault_plan(|f| f.drop_probability = drop);
    let mut harness = SoakHarness::new(cluster, cfg);
    harness.run(ops).map_err(TestCaseError::fail)?;
    let cluster = harness.cluster();
    Ok((cluster.stats(), cluster.network().now().as_ns()))
}

/// Items on node 0, accounts on node 1: every object starts off the
/// coordinator (node 2), so the first ops cross the wire and migrations
/// move objects between all three nodes.
fn off_coordinator() -> StaticPolicy {
    StaticPolicy::new()
        .place("Item", Placement::Node(NodeId(0)))
        .place("Acct", Placement::Node(NodeId(1)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn boundary_chaos_never_changes_observable_values(
        ops in prop::collection::vec(OpMix::boundary(POOL, NODES as u8).strategy(), 1..60),
        seed in 0u64..1000,
    ) {
        run(&shape(seed, NODES, [2, 2, 0]), off_coordinator(), 0.0, &ops)?;
    }

    /// Fault-tolerant chaos: the same op schedule run fault-free and under
    /// a 10% message drop rate must both be oracle-exact — the
    /// retry/at-most-once machinery absorbs every loss without ever
    /// double-applying a mutation.
    #[test]
    fn drop_chaos_matches_fault_free_run_exactly(
        ops in prop::collection::vec(OpMix::boundary(POOL, NODES as u8).strategy(), 1..40),
        seed in 0u64..500,
    ) {
        let cfg = shape(seed, NODES, [2, 2, 0]);
        let (clean_stats, _) = run(&cfg, off_coordinator(), 0.0, &ops)?;
        let (chaos_stats, _) = run(&cfg, off_coordinator(), 0.10, &ops)?;
        prop_assert_eq!(clean_stats.retries, 0);
        prop_assert_eq!(clean_stats.dedup_hits, 0);
        prop_assert_eq!(chaos_stats.net_failures, 0, "an exchange exhausted its budget");
    }

    /// Crash-stop chaos on top of message drops: `Item`, `Acct` and
    /// `Tally` owned by nodes 0, 1 and 2, each replicated with k = 2, a
    /// coordinator (node 3) that never crashes and is never a replica
    /// target (backups prefer low node ids, so every failover really
    /// crosses the wire), and a random crash/restart schedule over nodes
    /// 0–2 with at most one node down at a time. Every call must still
    /// return exactly the oracle value — no lost object, no lost update,
    /// no double apply — and the same seed must reproduce the run
    /// byte-for-byte, failover counters and clock included.
    #[test]
    fn crash_stop_chaos_loses_nothing_and_stays_deterministic(
        ops in prop::collection::vec(OpMix::crash_stop(FO_POOL, 3).strategy(), 1..50),
        seed in 0u64..500,
    ) {
        let cfg = shape(seed, FO_NODES, [2, 2, 2]);
        let policy = || {
            ["Item", "Acct", "Tally"]
                .into_iter()
                .zip(0..)
                .fold(StaticPolicy::new(), |p, (class, node)| {
                    p.place(class, Placement::Node(NodeId(node))).replicate(class, 2)
                })
        };
        let (a_stats, a_now) = run(&cfg, policy(), 0.10, &ops)?;
        let (b_stats, b_now) = run(&cfg, policy(), 0.10, &ops)?;
        prop_assert_eq!(a_stats, b_stats, "failover counters must be deterministic");
        prop_assert_eq!(a_now, b_now, "simulated clock diverged");
    }

    /// Batched-invocation chaos (experiment **E12**'s safety half): the
    /// same schedule of void increments, value-returning adds and boundary
    /// moves over four tallies must return oracle-exact values whether
    /// batching is off, on, or on *while* 10% of frames are dropped —
    /// retransmitted batch frames must dedup as a unit, never
    /// double-applying a deferred op.
    #[test]
    fn batched_boundary_chaos_matches_oracle(
        ops in prop::collection::vec(OpMix::batched(POOL, NODES as u8).strategy(), 1..50),
        seed in 0u64..500,
    ) {
        let cfg = shape(seed, NODES, [0, 0, POOL]);
        let policy = |batch: bool| {
            StaticPolicy::new()
                .place("Tally", Placement::Node(NodeId(0)))
                .batch("Tally", batch)
        };
        let (off_stats, _) = run(&cfg, policy(false), 0.0, &ops)?;
        run(&cfg, policy(true), 0.0, &ops)?;
        let (chaos_stats, _) = run(&cfg, policy(true), 0.10, &ops)?;
        // With batching off, the machinery must be provably inert.
        prop_assert_eq!(off_stats.batched_ops, 0);
        prop_assert_eq!(off_stats.flushes, 0);
        prop_assert_eq!(chaos_stats.net_failures, 0, "an exchange exhausted its budget");
    }
}
