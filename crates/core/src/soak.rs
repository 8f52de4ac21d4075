//! The production-day soak harness (experiment **E16**).
//!
//! One seeded churn schedule ([`rafda_corpus::ops::generate_churn`]) drives
//! an auction-shaped application over a six-node cluster through every
//! distribution feature at once — sharding with replica reads (`Item`),
//! property caching (`Acct`), invocation batching (`Tally`), k = 2
//! replication and crash-stop failover, migrations and pulls, affinity
//! adaptation and shard rebalancing, all under a 5 % message-drop rate —
//! and checks each op against the exact single-address-space
//! [`Oracle`].
//!
//! [`SoakHarness::apply`] is the one interpreter of the [`SoakOp`]
//! alphabet in the workspace. [`SoakHarness::deploy`] builds the E16
//! cluster; [`SoakHarness::new`] wraps any deployment of [`soak_app`] —
//! the per-feature chaos properties (`tests/chaos_soak.rs`) are each one
//! distribution policy and drop rate over it. The harness is shared by
//! the soak gate (`tests/soak.rs`), the chaos properties, the
//! E16 bench (`crates/bench/benches/e16_soak.rs`) and the experiments
//! report:
//!
//! * [`run_schedule`] drives a phased schedule under a [`SoakRecorder`],
//!   checking invariants at every phase boundary, and returns the
//!   deterministic [`SoakReport`];
//! * [`run_flat`] drives a bare op slice and reports the first divergence —
//!   the case closure the shrinker (`proptest::shrink`) replays while
//!   minimising a failing trace.
//!
//! The accounting around a phased run lives here too: a [`SoakRecorder`]
//! snapshots the cluster's counters at every phase boundary, counts the
//! ops applied per kind, and [`SoakRecorder::finish`] runs the
//! quiescent-point invariant sweep ([`Cluster::check_invariants`]) to fold
//! the monitor verdicts into a [`SoakReport`]. Everything in the report
//! derives from the simulated clock and the deterministic counters, so
//! equal seeds render byte-identical reports — `ci.sh` diffs the text
//! across two runs, exactly as it does for the experiment report and the
//! metric exports.

use crate::classmodel::builder::{ClassBuilder, MethodBuilder};
use crate::classmodel::{ClassKind, Field};
use crate::corpus::ops::{ChurnConfig, ChurnSchedule, Oracle, PoolClass, SoakOp};
use crate::telemetry::standard_monitors;
use crate::{
    AffinityConfig, Application, Cluster, NodeId, Placement, RetryPolicy, RuntimeStats,
    StaticPolicy, Ty, Value, Violation,
};
use std::collections::BTreeMap;
use std::fmt;

/// Shard count for the `Item` class (`shard Item by get_k modulo 8`).
pub const SHARD_MODULO: u32 = 8;

/// Message-drop probability the whole soak runs under.
pub const DROP_PROBABILITY: f64 = 0.05;

/// Append one counter-shaped class to `app`.
///
/// Every class carries an `int v` balance and a value-returning mutator
/// (`v += d; return v`). `keyed` adds an `int k` field set by the ctor
/// (the shard key for `Item`); `with_inc` adds a `void inc(int)` — the
/// deferrable fire-and-forget op batching coalesces.
fn add_class(app: &mut Application, name: &str, keyed: bool, mutator: &str, with_inc: bool) {
    let u = app.universe_mut();
    let c = u.declare(name, ClassKind::Class);
    let mut cb = ClassBuilder::new(u, c);
    let k = keyed.then(|| cb.field(Field::new("k", Ty::Int)));
    let v = cb.field(Field::new("v", Ty::Int));
    if let Some(k) = k {
        let mut mb = MethodBuilder::new(2);
        mb.load_this().load_local(1).put_field(c, k).ret();
        cb.ctor(u, vec![Ty::Int], Some(mb.finish()));
    } else {
        let mut mb = MethodBuilder::new(1);
        mb.ret();
        cb.ctor(u, vec![], Some(mb.finish()));
    }
    let mut mb = MethodBuilder::new(2);
    mb.load_this();
    mb.load_this().get_field(c, v);
    mb.load_local(1).add();
    mb.put_field(c, v);
    mb.load_this().get_field(c, v).ret_value();
    cb.method(u, mutator, vec![Ty::Int], Ty::Int, Some(mb.finish()));
    if with_inc {
        let mut mb = MethodBuilder::new(2);
        mb.load_this();
        mb.load_this().get_field(c, v);
        mb.load_local(1).add();
        mb.put_field(c, v);
        mb.ret();
        cb.method(u, "inc", vec![Ty::Int], Ty::Void, Some(mb.finish()));
    }
    cb.finish(u);
}

/// The auction-shaped soak application: `Item { k, v; bid }` (sharded,
/// replica reads), `Acct { v; add }` (cached) and `Tally { v; add, inc }`
/// (batched).
pub fn soak_app() -> Application {
    let mut app = Application::new();
    add_class(&mut app, "Item", true, "bid", false);
    add_class(&mut app, "Acct", false, "add", false);
    add_class(&mut app, "Tally", false, "add", true);
    app
}

/// A deployed soak cluster plus the object pool and crash bookkeeping:
/// feed it [`SoakOp`]s via [`SoakHarness::apply`].
#[derive(Debug)]
pub struct SoakHarness {
    cluster: Cluster,
    objs: Vec<Value>,
    classes: Vec<PoolClass>,
    coord: NodeId,
    affinity: AffinityConfig,
    down: Option<NodeId>,
}

impl SoakHarness {
    /// Transform and deploy the soak application per `cfg`: statics and
    /// the driving client on the coordinator (the highest node id, never
    /// crashed), `Item` sharded over [`SHARD_MODULO`] shards with replica
    /// reads, `Acct` cached on node 1, `Tally` batched on node 2 — all
    /// three replicated k = 2 — under the [`DROP_PROBABILITY`]
    /// message-drop rate, then hand the cluster to [`SoakHarness::new`].
    pub fn deploy(cfg: &ChurnConfig) -> SoakHarness {
        let coord = NodeId(u32::from(cfg.nodes) - 1);
        let policy = StaticPolicy::new()
            .default_statics(coord)
            .shard("Item", "get_k", SHARD_MODULO)
            .replicate("Item", 2)
            .replica_reads("Item", true)
            .place("Acct", Placement::Node(NodeId(1)))
            .cache("Acct", true)
            .replicate("Acct", 2)
            .place("Tally", Placement::Node(NodeId(2)))
            .batch("Tally", true)
            .replicate("Tally", 2);
        let cluster = soak_app()
            .transform(&["RMI"])
            .expect("soak app transforms")
            .deploy(u32::from(cfg.nodes), cfg.seed, Box::new(policy));
        cluster
            .network()
            .fault_plan(|f| f.drop_probability = DROP_PROBABILITY);
        SoakHarness::new(cluster, cfg)
    }

    /// Drive a deployment of [`soak_app`] with `cfg`'s pool layout: raise
    /// retries to 10 attempts (enough to absorb a 10 % drop rate), enable
    /// the monitors, and create the whole `[items][accts][tallys]` pool
    /// at — and pin it on — the coordinator, node `cfg.nodes − 1`, which
    /// then issues every op. Where each object lives is the cluster's
    /// policy; set any drop rate before calling this, as
    /// [`SoakHarness::deploy`] does.
    pub fn new(cluster: Cluster, cfg: &ChurnConfig) -> SoakHarness {
        let coord = NodeId(u32::from(cfg.nodes) - 1);
        cluster.set_retry_policy(RetryPolicy {
            max_attempts: 10,
            ..RetryPolicy::default()
        });
        cluster.enable_monitors();
        let classes: Vec<PoolClass> = (0..cfg.pool()).map(|idx| cfg.class_of(idx)).collect();
        let objs: Vec<Value> = classes
            .iter()
            .enumerate()
            .map(|(idx, class)| {
                let obj = match class {
                    PoolClass::Item => cluster
                        .new_instance(coord, "Item", 0, vec![Value::Int(idx as i32)])
                        .expect("create Item"),
                    PoolClass::Acct => cluster
                        .new_instance(coord, "Acct", 0, vec![])
                        .expect("create Acct"),
                    PoolClass::Tally => cluster
                        .new_instance(coord, "Tally", 0, vec![])
                        .expect("create Tally"),
                };
                cluster.pin(coord, &obj);
                obj
            })
            .collect();
        SoakHarness {
            cluster,
            objs,
            classes,
            coord,
            affinity: AffinityConfig {
                min_calls: 4,
                min_fraction: 0.5,
            },
            down: None,
        }
    }

    /// The deployed cluster (for recorders and invariant sweeps).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The coordinator-side reference of pool object `idx`.
    pub fn obj(&self, idx: usize) -> &Value {
        &self.objs[idx]
    }

    /// The value-returning mutator of pool object `idx` (`bid` on items,
    /// `add` elsewhere).
    fn mutator(&self, idx: usize) -> &'static str {
        match self.classes[idx] {
            PoolClass::Item => "bid",
            PoolClass::Acct | PoolClass::Tally => "add",
        }
    }

    /// Restart the down node (if any) and re-ship every backup.
    ///
    /// A restarted node rejoins the replica sync set at the next served
    /// mutation, so every pool object is touched with a delta-0 mutation —
    /// which must also return the oracle value exactly — before any
    /// further crash can take the last current copy.
    fn heal(&mut self, oracle: &Oracle) -> Result<(), String> {
        if let Some(d) = self.down.take() {
            self.cluster.restart(d);
            self.touch_all(oracle)?;
        }
        Ok(())
    }

    /// Delta-0 mutation on every pool object, checked against the oracle.
    fn touch_all(&self, oracle: &Oracle) -> Result<(), String> {
        for (idx, obj) in self.objs.iter().enumerate() {
            let method = self.mutator(idx);
            let r = self
                .cluster
                .call_method(self.coord, obj.clone(), method, vec![Value::Int(0)])
                .map_err(|e| format!("touch #{idx} ({method}): {e}"))?;
            let expected = oracle.values()[idx];
            if r != Value::Int(expected) {
                return Err(format!(
                    "touch #{idx} ({method}): returned {r:?}, oracle says {expected}"
                ));
            }
        }
        Ok(())
    }

    /// Apply one schedule op, stepping the oracle alongside and checking
    /// every observable return value against it.
    ///
    /// Boundary ops (`Migrate` / `Pull`) whose current location or target
    /// is the down node are skipped: the contract there is a typed
    /// `Unreachable` error, not failover, and the schedule stays
    /// deterministic because the skip depends only on simulated state.
    ///
    /// # Errors
    /// The first divergence — a wrong return value, a failed exchange, or
    /// a vanished object — formatted with the offending op.
    pub fn apply(&mut self, op: &SoakOp, oracle: &mut Oracle) -> Result<(), String> {
        let coord = self.coord;
        match *op {
            SoakOp::Call { idx, delta } => {
                let expected = oracle.step(op).expect("Call returns a value");
                let method = self.mutator(idx);
                let r = self
                    .cluster
                    .call_method(
                        coord,
                        self.objs[idx].clone(),
                        method,
                        vec![Value::Int(i32::from(delta))],
                    )
                    .map_err(|e| format!("{op}: {e}"))?;
                if r != Value::Int(expected) {
                    return Err(format!("{op}: returned {r:?}, oracle says {expected}"));
                }
            }
            SoakOp::Inc { idx, delta } => {
                oracle.step(op);
                self.cluster
                    .call_method(
                        coord,
                        self.objs[idx].clone(),
                        "inc",
                        vec![Value::Int(i32::from(delta))],
                    )
                    .map_err(|e| format!("{op}: {e}"))?;
            }
            SoakOp::Read { idx } => {
                let expected = oracle.step(op).expect("Read returns a value");
                let r = self
                    .cluster
                    .call_method(coord, self.objs[idx].clone(), "get_v", vec![])
                    .map_err(|e| format!("{op}: {e}"))?;
                if r != Value::Int(expected) {
                    return Err(format!("{op}: read {r:?}, oracle says {expected}"));
                }
            }
            SoakOp::Migrate { idx, node } => {
                oracle.step(op);
                let target = NodeId(u32::from(node));
                if self.down == Some(target) {
                    return Ok(());
                }
                match self.cluster.home_of(coord, &self.objs[idx]) {
                    // Third-party migration, issued at the owner: the
                    // coordinator's warmed caches must be tombstoned
                    // remotely for later reads to stay fresh.
                    Some((owner, handle)) => {
                        if self.down == Some(owner) || owner == target {
                            return Ok(());
                        }
                        self.cluster
                            .migrate(owner, handle, target)
                            .map_err(|e| format!("{op}: {e}"))?;
                    }
                    // Forwarding chain or unreachable owner: collapse it
                    // by pulling the object local instead.
                    None => {
                        let Some(loc) = self.cluster.location_of(coord, &self.objs[idx]) else {
                            return Err(format!("{op}: object vanished"));
                        };
                        if self.down == Some(loc) || loc == coord {
                            return Ok(());
                        }
                        let h = self.objs[idx]
                            .as_ref_handle()
                            .expect("pool objects are refs");
                        self.cluster
                            .pull_local(coord, h)
                            .map_err(|e| format!("{op}: {e}"))?;
                    }
                }
            }
            SoakOp::Pull { idx } => {
                oracle.step(op);
                let Some(loc) = self.cluster.location_of(coord, &self.objs[idx]) else {
                    return Err(format!("{op}: object vanished"));
                };
                if self.down == Some(loc) || loc == coord {
                    return Ok(());
                }
                let h = self.objs[idx]
                    .as_ref_handle()
                    .expect("pool objects are refs");
                self.cluster
                    .pull_local(coord, h)
                    .map_err(|e| format!("{op}: {e}"))?;
            }
            SoakOp::Adapt => {
                oracle.step(op);
                self.cluster.adapt(&self.affinity);
            }
            SoakOp::Rebalance => {
                oracle.step(op);
                self.cluster.rebalance_shards(&self.affinity);
            }
            SoakOp::Crash { node } => {
                oracle.step(op);
                self.heal(oracle)?;
                let target = NodeId(u32::from(node));
                self.cluster.crash(target);
                self.down = Some(target);
            }
            SoakOp::Heal => {
                oracle.step(op);
                self.heal(oracle)?;
            }
        }
        Ok(())
    }

    /// Quiesce and verify: restart the down node, touch every object
    /// (replica convergence plus an oracle-exact final sweep) and run the
    /// quiescent-point invariant sweep.
    ///
    /// # Errors
    /// The first divergence or invariant violation, formatted.
    pub fn finale(&mut self, oracle: &Oracle) -> Result<(), String> {
        self.heal(oracle)?;
        self.touch_all(oracle)?;
        let violations = self.cluster.check_invariants();
        if let Some(first) = violations.first() {
            return Err(format!(
                "{} invariant violation(s), first: {first}",
                violations.len()
            ));
        }
        Ok(())
    }

    /// Apply a bare op slice against a fresh oracle and end with
    /// [`SoakHarness::finale`] — a whole run on a freshly built harness.
    ///
    /// # Errors
    /// The first divergence, prefixed with its op index, or the finale's.
    pub fn run(&mut self, ops: &[SoakOp]) -> Result<(), String> {
        let mut oracle = Oracle::new(self.objs.len());
        for (i, op) in ops.iter().enumerate() {
            self.apply(op, &mut oracle)
                .map_err(|e| format!("op {i}: {e}"))?;
        }
        self.finale(&oracle)
    }

    /// Arm the E10 cache-coherence canary: the next migration's tombstone
    /// broadcast is silently skipped, so a later read through a warmed
    /// property cache serves a stale value — the fault the soak gate's
    /// shrinking test plants and then minimises.
    pub fn arm_cache_canary(&self) {
        self.cluster.debug_skip_next_tombstone();
    }
}

/// Drive a phased churn schedule end to end under a soak recorder.
///
/// Invariants are checked at every phase boundary (the sweep flushes
/// batches and syncs replicas, so each boundary is a quiescent point);
/// the run ends with [`SoakHarness::finale`] and the recorder's own
/// monitor-verdict sweep.
///
/// # Errors
/// The first divergence, with the phase and global op index prepended —
/// the message the gate hands to the shrinker alongside the flat op list.
pub fn run_schedule(cfg: &ChurnConfig, schedule: &ChurnSchedule) -> Result<SoakReport, String> {
    let mut harness = SoakHarness::deploy(cfg);
    let mut oracle = Oracle::new(cfg.pool());
    let mut recorder = SoakRecorder::begin(harness.cluster(), cfg.seed);
    let mut global = 0usize;
    for phase in &schedule.phases {
        recorder.phase(harness.cluster(), phase.name);
        for op in &phase.ops {
            harness
                .apply(op, &mut oracle)
                .map_err(|e| format!("phase {} op {global}: {e}", phase.name))?;
            recorder.record(op.kind());
            global += 1;
        }
        let violations = harness.cluster().check_invariants();
        if let Some(first) = violations.first() {
            return Err(format!(
                "phase {} boundary: {} invariant violation(s), first: {first}",
                phase.name,
                violations.len()
            ));
        }
    }
    harness.finale(&oracle)?;
    let report = recorder.finish(harness.cluster());
    if !report.clean() {
        return Err(format!("monitors fired:\n{report}"));
    }
    Ok(report)
}

/// Drive a bare op slice (no phases, no recorder) and report the first
/// divergence — the replayable case closure for trace minimisation.
///
/// A fresh cluster is deployed per call, so the same slice always fails
/// (or passes) the same way. When `canary` is set the cache-coherence
/// canary is armed before the first op.
///
/// # Errors
/// The first divergence or final invariant violation, formatted.
pub fn run_flat(cfg: &ChurnConfig, ops: &[SoakOp], canary: bool) -> Result<(), String> {
    let mut harness = SoakHarness::deploy(cfg);
    if canary {
        harness.arm_cache_canary();
    }
    harness.run(ops)
}

/// Counter snapshot at a phase boundary.
#[derive(Debug, Clone, Copy)]
struct Snapshot {
    stats: RuntimeStats,
    messages: u64,
    clock_ns: u64,
}

impl Snapshot {
    fn take(cluster: &Cluster) -> Self {
        Snapshot {
            stats: cluster.stats(),
            messages: cluster.network().stats().messages,
            clock_ns: cluster.network().now().as_ns(),
        }
    }
}

/// One completed soak phase: what was applied and what it cost.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Phase label (from the churn schedule).
    pub name: String,
    /// Ops applied, counted per kind label (`rafda_corpus::ops::SoakOp::kind`).
    pub ops: BTreeMap<&'static str, u64>,
    /// Wire messages this phase added.
    pub messages: u64,
    /// Simulated nanoseconds this phase consumed.
    pub clock_ns: u64,
    /// Runtime counter deltas over the phase.
    pub stats: RuntimeStats,
}

impl PhaseStats {
    /// Total ops applied in this phase.
    pub fn total_ops(&self) -> u64 {
        self.ops.values().sum()
    }
}

/// Records a soak run phase by phase; [`SoakRecorder::finish`] turns it
/// into a [`SoakReport`].
#[derive(Debug)]
pub struct SoakRecorder {
    seed: u64,
    origin: Snapshot,
    mark: Snapshot,
    open: Option<(String, BTreeMap<&'static str, u64>)>,
    phases: Vec<PhaseStats>,
}

impl SoakRecorder {
    /// Start recording against a freshly deployed cluster. `seed` is the
    /// schedule seed, echoed in the report so any run is reproducible
    /// from its rendered text alone.
    pub fn begin(cluster: &Cluster, seed: u64) -> Self {
        let origin = Snapshot::take(cluster);
        SoakRecorder {
            seed,
            origin,
            mark: origin,
            open: None,
            phases: Vec::new(),
        }
    }

    /// Open the named phase, closing the currently open one (its counter
    /// deltas are computed at this boundary).
    pub fn phase(&mut self, cluster: &Cluster, name: &str) {
        self.close(cluster);
        self.open = Some((name.to_string(), BTreeMap::new()));
    }

    /// Count one applied op under its kind label. Must be inside a phase.
    pub fn record(&mut self, kind: &'static str) {
        let (_, ops) = self
            .open
            .as_mut()
            .expect("SoakRecorder::record outside a phase");
        *ops.entry(kind).or_insert(0) += 1;
    }

    fn close(&mut self, cluster: &Cluster) {
        if let Some((name, ops)) = self.open.take() {
            let now = Snapshot::take(cluster);
            self.phases.push(PhaseStats {
                name,
                ops,
                messages: now.messages - self.mark.messages,
                clock_ns: now.clock_ns - self.mark.clock_ns,
                stats: now.stats.delta_from(&self.mark.stats),
            });
            self.mark = now;
        }
    }

    /// Close the last phase, run the quiescent-point invariant sweep and
    /// assemble the report.
    pub fn finish(mut self, cluster: &Cluster) -> SoakReport {
        self.close(cluster);
        let violations = cluster.check_invariants();
        let end = Snapshot::take(cluster);
        let mut monitors: Vec<(&'static str, u64)> =
            standard_monitors().iter().map(|m| (m.name(), 0)).collect();
        monitors.push(("stale-affinity", 0));
        for v in &violations {
            if let Some(slot) = monitors.iter_mut().find(|(n, _)| *n == v.monitor) {
                slot.1 += 1;
            } else {
                monitors.push((v.monitor, 1));
            }
        }
        SoakReport {
            seed: self.seed,
            phases: self.phases,
            monitors,
            violations,
            stats: end.stats.delta_from(&self.origin.stats),
            messages: end.messages - self.origin.messages,
            clock_ns: end.clock_ns - self.origin.clock_ns,
        }
    }
}

/// The outcome of one soak run: per-phase op counts and cost, whole-run
/// metric deltas, and the verdict of every invariant monitor. Rendered
/// deterministically by its [`Display`](fmt::Display) impl.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// The schedule seed the run replayed.
    pub seed: u64,
    /// Completed phases in execution order.
    pub phases: Vec<PhaseStats>,
    /// `(monitor name, violation count)` for every standing monitor plus
    /// the structural stale-affinity sweep, in a fixed order.
    pub monitors: Vec<(&'static str, u64)>,
    /// Every violation the quiescent-point sweep returned.
    pub violations: Vec<Violation>,
    /// Whole-run runtime counter deltas.
    pub stats: RuntimeStats,
    /// Whole-run wire messages.
    pub messages: u64,
    /// Whole-run simulated nanoseconds.
    pub clock_ns: u64,
}

impl SoakReport {
    /// Total ops across all phases.
    pub fn total_ops(&self) -> u64 {
        self.phases.iter().map(PhaseStats::total_ops).sum()
    }

    /// `true` when every monitor stayed silent.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for SoakReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "soak report: seed {} | {} ops in {} phases | {} messages | {:.3} sim ms",
            self.seed,
            self.total_ops(),
            self.phases.len(),
            self.messages,
            self.clock_ns as f64 / 1e6,
        )?;
        for p in &self.phases {
            let ops: Vec<String> = p.ops.iter().map(|(k, v)| format!("{k}={v}")).collect();
            writeln!(
                f,
                "  {:<8} {:>7} ops | {:>8} msgs | {:>9.3} sim ms | {}",
                p.name,
                p.total_ops(),
                p.messages,
                p.clock_ns as f64 / 1e6,
                ops.join(" "),
            )?;
        }
        writeln!(f, "  totals: {}", self.stats)?;
        let verdicts: Vec<String> = self
            .monitors
            .iter()
            .map(|(name, count)| {
                if *count == 0 {
                    format!("{name}=silent")
                } else {
                    format!("{name}={count}")
                }
            })
            .collect();
        writeln!(f, "  monitors: {}", verdicts.join(" "))?;
        for v in &self.violations {
            writeln!(f, "    violation: {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::ops::generate_churn;

    /// `Acct` placed on node 1 of two, one instance created from node 0.
    fn acct_cluster() -> (Cluster, Value) {
        let policy = StaticPolicy::new().place("Acct", Placement::Node(NodeId(1)));
        let cluster = soak_app()
            .transform(&["RMI"])
            .unwrap()
            .deploy(2, 7, Box::new(policy));
        cluster.enable_monitors();
        let obj = cluster.new_instance(NodeId(0), "Acct", 0, vec![]).unwrap();
        (cluster, obj)
    }

    #[test]
    fn recorder_attributes_ops_and_costs_to_phases() {
        let (cluster, obj) = acct_cluster();
        let mut rec = SoakRecorder::begin(&cluster, 99);
        rec.phase(&cluster, "warm");
        for _ in 0..3 {
            cluster
                .call_method(NodeId(0), obj.clone(), "add", vec![Value::Int(1)])
                .unwrap();
            rec.record("call");
        }
        rec.phase(&cluster, "main");
        cluster
            .call_method(NodeId(0), obj.clone(), "add", vec![Value::Int(1)])
            .unwrap();
        rec.record("call");
        let report = rec.finish(&cluster);

        assert_eq!(report.total_ops(), 4);
        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.phases[0].ops.get("call"), Some(&3));
        assert_eq!(report.phases[1].ops.get("call"), Some(&1));
        assert!(report.phases[0].messages > 0, "remote calls cross the wire");
        assert_eq!(report.stats.rpc_calls, 4);
        assert!(report.clean(), "{report}");
        // Every standing verdict is present and silent.
        let names: Vec<&str> = report.monitors.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "stale-read",
                "at-most-once",
                "span-tree",
                "replica-divergence",
                "stale-affinity"
            ]
        );
        assert!(report.monitors.iter().all(|(_, c)| *c == 0));
    }

    #[test]
    fn report_text_is_deterministic_and_self_identifying() {
        let render = || {
            let (cluster, obj) = acct_cluster();
            let mut rec = SoakRecorder::begin(&cluster, 1234);
            rec.phase(&cluster, "only");
            cluster
                .call_method(NodeId(0), obj, "add", vec![Value::Int(2)])
                .unwrap();
            rec.record("call");
            rec.finish(&cluster).to_string()
        };
        let a = render();
        assert_eq!(a, render(), "same seed must render identical text");
        assert!(a.contains("seed 1234"), "{a}");
        assert!(a.contains("monitors:"), "{a}");
    }

    #[test]
    fn a_short_schedule_runs_clean_and_reports() {
        let cfg = ChurnConfig::production_day(7, 300);
        let schedule = generate_churn(&cfg);
        let report = run_schedule(&cfg, &schedule).expect("short soak is clean");
        assert_eq!(report.total_ops() as usize, schedule.total_ops());
        assert!(report.clean());
        assert_eq!(report.phases.len(), 4, "warmup/steady/churn/quiesce");
    }

    #[test]
    fn the_flat_driver_agrees_with_the_phased_one() {
        let cfg = ChurnConfig::production_day(11, 200);
        let schedule = generate_churn(&cfg);
        run_flat(&cfg, &schedule.flatten(), false).expect("flat replay is clean");
    }

    #[test]
    fn the_cache_canary_makes_a_run_fail() {
        let cfg = ChurnConfig::production_day(13, 0);
        // `cfg.items` is the first Acct index. Warm the cache, migrate
        // (tombstone skipped), read again: the value matches the oracle —
        // only the stale-read monitor can see that the hit was served
        // through a forwarding location.
        let acct = cfg.items;
        let ops = vec![
            SoakOp::Call {
                idx: acct,
                delta: 5,
            },
            SoakOp::Read { idx: acct },
            SoakOp::Migrate { idx: acct, node: 3 },
            SoakOp::Read { idx: acct },
        ];
        run_flat(&cfg, &ops, false).expect("without the canary the trace is clean");
        let err = run_flat(&cfg, &ops, true).expect_err("skipped tombstone must surface");
        assert!(
            err.contains("stale-read") || err.contains("violation"),
            "unexpected failure shape: {err}"
        );
    }
}
