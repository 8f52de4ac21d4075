//! The three workloads, each a closed loop driven by one client from one
//! process: the next op is issued only after the previous one returned.
//!
//! * `soak` — the E16 production-day schedule through
//!   [`rafda::soak::SoakHarness`]: 6 nodes, sharding + replica reads,
//!   caching, batching, k = 2 replication, migrations, adaptation and
//!   rebalance under 5 % drops with crashes, all monitors armed.
//! * `rpc` — a fault-free remote call stream: `Item` on node 0 over RMI,
//!   `Acct` on node 1 over CORBA, `Tally` on node 2 over SOAP, client on
//!   node 3; caching, batching, replication and sharding off.
//! * `local` — the same kind of stream on the single-address-space
//!   [`LocalRuntime`].
//!
//! An episode deploys a fresh system and replays one seeded op list,
//! checking every returned value against the exact oracle. A run repeats
//! the episode; every episode does identical simulated work, so the
//! deterministic counters of all episodes must agree.

use crate::alloc::AllocSnapshot;
use crate::calib::Meter;
use crate::trace::{name, Tracer};
use rafda::corpus::ops::{generate_churn, ChurnConfig, ChurnSchedule, Oracle, PoolClass, SoakOp};
use rafda::corpus::rng::Rng;
use rafda::corpus::workload::ZipfWorkload;
use rafda::net::Network;
use rafda::runtime::RuntimeStats;
use rafda::soak::{soak_app, SoakHarness, DROP_PROBABILITY, SHARD_MODULO};
use rafda::{
    Cluster, LocalRuntime, NodeId, Placement, RetryPolicy, RuntimeError, StaticPolicy, Value,
};
use std::collections::BTreeMap;
use std::io::Read as _;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The E16 production-day soak.
    Soak,
    /// Fault-free remote calls over RMI, CORBA and SOAP.
    Rpc,
    /// The same call stream in one address space.
    Local,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Soak, Workload::Rpc, Workload::Local];

    /// Parse a workload name.
    pub fn from_name(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Soak => "soak",
            Workload::Rpc => "rpc",
            Workload::Local => "local",
        }
    }

    /// Ops per episode in a measured run.
    pub fn episode_ops(self) -> usize {
        match self {
            Workload::Soak => 50_000,
            Workload::Rpc => 50_000,
            Workload::Local => 200_000,
        }
    }
}

/// Getter reads in the `rpc`/`local` stream, in percent.
const READ_PERCENT: usize = 60;
/// Zipf exponent of object popularity in the `rpc`/`local` stream.
const ZIPF_EXPONENT: f64 = 1.1;
/// The client node of the `rpc` workload.
const RPC_CLIENT: NodeId = NodeId(3);

/// What the benchmark replays: the op list plus the pool layout.
#[derive(Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Seed of the op list and of the deployment.
    pub seed: u64,
    /// Pool layout (16 items, 6 accounts, 6 tallies).
    pub cfg: ChurnConfig,
    /// The phases, in order (`soak` has four; the others one).
    pub schedule: ChurnSchedule,
}

impl Plan {
    /// The seeded op list of `workload` with `ops` ops.
    pub fn new(workload: Workload, seed: u64, ops: usize) -> Plan {
        let cfg = ChurnConfig::production_day(seed, ops);
        let schedule = match workload {
            Workload::Soak => generate_churn(&cfg),
            Workload::Rpc | Workload::Local => call_stream(&cfg),
        };
        Plan {
            workload,
            seed,
            cfg,
            schedule,
        }
    }

    /// Total ops of one episode.
    pub fn ops(&self) -> usize {
        self.schedule.total_ops()
    }
}

/// The `rpc`/`local` stream: Zipf-popular targets over the whole pool,
/// [`READ_PERCENT`] getter reads, the rest value-returning mutators.
fn call_stream(cfg: &ChurnConfig) -> ChurnSchedule {
    let mut rng = Rng::new(cfg.seed ^ 0x5EED_CA11_5EED_CA11);
    let mut zipf = ZipfWorkload::new(cfg.seed.wrapping_add(1), cfg.pool(), ZIPF_EXPONENT);
    let ops = (0..cfg.ops)
        .map(|_| {
            let idx = zipf.next_key();
            if rng.below(100) < READ_PERCENT {
                SoakOp::Read { idx }
            } else {
                SoakOp::Call {
                    idx,
                    delta: rng.range(0, 19) as i8 - 10,
                }
            }
        })
        .collect();
    ChurnSchedule {
        phases: vec![rafda::corpus::ops::ChurnPhase {
            name: "steady",
            ops,
        }],
    }
}

/// The value-returning mutator of a pool class.
fn mutator(class: PoolClass) -> &'static str {
    match class {
        PoolClass::Item => "bid",
        PoolClass::Acct | PoolClass::Tally => "add",
    }
}

/// A deployed system and its client.
enum System {
    Cluster { cluster: Cluster, client: NodeId },
    Local(LocalRuntime),
}

impl System {
    fn cluster(&self) -> &Cluster {
        match self {
            System::Cluster { cluster, .. } => cluster,
            System::Local(rt) => rt.cluster(),
        }
    }

    fn call(&self, recv: &Value, method: &str, args: Vec<Value>) -> Result<Value, RuntimeError> {
        match self {
            System::Cluster { cluster, client } => {
                cluster.call_method(*client, recv.clone(), method, args)
            }
            System::Local(rt) => rt.call_method(recv.clone(), method, args),
        }
    }
}

/// The soak deployment policy: the one [`SoakHarness::deploy`] applies.
fn soak_policy(coord: NodeId) -> StaticPolicy {
    StaticPolicy::new()
        .default_statics(coord)
        .shard("Item", "get_k", SHARD_MODULO)
        .replicate("Item", 2)
        .replica_reads("Item", true)
        .place("Acct", Placement::Node(NodeId(1)))
        .cache("Acct", true)
        .replicate("Acct", 2)
        .place("Tally", Placement::Node(NodeId(2)))
        .batch("Tally", true)
        .replicate("Tally", 2)
}

/// The `rpc` deployment policy: one class per node, one codec per class.
fn rpc_policy() -> StaticPolicy {
    StaticPolicy::new()
        .default_statics(RPC_CLIENT)
        .place("Item", Placement::Node(NodeId(0)))
        .with_protocol("Item", "RMI")
        .place("Acct", Placement::Node(NodeId(1)))
        .with_protocol("Acct", "CORBA")
        .place("Tally", Placement::Node(NodeId(2)))
        .with_protocol("Tally", "SOAP")
}

/// Transform, deploy and create + pin the object pool, each step under
/// its own span: the set-up `setup_s` measures. For `soak` this is the
/// same sequence [`SoakHarness::deploy`] runs.
fn set_up(plan: &Plan, tr: &mut Tracer) -> (System, Vec<Value>) {
    let cfg = &plan.cfg;
    let s = tr.begin(name::TRANSFORM);
    let protocols: &[&str] = match plan.workload {
        Workload::Rpc => &["RMI", "CORBA", "SOAP"],
        Workload::Soak | Workload::Local => &["RMI"],
    };
    let app = soak_app()
        .transform(protocols)
        .expect("soak app transforms");
    tr.end(s);
    let s = tr.begin(name::DEPLOY);
    let system = match plan.workload {
        Workload::Soak => {
            let coord = NodeId(u32::from(cfg.nodes) - 1);
            let cluster = app.deploy(
                u32::from(cfg.nodes),
                plan.seed,
                Box::new(soak_policy(coord)),
            );
            cluster.set_retry_policy(RetryPolicy {
                max_attempts: 10,
                ..RetryPolicy::default()
            });
            cluster
                .network()
                .fault_plan(|f| f.drop_probability = DROP_PROBABILITY);
            cluster.enable_monitors();
            System::Cluster {
                cluster,
                client: coord,
            }
        }
        Workload::Rpc => System::Cluster {
            cluster: app.deploy(4, plan.seed, Box::new(rpc_policy())),
            client: RPC_CLIENT,
        },
        Workload::Local => System::Local(app.deploy_local()),
    };
    tr.end(s);
    let s = tr.begin(name::POOL);
    let objs = (0..cfg.pool())
        .map(|idx| {
            let (class, args) = match cfg.class_of(idx) {
                PoolClass::Item => ("Item", vec![Value::Int(idx as i32)]),
                PoolClass::Acct => ("Acct", vec![]),
                PoolClass::Tally => ("Tally", vec![]),
            };
            let obj = match &system {
                System::Cluster { cluster, client } => cluster
                    .new_instance(*client, class, 0, args)
                    .expect("create pool object"),
                System::Local(rt) => rt.new_instance(class, 0, args).expect("create pool object"),
            };
            match &system {
                System::Cluster { cluster, client } => cluster.pin(*client, &obj),
                System::Local(rt) => rt.pin(&obj),
            }
            obj
        })
        .collect();
    tr.end(s);
    (system, objs)
}

/// Time `n` set-ups; returns the mean seconds per set-up. Each set-up is
/// a root span when tracing.
pub fn time_setups(plan: &Plan, tr: &mut Tracer, n: usize) -> f64 {
    let mut total = 0.0;
    for _ in 0..n {
        let t = Instant::now();
        let root = tr.begin(name::SETUP);
        let built = set_up(plan, tr);
        tr.end(root);
        total += t.elapsed().as_secs_f64();
        drop(built);
    }
    total / n as f64
}

/// The deterministic counters of an episode: equal on every replay of
/// the same plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Runtime counters ([`Cluster::stats`]).
    pub stats: RuntimeStats,
    /// Messages delivered.
    pub messages: u64,
    /// Bytes delivered.
    pub bytes: u64,
    /// Messages lost to drop injection.
    pub drops: u64,
    /// Bytes on the busiest directed link.
    pub busiest_link_bytes: u64,
    /// VM instructions executed (all nodes).
    pub steps: u64,
    /// VM native hook invocations (all nodes).
    pub native_calls: u64,
    /// VM objects allocated (all nodes).
    pub objects_allocated: u64,
    /// Live VM heap entries at the end (all nodes).
    pub heap_live: u64,
    /// Spans retained in the runtime's span log at the end.
    pub spans_retained: u64,
    /// Simulated network time spent inside ops.
    pub sim_ns: u64,
}

/// Raw counter reading; [`Counters`] are differences of two readings.
struct Reading {
    stats: RuntimeStats,
    messages: u64,
    bytes: u64,
    drops: u64,
    links: BTreeMap<(u32, u32), u64>,
    steps: u64,
    native_calls: u64,
    objects_allocated: u64,
}

impl Reading {
    fn take(cluster: &Cluster) -> Reading {
        let net = cluster.network().stats();
        let mut r = Reading {
            stats: cluster.stats(),
            messages: net.messages,
            bytes: net.bytes,
            drops: net.drops,
            links: net.links().map(|(f, t, s)| ((f.0, t.0), s.bytes)).collect(),
            steps: 0,
            native_calls: 0,
            objects_allocated: 0,
        };
        for n in 0..cluster.node_count() {
            let vm = cluster.vm(NodeId(n)).stats();
            r.steps += vm.steps;
            r.native_calls += vm.native_calls;
            r.objects_allocated += vm.heap.objects_allocated;
        }
        r
    }

    fn since(&self, base: &Reading, cluster: &Cluster, sim_ns: u64, spans: bool) -> Counters {
        let busiest_link_bytes = self
            .links
            .iter()
            .map(|(k, b)| b - base.links.get(k).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        let heap_live = (0..cluster.node_count())
            .map(|n| cluster.vm(NodeId(n)).stats().heap.live)
            .sum();
        Counters {
            stats: self.stats.delta_from(&base.stats),
            messages: self.messages - base.messages,
            bytes: self.bytes - base.bytes,
            drops: self.drops - base.drops,
            busiest_link_bytes,
            steps: self.steps - base.steps,
            native_calls: self.native_calls - base.native_calls,
            objects_allocated: self.objects_allocated - base.objects_allocated,
            heap_live,
            spans_retained: if spans {
                cluster.span_log().spans().len() as u64
            } else {
                0
            },
            sim_ns,
        }
    }
}

/// One soak phase as measured.
#[derive(Debug, Clone)]
pub struct PhaseSample {
    /// Phase name.
    pub name: &'static str,
    /// Ops in the phase.
    pub ops: u64,
    /// Wall time of the phase's ops at the nominal host speed (the
    /// boundary sweep excluded).
    pub nominal_s: f64,
    /// Resident memory at the phase's end, in MB.
    pub rss_mb: f64,
}

/// Everything one episode measured.
#[derive(Debug, Default)]
pub struct Episode {
    /// Ops attempted.
    pub ops: u64,
    /// Ops that returned a typed error.
    pub failed: u64,
    /// Getter reads attempted.
    pub reads: u64,
    /// Crashes applied.
    pub crashes: u64,
    /// Wall time from the first op to the end of the final checks, host
    /// calibrations excluded.
    pub wall_s: f64,
    /// That time at the nominal host speed (see [`crate::calib`]).
    pub nominal_s: f64,
    /// Latency percentiles of the episode's reads and writes.
    pub pct: Percentiles,
    samples: Samples,
    /// Deterministic counters over the ops.
    pub counters: Counters,
    /// Allocator counter growth over the ops.
    pub alloc: AllocSnapshot,
    /// Per-phase samples (`soak` only).
    pub phases: Vec<PhaseSample>,
    /// The first wrong value, monitor violation or harness divergence.
    pub error: Option<String>,
}

impl Episode {
    /// Ops per second at the nominal host speed.
    pub fn ops_per_nominal_s(&self) -> f64 {
        self.ops as f64 / self.nominal_s
    }

    /// The episode's mean host slowdown.
    pub fn slowdown(&self) -> f64 {
        self.wall_s / self.nominal_s
    }

    /// End a measured segment: take the wall latencies sampled since the
    /// last cut to the nominal host speed.
    fn cut(&mut self, meter: &mut Meter) {
        let slowdown = meter.cut();
        let s = &mut self.samples;
        for (v, from) in [
            (&mut s.read, &mut s.read_cut),
            (&mut s.write, &mut s.write_cut),
        ] {
            for x in &mut v[*from..] {
                *x = (*x as f64 / slowdown) as u64;
            }
            *from = v.len();
        }
    }
}

/// Per-op latency samples of one episode, in ns; dropped once the
/// episode's [`Percentiles`] are taken, so they never add up across
/// episodes in the process's memory.
#[derive(Debug, Default)]
struct Samples {
    read: Vec<u64>,
    write: Vec<u64>,
    sim_read: Vec<u64>,
    sim_write: Vec<u64>,
    /// Whether simulated latencies are recorded (not on `local`).
    sim: bool,
    /// `read[..read_cut]` and `write[..write_cut]` are already at the
    /// nominal host speed.
    read_cut: usize,
    write_cut: usize,
}

impl Samples {
    /// Room for every read and write of `plan`, so recording them does not
    /// allocate; simulated latencies only where there is a network.
    fn for_plan(plan: &Plan) -> Samples {
        let ops = || plan.schedule.phases.iter().flat_map(|p| &p.ops);
        let reads = ops().filter(|o| matches!(o, SoakOp::Read { .. })).count();
        let writes = ops().filter(|o| matches!(o, SoakOp::Call { .. })).count();
        let sim = plan.workload != Workload::Local;
        let sim_cap = |n| if sim { n } else { 0 };
        Samples {
            read: Vec::with_capacity(reads),
            write: Vec::with_capacity(writes),
            sim_read: Vec::with_capacity(sim_cap(reads)),
            sim_write: Vec::with_capacity(sim_cap(writes)),
            sim,
            read_cut: 0,
            write_cut: 0,
        }
    }

    fn read(&mut self, wall_ns: u64, sim_ns: u64) {
        self.read.push(wall_ns);
        if self.sim {
            self.sim_read.push(sim_ns);
        }
    }

    fn write(&mut self, wall_ns: u64, sim_ns: u64) {
        self.write.push(wall_ns);
        if self.sim {
            self.sim_write.push(sim_ns);
        }
    }

    fn percentiles(&mut self) -> Percentiles {
        Percentiles {
            reads: self.read.len() as u64,
            writes: self.write.len() as u64,
            read_p50: percentile(&mut self.read, 0.50),
            read_p99: percentile(&mut self.read, 0.99),
            write_p50: percentile(&mut self.write, 0.50),
            write_p99: percentile(&mut self.write, 0.99),
            sim_read_p99: percentile(&mut self.sim_read, 0.99),
            sim_write_p99: percentile(&mut self.sim_write, 0.99),
        }
    }
}

/// Latency percentiles of one episode, in ns (nearest rank).
#[derive(Debug, Clone, Copy, Default)]
pub struct Percentiles {
    /// Read samples.
    pub reads: u64,
    /// Write samples.
    pub writes: u64,
    /// Median wall latency of reads (this and the other wall latencies at
    /// the nominal host speed).
    pub read_p50: u64,
    /// 99th-percentile wall latency of reads.
    pub read_p99: u64,
    /// Median wall latency of writes.
    pub write_p50: u64,
    /// 99th-percentile wall latency of writes.
    pub write_p99: u64,
    /// 99th-percentile simulated latency of reads.
    pub sim_read_p99: u64,
    /// 99th-percentile simulated latency of writes.
    pub sim_write_p99: u64,
}

/// Nearest-rank percentile of `samples` (sorted in place), 0 when empty.
fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (p * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Current resident and peak resident memory, in MB (0 when unknown).
///
/// Reads into a stack buffer: the call allocates nothing, so sampling
/// memory inside an episode leaves the allocation counts exact.
pub fn rss_mb() -> (f64, f64) {
    let mut buf = [0u8; 8192];
    let mut len = 0;
    if let Ok(mut f) = std::fs::File::open("/proc/self/status") {
        while len < buf.len() {
            match f.read(&mut buf[len..]) {
                Ok(0) | Err(_) => break,
                Ok(n) => len += n,
            }
        }
    }
    let status = std::str::from_utf8(&buf[..len]).unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Run one episode of `plan`. `spans` also counts the runtime's retained
/// spans (a full copy of its span log, so only asked for when the
/// process's peak memory is not being measured).
pub fn run_episode(plan: &Plan, tr: &mut Tracer, spans: bool) -> Episode {
    let root = tr.begin(name::EPISODE);
    let mut ep = match plan.workload {
        Workload::Soak => soak_episode(plan, tr, spans),
        Workload::Rpc | Workload::Local => stream_episode(plan, tr, spans),
    };
    tr.end(root);
    ep.pct = ep.samples.percentiles();
    ep.samples = Samples::default();
    ep
}

/// An empty episode with room for the samples of `plan`.
fn episode_for(plan: &Plan) -> Episode {
    Episode {
        samples: Samples::for_plan(plan),
        ..Episode::default()
    }
}

fn stream_episode(plan: &Plan, tr: &mut Tracer, spans: bool) -> Episode {
    let (system, objs) = set_up(plan, tr);
    let cluster = system.cluster();
    let net = cluster.network();
    let mut ep = episode_for(plan);
    let mut oracle = Oracle::new(plan.cfg.pool());
    let mut meter = Meter::start();
    let base = Reading::take(cluster);
    let alloc0 = AllocSnapshot::take();
    let mut sim_ns = 0;
    for phase in &plan.schedule.phases {
        let ps = tr.begin(name::PHASE);
        for op in &phase.ops {
            let os = tr.begin(name::OP);
            let (idx, is_read) = match *op {
                SoakOp::Read { idx } => (idx, true),
                SoakOp::Call { idx, .. } => (idx, false),
                _ => unreachable!("the call stream holds reads and calls only"),
            };
            let expected = oracle.step(op).expect("reads and calls return values");
            let (method, args, layer) = call_of(op, plan.cfg.class_of(idx));
            let (r, wall, sim) = timed(tr, &net, layer, || system.call(&objs[idx], method, args));
            sim_ns += sim;
            ep.ops += 1;
            if is_read {
                ep.reads += 1;
                ep.samples.read(wall, sim);
            } else {
                ep.samples.write(wall, sim);
            }
            match r {
                Ok(v) if v == Value::Int(expected) => {}
                Ok(v) => {
                    ep.error = Some(format!("{op}: returned {v:?}, oracle says {expected}"));
                }
                Err(_) => ep.failed += 1,
            }
            tr.end(os);
            if ep.error.is_some() {
                break;
            }
            if meter.due() {
                ep.cut(&mut meter);
            }
        }
        tr.end(ps);
    }
    ep.cut(&mut meter);
    ep.wall_s = meter.raw_s();
    ep.nominal_s = meter.nominal_s();
    ep.alloc = AllocSnapshot::take().since(&alloc0);
    ep.counters = Reading::take(cluster).since(&base, cluster, sim_ns, spans);
    ep
}

fn soak_episode(plan: &Plan, tr: &mut Tracer, spans: bool) -> Episode {
    let cfg = &plan.cfg;
    let coord = NodeId(u32::from(cfg.nodes) - 1);
    let s = tr.begin(name::HARNESS);
    let mut h = SoakHarness::deploy(cfg);
    tr.end(s);
    let net = h.cluster().network();
    let mut ep = episode_for(plan);
    let mut oracle = Oracle::new(cfg.pool());
    let mut meter = Meter::start();
    let base = Reading::take(h.cluster());
    let alloc0 = AllocSnapshot::take();
    let mut sim_ns = 0;
    'phases: for phase in &plan.schedule.phases {
        let ps = tr.begin(name::PHASE);
        let phase_start = meter.nominal_s();
        for op in &phase.ops {
            let os = tr.begin(name::OP);
            // Reads, calls and increments go straight to the cluster, as
            // `SoakHarness::apply` sends them, so the oracle check stays
            // outside the timed layer call; boundary and fault ops go
            // through the harness, which owns the crash bookkeeping.
            let (result, wall, sim) = match *op {
                SoakOp::Read { idx } | SoakOp::Call { idx, .. } | SoakOp::Inc { idx, .. } => {
                    let expected = oracle.step(op);
                    let (method, args, layer) = call_of(op, cfg.class_of(idx));
                    let obj = h.obj(idx).clone();
                    let (r, wall, sim) = timed(tr, &net, layer, || {
                        h.cluster().call_method(coord, obj, method, args)
                    });
                    let result = match (r, expected) {
                        (Ok(v), Some(e)) if v != Value::Int(e) => {
                            Err(format!("{op}: returned {v:?}, oracle says {e}"))
                        }
                        (Ok(_), _) => Ok(true),
                        (Err(_), _) => Ok(false),
                    };
                    (result, wall, sim)
                }
                _ => {
                    let layer = match op {
                        SoakOp::Crash { .. } | SoakOp::Heal => name::FAULT,
                        _ => name::BOUNDARY,
                    };
                    let (r, wall, sim) = timed(tr, &net, layer, || h.apply(op, &mut oracle));
                    (r.map(|()| true), wall, sim)
                }
            };
            sim_ns += sim;
            ep.ops += 1;
            match op {
                SoakOp::Read { .. } => {
                    ep.reads += 1;
                    ep.samples.read(wall, sim);
                }
                SoakOp::Call { .. } => ep.samples.write(wall, sim),
                SoakOp::Crash { .. } => ep.crashes += 1,
                _ => {}
            }
            tr.end(os);
            match result {
                Ok(true) => {}
                Ok(false) => ep.failed += 1,
                Err(e) => {
                    ep.error = Some(format!("phase {}: {e}", phase.name));
                    tr.end(ps);
                    break 'phases;
                }
            }
            if meter.due() {
                ep.cut(&mut meter);
            }
        }
        ep.cut(&mut meter);
        let nominal_s = meter.nominal_s() - phase_start;
        let s = tr.begin(name::INVARIANTS);
        let violations = h.cluster().check_invariants();
        tr.end(s);
        ep.cut(&mut meter);
        ep.phases.push(PhaseSample {
            name: phase.name,
            ops: phase.ops.len() as u64,
            nominal_s,
            rss_mb: rss_mb().0,
        });
        tr.end(ps);
        if let Some(first) = violations.first() {
            ep.error = Some(format!(
                "phase {} boundary: {} invariant violation(s), first: {first}",
                phase.name,
                violations.len()
            ));
            break;
        }
    }
    if ep.error.is_none() {
        let ps = tr.begin(name::PHASE);
        ep.error = soak_finale(&mut h, &oracle, cfg, coord, tr).err();
        tr.end(ps);
    }
    ep.cut(&mut meter);
    ep.wall_s = meter.raw_s();
    ep.nominal_s = meter.nominal_s();
    ep.alloc = AllocSnapshot::take().since(&alloc0);
    ep.counters = Reading::take(h.cluster()).since(&base, h.cluster(), sim_ns, spans);
    ep
}

/// The method, arguments and layer span of a read, call or increment on
/// an object of `class`.
fn call_of(op: &SoakOp, class: PoolClass) -> (&'static str, Vec<Value>, &'static str) {
    match *op {
        SoakOp::Read { .. } => ("get_v", vec![], name::READ),
        SoakOp::Call { delta, .. } => (mutator(class), vec![Value::Int(delta.into())], name::WRITE),
        SoakOp::Inc { delta, .. } => ("inc", vec![Value::Int(delta.into())], name::INC),
        _ => unreachable!("{op} is not a method call"),
    }
}

/// Run `call` under a `layer` span; returns its result with its wall and
/// simulated-network nanoseconds.
fn timed<R>(
    tr: &mut Tracer,
    net: &Network,
    layer: &'static str,
    call: impl FnOnce() -> R,
) -> (R, u64, u64) {
    let sim0 = net.now();
    let t = Instant::now();
    let span = tr.begin(layer);
    let r = call();
    tr.end(span);
    let wall = t.elapsed().as_nanos() as u64;
    (r, wall, (net.now() - sim0).as_ns())
}

/// [`SoakHarness::finale`], step by step so each step lands in its own
/// layer: heal the down node, touch every object with a delta-0 mutation
/// checked against the oracle, then run the quiescent-point sweep.
fn soak_finale(
    h: &mut SoakHarness,
    oracle: &Oracle,
    cfg: &ChurnConfig,
    coord: NodeId,
    tr: &mut Tracer,
) -> Result<(), String> {
    let mut scratch = oracle.clone();
    let s = tr.begin(name::FAULT);
    let healed = h.apply(&SoakOp::Heal, &mut scratch);
    tr.end(s);
    healed.map_err(|e| format!("finale heal: {e}"))?;
    for (idx, &expected) in oracle.values().iter().enumerate() {
        let method = mutator(cfg.class_of(idx));
        let s = tr.begin(name::WRITE);
        let r = h
            .cluster()
            .call_method(coord, h.obj(idx).clone(), method, vec![Value::Int(0)]);
        tr.end(s);
        match r {
            Ok(v) if v == Value::Int(expected) => {}
            Ok(v) => {
                return Err(format!(
                    "finale touch #{idx}: {v:?}, oracle says {expected}"
                ))
            }
            Err(e) => return Err(format!("finale touch #{idx}: {e}")),
        }
    }
    let s = tr.begin(name::INVARIANTS);
    let violations = h.cluster().check_invariants();
    tr.end(s);
    match violations.first() {
        None => Ok(()),
        Some(first) => Err(format!(
            "finale: {} invariant violation(s), first: {first}",
            violations.len()
        )),
    }
}
