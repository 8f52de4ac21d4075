//! The cluster's observability plane: one labeled metrics registry as the
//! single write path for every runtime counter, a deterministic
//! time-series recorder sampled on the **simulated** clock, the optional
//! live invariant monitors, and the views over them — [`RuntimeStats`] and
//! the Prometheus / JSON-lines exports.
//!
//! [`RuntimeStats`] is not a bag of counters that the runtime mutates
//! directly — it is a *view* assembled from this registry
//! ([`Obs::snapshot`] per node, [`Cluster::stats`](crate::Cluster::stats)
//! as the documented merge). Every increment goes through a typed
//! [`Counter`]/[`Histogram`] handle labeled with the node it is charged to,
//! which is what makes the per-node breakdown, the Prometheus/JSON
//! exporters and the `rafda.Introspection` getters all read the same
//! numbers.

use crate::cluster::Shared;
use rafda_telemetry::{
    Counter, Histogram, MetricsRegistry, Monitor, MonitorEvent, SeriesId, TimeSeriesRecorder,
};
use std::fmt::{self, Write as _};

/// How often the time-series recorder samples, in simulated ns. One
/// sample per 100 µs keeps a multi-millisecond chaos run under the ring
/// cap while still resolving individual retry storms (per-hop latencies
/// are tens of µs).
pub(crate) const SAMPLE_INTERVAL_NS: u64 = 100_000;

/// Ring capacity per series; older points are dropped (and counted) so a
/// long soak cannot grow memory without bound.
pub(crate) const SERIES_CAP: usize = 4096;

/// Upper bounds of the exchange-attempts histogram: attempts 1..=7 get a
/// bucket each, the registry's overflow bucket catches 8-or-more —
/// mirroring the 8-slot `RuntimeStats::attempts` array it reconstructs.
const ATTEMPT_BOUNDS: [u64; 7] = [1, 2, 3, 4, 5, 6, 7];

/// The sampled gauges, in registration and sampling order:
/// - non-empty outcall queues;
/// - deferred operations across all outcall queues;
/// - cumulative property-cache hit rate, `hits / (hits+misses)`;
/// - replicated exports whose backups lag the owner's version;
/// - shard balance, `max / mean` instances per node over the shard map
///   (1.0 = perfectly even, grows with skew; 0 when unsharded);
/// - entries in the cluster-wide dirty-replica set — locations the next
///   sweep will probe. Stays near zero on healthy steady-state traffic; a
///   sustained climb means marks outpace shipments.
const SERIES: [&str; 6] = [
    "outqueue_depth",
    "inflight_batch_ops",
    "cache_hit_rate",
    "replica_lag",
    "shard_balance",
    "dirty_set_depth",
];

/// Declares every registry-backed counter once: the [`RuntimeStats`] field
/// (with its docs), the [`Met`] variant that indexes it, and its
/// Prometheus name. `merge` and `delta_from` are derived from the same
/// list; only the attempts histogram and the three wire-layer counters,
/// which live outside the registry, are spelled out.
macro_rules! runtime_metrics {
    ($($(#[$doc:meta])* $variant:ident => $field:ident, $pname:literal;)*) => {
        /// Aggregate runtime statistics.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct RuntimeStats {
            $($(#[$doc])* pub $field: u64,)*
            /// Histogram of attempts used per finished exchange: bucket `i`
            /// counts exchanges that took `i + 1` attempts (the last bucket
            /// saturates).
            pub attempts: [u64; 8],
            /// Signature-position strings sent as an interned reference
            /// instead of inline text (summed over every directed link's
            /// table).
            pub sig_refs: u64,
            /// Signature-position strings defined (sent inline and
            /// interned) — each one a table entry later frames reference.
            pub sig_defs: u64,
            /// Frame encodes served by a pooled buffer instead of a fresh
            /// allocation.
            pub wire_buf_reuses: u64,
        }

        impl RuntimeStats {
            /// Add every counter of `other` into `self` — the merge
            /// [`Cluster::stats`](crate::Cluster::stats) folds per-node
            /// breakdowns with.
            pub fn merge(&mut self, other: &RuntimeStats) {
                $(self.$field += other.$field;)*
                for (slot, c) in self.attempts.iter_mut().zip(other.attempts) {
                    *slot += c;
                }
                self.sig_refs += other.sig_refs;
                self.sig_defs += other.sig_defs;
                self.wire_buf_reuses += other.wire_buf_reuses;
            }

            /// Counter-wise difference `self − earlier` (saturating), for
            /// reporting what a bounded run added on top of its setup — the
            /// soak report's per-phase metric deltas are computed with this.
            pub fn delta_from(&self, earlier: &RuntimeStats) -> RuntimeStats {
                let mut d = *self;
                $(d.$field = d.$field.saturating_sub(earlier.$field);)*
                for (slot, c) in d.attempts.iter_mut().zip(earlier.attempts) {
                    *slot = slot.saturating_sub(c);
                }
                d.sig_refs = d.sig_refs.saturating_sub(earlier.sig_refs);
                d.sig_defs = d.sig_defs.saturating_sub(earlier.sig_defs);
                d.wire_buf_reuses = d.wire_buf_reuses.saturating_sub(earlier.wire_buf_reuses);
                d
            }
        }

        /// A runtime event counter, one variant per [`RuntimeStats`]
        /// counter field. The variant's discriminant indexes the per-node
        /// handle table in [`Obs`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum Met {
            $(
                #[doc = concat!("`", $pname, "`")]
                $variant,
            )*
        }

        impl Met {
            /// Every counter, in declaration (and registration) order.
            pub(crate) const ALL: &'static [Met] = &[$(Met::$variant),*];

            /// The Prometheus metric name.
            pub(crate) fn name(self) -> &'static str {
                match self {
                    $(Met::$variant => $pname,)*
                }
            }
        }

        fn fill_stats(stats: &mut RuntimeStats, met: Met, value: u64) {
            match met {
                $(Met::$variant => stats.$field = value,)*
            }
        }
    };
}

runtime_metrics! {
    /// Remote method invocations served.
    RpcCalls => rpc_calls, "rafda_rpc_calls_total";
    /// Remote creations served.
    RpcCreates => rpc_creates, "rafda_rpc_creates_total";
    /// Remote singleton discoveries served.
    RpcDiscovers => rpc_discovers, "rafda_rpc_discovers_total";
    /// State fetches served (migration).
    RpcFetches => rpc_fetches, "rafda_rpc_fetches_total";
    /// State installs served (migration).
    RpcInstalls => rpc_installs, "rafda_rpc_installs_total";
    /// Forward swaps served (boundary pulls).
    RpcForwards => rpc_forwards, "rafda_rpc_forwards_total";
    /// Objects migrated (including adaptation).
    Migrations => migrations, "rafda_migrations_total";
    /// Objects pulled local.
    Pulls => pulls, "rafda_pulls_total";
    /// Requests answered with a fault (server-side errors; network-level
    /// failures are counted separately in [`RuntimeStats::net_failures`]).
    Faults => faults, "rafda_faults_total";
    /// Client-side retry rounds: transmission attempts beyond each
    /// exchange's first.
    Retries => retries, "rafda_retries_total";
    /// Retransmitted requests that reached the server (a retry whose
    /// request transmission succeeded).
    Retransmits => retransmits, "rafda_retransmits_total";
    /// Retransmissions answered from the reply cache instead of re-running
    /// the method (the at-most-once guarantee doing its job).
    DedupHits => dedup_hits, "rafda_dedup_hits_total";
    /// Exchanges that exhausted the retry budget or hit a non-transient
    /// network failure. Distinct from `faults`: the server never answered.
    NetFailures => net_failures, "rafda_net_failures_total";
    /// Property (`get_f`) reads answered from the proxy-side cache —
    /// no network exchange happened at all.
    CacheHits => cache_hits, "rafda_cache_hits_total";
    /// Cacheable property reads that had to go remote (no entry, or a
    /// stale entry that was refreshed by the exchange).
    CacheMisses => cache_misses, "rafda_cache_misses_total";
    /// Cached property entries found stale — the owner's version moved
    /// past the tag — and dropped before going remote.
    CacheInvalidations => cache_invalidations, "rafda_cache_invalidations_total";
    /// Replica state syncs served: one per backup shipped after a served
    /// mutation (or export) of a replicated object.
    ReplicaSyncs => replica_syncs, "rafda_replica_syncs_total";
    /// Replica promotions served: a backup materialised its stored state
    /// and became the new owner after the primary crashed.
    Promotions => promotions, "rafda_promotions_total";
    /// Client-side failovers: calls re-homed from a crashed owner to a
    /// (promoted) replica and retried successfully.
    Failovers => failovers, "rafda_failovers_total";
    /// Operations deferred onto a per-`(caller, owner)` outcall queue
    /// instead of being sent as their own exchange (void calls on batched
    /// classes, plus replica shipments of batched classes).
    BatchedOps => batched_ops, "rafda_batched_ops_total";
    /// Outcall queues drained: each flush ships one queue as a single
    /// [`Request::Batch`](rafda_wire::Request::Batch) exchange at a
    /// synchronization point.
    Flushes => flushes, "rafda_flushes_total";
    /// Sharded instances placed onto their shard's node after construction
    /// (a `shard by` policy rule routing a fresh object).
    ShardPlacements => shard_placements, "rafda_shard_placements_total";
    /// Whole shards moved between nodes by the rebalance tick reacting to
    /// hot-key skew in the observed call counts.
    ShardRebalances => shard_rebalances, "rafda_shard_rebalances_total";
    /// Getter calls served from a same-version local replica copy instead
    /// of an owner exchange (a `reads from replicas` policy rule).
    ReplicaReads => replica_reads, "rafda_replica_reads_total";
    /// Dirty-set entries the replica sweep offered to `sync_replicas` —
    /// each one a state comparison against the last shipment, charged to
    /// the owner.
    /// The sweep's cost measure: O(dirty) per synchronization point, not
    /// O(exports).
    ReplicaSweepProbes => replica_sweep_probes, "rafda_replica_sweep_probes_total";
    /// `(node, oid)` dirty-set insertions recorded (version bumps, served
    /// mutations, fresh replicated exports, and conservative node-level
    /// marks while application code runs locally). Marks bound probes:
    /// every probe was a mark first.
    DirtyMarks => dirty_marks, "rafda_dirty_marks_total";
}

impl RuntimeStats {
    /// Total finished exchanges recorded in the attempts histogram.
    pub fn exchanges(&self) -> u64 {
        self.attempts.iter().sum()
    }

    /// Mean transmission attempts per finished exchange (1.0 when no
    /// exchange ever retried; 0.0 before any exchange finished).
    pub fn mean_attempts(&self) -> f64 {
        let exchanges = self.exchanges();
        if exchanges == 0 {
            return 0.0;
        }
        let total: u64 = self
            .attempts
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as u64 + 1) * c)
            .sum();
        total as f64 / exchanges as f64
    }
}

impl fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rpc exchanges (mean {:.2} attempts), {} retries, \
             {} retransmits, {} dedup hits, {} net failures, {} faults, \
             property cache {} hits / {} misses / {} invalidations, \
             {} replica syncs / {} promotions / {} failovers, \
             {} batched ops / {} flushes, \
             {} shard placements / {} shard rebalances / {} replica reads",
            self.exchanges(),
            self.mean_attempts(),
            self.retries,
            self.retransmits,
            self.dedup_hits,
            self.net_failures,
            self.faults,
            self.cache_hits,
            self.cache_misses,
            self.cache_invalidations,
            self.replica_syncs,
            self.promotions,
            self.failovers,
            self.batched_ops,
            self.flushes,
            self.shard_placements,
            self.shard_rebalances,
            self.replica_reads
        )
    }
}

/// The observability state hanging off [`Shared`]:
/// registry + handles, recorder + series ids, and (when enabled) the
/// monitor set.
pub(crate) struct Obs {
    /// The single write path for all runtime counters.
    pub(crate) reg: MetricsRegistry,
    /// `counters[node][met as usize]` — handle for counter `met` on `node`.
    counters: Vec<Vec<Counter>>,
    /// Per-node exchange-attempts histogram handle.
    attempts: Vec<Histogram>,
    /// Fixed-interval ring buffers sampled on the simulated clock.
    pub(crate) recorder: TimeSeriesRecorder,
    /// The [`SERIES`] gauges' ids, in the same order.
    series: [SeriesId; 6],
    /// Standing watchdogs; `None` until
    /// [`Cluster::enable_monitors`](crate::Cluster::enable_monitors).
    pub(crate) monitors: Option<Vec<Box<dyn Monitor>>>,
}

impl Obs {
    /// Register every counter and histogram for `nodes` nodes, in a fixed
    /// order so exports are byte-identical across same-seed runs.
    pub(crate) fn new(nodes: u32) -> Obs {
        let mut reg = MetricsRegistry::new();
        let mut counters = Vec::with_capacity(nodes as usize);
        let mut attempts = Vec::with_capacity(nodes as usize);
        for n in 0..nodes {
            let node = n.to_string();
            let labels = [("node", node.as_str())];
            counters.push(
                Met::ALL
                    .iter()
                    .map(|m| reg.register_counter(m.name(), &labels))
                    .collect(),
            );
            attempts.push(reg.register_histogram(
                "rafda_exchange_attempts",
                &labels,
                ATTEMPT_BOUNDS.to_vec(),
            ));
        }
        let mut recorder = TimeSeriesRecorder::new(SAMPLE_INTERVAL_NS, SERIES_CAP);
        let series = SERIES.map(|name| recorder.register(name));
        Obs {
            reg,
            counters,
            attempts,
            recorder,
            series,
            monitors: None,
        }
    }

    /// Bump counter `met`, charged to `node`.
    pub(crate) fn inc(&mut self, node: u32, met: Met) {
        self.reg.inc(self.counters[node as usize][met as usize]);
    }

    /// Record a finished exchange that took `n` transmission attempts,
    /// charged to the calling `node`. Values past 7 land in the overflow
    /// bucket, exactly like the saturating last slot of
    /// [`RuntimeStats::attempts`].
    pub(crate) fn record_attempts(&mut self, node: u32, n: u32) {
        self.reg.observe(self.attempts[node as usize], n as u64);
    }

    /// Sum of counter `met` across all nodes.
    pub(crate) fn sum(&self, met: Met) -> u64 {
        self.counters
            .iter()
            .map(|c| self.reg.counter_value(c[met as usize]))
            .sum()
    }

    /// Rebuild the [`RuntimeStats`] view for one node from the registry.
    /// The wire-layer counters (`sig_refs`/`sig_defs`/`wire_buf_reuses`)
    /// live outside the registry and are filled in by the caller.
    pub(crate) fn snapshot(&self, node: usize) -> RuntimeStats {
        let mut stats = RuntimeStats::default();
        for &met in Met::ALL {
            let value = self.reg.counter_value(self.counters[node][met as usize]);
            fill_stats(&mut stats, met, value);
        }
        let counts = self.reg.histogram_counts(self.attempts[node]);
        for (slot, &c) in stats.attempts.iter_mut().zip(counts) {
            *slot = c;
        }
        stats
    }

    /// Feed one live event to every enabled monitor (no-op when monitors
    /// are off).
    pub(crate) fn emit(&mut self, event: &MonitorEvent) {
        if let Some(monitors) = self.monitors.as_mut() {
            for m in monitors.iter_mut() {
                m.on_event(event);
            }
        }
    }
}

/// Bump one runtime counter, charged to `node`. The single write path for
/// every [`RuntimeStats`] counter.
pub(crate) fn bump(shared: &Shared, node: u32, met: Met) {
    shared.obs.borrow_mut().inc(node, met);
}

/// Whether the invariant monitors are enabled (events are only assembled
/// when someone is listening).
pub(crate) fn monitors_on(shared: &Shared) -> bool {
    shared.obs.borrow().monitors.is_some()
}

/// One node's [`RuntimeStats`] view: the registry snapshot plus its share
/// of the wire-layer counters.
pub(crate) fn node_stats_of(shared: &Shared, node: u32) -> RuntimeStats {
    let mut stats = shared.obs.borrow().snapshot(node as usize);
    [stats.sig_refs, stats.sig_defs, stats.wire_buf_reuses] = shared.rpc.wire_counters(node);
    stats
}

/// The cluster-wide view: every node's breakdown folded with
/// [`RuntimeStats::merge`].
pub(crate) fn merged_stats(shared: &Shared) -> RuntimeStats {
    let mut total = RuntimeStats::default();
    for node in 0..shared.vms.len() as u32 {
        total.merge(&node_stats_of(shared, node));
    }
    total
}

/// The wire-layer counters appended to both exports: one `(name, value
/// per node)` row per counter, in the order of
/// [`RpcState::wire_counters`](crate::rpc::RpcState::wire_counters).
fn wire_rows(shared: &Shared) -> [(&'static str, Vec<u64>); 3] {
    let per_node: Vec<[u64; 3]> = (0..shared.vms.len() as u32)
        .map(|n| shared.rpc.wire_counters(n))
        .collect();
    let column = |k: usize| per_node.iter().map(|row| row[k]).collect();
    [
        ("rafda_sig_refs_total", column(0)),
        ("rafda_sig_defs_total", column(1)),
        ("rafda_wire_buf_reuses_total", column(2)),
    ]
}

/// Prometheus text exposition of the registry plus the per-node wire
/// counters.
pub(crate) fn prometheus_text_of(shared: &Shared) -> String {
    let mut out = shared.obs.borrow().reg.prometheus_text();
    for (name, values) in wire_rows(shared) {
        let _ = writeln!(out, "# TYPE {name} counter");
        for (node, v) in values.iter().enumerate() {
            let _ = writeln!(out, "{name}{{node=\"{node}\"}} {v}");
        }
    }
    out
}

/// JSON-lines export: registry metrics, per-node wire counters and the
/// time-series rings, one object per line.
pub(crate) fn metrics_json_of(shared: &Shared) -> String {
    let obs = shared.obs.borrow();
    let mut out = obs.reg.json_lines();
    for (name, values) in wire_rows(shared) {
        for (node, v) in values.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\":\"{name}\",\"type\":\"counter\",\"labels\":{{\"node\":\"{node}\"}},\"value\":{v}}}"
            );
        }
    }
    out.push_str(&obs.recorder.json_lines());
    out
}

/// Sample the time-series rings if the simulated clock has crossed a
/// sampling grid point. Called at the head of every top-level exchange,
/// *before* the outcall queues flush, so queue-depth readings see the
/// pending work. Pure read of runtime state — never advances the clock or
/// mutates anything the application can observe. Every gauge is read
/// through the module that owns the state.
pub(crate) fn maybe_sample(shared: &Shared) {
    let now = shared.net.now().as_ns();
    let Some(stamp) = shared.obs.borrow().recorder.due(now) else {
        return;
    };
    let (queues, ops) = shared.batch.depth();
    let lag = crate::replication::replica_lag(shared) as f64;
    let balance = shared.placement.balance(shared.vms.len());
    let dirty_depth = shared.repl.dirty_depth() as f64;
    let mut obs = shared.obs.borrow_mut();
    let hits = obs.sum(Met::CacheHits);
    let misses = obs.sum(Met::CacheMisses);
    let hit_rate = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    obs.recorder.advance(stamp);
    let samples = [
        queues as f64,
        ops as f64,
        hit_rate,
        lag,
        balance,
        dirty_depth,
    ];
    for (series, value) in obs.series.into_iter().zip(samples) {
        obs.recorder.record(series, stamp, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_every_counter() {
        let mut obs = Obs::new(2);
        for (i, &met) in Met::ALL.iter().enumerate() {
            for _ in 0..=i {
                obs.inc(1, met);
            }
        }
        obs.record_attempts(1, 1);
        obs.record_attempts(1, 3);
        obs.record_attempts(1, 99); // overflow slot, like the saturating array
        let s1 = obs.snapshot(1);
        assert_eq!(s1.rpc_calls, 1);
        assert_eq!(s1.dirty_marks, Met::ALL.len() as u64);
        assert_eq!(s1.attempts, [1, 0, 1, 0, 0, 0, 0, 1]);
        assert_eq!(obs.snapshot(0), RuntimeStats::default());
        assert_eq!(obs.sum(Met::RpcCalls), 1);
    }

    #[test]
    fn registration_order_is_node_major() {
        // The prometheus export groups by first-registration name order;
        // node-major registration keeps that order independent of traffic.
        let obs = Obs::new(2);
        let text = obs.reg.prometheus_text();
        let first = text.lines().next().unwrap();
        assert_eq!(first, "# TYPE rafda_rpc_calls_total counter");
        assert!(text.contains("rafda_rpc_calls_total{node=\"0\"} 0"));
        assert!(text.contains("rafda_rpc_calls_total{node=\"1\"} 0"));
        assert!(text.contains("# TYPE rafda_exchange_attempts histogram"));
    }

    /// `merge` then `delta_from` must round-trip every field, the wire
    /// counters and every attempts bucket included.
    #[test]
    fn merge_and_delta_round_trip_every_counter() {
        let mut stats = RuntimeStats::default();
        for (i, &met) in Met::ALL.iter().enumerate() {
            fill_stats(&mut stats, met, 10 + i as u64);
        }
        stats.attempts = [101, 102, 103, 104, 105, 106, 107, 108];
        [stats.sig_refs, stats.sig_defs, stats.wire_buf_reuses] = [201, 202, 203];
        let base = RuntimeStats {
            rpc_calls: 1,
            attempts: [1; 8],
            wire_buf_reuses: 1,
            ..RuntimeStats::default()
        };
        let mut merged = base;
        merged.merge(&stats);
        assert_eq!(merged.dirty_marks, stats.dirty_marks);
        assert_eq!(merged.rpc_calls, stats.rpc_calls + 1);
        assert_eq!(merged.delta_from(&base), stats);
        assert_eq!(stats.delta_from(&merged), RuntimeStats::default());
    }
}
