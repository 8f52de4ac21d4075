//! The distributed runtime's core: deployment, the state every mechanism
//! shares, hook installation, the [`Cluster`] entry points, and boundary
//! changes (migrate, pull, crash, restart, GC).
//!
//! Each distribution mechanism lives in its own module and owns its state
//! behind private fields: handle tables in `registry`, crash-stop
//! replication in `replication`, batched invocation in `batching`,
//! exchanges and duplicate suppression in `rpc`, request execution in
//! `serve`, proxy calls and failover in `client`, affinity and sharding in
//! `placement`, counters and exports in `obs`. `Shared` holds the
//! cross-cutting core plus one field per mechanism.

use crate::batching::{flush_outqueues, Batching};
use crate::client::{discover_value, make_value, proxy_call, PropCache};
use crate::directory::Directory;
use crate::error::RuntimeError;
use crate::introspect;
use crate::marshal;
use crate::obs::{self, bump, Met, Obs};
use crate::placement::{purge_call_counts, CallCounts, Placement};
use crate::registry::{
    self, cache_import, demote_export_to_forward, export, proxy_fields, read_proxy_state,
    NodeRegistry, Presence,
};
use crate::replication::{
    self, bump_version, collect_replica_probes, mark_node_dirty, sync_dirty_replicas,
    sync_replicas, NodeReplicas, Replication,
};
use crate::rpc::{rpc, ReplyCache, RpcState};
use rafda_classmodel::{ClassId, ClassUniverse, SigId};
use rafda_net::{Network, NodeId, SimTime};
use rafda_policy::DistributionPolicy;
use rafda_telemetry::{standard_monitors, SpanLog, SpanOutcome, Violation};
use rafda_transform::TransformPlan;
use rafda_vm::{Handle, Trace, TraceEvent, Value, Vm, VmError};
use rafda_wire::{Reply, Request, WireValue};
use std::cell::{Ref, RefCell, RefMut};
use std::collections::HashMap;
use std::fmt;
use std::rc::{Rc, Weak};
use std::sync::Arc;

pub use crate::obs::RuntimeStats;
pub use crate::rpc::RetryPolicy;

/// Which half of an artefact family a generated class belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// Instance members (`_O_` family).
    Obj,
    /// Static members (`_C_` family).
    Cls,
}

/// What the runtime knows about a generated implementation class.
#[derive(Debug, Clone)]
pub(crate) struct GenInfo {
    pub base: ClassId,
    pub side: Side,
    /// `Some(protocol)` for proxy classes, `None` for `*_Local`.
    pub proto: Option<String>,
}

impl GenInfo {
    /// A `*_Local` implementation: the object lives where its handle is.
    pub(crate) fn is_local(&self) -> bool {
        self.proto.is_none()
    }

    /// A proxy: the object lives on the node its fields point at.
    pub(crate) fn is_proxy(&self) -> bool {
        self.proto.is_some()
    }

    /// Whether `sig` is one of the family's generated property getters.
    pub(crate) fn is_getter(&self, plan: &TransformPlan, sig: SigId) -> bool {
        plan.family(self.base).is_some_and(|f| match self.side {
            Side::Obj => f.getters.contains(&sig),
            Side::Cls => f.static_getters.contains(&sig),
        })
    }
}

/// One node's volatile state, one member per mechanism. A crash-restart
/// replaces it whole (see [`Cluster::restart`]).
#[derive(Debug, Default)]
pub(crate) struct NodeState {
    pub reg: NodeRegistry,
    pub repl: NodeReplicas,
    pub replies: ReplyCache,
    pub props: PropCache,
    pub calls: CallCounts,
}

/// A per-node registry summary returned by [`Cluster::describe`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSummary {
    /// The node described.
    pub node: NodeId,
    /// Objects this node exports to others.
    pub exports: usize,
    /// Remote objects this node holds proxies for.
    pub imports: usize,
    /// Class singletons resolved on this node (local or proxied).
    pub singletons: Vec<String>,
    /// Live heap entries.
    pub live_objects: usize,
    /// Replies remembered for at-most-once duplicate suppression.
    pub cached_replies: usize,
    /// Whether the node is currently crashed in the fault plan.
    pub crashed: bool,
}

impl fmt::Display for NodeSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}: {} exports, {} imports, {} live objects, {} cached replies, singletons: [{}]",
            self.node,
            if self.crashed { " (crashed)" } else { "" },
            self.exports,
            self.imports,
            self.live_objects,
            self.cached_replies,
            self.singletons.join(", ")
        )
    }
}

/// A reference to an object exported by a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RemoteRef {
    /// The exporting node.
    pub node: NodeId,
    /// The export id on that node.
    pub oid: u64,
}

/// One boundary change performed by [`Cluster::adapt`] or
/// [`Cluster::migrate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationEvent {
    /// The original class of the migrated object.
    pub class: String,
    /// The node the object left.
    pub from: NodeId,
    /// The node it moved to.
    pub to: NodeId,
    /// The object's new export on the destination.
    pub target: RemoteRef,
}

impl fmt::Display for MigrationEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "migrated {} from {} to {} (now {}#{})",
            self.class, self.from, self.to, self.target.node, self.target.oid
        )
    }
}

pub(crate) struct Shared {
    pub universe: Arc<ClassUniverse>,
    pub plan: TransformPlan,
    pub net: Network,
    pub vms: Vec<Vm>,
    pub policy: Box<dyn DistributionPolicy>,
    pub gen_info: HashMap<ClassId, GenInfo>,
    /// One [`NodeState`] per node; see [`Shared::node`].
    pub nodes: RefCell<Vec<NodeState>>,
    pub trace: RefCell<Trace>,
    /// The observability plane: metrics registry (the single write path
    /// for every runtime counter, labeled per node), time-series recorder,
    /// and the optional invariant monitors. Never borrowed across a
    /// nested exchange.
    pub obs: RefCell<Obs>,
    /// Causal span log: every RPC exchange, transmission attempt, server
    /// dispatch, migration and boundary pull, charged to the simulated
    /// clock. Never borrowed across a nested exchange (RPCs re-enter).
    pub spans: RefCell<SpanLog>,
    /// The object directory: every location's property version (which
    /// piggybacks on reply frames so proxy-side caches can revalidate), the
    /// successor links every migration, pull and promotion records, and
    /// the canonical statics singletons. Never borrowed across a call out.
    pub dir: RefCell<Directory>,
    pub repl: Replication,
    pub batch: Batching,
    pub rpc: RpcState,
    pub placement: Placement,
}

impl Shared {
    /// Borrow node `n`'s state. Never held across a call out: RPCs re-enter.
    pub(crate) fn node(&self, n: u32) -> Ref<'_, NodeState> {
        Ref::map(self.nodes.borrow(), |nodes| &nodes[n as usize])
    }

    /// Borrow node `n`'s state mutably, under the same rule as [`Shared::node`].
    pub(crate) fn node_mut(&self, n: u32) -> RefMut<'_, NodeState> {
        RefMut::map(self.nodes.borrow_mut(), |nodes| &mut nodes[n as usize])
    }
}

/// A simulated cluster running one transformed application.
///
/// Cheap to clone; all clones share the same state.
#[derive(Clone)]
pub struct Cluster {
    shared: Rc<Shared>,
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.shared.vms.len())
            .field("families", &self.shared.plan.families.len())
            .finish()
    }
}

impl Cluster {
    /// Deploy a transformed universe over `nodes` simulated nodes.
    ///
    /// Protocol codecs are instantiated for every protocol the plan
    /// generated proxies for.
    pub fn new(
        mut universe: ClassUniverse,
        plan: TransformPlan,
        nodes: u32,
        seed: u64,
        policy: Box<dyn DistributionPolicy>,
    ) -> Self {
        // If the application registered `rafda.Introspection`, flip its
        // generated `_O_Local` methods to native *before* the universe is
        // frozen — deployment wires the hooks below.
        introspect::prepare(&mut universe, &plan);
        let universe = Arc::new(universe);
        let vms: Vec<Vm> = (0..nodes).map(|_| Vm::new(universe.clone())).collect();
        let mut gen_info = HashMap::new();
        for family in plan.families.values() {
            let mut add = |class, side, proto: Option<&String>| {
                let proto = proto.cloned();
                let base = family.base;
                gen_info.insert(class, GenInfo { base, side, proto });
            };
            add(family.obj_local, Side::Obj, None);
            for (p, c) in &family.obj_proxies {
                add(*c, Side::Obj, Some(p));
            }
            if let Some(cl) = family.cls_local {
                add(cl, Side::Cls, None);
            }
            for (p, c) in &family.cls_proxies {
                add(*c, Side::Cls, Some(p));
            }
        }
        // Which mechanisms the policy switches on for any transformed class.
        let any = |on: &dyn Fn(&str) -> bool| {
            plan.families
                .values()
                .any(|f| on(&universe.class(f.base).name))
        };
        let repl = Replication::new(any(&|c| policy.replicas(c) > 0), &vms);
        let placement = Placement::new(any(&|c| policy.shard_spec(c).is_some()));
        let shared = Rc::new(Shared {
            net: Network::new(nodes, seed),
            nodes: RefCell::new((0..nodes).map(|_| NodeState::default()).collect()),
            trace: RefCell::new(Trace::new()),
            obs: RefCell::new(Obs::new(nodes)),
            gen_info,
            spans: RefCell::new(SpanLog::new()),
            dir: RefCell::new(Directory::default()),
            repl,
            batch: Batching::default(),
            rpc: RpcState::new(&plan.protocols),
            placement,
            universe,
            plan,
            vms,
            policy,
        });
        let cluster = Cluster { shared };
        cluster.install_hooks();
        cluster
    }

    pub(crate) fn shared(&self) -> &Shared {
        &self.shared
    }

    /// The shared class universe.
    pub fn universe(&self) -> &Arc<ClassUniverse> {
        &self.shared.universe
    }

    /// The transformation plan this cluster was deployed from.
    pub fn plan(&self) -> &TransformPlan {
        &self.shared.plan
    }

    /// The simulated network (clock, traffic stats, fault injection).
    pub fn network(&self) -> Network {
        self.shared.net.clone()
    }

    /// The VM of one node.
    pub fn vm(&self, node: NodeId) -> Vm {
        self.shared.vms[node.0 as usize].clone()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> u32 {
        self.shared.vms.len() as u32
    }

    /// Cluster-wide runtime statistics: the documented merge of every
    /// node's [`Cluster::node_stats`] breakdown via
    /// [`RuntimeStats::merge`]. Each counter is charged to exactly one
    /// node, so per-node sums always equal this view.
    pub fn stats(&self) -> RuntimeStats {
        obs::merged_stats(&self.shared)
    }

    /// One node's runtime statistics breakdown. Counters are charged to
    /// the node that did the work: client-side counters (retries, cache
    /// hits, batched ops, the attempts histogram, wire encode counters) to
    /// the caller, server-side counters (`rpc_*`, faults, dedup hits,
    /// retransmits received, promotions) to the server.
    pub fn node_stats(&self, node: NodeId) -> RuntimeStats {
        obs::node_stats_of(&self.shared, node.0)
    }

    /// The metrics registry rendered in Prometheus text exposition format,
    /// with the wire-layer per-node counters appended. Deterministic: same
    /// seed, same bytes.
    pub fn prometheus_text(&self) -> String {
        obs::prometheus_text_of(&self.shared)
    }

    /// The metrics registry, wire-layer counters and time-series rings as
    /// JSON lines (one object per line). Deterministic: same seed, same
    /// bytes.
    pub fn metrics_json(&self) -> String {
        obs::metrics_json_of(&self.shared)
    }

    /// Switch on the four standing invariant monitors (stale-read,
    /// at-most-once, span-tree, replica-divergence). Monitors are pure
    /// consumers of runtime events: enabling them never perturbs the
    /// simulated clock or any observable behaviour.
    pub fn enable_monitors(&self) {
        self.shared.obs.borrow_mut().monitors = Some(standard_monitors());
    }

    /// Violations accumulated by the enabled monitors so far (empty when
    /// monitors are off).
    pub fn monitor_violations(&self) -> Vec<Violation> {
        let obs = self.shared.obs.borrow();
        match &obs.monitors {
            Some(monitors) => monitors
                .iter()
                .flat_map(|m| m.violations().iter().cloned())
                .collect(),
            None => Vec::new(),
        }
    }

    /// Run the quiescent-point checks and return every violation known.
    ///
    /// Flushes pending batches and re-ships drifted replicas first (a
    /// quiescent point must not have deferred operations or unshipped
    /// replicated state in flight), then hands the span log to the
    /// monitors' structural check, probes every replica against its
    /// primary, and sweeps the affinity counters for entries referencing
    /// a moved or dead location (`stale-affinity`). A clean run returns
    /// an empty vector; tests assert exactly that, and on failure each
    /// [`Violation`] identifies the offending span and exchange.
    pub fn check_invariants(&self) -> Vec<Violation> {
        let shared = &self.shared;
        let _ = flush_outqueues(shared);
        // A quiescent check probes *every* replicated export, not just
        // recently-marked ones — mark everything, then let the sweep's
        // no-op settling clear the set again. This is the full-table
        // behavior the incremental sweep otherwise avoids, and it is what
        // keeps the invariant check independent of marking completeness.
        for n in 0..shared.vms.len() as u32 {
            mark_node_dirty(shared, n);
        }
        sync_dirty_replicas(shared);
        if shared.obs.borrow().monitors.is_none() {
            return Vec::new();
        }
        {
            // Borrow, don't clone: the log holds the whole run's spans, and
            // copying it at every quiescent point costs linear time and a
            // 2x memory spike on deep soaks. `spans` and `obs` are separate
            // cells, so the shared borrow is safe alongside the obs borrow.
            let log = shared.spans.borrow();
            let mut obs = shared.obs.borrow_mut();
            if let Some(monitors) = obs.monitors.as_mut() {
                for m in monitors.iter_mut() {
                    m.check_span_log(&log);
                }
            }
        }
        for probe in collect_replica_probes(shared) {
            shared.obs.borrow_mut().emit(&probe);
        }
        let mut violations = self.monitor_violations();
        violations.extend(self.stale_affinity_violations());
        violations
    }

    /// Test-only fault injection: silently skip the next tombstone the
    /// object directory records, simulating a runtime that forgot to
    /// mark a moved-away export uncacheable. Exists so the stale-read
    /// monitor's canary test can prove the watchdog catches the bug it was
    /// built for; never use outside tests.
    #[doc(hidden)]
    pub fn debug_skip_next_tombstone(&self) {
        self.shared.dir.borrow_mut().skip_next_tombstone();
    }

    /// Snapshot of the causal span log. Deterministic per seed: same
    /// universe, policy and fault plan produce a byte-identical log.
    pub fn span_log(&self) -> SpanLog {
        self.shared.spans.borrow().clone()
    }

    /// Write the span log in Chrome trace-event JSON, loadable by
    /// `chrome://tracing` and Perfetto (nodes become processes, traces
    /// become tracks).
    ///
    /// # Errors
    /// Any I/O error from writing `path`.
    pub fn export_chrome_trace(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.shared.spans.borrow().chrome_trace_json())
    }

    /// Deterministic text report over the span log: top slowest spans,
    /// hottest methods, per-link latency percentiles.
    pub fn telemetry_report(&self, top: usize) -> String {
        self.shared.spans.borrow().report(top)
    }

    // ------------------------------------------------------------------
    // Hook installation
    // ------------------------------------------------------------------

    /// Register `f` as the native implementation of `class.sig` on `vm`,
    /// run against this cluster's state for as long as the cluster lives.
    fn hook(
        &self,
        vm: &Vm,
        class: ClassId,
        sig: SigId,
        f: impl Fn(&Shared, &[Value]) -> Result<Value, VmError> + 'static,
    ) {
        let weak = Rc::downgrade(&self.shared);
        vm.register_native(class, sig, move |_vm, args| {
            let shared = upgrade(&weak)?;
            f(&shared, args)
        });
    }

    fn install_hooks(&self) {
        let families: Vec<ClassId> = self.shared.plan.families.keys().copied().collect();
        for (node_index, vm) in self.shared.vms.iter().enumerate() {
            let node = NodeId(node_index as u32);
            for &base in &families {
                let family = self.shared.plan.families[&base].clone();
                self.hook(vm, family.obj_factory, family.make_sig, move |shared, _| {
                    make_value(shared, node, base)
                });
                if let (Some(cls_factory), Some(discover_sig)) =
                    (family.cls_factory, family.discover_sig)
                {
                    self.hook(vm, cls_factory, discover_sig, move |shared, _| {
                        discover_value(shared, node, base)
                    });
                }
                for (_proto, proxy) in family.obj_proxies.iter().chain(family.cls_proxies.iter()) {
                    self.install_proxy_hooks(vm, node, *proxy);
                }
            }
        }
        self.install_introspection_hooks();
    }

    /// Wire the native halves of `rafda.Introspection`'s `refresh` and
    /// `node_stats` methods on every node (no-op when the class was never
    /// declared). The getters stay ordinary generated accessors — remote
    /// reads of the snapshot fields travel the normal RMI path and are
    /// counted like any other property read.
    fn install_introspection_hooks(&self) {
        let Some(base) = self
            .shared
            .universe
            .by_name(introspect::INTROSPECTION_CLASS)
        else {
            return;
        };
        let Some(family) = self.shared.plan.family(base) else {
            return;
        };
        let local = family.obj_local;
        let sig_of = |name: &str| {
            self.shared
                .universe
                .class(local)
                .methods
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.sig)
        };
        let (refresh_sig, node_stats_sig) = (sig_of("refresh"), sig_of("node_stats"));
        for (node_index, vm) in self.shared.vms.iter().enumerate() {
            let node = NodeId(node_index as u32);
            if let Some(sig) = refresh_sig {
                self.hook(vm, local, sig, move |shared, args| {
                    introspect::refresh_native(shared, node, args)
                });
            }
            if let Some(sig) = node_stats_sig {
                self.hook(vm, local, sig, introspect::node_stats_native);
            }
        }
    }

    fn install_proxy_hooks(&self, vm: &Vm, node: NodeId, proxy: ClassId) {
        let methods: Vec<(String, SigId)> = self
            .shared
            .universe
            .class(proxy)
            .methods
            .iter()
            .filter(|m| m.is_native)
            .map(|m| (m.name.clone(), m.sig))
            .collect();
        for (name, sig) in methods {
            self.hook(vm, proxy, sig, move |shared, args| {
                proxy_call(shared, node, &name, sig, args)
            });
        }
    }

    // ------------------------------------------------------------------
    // Entry points
    // ------------------------------------------------------------------

    fn class_id(&self, class: &str) -> Result<ClassId, RuntimeError> {
        let id = self.shared.universe.by_name(class);
        id.ok_or_else(|| RuntimeError::Bad(format!("unknown class {class}")))
    }

    /// Call a static method of the original program on `node`. For a
    /// substitutable class this goes through `discover()` and the singleton
    /// (possibly remotely); otherwise it is a plain static call.
    ///
    /// # Errors
    /// Any [`RuntimeError`], including in-model exceptions and network
    /// failures.
    pub fn call_static(
        &self,
        node: NodeId,
        class: &str,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, RuntimeError> {
        let shared = &self.shared;
        let id = self.class_id(class)?;
        let vm = &shared.vms[node.0 as usize];
        if shared.plan.is_substitutable(id) {
            let singleton = discover_value(shared, node, id)?;
            Ok(vm.call_virtual_by_name(singleton, method, args)?)
        } else {
            Ok(vm.call_static_by_name(class, method, args)?)
        }
    }

    /// Create an instance of original class `class` on `node` via the
    /// generated factory (`make` + `init$k`), returning the interface-typed
    /// reference (a local object or a proxy, decided by policy).
    ///
    /// # Errors
    /// Any [`RuntimeError`].
    pub fn new_instance(
        &self,
        node: NodeId,
        class: &str,
        ctor: u16,
        args: Vec<Value>,
    ) -> Result<Value, RuntimeError> {
        let shared = &self.shared;
        let id = self.class_id(class)?;
        let vm = &shared.vms[node.0 as usize];
        match shared.plan.family(id) {
            Some(family) => {
                let that = vm.call_static(family.obj_factory, family.make_sig, vec![])?;
                let init_sig = *family
                    .init_sigs
                    .get(ctor as usize)
                    .ok_or_else(|| RuntimeError::Bad(format!("no ctor {ctor} on {class}")))?;
                let mut all = vec![that.clone()];
                all.extend(args);
                vm.call_static(family.obj_factory, init_sig, all)?;
                // Shard placement must run *after* init: the remote create
                // path ships a default-constructed instance and applies the
                // constructor through the reference, so the shard key is
                // only readable once init has landed.
                if shared.placement.any() {
                    self.place_sharded(node, class, &that)?;
                }
                Ok(that)
            }
            None => Ok(vm.new_instance(id, ctor, args)?),
        }
    }

    /// Invoke `method` on a receiver (local object or proxy) on `node`.
    ///
    /// # Errors
    /// Any [`RuntimeError`].
    pub fn call_method(
        &self,
        node: NodeId,
        recv: Value,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, RuntimeError> {
        Ok(self.shared.vms[node.0 as usize].call_virtual_by_name(recv, method, args)?)
    }

    /// Bind the `Observer` built-in on every node to a **cluster-wide**
    /// trace, so distributed runs produce one comparable event stream.
    pub fn bind_observer(&self, ids: &rafda_vm::vm::ObserverIds) {
        type Emitter = fn(&[Value]) -> Result<TraceEvent, VmError>;
        let emitters: [(SigId, Emitter); 3] = [
            (ids.emit, |args| match args {
                [Value::Long(v)] => Ok(TraceEvent::Emit(*v)),
                [Value::Int(v)] => Ok(TraceEvent::Emit(i64::from(*v))),
                _ => Err(VmError::type_error("Observer.emit expects long")),
            }),
            (ids.emit_str, |args| match args {
                [Value::Str(s)] => Ok(TraceEvent::EmitStr(s.to_string())),
                _ => Err(VmError::type_error("Observer.emit_str expects String")),
            }),
            (ids.emit_double, |args| match args {
                [Value::Double(d)] => Ok(TraceEvent::EmitDouble(d.to_bits())),
                _ => Err(VmError::type_error("Observer.emit_double expects double")),
            }),
        ];
        for vm in &self.shared.vms {
            for (sig, emitter) in emitters {
                self.hook(vm, ids.class, sig, move |shared, args| {
                    shared.trace.borrow_mut().push(emitter(args)?);
                    Ok(Value::Null)
                });
            }
        }
    }

    /// Run an entry point and return the cluster-wide observation trace,
    /// with uncaught exceptions and network failures appended as terminal
    /// events (the comparison format of the equivalence experiments).
    pub fn run_observed(&self, node: NodeId, class: &str, method: &str, args: Vec<Value>) -> Trace {
        *self.shared.trace.borrow_mut() = Trace::new();
        // The end of the run is a synchronization point: operations still
        // deferred on an outcall queue are applied before the trace is
        // compared, exactly as a single-address-space run would have
        // applied them inline.
        let result = self
            .call_static(node, class, method, args)
            .and_then(|v| Ok(flush_outqueues(&self.shared).map(|()| v)?));
        let event = match result {
            Ok(_) => None,
            Err(RuntimeError::Vm(VmError::Exception(h))) => {
                let name = self.shared.vms[node.0 as usize]
                    .class_of(h)
                    .map(|c| self.shared.universe.class(c).name.clone())
                    .unwrap_or_else(|| "<stale>".to_owned());
                Some(TraceEvent::UncaughtException(name))
            }
            Err(e) if e.is_network() => Some(TraceEvent::NetworkFailure(e.to_string())),
            Err(other) => Some(TraceEvent::EmitStr(format!("<error: {other}>"))),
        };
        let mut trace = std::mem::take(&mut *self.shared.trace.borrow_mut());
        if let Some(event) = event {
            trace.push(event);
        }
        trace
    }

    /// Where the object behind a reference held on `node` actually lives:
    /// `node` itself for local objects, the proxy's target for proxies.
    pub fn location_of(&self, node: NodeId, value: &Value) -> Option<NodeId> {
        let h = value.as_ref_handle()?;
        let vm = &self.shared.vms[node.0 as usize];
        vm.class_of(h)?;
        if registry::is_proxy(&self.shared, node.0, h) {
            let (target, _) = read_proxy_state(vm, h)?;
            Some(NodeId(target))
        } else {
            Some(node)
        }
    }

    /// Resolve a reference to the node that owns the live object *and* the
    /// owner's local handle for it — the pair [`Cluster::migrate`] needs,
    /// which lets a driver move an object between two other nodes without
    /// first pulling it to itself. A reference that is already local
    /// resolves to `(node, handle)` unchanged; a proxy is chased one hop
    /// to its recorded owner. Returns `None` for non-references, stale
    /// handles, or an owner that no longer exports the object (it died or
    /// the export was forwarded on).
    pub fn home_of(&self, node: NodeId, value: &Value) -> Option<(NodeId, Handle)> {
        let h = value.as_ref_handle()?;
        let vm = &self.shared.vms[node.0 as usize];
        vm.class_of(h)?;
        if !registry::is_proxy(&self.shared, node.0, h) {
            return Some((node, h));
        }
        let (owner, oid) = read_proxy_state(vm, h)?;
        // The export may itself be a forwarding proxy (the object moved
        // on); only a locally implemented object counts.
        let nodes = self.shared.nodes.borrow();
        match nodes[owner as usize].reg.presence(&self.shared, owner, oid) {
            Presence::Live(handle) => Some((NodeId(owner), handle)),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Boundary changes
    // ------------------------------------------------------------------

    /// Run the boundary change `run` inside a `name` span on `node`, opened
    /// with `attrs` and closed with the moved class once the outcome is
    /// known. A move that did not know its source up front (a pull) also
    /// records where the object came from.
    fn traced_move(
        &self,
        name: &'static str,
        node: NodeId,
        attrs: &[(&'static str, u32)],
        run: impl FnOnce() -> Result<MigrationEvent, RuntimeError>,
    ) -> Result<MigrationEvent, RuntimeError> {
        let shared = &self.shared;
        let span = {
            let mut spans = shared.spans.borrow_mut();
            let h = spans.start_span(name, node.0, shared.net.now().as_ns());
            for &(key, value) in attrs {
                spans.set_attr(h, key, value);
            }
            h
        };
        let result = run();
        let mut spans = shared.spans.borrow_mut();
        let outcome = match &result {
            Ok(event) => {
                spans.set_attr(span, "class", event.class.clone());
                if !attrs.iter().any(|&(key, _)| key == "from") {
                    spans.set_attr(span, "from", event.from.0);
                }
                SpanOutcome::Ok
            }
            Err(e) if e.is_network() => SpanOutcome::NetFailure,
            Err(_) => SpanOutcome::Fault,
        };
        spans.end_span(span, shared.net.now().as_ns(), outcome);
        result
    }

    /// Move a live object to another node. The local instance is rewritten
    /// **in place** into a proxy, so every existing reference on `from`
    /// transparently becomes remote (Figure 1: `C` → `Cp`).
    ///
    /// # Errors
    /// [`RuntimeError`] if the handle is not a live `*_Local` object or the
    /// transfer fails.
    pub fn migrate(
        &self,
        from: NodeId,
        object: Handle,
        to: NodeId,
    ) -> Result<MigrationEvent, RuntimeError> {
        self.traced_move("migrate", from, &[("from", from.0), ("to", to.0)], || {
            self.migrate_inner(from, object, to)
        })
    }

    fn migrate_inner(
        &self,
        from: NodeId,
        object: Handle,
        to: NodeId,
    ) -> Result<MigrationEvent, RuntimeError> {
        let shared = &self.shared;
        if from == to {
            return Err(RuntimeError::Bad("migration to the same node".into()));
        }
        // A migration is a synchronization point, and it must flush *before*
        // the state snapshot below: a deferred call still queued against
        // this object has to land while the object is at its old home, or
        // the shipped state would miss it.
        flush_outqueues(shared).map_err(RuntimeError::from)?;
        let vm = &shared.vms[from.0 as usize];
        let (class, fields) = vm
            .read_object(object)
            .ok_or_else(|| RuntimeError::Bad("stale handle".into()))?;
        let info = shared
            .gen_info
            .get(&class)
            .ok_or_else(|| RuntimeError::Bad("only transformed objects can migrate".into()))?;
        if info.is_proxy() {
            return Err(RuntimeError::Bad(
                "object is already remote (a proxy); migrate it from its owner".into(),
            ));
        }
        let base_name = shared.universe.class(info.base).name.clone();
        let proto = shared.policy.protocol(&base_name);
        let wire_fields =
            marshal::values_to_wire(shared, from, &fields).map_err(RuntimeError::Marshal)?;
        let state = WireValue::ObjectState {
            class: shared.universe.class(class).name.clone(),
            fields: wire_fields,
        };
        let source_oid = export(shared, from, object);
        let (reply, _) = rpc(
            shared,
            from,
            to,
            &proto,
            &base_name,
            &Request::Install {
                state,
                source: Some((from.0, source_oid)),
            },
        )
        .map_err(RuntimeError::from)?;
        let target = match reply {
            Reply::Value(WireValue::Remote { node, object, .. }) => RemoteRef {
                node: NodeId(node),
                oid: object,
            },
            Reply::Fault(m) => return Err(RuntimeError::Bad(m)),
            other => return Err(RuntimeError::Bad(format!("unexpected reply {other:?}"))),
        };
        let proxy_class = registry::proxy_class_for(shared, info.base, info.side, &proto)
            .ok_or_else(|| RuntimeError::Bad(format!("no {proto} proxy for {base_name}")))?;
        vm.replace_object(
            object,
            proxy_class,
            proxy_fields((target.node.0, target.oid)),
        );
        cache_import(shared, from, target.node.0, target.oid, object);
        // The old export now forwards: no read through it may ever be
        // cached again, and affinity data about the old home is obsolete
        // cluster-wide. The move is also recorded cluster-wide — the
        // forwarding proxy alone would be lost if this node restarts.
        shared
            .dir
            .borrow_mut()
            .moved((from.0, source_oid), (target.node.0, target.oid));
        // The moved-away export leaves the exports table for the forwards
        // side-table: lookups still resolve the forwarding proxy, but the
        // replica sweep and placement accounting stop treating the old
        // home as a live export.
        demote_export_to_forward(shared, from.0, source_oid);
        purge_call_counts(shared, &[(from.0, source_oid), (target.node.0, target.oid)]);
        bump(shared, from.0, Met::Migrations);
        Ok(MigrationEvent {
            class: base_name,
            from,
            to,
            target,
        })
    }

    /// Pull a remote object local: fetch its state from the owner, rewrite
    /// the local proxy in place into the real object, and leave a
    /// forwarding proxy at the previous owner.
    ///
    /// # Errors
    /// [`RuntimeError`] if the handle is not a proxy or the transfer fails.
    pub fn pull_local(&self, node: NodeId, proxy: Handle) -> Result<MigrationEvent, RuntimeError> {
        self.traced_move("pull", node, &[("to", node.0)], || {
            self.pull_inner(node, proxy)
        })
    }

    fn pull_inner(&self, node: NodeId, proxy: Handle) -> Result<MigrationEvent, RuntimeError> {
        let shared = &self.shared;
        // Synchronization point, before the owner snapshots state for the
        // fetch (see [`Cluster::migrate`] for why the order matters).
        flush_outqueues(shared).map_err(RuntimeError::from)?;
        let vm = &shared.vms[node.0 as usize];
        let class = vm
            .class_of(proxy)
            .ok_or_else(|| RuntimeError::Bad("stale handle".into()))?;
        let info = shared
            .gen_info
            .get(&class)
            .filter(|i| i.is_proxy())
            .ok_or_else(|| RuntimeError::Bad("pull_local needs a proxy".into()))?;
        let proto = info.proto.clone().expect("filtered");
        let base_name = shared.universe.class(info.base).name.clone();
        let (owner_raw, oid) =
            read_proxy_state(vm, proxy).ok_or_else(|| RuntimeError::Bad("stale proxy".into()))?;
        let owner = NodeId(owner_raw);
        // Fetch the state.
        let (reply, _) = rpc(
            shared,
            node,
            owner,
            &proto,
            &base_name,
            &Request::Fetch { object: oid },
        )
        .map_err(RuntimeError::from)?;
        let (class_name, wire_fields) = match reply {
            Reply::Value(WireValue::ObjectState { class, fields }) => (class, fields),
            Reply::Fault(m) => return Err(RuntimeError::Bad(m)),
            other => return Err(RuntimeError::Bad(format!("unexpected reply {other:?}"))),
        };
        let local_class = shared
            .universe
            .by_name(&class_name)
            .ok_or_else(|| RuntimeError::Bad(format!("unknown class {class_name}")))?;
        let fields =
            marshal::wire_to_values(shared, node, &wire_fields).map_err(RuntimeError::Marshal)?;
        vm.replace_object(proxy, local_class, fields);
        let my_oid = export(shared, node, proxy);
        // Owner-side swap: the old object becomes a forwarding proxy here.
        let (reply, _) = rpc(
            shared,
            node,
            owner,
            &proto,
            &base_name,
            &Request::Forward {
                object: oid,
                to_node: node.0,
                to_object: my_oid,
            },
        )
        .map_err(RuntimeError::from)?;
        if let Reply::Fault(m) = reply {
            return Err(RuntimeError::Bad(m));
        }
        // The pulled copy is a fresh export with fresh state; the old home
        // has been tombstoned by the Forward handler. Affinity counts that
        // referenced either location are stale now, and the move is
        // recorded cluster-wide so failover can chase it even after the
        // old owner's forwarding proxy is wiped by a restart.
        bump_version(shared, node.0, my_oid);
        shared
            .dir
            .borrow_mut()
            .link((owner.0, oid), (node.0, my_oid));
        purge_call_counts(shared, &[(owner.0, oid), (node.0, my_oid)]);
        sync_replicas(shared, node, my_oid);
        bump(shared, node.0, Met::Pulls);
        Ok(MigrationEvent {
            class: base_name,
            from: owner,
            to: node,
            target: RemoteRef { node, oid: my_oid },
        })
    }

    /// Pin a host-held reference as a GC root on `node`. References
    /// returned by [`Cluster::new_instance`] or [`Cluster::call_method`]
    /// are invisible to the collector unless pinned (or reachable from an
    /// export, import, singleton or static).
    pub fn pin(&self, node: NodeId, value: &Value) {
        if let Some(h) = value.as_ref_handle() {
            self.shared.node_mut(node.0).reg.pin(h);
        }
    }

    /// Remove a pin added by [`Cluster::pin`].
    pub fn unpin(&self, node: NodeId, value: &Value) {
        if let Some(h) = value.as_ref_handle() {
            self.shared.node_mut(node.0).reg.unpin(h);
        }
    }

    /// Garbage-collect every node: reachable roots are each node's exported
    /// objects, materialised proxy imports, resolved singletons and host
    /// pins (plus statics, handled by the VM). Returns entries freed per
    /// node.
    ///
    /// Collection is only safe between top-level calls (the synchronous
    /// runtime guarantees no frame is suspended once a call returns).
    pub fn gc(&self) -> Vec<usize> {
        let mut freed = Vec::with_capacity(self.shared.vms.len());
        for (i, vm) in self.shared.vms.iter().enumerate() {
            let roots = self.shared.nodes.borrow()[i].reg.roots();
            freed.push(vm.gc(&roots));
        }
        freed
    }

    /// Crash-stop `node`: every message to or from it fails with
    /// [`NetFailureKind::NodeCrashed`](rafda_vm::NetFailureKind::NodeCrashed)
    /// until [`Cluster::restart`]. The node's memory is untouched while
    /// down (nobody can observe it), but a restart wipes it — crash-stop
    /// nodes lose volatile state.
    ///
    /// Calls in flight are unaffected: the runtime is synchronous, so the
    /// crash takes effect between top-level operations, never mid-exchange.
    pub fn crash(&self, node: NodeId) {
        // A crash is a synchronization point: operations already deferred
        // are flushed while every party is still up, so "the owner
        // acknowledged it" keeps meaning "a replica has it". Ops deferred
        // *after* this point fail at their own flush, like any other call
        // to a crashed node.
        let _ = flush_outqueues(&self.shared);
        self.shared.net.fault_plan(|f| f.crash(node));
    }

    /// Restart a crashed node with empty volatile state, as a crash-stop
    /// process would: exports, imports, singletons, caches and backup
    /// replica state are all gone. Only the export-id counter survives, so
    /// ids handed out before the crash are never reused — a stale proxy
    /// addressing a pre-crash export gets a typed fault, not a different
    /// object. The node rejoins as a replication target at the owner's next
    /// sync. The object directory is left alone: it stands in for a
    /// registry replicated alongside the data, so the node forgets its
    /// exports, not where objects moved or which locations are tombstoned.
    pub fn restart(&self, node: NodeId) {
        // Synchronization point, as for [`Cluster::crash`].
        let _ = flush_outqueues(&self.shared);
        self.shared.net.fault_plan(|f| f.recover(node));
        {
            let mut nodes = self.shared.nodes.borrow_mut();
            let state = &mut nodes[node.0 as usize];
            *state = NodeState {
                reg: state.reg.wiped(),
                ..NodeState::default()
            };
        }
        replication::reseed_after_restart(&self.shared, node.0);
    }

    /// Drain every pending batched outcall queue now — an explicit
    /// synchronization point. A no-op unless the policy marks some class
    /// `batch on` and deferrable operations are actually pending.
    ///
    /// # Errors
    /// The first failure any flushed batch hit: a network failure shipping
    /// a queue, a server-side fault, or an exception a deferred operation
    /// threw when it finally ran (re-thrown here, at the synchronization
    /// point).
    pub fn flush(&self) -> Result<(), RuntimeError> {
        flush_outqueues(&self.shared).map_err(RuntimeError::from)
    }

    /// Read the simulated clock. Reading the time is a synchronization
    /// point: pending batches are flushed first, so the reading covers the
    /// cost of every operation issued before it.
    pub fn now(&self) -> SimTime {
        let _ = flush_outqueues(&self.shared);
        self.shared.net.now()
    }
}

fn upgrade(weak: &Weak<Shared>) -> Result<Rc<Shared>, VmError> {
    weak.upgrade()
        .ok_or_else(|| VmError::Native("cluster torn down".into()))
}

/// Allocate an object of `class` with JVM-default field values.
pub(crate) fn default_instance(shared: &Shared, node: NodeId, class: ClassId) -> Handle {
    let defaults: Vec<Value> = shared
        .universe
        .field_layout(class)
        .iter()
        .map(|&(owner, idx)| {
            Value::default_for(&shared.universe.class(owner).fields[idx as usize].ty)
        })
        .collect();
    shared.vms[node.0 as usize].alloc_raw(class, defaults)
}

/// The runtime's unit tests live next to the state they inspect; each one
/// is registered here, under the name it has always had.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rafda_classmodel::builder::{ClassBuilder, MethodBuilder};
    use rafda_classmodel::{ClassKind, Field, Ty};
    use rafda_policy::{AffinityConfig, StaticPolicy};
    use rafda_transform::Transformer;

    /// A cluster of two nodes running `class C { int v; int add(int d) }`
    /// under `policy`.
    pub(crate) fn deployed(policy: StaticPolicy) -> (Cluster, ClassId) {
        let mut u = ClassUniverse::new();
        let c = u.declare("C", ClassKind::Class);
        {
            let mut cb = ClassBuilder::new(&u, c);
            let v = cb.field(Field::new("v", Ty::Int));
            let mut mb = MethodBuilder::new(1);
            mb.ret();
            cb.ctor(&mut u, vec![], Some(mb.finish()));
            let mut mb = MethodBuilder::new(2);
            mb.load_this();
            mb.load_this().get_field(c, v);
            mb.load_local(1).add();
            mb.put_field(c, v);
            mb.load_this().get_field(c, v).ret_value();
            cb.method(&mut u, "add", vec![Ty::Int], Ty::Int, Some(mb.finish()));
            cb.finish(&mut u);
        }
        let outcome = Transformer::new().protocols(&["RMI"]).run(&mut u).unwrap();
        let cluster = Cluster::new(u, outcome.plan, 2, 7, Box::new(policy));
        (cluster, c)
    }

    /// A cluster running `class K { int k; int v; K(int k); int bump(int
    /// d) }` under `shard K by get_k modulo ...` with no explicit
    /// placement (instances are created locally, then routed).
    pub(crate) fn deployed_sharded(nodes: u32, modulo: u32, seed: u64, k: u32) -> Cluster {
        let mut u = ClassUniverse::new();
        let c = u.declare("K", ClassKind::Class);
        {
            let mut cb = ClassBuilder::new(&u, c);
            let kf = cb.field(Field::new("k", Ty::Int));
            let vf = cb.field(Field::new("v", Ty::Int));
            let mut mb = MethodBuilder::new(2);
            mb.load_this().load_local(1).put_field(c, kf).ret();
            cb.ctor(&mut u, vec![Ty::Int], Some(mb.finish()));
            let mut mb = MethodBuilder::new(2);
            mb.load_this();
            mb.load_this().get_field(c, vf);
            mb.load_local(1).add();
            mb.put_field(c, vf);
            mb.load_this().get_field(c, vf).ret_value();
            cb.method(&mut u, "bump", vec![Ty::Int], Ty::Int, Some(mb.finish()));
            cb.finish(&mut u);
        }
        let outcome = Transformer::new().protocols(&["RMI"]).run(&mut u).unwrap();
        let policy = StaticPolicy::new()
            .shard("K", "get_k", modulo)
            .replicate("K", k);
        Cluster::new(u, outcome.plan, nodes, seed, Box::new(policy))
    }

    macro_rules! registered {
        ($($module:ident :: $name:ident),* $(,)?) => {
            $(
                #[test]
                fn $name() {
                    crate::$module::tests::$name();
                }
            )*
        };
    }

    registered!(
        rpc::dedup_hit_replays_the_serve_time_version,
        rpc::at_most_once_monitor_flags_re_execution_after_cache_loss,
        rpc::repeat_calls_intern_signatures_and_reuse_buffers,
        batching::deferred_ops_flush_at_a_value_returning_call,
        replication::local_mutations_after_self_promotion_reach_the_backups,
        replication::replica_reads_serve_getters_from_the_local_backup,
        placement::sharded_creates_land_on_their_keys_shard_node,
        placement::rebalance_moves_a_warm_shard_off_the_hot_node,
    );

    // --- adaptation/crash chaos (proptest) ---

    use proptest::prelude::*;
    use rafda_corpus::ops::{OpMix, SoakOp};

    const CHAOS_POOL: usize = 6;

    /// The shared adaptation-chaos mix (see [`rafda_corpus::ops`]): calls,
    /// both adaptation loops and crash/restart over nodes 0–2.
    fn arb_chaos_op() -> BoxedStrategy<SoakOp> {
        OpMix::adaptation(CHAOS_POOL, 4, 3).strategy()
    }

    /// The invariant [`purge_call_counts`] maintains, as a proptest
    /// failure: delegates to the same structural sweep
    /// [`Cluster::check_invariants`] runs at quiescent points.
    fn assert_no_stale_affinity(cluster: &Cluster) -> Result<(), TestCaseError> {
        if let Some(first) = cluster.stale_affinity_violations().first() {
            return Err(TestCaseError::fail(first.to_string()));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Random interleavings of calls, both adaptation loops and
        /// crash/restart over a sharded, replicated pool: no call is ever
        /// lost (the oracle stays exact), no affinity counter survives its
        /// object's move or its node's death, and the four standing
        /// monitors stay silent throughout.
        #[test]
        fn adaptation_chaos_leaves_no_stale_affinity(
            ops in prop::collection::vec(arb_chaos_op(), 1..40),
            seed in 0u64..200,
        ) {
            // The coordinator drives every call and never crashes; replica
            // targets prefer low node ids, so it never holds a backup and
            // every failover crosses the wire.
            const COORD: NodeId = NodeId(3);
            let cluster = deployed_sharded(4, 4, 500 + seed, 1);
            cluster.enable_monitors();
            let objs: Vec<Value> = (0..CHAOS_POOL)
                .map(|i| {
                    let obj = cluster
                        .new_instance(COORD, "K", 0, vec![Value::Int(i as i32)])
                        .unwrap();
                    cluster.pin(COORD, &obj);
                    obj
                })
                .collect();
            // Restarted nodes rejoin the sync set at the next served
            // mutation; touching every instance after a restart re-ships
            // each backup before any further crash can lose the last copy
            // (same discipline as the crash-stop chaos soak).
            let touch_all = || {
                for obj in &objs {
                    cluster
                        .call_method(COORD, obj.clone(), "bump", vec![Value::Int(0)])
                        .unwrap();
                }
            };
            let config = AffinityConfig {
                min_calls: 4,
                min_fraction: 0.5,
            };
            let mut oracle = rafda_corpus::ops::Oracle::new(CHAOS_POOL);
            let mut down: Option<NodeId> = None;
            for op in &ops {
                match *op {
                    SoakOp::Call { idx, delta } => {
                        let expected = oracle.step(op).unwrap();
                        let r = cluster
                            .call_method(
                                COORD,
                                objs[idx].clone(),
                                "bump",
                                vec![Value::Int(i32::from(delta))],
                            )
                            .unwrap();
                        prop_assert_eq!(r, Value::Int(expected), "{:?}", op);
                    }
                    SoakOp::Rebalance => {
                        cluster.rebalance_shards(&config);
                    }
                    SoakOp::Adapt => {
                        cluster.adapt(&config);
                    }
                    SoakOp::Crash { node } => {
                        if let Some(d) = down.take() {
                            cluster.restart(d);
                            touch_all();
                        }
                        cluster.crash(NodeId(u32::from(node)));
                        down = Some(NodeId(u32::from(node)));
                    }
                    SoakOp::Heal => {
                        if let Some(d) = down.take() {
                            cluster.restart(d);
                            touch_all();
                        }
                    }
                    ref other => panic!("mix never generates {other}"),
                }
                assert_no_stale_affinity(&cluster)?;
            }
            if let Some(d) = down.take() {
                cluster.restart(d);
            }
            // Final sweep: every instance answers with the oracle value,
            // the affinity map is clean, and the monitors saw nothing.
            for (idx, obj) in objs.iter().enumerate() {
                let r = cluster
                    .call_method(COORD, obj.clone(), "bump", vec![Value::Int(0)])
                    .unwrap();
                prop_assert_eq!(
                    r,
                    Value::Int(oracle.values()[idx]),
                    "final instance {}",
                    idx
                );
            }
            assert_no_stale_affinity(&cluster)?;
            prop_assert_eq!(cluster.check_invariants(), vec![]);
        }
    }
}
