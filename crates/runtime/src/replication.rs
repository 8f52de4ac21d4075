//! Crash-stop replication: which exports replicate, the dirty-replica set
//! and its sweep, state shipment to backups, backup storage, replica reads,
//! and the quiescent replica probes.
//!
//! Marking must cover every way replicated state can drift: version bumps
//! (served mutations, installs, promotions), fresh replicated exports
//! (whose initial state the old full-table sweep shipped at the next
//! synchronization point), and bare local mutations — application code
//! running outside the serve path, which each VM's heap write log records
//! and [`drain_write_log`] turns into marks.

use crate::batching::enqueue_outcall;
use crate::client::record_local_read;
use crate::cluster::Shared;
use crate::directory::Loc;
use crate::marshal;
use crate::obs::{bump, Met};
use crate::registry::{self, lookup_export, Presence};
use crate::rpc::rpc;
use rafda_classmodel::SigId;
use rafda_net::NodeId;
use rafda_telemetry::MonitorEvent;
use rafda_vm::{Heap, HeapEntry, Value, Vm, VmError};
use rafda_wire::{Request, WireValue};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap};

/// Cluster-wide replication state.
#[derive(Default)]
pub(crate) struct Replication {
    /// Whether the policy replicates any transformed class — computed once
    /// at deployment so [`sync_dirty_replicas`] is a single boolean test
    /// for the (common) workloads with no replication.
    any_replication: bool,
    /// Re-entrancy guard for [`sync_dirty_replicas`]: the sweep's shipments
    /// are exchanges, and every exchange is a synchronization point.
    in_replica_sweep: Cell<bool>,
    /// The dirty-replica set: `(owner node, export id)` locations whose
    /// state may have moved past what was last shipped, drained by
    /// [`sync_dirty_replicas`]. A `BTreeSet` keeps the drain in sorted
    /// order without a sort per sweep.
    dirty: RefCell<BTreeSet<Loc>>,
}

/// One node's replication state.
#[derive(Debug, Default)]
pub(crate) struct NodeReplicas {
    /// Export ids on this node that are locally implemented *and* belong to
    /// a replicated class — the only locations a dirty-set mark can ever
    /// make shippable. A `BTreeSet` so node-level conservative marks insert
    /// in ascending id order.
    replicated: BTreeSet<u64>,
    /// Backup copies of replicated exports owned by *other* nodes, keyed by
    /// the primary's location `(owner node, export id)`. The value is the
    /// owner's property version plus the object's class name and marshalled
    /// fields, exactly as shipped by the last [`Request::ReplicaSync`]. The
    /// state stays in wire form until a [`Request::Promote`] materialises
    /// it — a backup that never promotes costs no heap objects.
    replica_store: HashMap<Loc, Backup>,
    /// The property version and marshalled state each local export last
    /// shipped to its backups. [`sync_replicas`] skips the per-target
    /// exchanges when both are unchanged — repeated `Discover`/`Create`
    /// serves of an unmutated object would otherwise re-ship identical
    /// state. When the *state* moved but the version did not (a local call
    /// mutated a promoted or pulled replica without a serve in between),
    /// the sync bumps the version itself before shipping. Cleared
    /// cluster-wide on every restart so a rejoining backup is re-seeded at
    /// the owner's next sync.
    synced_versions: HashMap<u64, (u64, Vec<WireValue>)>,
}

/// A stored backup: the owner's version, class name and marshalled fields.
pub(crate) type Backup = (u64, String, Vec<WireValue>);

impl Replication {
    /// Replication state for a deployment. When the policy replicates
    /// anything, every VM starts logging heap writes: replicated state can
    /// change through plain local calls the runtime never sees, and the
    /// logs tell the sweep which objects those calls wrote.
    pub(crate) fn new(any_replication: bool, vms: &[Vm]) -> Replication {
        if any_replication {
            for vm in vms {
                vm.with_heap(Heap::log_writes);
            }
        }
        Replication {
            any_replication,
            ..Replication::default()
        }
    }

    pub(crate) fn any(&self) -> bool {
        self.any_replication
    }

    /// Entries in the dirty-replica set: locations the next sweep probes.
    pub(crate) fn dirty_depth(&self) -> usize {
        self.dirty.borrow().len()
    }
}

/// Replicated exports whose last shipment lags the owner's live version.
pub(crate) fn replica_lag(shared: &Shared) -> u64 {
    let nodes = shared.nodes.borrow();
    let dir = shared.dir.borrow();
    let mut lag = 0u64;
    for (owner, state) in nodes.iter().enumerate() {
        for (&oid, &(synced, _)) in &state.repl.synced_versions {
            let current = dir.live_version((owner as u32, oid));
            if current.is_some_and(|v| v != synced) {
                lag += 1;
            }
        }
    }
    lag
}

/// Record whether export `(node, oid)` may ship; one that may is marked
/// dirty at once, so its initial state ships at the next sweep.
pub(crate) fn set_replicated(shared: &Shared, node: u32, oid: u64, replicated: bool) {
    let mut nodes = shared.nodes.borrow_mut();
    let repl = &mut nodes[node as usize].repl;
    if replicated {
        repl.replicated.insert(oid);
        drop(nodes);
        mark_dirty(shared, node, oid);
    } else {
        repl.replicated.remove(&oid);
    }
}

/// The export `(node, oid)` now forwards: it can never ship again.
pub(crate) fn forget(shared: &Shared, node: u32, oid: u64) {
    shared.node_mut(node).repl.replicated.remove(&oid);
    shared.repl.dirty.borrow_mut().remove(&(node, oid));
}

/// Record a (possible) mutation of the export `(node, oid)`: any cached
/// property read tagged with an older version becomes stale. Tombstoned
/// locations stay tombstoned. Returns the version after the bump.
pub(crate) fn bump_version(shared: &Shared, node: u32, oid: u64) -> u64 {
    let version = shared.dir.borrow_mut().bump((node, oid));
    // A version bump is a (possible) mutation: the backups are behind
    // until the next sync, so the sweep must know to probe this location.
    mark_dirty(shared, node, oid);
    version
}

/// Mark the export `(node, oid)` dirty: its next sweep probe will compare
/// live state against the last shipment. A no-op for locations that are
/// not locally implemented instances of a replicated class — only those
/// can ever ship.
pub(crate) fn mark_dirty(shared: &Shared, node: u32, oid: u64) {
    if !shared.repl.any_replication {
        return;
    }
    if !shared.node(node).repl.replicated.contains(&oid) {
        return;
    }
    shared.repl.dirty.borrow_mut().insert((node, oid));
    bump(shared, node, Met::DirtyMarks);
}

/// Mark every replicated export of `node` dirty — used when by-value state
/// on the node was written (it may sit inside any replicated object's
/// fields), to re-seed the sweep after a restart cleared
/// `synced_versions`, and by the quiescent full-table probe.
pub(crate) fn mark_node_dirty(shared: &Shared, node: u32) {
    if !shared.repl.any_replication {
        return;
    }
    let marked = {
        let nodes = shared.nodes.borrow();
        let replicated = &nodes[node as usize].repl.replicated;
        if replicated.is_empty() {
            return;
        }
        let mut dirty = shared.repl.dirty.borrow_mut();
        for &oid in replicated {
            dirty.insert((node, oid));
        }
        replicated.len() as u64
    };
    let mut obs = shared.obs.borrow_mut();
    for _ in 0..marked {
        obs.inc(node, Met::DirtyMarks);
    }
}

/// Turn `node`'s heap write log into dirty marks. A written export is
/// marked exactly. A written array or untransformed object is by-value
/// state that may sit inside any replicated object's fields, so the node
/// is marked whole. Any other write — a proxy, an unexported local — cannot
/// change what a replica ships.
fn drain_write_log(shared: &Shared, node: u32) {
    let vm = &shared.vms[node as usize];
    let mut writes = vm.with_heap(Heap::take_writes);
    writes.sort_unstable();
    writes.dedup();
    let mut by_value = false;
    for h in writes {
        let oid = shared.node(node).reg.export_id(h);
        match oid {
            Some(oid) => mark_dirty(shared, node, oid),
            None => {
                by_value = by_value
                    || vm.with_heap(|heap| match heap.get(h) {
                        Some(HeapEntry::Array { .. }) => true,
                        Some(HeapEntry::Object { class, .. }) => {
                            !shared.gen_info.contains_key(class)
                        }
                        None => false,
                    });
            }
        }
    }
    if by_value {
        mark_node_dirty(shared, node);
    }
}

/// A crash-restarted `node` rejoins with no backups and no exports. Every
/// owner must re-seed it at its next sync, even if the shipped version has
/// not moved since the last one; the node's pre-crash dirty entries and
/// unread heap write log describe state that no longer exists, and
/// shipping from them would resurrect stale backups. The sweep only probes
/// marked locations, so every live node's replicated exports are marked.
pub(crate) fn reseed_after_restart(shared: &Shared, node: u32) {
    for state in shared.nodes.borrow_mut().iter_mut() {
        state.repl.synced_versions.clear();
    }
    shared.repl.dirty.borrow_mut().retain(|&(n, _)| n != node);
    shared.vms[node as usize].with_heap(Heap::take_writes);
    for n in 0..shared.vms.len() as u32 {
        mark_node_dirty(shared, n);
    }
}

/// The deterministic replication targets for an export owned by `owner` in
/// a cluster of `nodes` nodes: the `k` lowest-numbered node ids other than
/// the owner. A pure function of the topology — there is no replica
/// registry to keep consistent or repair, and a restarted backup re-enters
/// the target set automatically at the owner's next sync. Failover tries
/// the same list in the same order, so every client re-homes to the same
/// replica.
pub(crate) fn replica_targets(k: u32, owner: u32, nodes: u32) -> Vec<u32> {
    (0..nodes)
        .filter(|&n| n != owner)
        .take(k as usize)
        .collect()
}

/// Ship the current state of export `oid` on `owner` to its replication
/// targets, if its class is replicated by policy. Called after every served
/// operation that may have mutated the object (and after exports that
/// create one), so a live backup is never behind the last mutation the
/// owner served.
///
/// Crashed targets are skipped outright — the fault-plan lookup stands in
/// for the failure detector a real owner would run — and other sync
/// failures are swallowed: replication is best-effort per sync and repaired
/// by the next one. Only the authoritative copy is shipped; proxies and
/// forwarding exports never sync.
pub(crate) fn sync_replicas(shared: &Shared, owner: NodeId, oid: u64) {
    let Some(h) = lookup_export(shared, owner, oid) else {
        return;
    };
    let vm = &shared.vms[owner.0 as usize];
    let Some(info) = registry::info_of(shared, owner.0, h).filter(|i| i.is_local()) else {
        return;
    };
    let base_name = shared.universe.class(info.base).name.clone();
    let k = shared.policy.replicas(&base_name);
    if k == 0 {
        return;
    }
    let Some((class, fields)) = vm.read_object(h) else {
        return;
    };
    let Ok(wire_fields) = marshal::values_to_wire(shared, owner, &fields) else {
        return;
    };
    // Writes logged so far are covered by this probe: turning them into
    // marks now lets the settle or the shipment below spend this object's
    // mark, instead of leaving it for a redundant probe at the next sweep.
    drain_write_log(shared, owner.0);
    // Skip the no-op sync outright: if neither the version nor the state
    // has moved since the last shipment, the backups already hold exactly
    // this state and k exchanges would buy nothing. Repeated `Discover`
    // and `Create` serves of an unmutated singleton hit this constantly.
    //
    // State drift at an *unchanged* version means the object was mutated
    // outside the serve path — a promoted or pulled replica living in the
    // caller's own VM takes plain local calls that never bump the version.
    // Bump it here before shipping: the backups must not hold two
    // different states under one version tag, and stale property-cache
    // entries tagged with the old version must stop validating.
    let version = shared.dir.borrow().version((owner.0, oid));
    let prior = shared.node(owner.0).repl.synced_versions.get(&oid).cloned();
    let version = match prior {
        Some((v, ref shipped)) if v == version && *shipped == wire_fields => {
            // Nothing drifted: the probe settled this location, so a
            // pending dirty mark for it is spent.
            shared.repl.dirty.borrow_mut().remove(&(owner.0, oid));
            return;
        }
        Some((v, _)) if v == version => bump_version(shared, owner.0, oid),
        _ => version,
    };
    let class_name = shared.universe.class(class).name.clone();
    let proto = shared.policy.protocol(&base_name);
    let batched = shared.policy.batched(&base_name);
    // Record the shipment *before* the exchanges below: each one is a
    // top-level rpc, which runs the dirty-replica sweep, which would see an
    // unrecorded (or stale-recorded) entry for this very object and ship it
    // a second time.
    shared
        .node_mut(owner.0)
        .repl
        .synced_versions
        .insert(oid, (version, wire_fields.clone()));
    // This shipment spends the dirty mark (including the re-mark the
    // drift bump above just made): state and record agree again.
    shared.repl.dirty.borrow_mut().remove(&(owner.0, oid));
    for t in replica_targets(k, owner.0, shared.vms.len() as u32) {
        if shared.net.fault_plan(|f| f.is_crashed(NodeId(t))) {
            continue;
        }
        let req = Request::ReplicaSync {
            object: oid,
            version,
            state: WireValue::ObjectState {
                class: class_name.clone(),
                fields: wire_fields.clone(),
            },
        };
        if batched {
            // Replica shipments of a batched class are deferrable: they
            // ride the owner's outcall queue to each backup and land at the
            // next synchronization point.
            enqueue_outcall(shared, owner, NodeId(t), &proto, &base_name, req);
        } else {
            let _ = rpc(shared, owner, NodeId(t), &proto, &base_name, &req);
        }
    }
}

/// Re-ship every **dirty** replicated export whose live state drifted from
/// its last shipment — the dirty-replica sweep run at synchronization
/// points.
///
/// Mutations served over the wire trigger [`sync_replicas`] inline, but a
/// promoted (or pulled) object lives in its caller's VM and takes plain
/// local calls the runtime never sees. The sweep closes that gap: at every
/// top-level exchange and at quiescent points, the locations marked dirty
/// since their last shipment are offered to [`sync_replicas`], which ships
/// (and version-bumps) exactly those whose state moved and no-ops on the
/// rest.
///
/// The sweep drains the dirty set instead of enumerating every export of
/// every node — O(dirty) per synchronization point, not O(exports) — and
/// iterates it in `(node, oid)` order, the exact order the old full-table
/// sweep enumerated, so the shipment sequence (and with it every message
/// id, clock reading and report byte) is unchanged for any run. Marking
/// covers everything the full sweep could ship (see the module docs).
/// Gated on `any_replication` so workloads without a `replicate` policy pay
/// one boolean test, and guarded against re-entry because the shipments are
/// themselves exchanges.
pub(crate) fn sync_dirty_replicas(shared: &Shared) {
    let repl = &shared.repl;
    if !repl.any_replication || repl.in_replica_sweep.get() {
        return;
    }
    for n in 0..shared.vms.len() as u32 {
        drain_write_log(shared, n);
    }
    if repl.dirty.borrow().is_empty() {
        return;
    }
    repl.in_replica_sweep.set(true);
    // Take the set whole: marks made *during* the sweep (writes logged by
    // nested exchanges, the drift bump inside a shipment) are next sweep's
    // work, exactly like mutations made during the old full enumeration.
    let targets = std::mem::take(&mut *repl.dirty.borrow_mut());
    for (n, oid) in targets {
        // A crashed owner cannot ship; its backups are exactly what the
        // failover machinery is for. The entry is dropped, not kept: a
        // restart wipes the owner's state and re-seeds the sweep for every
        // node, so nothing stale survives to ship.
        if shared.net.fault_plan(|f| f.is_crashed(NodeId(n))) {
            continue;
        }
        bump(shared, n, Met::ReplicaSweepProbes);
        sync_replicas(shared, NodeId(n), oid);
    }
    repl.in_replica_sweep.set(false);
}

/// Store a shipped backup of `(owner, oid)` on `node`. The state stays in
/// wire form until promotion: a backup that never promotes allocates
/// nothing on its heap.
pub(crate) fn store_backup(shared: &Shared, node: NodeId, owner: Loc, backup: Backup) {
    shared
        .node_mut(node.0)
        .repl
        .replica_store
        .insert(owner, backup);
}

/// Remove and return `node`'s backup of `owner`, for promotion.
pub(crate) fn take_backup(shared: &Shared, node: NodeId, owner: Loc) -> Option<Backup> {
    shared.node_mut(node.0).repl.replica_store.remove(&owner)
}

/// Serve a getter from `node`'s own replica copy of `(owner, oid)`, iff
/// the copy's version equals the owner's current property version (and the
/// export has not been tombstoned by a move). `Ok(None)` means the node
/// holds no copy or the copy lags — the caller falls through to a normal
/// owner exchange, whose served reply restores the replica's currency.
///
/// In the simulated topology every inter-node link costs the same, so the
/// nearest *profitable* replica is always the caller's own store: remote
/// replicas would cost exactly what the owner does.
pub(crate) fn replica_read(
    shared: &Shared,
    node: NodeId,
    (base_name, proto, method): (&str, &str, &str),
    sig: SigId,
    (owner, oid): Loc,
) -> Result<Option<Value>, VmError> {
    if owner == node.0 {
        return Ok(None);
    }
    let Some(current) = shared.dir.borrow().live_version((owner, oid)) else {
        return Ok(None);
    };
    let copy = shared
        .node(node.0)
        .repl
        .replica_store
        .get(&(owner, oid))
        .cloned();
    let Some((version, class_name, fields)) = copy else {
        return Ok(None);
    };
    if version != current {
        return Ok(None);
    }
    let Some(local_class) = shared.universe.by_name(&class_name) else {
        return Ok(None);
    };
    // Materialise a throwaway local instance from the replica's wire-form
    // state and run the real getter bytecode against it — no field-layout
    // knowledge needed here, and the temporary is unrooted garbage after
    // the call returns.
    let vm = &shared.vms[node.0 as usize];
    let values = marshal::wire_to_values(shared, node, &fields).map_err(VmError::Native)?;
    let h = vm.alloc_raw(local_class, values);
    let result = vm.call_virtual(Value::Ref(h), sig, vec![])?;
    bump(shared, node.0, Met::ReplicaReads);
    record_local_read(
        shared,
        node,
        (base_name, proto, method),
        (owner, oid),
        "replica_read",
    );
    Ok(Some(result))
}

/// Compare every backup's stored replica against its primary's live state
/// at a quiescent point, yielding one [`MonitorEvent::ReplicaProbe`] per
/// comparable pair. Read-only: the probe never marshals (marshalling a
/// reference would create exports) — reference-typed fields are skipped
/// and only primitive state is deep-compared.
pub(crate) fn collect_replica_probes(shared: &Shared) -> Vec<MonitorEvent> {
    let mut probes = Vec::new();
    let nodes = shared.nodes.borrow();
    for (backup, state) in nodes.iter().enumerate() {
        let store = &state.repl.replica_store;
        let mut keys: Vec<Loc> = store.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let (backup_version, class_name, fields) = &store[&key];
            let (owner, oid) = key;
            let Some(owner_version) = shared.dir.borrow().live_version((owner, oid)) else {
                // The object migrated away; the replica describes a dead
                // location and will be superseded by the new home's syncs.
                continue;
            };
            // Owner restarted with amnesia (nothing to compare until the
            // next sync re-seeds the backup), or the export forwards (the
            // authoritative copy lives elsewhere now).
            let Presence::Live(h) = nodes[owner as usize].reg.presence(shared, owner, oid) else {
                continue;
            };
            let Some((class, values)) = shared.vms[owner as usize].read_object(h) else {
                continue;
            };
            let state_matches = if *backup_version == owner_version {
                *class_name == shared.universe.class(class).name
                    && wire_state_matches(&values, fields)
            } else {
                // Different versions are never comparable — the version
                // relation itself is judged by the monitor.
                true
            };
            probes.push(MonitorEvent::ReplicaProbe {
                owner,
                oid,
                backup: backup as u32,
                owner_version,
                backup_version: *backup_version,
                state_matches,
            });
        }
    }
    probes
}

/// Field-wise comparison of live values against marshalled replica state.
/// Primitives compare exactly (floats bit-wise); reference-typed fields
/// are not comparable without marshalling side effects and pass.
fn wire_state_matches(values: &[Value], wire: &[WireValue]) -> bool {
    values.len() == wire.len()
        && values.iter().zip(wire).all(|(v, w)| match (v, w) {
            (Value::Bool(a), WireValue::Bool(b)) => a == b,
            (Value::Int(a), WireValue::Int(b)) => a == b,
            (Value::Long(a), WireValue::Long(b)) => a == b,
            (Value::Float(a), WireValue::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Double(a), WireValue::Double(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), WireValue::Str(b)) => a.as_ref() == b.as_str(),
            (Value::Null, WireValue::Null) => true,
            _ => true,
        })
}

/// Bodies of the replication tests registered in `cluster::tests`.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cluster::tests::deployed;
    use crate::cluster::Cluster;
    use crate::registry::read_proxy_state;
    use rafda_classmodel::builder::{ClassBuilder, MethodBuilder};
    use rafda_classmodel::{ClassKind, ClassUniverse, Field, Ty};
    use rafda_policy::{Placement, StaticPolicy};
    use rafda_transform::Transformer;

    /// Regression for a lost-update hazard the replica-divergence monitor
    /// exposed: when a caller promotes a backup *onto itself*, failover
    /// materialises the object in the caller's own VM, and every later call
    /// on it is a plain local invocation — no serve, no version bump, no
    /// [`sync_replicas`]. Before the dirty-replica sweep, the backups froze
    /// at the promotion-time state forever, so a second crash would have
    /// resurrected stale state. The sweep at the next exchange must bump
    /// the version and re-ship the drifted state.
    pub(crate) fn local_mutations_after_self_promotion_reach_the_backups() {
        let mut u = ClassUniverse::new();
        for name in ["CA", "CB"] {
            let c = u.declare(name, ClassKind::Class);
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
        let policy = StaticPolicy::new()
            .place("CA", Placement::Node(NodeId(1)))
            .place("CB", Placement::Node(NodeId(2)))
            .replicate("CA", 1)
            .replicate("CB", 1);
        let cluster = Cluster::new(u, outcome.plan, 3, 260, Box::new(policy));
        cluster.enable_monitors();
        let a = cluster.new_instance(NodeId(0), "CA", 0, vec![]).unwrap();
        let b = cluster.new_instance(NodeId(0), "CB", 0, vec![]).unwrap();
        // Crash CA's home: the next call from node 0 promotes node 0's own
        // backup, so `a` becomes a local object of the caller.
        cluster.crash(NodeId(1));
        cluster.restart(NodeId(1));
        for (obj, d, want) in [(&a, -4, -4), (&b, -9, -9), (&a, -3, -7)] {
            assert_eq!(
                cluster
                    .call_method(NodeId(0), (*obj).clone(), "add", vec![Value::Int(d)])
                    .unwrap(),
                Value::Int(want)
            );
        }
        // add(-3) ran locally on the promoted copy; the `b` exchange after
        // it (and the quiescent point itself) must have re-shipped it.
        assert_eq!(cluster.check_invariants(), vec![]);
        let nodes = cluster.shared().nodes.borrow();
        let backup = nodes
            .iter()
            .flat_map(|st| st.repl.replica_store.get(&(0, 1)))
            .next()
            .expect("the promoted object keeps a backup");
        assert_eq!(backup.2, vec![WireValue::Int(-7)], "backup holds -4-3");
    }

    /// `reads from replicas`: a getter issued by a caller that holds a
    /// backup of the object is served from that backup only while the
    /// backup's version matches the owner's — fresh hits skip the
    /// exchange entirely, a lagging backup falls through to the owner,
    /// and the stale-read monitor stays silent throughout.
    pub(crate) fn replica_reads_serve_getters_from_the_local_backup() {
        let policy = StaticPolicy::new()
            .place("C", Placement::Node(NodeId(1)))
            .replicate("C", 1)
            .replica_reads("C", true);
        let (cluster, _) = deployed(policy);
        cluster.enable_monitors();
        let obj = cluster.new_instance(NodeId(0), "C", 0, vec![]).unwrap();
        let shared = cluster.shared();
        let (owner, oid) = read_proxy_state(&shared.vms[0], obj.as_ref_handle().unwrap()).unwrap();
        assert_eq!(owner, 1, "policy must place the object remotely");
        let call = |method: &str, args: Vec<Value>| {
            cluster
                .call_method(NodeId(0), obj.clone(), method, args)
                .unwrap()
        };
        // A mutation is served at the owner and ships the backup to node 0.
        assert_eq!(call("add", vec![Value::Int(5)]), Value::Int(5));
        assert!(cluster.stats().replica_syncs >= 1);

        let before = cluster.stats().rpc_calls;
        assert_eq!(call("get_v", vec![]), Value::Int(5));
        let stats = cluster.stats();
        assert_eq!(stats.rpc_calls, before, "a fresh backup serves locally");
        assert_eq!(stats.replica_reads, 1, "{stats}");

        // Age the stored version: the same getter must now fall through
        // to the owner instead of serving what just became a stale copy.
        shared.nodes.borrow_mut()[0]
            .repl
            .replica_store
            .get_mut(&(owner, oid))
            .expect("backup entry")
            .0 -= 1;
        assert_eq!(call("get_v", vec![]), Value::Int(5));
        let stats = cluster.stats();
        assert_eq!(stats.rpc_calls, before + 1, "lagging backup: {stats}");
        assert_eq!(stats.replica_reads, 1, "{stats}");

        // Writes keep flowing through the owner; the re-shipped backup
        // serves the next read with the new value.
        assert_eq!(call("add", vec![Value::Int(2)]), Value::Int(7));
        assert_eq!(call("get_v", vec![]), Value::Int(7));
        assert_eq!(cluster.monitor_violations(), vec![]);
    }
}
