//! Per-node handle tables: exports (live and forwarding), the reverse
//! handle → export id map, the import cache, class singletons and host
//! pins — plus the one answer every mechanism needs about a location or a
//! handle: is it a live local object, a forwarding proxy, or gone?
//!
//! The tables describe one node's memory, so a crash-restart wipes them
//! (only the export-id counter survives). That is why they stay out of the
//! [`Directory`](crate::directory::Directory), which survives restarts.

use crate::cluster::{Cluster, GenInfo, NodeSummary, Shared, Side};
use crate::replication;
use rafda_classmodel::ClassId;
use rafda_net::NodeId;
use rafda_vm::{Handle, Value, Vm};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// One node's handle tables.
#[derive(Debug, Default)]
pub(crate) struct NodeRegistry {
    exports: HashMap<u64, Handle>,
    export_ids: HashMap<Handle, u64>,
    /// Forwarding stubs left behind by a migration or pull (see
    /// [`demote_export_to_forward`]). The reverse `export_ids` mapping is
    /// kept so re-exporting the same handle (the object migrating back
    /// home) reuses its original id.
    forwards: HashMap<u64, Handle>,
    next_oid: u64,
    imports: HashMap<(u32, u64), Handle>,
    /// Per-class singleton, registered before its static initialiser runs
    /// so a re-entrant `discover()` sees the in-progress instance, as in
    /// the JVM.
    singletons: HashMap<ClassId, Handle>,
    /// Host-pinned GC roots (references held outside the simulation, e.g.
    /// by embedding Rust code).
    pins: HashSet<Handle>,
}

/// Where an export id on a node stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Presence {
    /// A live export implemented on the node itself.
    Live(Handle),
    /// The object moved away; the id resolves to a forwarding proxy.
    Forwarding,
    /// The node never exported the id, or forgot it in a restart.
    Gone,
}

impl NodeRegistry {
    /// The tables a crash-restarted node comes back with: empty, except
    /// that export ids keep counting from where they stopped, so an id
    /// handed out before the crash is never reused — a stale proxy
    /// addressing it gets a typed fault, not a different object.
    pub(crate) fn wiped(&self) -> NodeRegistry {
        NodeRegistry {
            next_oid: self.next_oid,
            ..NodeRegistry::default()
        }
    }

    /// The handle export id `oid` resolves to: the live object, or the
    /// forwarding proxy a move left behind.
    fn lookup(&self, oid: u64) -> Option<Handle> {
        self.exports
            .get(&oid)
            .or_else(|| self.forwards.get(&oid))
            .copied()
    }

    /// The handle behind live export `oid` (forwarding stubs excluded).
    pub(crate) fn exported(&self, oid: u64) -> Option<Handle> {
        self.exports.get(&oid).copied()
    }

    /// Live exports as `(export id, handle)`, sorted by id.
    pub(crate) fn exports_sorted(&self) -> Vec<(u64, Handle)> {
        let mut v: Vec<(u64, Handle)> = self.exports.iter().map(|(&o, &h)| (o, h)).collect();
        v.sort_unstable();
        v
    }

    /// The export id `h` was exported under, if any (live or forwarding).
    pub(crate) fn export_id(&self, h: Handle) -> Option<u64> {
        self.export_ids.get(&h).copied()
    }

    /// Whether `oid` is a live local object, a forwarding proxy, or gone.
    pub(crate) fn presence(&self, shared: &Shared, node: u32, oid: u64) -> Presence {
        match self.exports.get(&oid) {
            Some(&h) if is_local(shared, node, h) => Presence::Live(h),
            Some(_) => Presence::Forwarding,
            None if self.forwards.contains_key(&oid) => Presence::Forwarding,
            None => Presence::Gone,
        }
    }

    pub(crate) fn pin(&mut self, h: Handle) {
        self.pins.insert(h);
    }

    pub(crate) fn unpin(&mut self, h: Handle) {
        self.pins.remove(&h);
    }

    /// GC roots: exported objects, forwarding stubs, materialised imports,
    /// host pins and resolved singletons.
    pub(crate) fn roots(&self) -> Vec<Handle> {
        self.exports
            .values()
            .chain(self.forwards.values())
            .chain(self.imports.values())
            .chain(self.pins.iter())
            .chain(self.singletons.values())
            .copied()
            .collect()
    }
}

impl Cluster {
    /// Number of objects node `n` currently exports.
    pub fn export_count(&self, n: NodeId) -> usize {
        self.shared().node(n.0).reg.exports.len()
    }

    /// Per-node registry summary (for diagnostics and examples).
    pub fn describe(&self) -> Vec<NodeSummary> {
        let shared = self.shared();
        let nodes = shared.nodes.borrow();
        nodes
            .iter()
            .enumerate()
            .map(|(i, state)| NodeSummary {
                node: NodeId(i as u32),
                exports: state.reg.exports.len(),
                imports: state.reg.imports.len(),
                singletons: state
                    .reg
                    .singletons
                    .keys()
                    .map(|&base| shared.universe.class(base).name.clone())
                    .collect(),
                live_objects: shared.vms[i].stats().heap.live as usize,
                cached_replies: state.replies.len(),
                crashed: shared.net.fault_plan(|f| f.is_crashed(NodeId(i as u32))),
            })
            .collect()
    }
}

/// The generated-class facts behind `h` on `node`; `None` for stale
/// handles, arrays and untransformed objects.
pub(crate) fn info_of(shared: &Shared, node: u32, h: Handle) -> Option<&GenInfo> {
    shared.vms[node as usize]
        .class_of(h)
        .and_then(|c| shared.gen_info.get(&c))
}

/// Whether `h` on `node` is a locally implemented (`*_Local`) object.
pub(crate) fn is_local(shared: &Shared, node: u32, h: Handle) -> bool {
    info_of(shared, node, h).is_some_and(GenInfo::is_local)
}

/// Whether `h` on `node` is a proxy for an object elsewhere.
pub(crate) fn is_proxy(shared: &Shared, node: u32, h: Handle) -> bool {
    info_of(shared, node, h).is_some_and(GenInfo::is_proxy)
}

/// Export `h` from `node`, returning its export id (the existing one if it
/// was exported before).
pub(crate) fn export(shared: &Shared, node: NodeId, h: Handle) -> u64 {
    let oid = {
        let mut nodes = shared.nodes.borrow_mut();
        let reg = &mut nodes[node.0 as usize].reg;
        if let Some(&oid) = reg.export_ids.get(&h) {
            // The object migrated away and came back: its id was demoted to
            // a forwarding stub, and re-exporting the (in-place-rewritten)
            // handle promotes the entry back to a live export under the
            // original id.
            if reg.forwards.remove(&oid).is_some() {
                reg.exports.insert(oid, h);
            }
            oid
        } else {
            reg.next_oid += 1;
            let oid = reg.next_oid;
            reg.exports.insert(oid, h);
            reg.export_ids.insert(h, oid);
            oid
        }
    };
    classify_export(shared, node, oid, h);
    oid
}

/// (Re)classify the export `(node, oid)` for replication: a locally
/// implemented instance of a replicated class is one the sweep may ship.
/// Runs on every [`export`] call (not just fresh inserts) because
/// `Install` and `Promote` rewrite previously-exported proxies into local
/// objects in place, changing the classification under an unchanged id.
fn classify_export(shared: &Shared, node: NodeId, oid: u64, h: Handle) {
    if !shared.repl.any() {
        return;
    }
    let replicated = info_of(shared, node.0, h)
        .filter(|info| info.is_local())
        .is_some_and(|info| {
            let base_name = &shared.universe.class(info.base).name;
            shared.policy.replicas(base_name) > 0
        });
    replication::set_replicated(shared, node.0, oid, replicated);
}

/// [`NodeRegistry::lookup`] on `node`.
pub(crate) fn lookup_export(shared: &Shared, node: NodeId, oid: u64) -> Option<Handle> {
    shared.node(node.0).reg.lookup(oid)
}

/// Demote the export `(node, oid)` to a forwarding stub: the object
/// migrated (or was pulled) away and the in-place-rewritten proxy now only
/// forwards. The entry leaves the exports table — sweeps, affinity checks
/// and registry summaries stop seeing it — but stays resolvable through
/// [`lookup_export`], so transparent forwarding, liveness checks and the
/// stale-location monitor behave exactly as before.
pub(crate) fn demote_export_to_forward(shared: &Shared, node: u32, oid: u64) {
    {
        let mut nodes = shared.nodes.borrow_mut();
        let reg = &mut nodes[node as usize].reg;
        if let Some(h) = reg.exports.remove(&oid) {
            reg.forwards.insert(oid, h);
        }
    }
    replication::forget(shared, node, oid);
}

pub(crate) fn cached_import(shared: &Shared, node: NodeId, owner: u32, oid: u64) -> Option<Handle> {
    shared.node(node.0).reg.imports.get(&(owner, oid)).copied()
}

pub(crate) fn cache_import(shared: &Shared, node: NodeId, owner: u32, oid: u64, h: Handle) {
    shared.node_mut(node.0).reg.imports.insert((owner, oid), h);
}

/// The singleton of class `base` resolved on `node`, if any.
pub(crate) fn singleton(shared: &Shared, node: NodeId, base: ClassId) -> Option<Handle> {
    shared.node(node.0).reg.singletons.get(&base).copied()
}

pub(crate) fn set_singleton(shared: &Shared, node: NodeId, base: ClassId, h: Handle) {
    shared.node_mut(node.0).reg.singletons.insert(base, h);
}

pub(crate) fn proxy_class_for(
    shared: &Shared,
    base: ClassId,
    side: Side,
    proto: &str,
) -> Option<ClassId> {
    let family = shared.plan.family(base)?;
    let list = match side {
        Side::Obj => &family.obj_proxies,
        Side::Cls => &family.cls_proxies,
    };
    list.iter().find(|(p, _)| p == proto).map(|(_, c)| *c)
}

/// The fields of a proxy pointing at `(node, export id)`.
pub(crate) fn proxy_fields((node, oid): (u32, u64)) -> Vec<Value> {
    vec![Value::Int(node as i32), Value::Long(oid as i64)]
}

/// The `(node, export id)` a proxy points at.
pub(crate) fn read_proxy_state(vm: &Vm, h: Handle) -> Option<(u32, u64)> {
    let (_, fields) = vm.read_object(h)?;
    match (fields.first(), fields.get(1)) {
        (Some(Value::Int(node)), Some(Value::Long(oid))) => Some((*node as u32, *oid as u64)),
        _ => None,
    }
}

/// The placement map as served by `rafda.Introspection`: each node's
/// exports (sorted by id) with the implementation class currently behind
/// them — forwarding proxies included, so a migration's trail is visible.
pub(crate) fn placement_table(shared: &Shared) -> String {
    let mut out = String::new();
    let nodes = shared.nodes.borrow();
    for (i, state) in nodes.iter().enumerate() {
        // Live exports plus demoted forwarding stubs: demotion is a sweep
        // optimisation, not a visibility change, so the table keeps
        // showing a migration's trail at the old home.
        let reg = &state.reg;
        let mut oids: Vec<u64> = reg
            .exports
            .keys()
            .chain(reg.forwards.keys())
            .copied()
            .collect();
        oids.sort_unstable();
        let entries: Vec<String> = oids
            .iter()
            .map(|&oid| {
                let class = reg
                    .lookup(oid)
                    .and_then(|h| shared.vms[i].class_of(h))
                    .map(|c| shared.universe.class(c).name.clone())
                    .unwrap_or_else(|| "?".to_owned());
                format!("{oid}:{class}")
            })
            .collect();
        let _ = writeln!(out, "node{i}: [{}]", entries.join(", "));
    }
    out
}
