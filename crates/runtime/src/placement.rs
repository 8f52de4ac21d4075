//! Placement: per-object call affinity, the adaptive affinity loop, and
//! policy-driven sharding — creation-time placement, the rebalance tick and
//! its adopt / prune / enforce passes.

use crate::batching::flush_outqueues;
use crate::cluster::{Cluster, MigrationEvent, Shared, Side};
use crate::directory::Loc;
use crate::error::RuntimeError;
use crate::obs::{bump, Met};
use crate::registry::{
    self, cache_import, export, lookup_export, proxy_fields, read_proxy_state, Presence,
};
use rafda_net::NodeId;
use rafda_policy::AffinityConfig;
use rafda_telemetry::Violation;
use rafda_vm::{Handle, Value};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Cluster-wide shard placement state.
#[derive(Default)]
pub(crate) struct Placement {
    /// Shard placement state for classes with a `shard by` policy rule: the
    /// deterministic shard→node map and the live members routed to each
    /// shard.
    shards: RefCell<ShardState>,
    /// Whether the policy shards any transformed class — computed once at
    /// deployment so unsharded workloads pay one boolean test.
    any_sharding: bool,
}

/// Shard placement state for classes with a `shard by <getter> modulo N`
/// policy rule. Both maps iterate in sorted order wherever they feed a
/// decision, so placement and rebalancing are deterministic per seed.
#[derive(Debug, Default)]
struct ShardState {
    /// `(class name, shard index)` → owning node. Seeded lazily as
    /// `shard % node_count` the first time an instance hashes into the
    /// shard; rewritten by [`Cluster::rebalance_shards`].
    owners: BTreeMap<(String, u32), u32>,
    /// `(class name, shard index)` → the member instances currently routed
    /// there, at their live `(node, export id)` locations.
    members: BTreeMap<(String, u32), Vec<Loc>>,
}

/// One node's incoming call counts per exported object, by caller node.
#[derive(Debug, Default)]
pub(crate) struct CallCounts {
    call_counts: HashMap<u64, HashMap<u32, u64>>,
}

impl Placement {
    pub(crate) fn new(any_sharding: bool) -> Placement {
        Placement {
            any_sharding,
            ..Placement::default()
        }
    }

    pub(crate) fn any(&self) -> bool {
        self.any_sharding
    }

    /// Shard balance over `nodes` nodes: max / mean recorded members per
    /// node over the shard map. 1.0 means perfectly even, growing with
    /// skew; 0 when no class is sharded (or nothing has been placed yet).
    pub(crate) fn balance(&self, nodes: usize) -> f64 {
        let shards = self.shards.borrow();
        let mut per_node = vec![0u64; nodes];
        for members in shards.members.values() {
            for &(n, _) in members {
                per_node[n as usize] += 1;
            }
        }
        let total: u64 = per_node.iter().sum();
        if total == 0 {
            0.0
        } else {
            let mean = total as f64 / per_node.len() as f64;
            per_node.iter().max().copied().unwrap_or(0) as f64 / mean
        }
    }
}

/// Stable 64-bit hash of a shard key value (FNV-1a over the value's
/// canonical bytes). Int/Long keys hash their two's-complement bits, so a
/// key getter returning either width places identically.
fn shard_hash(key: &Value) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    match key {
        Value::Int(i) => eat(&(*i as i64).to_le_bytes()),
        Value::Long(l) => eat(&l.to_le_bytes()),
        Value::Bool(b) => eat(&[*b as u8]),
        Value::Str(s) => eat(s.as_bytes()),
        _ => eat(&[0]),
    }
    h
}

/// Count one call served on `node` for its local export `oid`, from
/// `caller`.
pub(crate) fn record_call(shared: &Shared, node: u32, oid: u64, caller: u32) {
    *shared
        .node_mut(node)
        .calls
        .call_counts
        .entry(oid)
        .or_default()
        .entry(caller)
        .or_default() += 1;
}

/// Drop call-count affinity data referring to a moved object, cluster-wide:
/// the entries for its old and new locations on the nodes themselves, and
/// any node's entry whose exported handle is a proxy pointing at either
/// location. Without this, an `adapt` pass after a migration can act on
/// pre-move affinity data (the counts describe calls the object received at
/// a home it no longer has).
pub(crate) fn purge_call_counts(shared: &Shared, locations: &[Loc]) {
    let mut nodes = shared.nodes.borrow_mut();
    for (i, state) in nodes.iter_mut().enumerate() {
        let vm = &shared.vms[i];
        let reg = &state.reg;
        state.calls.call_counts.retain(|&oid, _| {
            if locations.contains(&(i as u32, oid)) {
                return false;
            }
            let Some(h) = reg.exported(oid) else {
                return true;
            };
            if !registry::is_proxy(shared, i as u32, h) {
                return true;
            }
            match read_proxy_state(vm, h) {
                Some(loc) => !locations.contains(&loc),
                None => true,
            }
        });
    }
}

/// Add `member` to the shard membership list of `(class, shard)`, once.
fn record_shard_member(shared: &Shared, class: &str, shard: u32, member: Loc) {
    let mut shards = shared.placement.shards.borrow_mut();
    let members = shards
        .members
        .entry((class.to_string(), shard))
        .or_default();
    if !members.contains(&member) {
        members.push(member);
    }
}

/// The owner of `(class, shard)`, seeding it as `shard % node_count` the
/// first time the shard is seen.
fn shard_owner(shared: &Shared, class: &str, shard: u32) -> u32 {
    *shared
        .placement
        .shards
        .borrow_mut()
        .owners
        .entry((class.to_string(), shard))
        .or_insert(shard % shared.vms.len() as u32)
}

/// Drop shard members that no longer resolve to a live, locally
/// implemented object: crashed nodes, restarted registries, and exports
/// rewritten into forwarding proxies (the instance will be re-adopted at
/// its new home on the next tick).
fn prune_shard_members(shared: &Shared) {
    let mut shards = shared.placement.shards.borrow_mut();
    for members in shards.members.values_mut() {
        members.retain(|&(n, oid)| {
            !shared.net.fault_plan(|f| f.is_crashed(NodeId(n)))
                && lookup_export(shared, NodeId(n), oid)
                    .is_some_and(|h| registry::is_local(shared, n, h))
        });
    }
    shards.members.retain(|_, ms| !ms.is_empty());
}

impl Cluster {
    /// Per-object incoming-call affinity recorded on `node`: `(export id,
    /// total calls)` pairs, sorted by export id. Entries are purged
    /// cluster-wide when their object migrates or is pulled, so the
    /// adaptive loop never acts on traffic observed at a previous home.
    pub fn affinity_snapshot(&self, node: NodeId) -> Vec<(u64, u64)> {
        let nodes = self.shared().nodes.borrow();
        let mut v: Vec<(u64, u64)> = nodes[node.0 as usize]
            .calls
            .call_counts
            .iter()
            .map(|(&oid, counts)| (oid, counts.values().sum()))
            .collect();
        v.sort_unstable();
        v
    }

    /// Clear the per-object call statistics used by [`Cluster::adapt`].
    pub fn reset_call_stats(&self) {
        for state in self.shared().nodes.borrow_mut().iter_mut() {
            state.calls.call_counts.clear();
        }
    }

    /// Structural quiescent-point sweep over the affinity counters: every
    /// counter on a live node must reference an export that is still
    /// locally implemented there. A counter pointing at a forwarding
    /// proxy (the object moved) or a wiped registry (the node died) would
    /// feed the adaptation loops locations they must never act on —
    /// [`purge_call_counts`] maintains this invariant and the soak gate
    /// checks it at every phase boundary.
    pub(crate) fn stale_affinity_violations(&self) -> Vec<Violation> {
        let shared = self.shared();
        let mut out = Vec::new();
        let nodes = shared.nodes.borrow();
        for (n, state) in nodes.iter().enumerate() {
            if shared.net.fault_plan(|f| f.is_crashed(NodeId(n as u32))) {
                continue;
            }
            let mut oids: Vec<u64> = state.calls.call_counts.keys().copied().collect();
            oids.sort_unstable();
            for oid in oids {
                let message = match state.reg.presence(shared, n as u32, oid) {
                    Presence::Live(_) => continue,
                    Presence::Forwarding => {
                        format!("node {n}: affinity counter references moved-away export {oid}")
                    }
                    Presence::Gone => {
                        format!("node {n}: affinity counter for vanished export {oid}")
                    }
                };
                out.push(Violation {
                    monitor: "stale-affinity",
                    message,
                    span_id: 0,
                    trace_id: 0,
                });
            }
        }
        out
    }

    /// One round of the adaptive affinity loop: every exported object whose
    /// incoming calls are dominated by a single remote node (per `config`)
    /// is migrated to that node. Returns the boundary changes made.
    pub fn adapt(&self, config: &AffinityConfig) -> Vec<MigrationEvent> {
        let shared = self.shared();
        // An adaptation tick is a synchronization point: deferred calls are
        // traffic too, and must land (and be counted) before affinity is
        // judged. Flush failures surface at the callers' next sync point.
        let _ = flush_outqueues(shared);
        // Snapshot candidates without holding the borrow across migrations.
        let mut candidates: Vec<(NodeId, Handle, NodeId)> = Vec::new();
        {
            let nodes = shared.nodes.borrow();
            for (n, state) in nodes.iter().enumerate() {
                let call_counts = &state.calls.call_counts;
                // HashMap iteration order varies run to run; candidates must
                // be discovered in a stable order or the migration sequence
                // (and thus clocks, traces and stats) differs per run.
                let mut oids: Vec<u64> = call_counts.keys().copied().collect();
                oids.sort_unstable();
                for oid in oids {
                    let counts = &call_counts[&oid];
                    let total: u64 = counts.values().sum();
                    if total < config.min_calls {
                        continue;
                    }
                    // Ties on count go to the highest caller id — any fixed
                    // rule works, it just must not depend on map order.
                    let Some((&caller, &count)) =
                        counts.iter().max_by_key(|&(&caller, &c)| (c, caller))
                    else {
                        continue;
                    };
                    if caller == n as u32 {
                        continue;
                    }
                    if (count as f64) / (total as f64) < config.min_fraction {
                        continue;
                    }
                    let Some(h) = state.reg.exported(oid) else {
                        continue;
                    };
                    candidates.push((NodeId(n as u32), h, NodeId(caller)));
                }
            }
        }
        let mut events = Vec::new();
        for (owner, handle, target) in candidates {
            // Only migrate objects still locally implemented. Shard
            // placement is policy-owned: the affinity loop must not fight
            // the shard map by dragging a sharded instance toward its
            // chattiest caller.
            let Some(info) = registry::info_of(shared, owner.0, handle).filter(|i| i.is_local())
            else {
                continue;
            };
            if shared.placement.any_sharding
                && shared
                    .policy
                    .shard_spec(&shared.universe.class(info.base).name)
                    .is_some()
            {
                continue;
            }
            // migrate() purges the stale counts cluster-wide, so no
            // owner-local cleanup is needed here.
            if let Ok(event) = self.migrate(owner, handle, target) {
                events.push(event);
            }
        }
        events
    }

    /// Route a freshly constructed instance of a `shard by` class onto its
    /// shard's node: read the key getter, hash the key, look up (or lazily
    /// seed, as `shard % node_count`) the shard's owner in the shard map,
    /// and migrate the instance there when it was created elsewhere. The
    /// creator's reference keeps working either way — a local instance is
    /// rewritten in place into a proxy by [`Cluster::migrate`], and an
    /// existing proxy is re-pointed at the shard home directly.
    pub(crate) fn place_sharded(
        &self,
        node: NodeId,
        class: &str,
        that: &Value,
    ) -> Result<(), RuntimeError> {
        let shared = self.shared();
        let Some(spec) = shared.policy.shard_spec(class) else {
            return Ok(());
        };
        let Value::Ref(h) = *that else {
            return Ok(());
        };
        let vm = &shared.vms[node.0 as usize];
        let key = vm.call_virtual_by_name(that.clone(), &spec.key_getter, vec![])?;
        let shard = (shard_hash(&key) % u64::from(spec.modulo)) as u32;
        let owner = shard_owner(shared, class, shard);
        let Some(info) = registry::info_of(shared, node.0, h) else {
            return Ok(());
        };
        let member = if info.is_proxy() {
            let (tn, toid) =
                read_proxy_state(vm, h).ok_or_else(|| RuntimeError::Bad("stale proxy".into()))?;
            if tn == owner {
                (tn, toid)
            } else {
                let src = lookup_export(shared, NodeId(tn), toid)
                    .ok_or_else(|| RuntimeError::Bad(format!("unknown object {tn}#{toid}")))?;
                let event = self.migrate(NodeId(tn), src, NodeId(owner))?;
                // Re-point the creator's proxy at the shard home directly,
                // skipping the forwarding hop left at the old location.
                let home = (event.target.node.0, event.target.oid);
                vm.replace_object(h, vm.class_of(h).expect("live proxy"), proxy_fields(home));
                cache_import(shared, node, event.target.node.0, event.target.oid, h);
                (event.target.node.0, event.target.oid)
            }
        } else if node.0 == owner {
            // Created straight onto its shard's node: export it so the
            // membership list can reference (and later move) it.
            (node.0, export(shared, node, h))
        } else {
            let event = self.migrate(node, h, NodeId(owner))?;
            (event.target.node.0, event.target.oid)
        };
        record_shard_member(shared, class, shard, member);
        bump(shared, node.0, Met::ShardPlacements);
        Ok(())
    }

    /// One adaptation tick for policy-driven sharding. In order:
    ///
    /// 1. adopt exported sharded instances the creation hook never saw
    ///    (objects that became visible through marshaling),
    /// 2. prune members that moved away or whose node crashed,
    /// 3. detect hot-key skew from the same call counts the affinity
    ///    loop reads and greedily reassign hot shards from the most- to the
    ///    least-loaded node while that strictly narrows the spread,
    /// 4. enforce the map: migrate every member not at its shard's owner.
    ///
    /// Deterministic by construction: shard maps are `BTreeMap`s iterated
    /// in key order, load ties break toward the lowest node id (and the
    /// lowest shard key), and every move ships state through the same
    /// Install path migration uses — a synchronization point that drains
    /// the E12 outcall queues first.
    pub fn rebalance_shards(&self, config: &AffinityConfig) -> Vec<MigrationEvent> {
        let shared = self.shared();
        if !shared.placement.any_sharding {
            return Vec::new();
        }
        let _ = flush_outqueues(shared);
        self.adopt_sharded_exports();
        prune_shard_members(shared);
        // Per-shard load: calls served for its members at their current
        // homes. Absent counters mean a quiet shard, not an error.
        let mut loads: BTreeMap<(String, u32), u64> = BTreeMap::new();
        {
            let nodes = shared.nodes.borrow();
            let shards = shared.placement.shards.borrow();
            for (key, members) in &shards.members {
                let mut load = 0u64;
                for &(n, oid) in members {
                    if let Some(counts) = nodes[n as usize].calls.call_counts.get(&oid) {
                        load += counts.values().sum::<u64>();
                    }
                }
                loads.insert(key.clone(), load);
            }
        }
        if loads.values().sum::<u64>() >= config.min_calls {
            let mut node_load = vec![0u64; shared.vms.len()];
            for (key, &owner) in &shared.placement.shards.borrow().owners {
                node_load[owner as usize] += loads.get(key).copied().unwrap_or(0);
            }
            // Greedy reassignment with synthetic load deltas (the physical
            // moves below purge the underlying counters).
            for _ in 0..loads.len() {
                let (max_n, max_l) = node_load
                    .iter()
                    .enumerate()
                    .max_by_key(|&(n, &l)| (l, usize::MAX - n))
                    .map(|(n, &l)| (n as u32, l))
                    .expect("at least one node");
                let (min_n, min_l) = node_load
                    .iter()
                    .enumerate()
                    .min_by_key(|&(n, &l)| (l, n))
                    .map(|(n, &l)| (n as u32, l))
                    .expect("at least one node");
                let gap = max_l - min_l;
                if max_n == min_n || gap < 2 {
                    break;
                }
                // Hottest shard on the overloaded node that fits in half
                // the gap (so neither endpoint overshoots); ties go to the
                // lowest (class, shard) key because the map is sorted.
                let mut best: Option<((String, u32), u64)> = None;
                for (key, &owner) in &shared.placement.shards.borrow().owners {
                    if owner != max_n {
                        continue;
                    }
                    let l = loads.get(key).copied().unwrap_or(0);
                    if l == 0 || l > gap / 2 {
                        continue;
                    }
                    if best.as_ref().is_none_or(|(_, bl)| l > *bl) {
                        best = Some((key.clone(), l));
                    }
                }
                let Some((key, l)) = best else { break };
                shared
                    .placement
                    .shards
                    .borrow_mut()
                    .owners
                    .insert(key, min_n);
                node_load[max_n as usize] -= l;
                node_load[min_n as usize] += l;
                bump(shared, max_n, Met::ShardRebalances);
            }
        }
        self.enforce_shard_map()
    }

    /// Record exported instances of sharded classes that creation-time
    /// placement never saw, reading their shard key at their current home.
    /// Purely bookkeeping — physical moves happen in the enforcement pass.
    ///
    /// The candidates are collected first and the keys read afterwards: a
    /// key getter may leave the node, and the remote call it makes must
    /// find the registry unborrowed.
    fn adopt_sharded_exports(&self) {
        let shared = self.shared();
        let known: HashSet<Loc> = shared
            .placement
            .shards
            .borrow()
            .members
            .values()
            .flatten()
            .copied()
            .collect();
        let mut candidates: Vec<(Loc, Handle)> = Vec::new();
        for (n, state) in shared.nodes.borrow().iter().enumerate() {
            let n = n as u32;
            if shared.net.fault_plan(|f| f.is_crashed(NodeId(n))) {
                continue;
            }
            for (oid, h) in state.reg.exports_sorted() {
                if !known.contains(&(n, oid)) {
                    candidates.push(((n, oid), h));
                }
            }
        }
        let mut found: Vec<(String, u32, Loc)> = Vec::new();
        for ((n, oid), h) in candidates {
            let Some(info) = registry::info_of(shared, n, h) else {
                continue;
            };
            if info.is_proxy() || info.side != Side::Obj {
                continue;
            }
            let base = shared.universe.class(info.base).name.clone();
            let Some(spec) = shared.policy.shard_spec(&base) else {
                continue;
            };
            let vm = &shared.vms[n as usize];
            let Ok(key) = vm.call_virtual_by_name(Value::Ref(h), &spec.key_getter, vec![]) else {
                continue;
            };
            let shard = (shard_hash(&key) % u64::from(spec.modulo)) as u32;
            found.push((base, shard, (n, oid)));
        }
        for (class, shard, member) in found {
            shard_owner(shared, &class, shard);
            record_shard_member(shared, &class, shard, member);
        }
    }

    /// Enforcement pass: migrate every shard member that is not at its
    /// shard's owner. A member that cannot move right now (its node or the
    /// owner is down) is left in place for the next tick.
    fn enforce_shard_map(&self) -> Vec<MigrationEvent> {
        let shared = self.shared();
        let plan: Vec<((String, u32), u32)> = shared
            .placement
            .shards
            .borrow()
            .owners
            .iter()
            .map(|(k, &o)| (k.clone(), o))
            .collect();
        let mut events = Vec::new();
        for (key, owner) in plan {
            if shared.net.fault_plan(|f| f.is_crashed(NodeId(owner))) {
                continue;
            }
            let members = shared
                .placement
                .shards
                .borrow()
                .members
                .get(&key)
                .cloned()
                .unwrap_or_default();
            for (i, &(n, oid)) in members.iter().enumerate() {
                if n == owner || shared.net.fault_plan(|f| f.is_crashed(NodeId(n))) {
                    continue;
                }
                let Some(h) = lookup_export(shared, NodeId(n), oid) else {
                    continue;
                };
                if let Ok(event) = self.migrate(NodeId(n), h, NodeId(owner)) {
                    let moved = (event.target.node.0, event.target.oid);
                    if let Some(ms) = shared.placement.shards.borrow_mut().members.get_mut(&key) {
                        ms[i] = moved;
                    }
                    events.push(event);
                }
            }
        }
        events
    }
}

/// Bodies of the placement tests registered in `cluster::tests`, plus this
/// module's own regression tests.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cluster::tests::deployed_sharded;
    use rafda_classmodel::builder::{ClassBuilder, MethodBuilder};
    use rafda_classmodel::{ClassKind, ClassUniverse, Field, Ty};
    use rafda_policy::StaticPolicy;
    use rafda_transform::Transformer;

    /// The smallest non-negative int key whose shard (mod `modulo`) is
    /// `want` — lets tests pick keys by target shard without baking hash
    /// values in.
    fn key_for_shard(want: u32, modulo: u32) -> i32 {
        (0..)
            .find(|&k| (shard_hash(&Value::Int(k)) % u64::from(modulo)) as u32 == want)
            .expect("some key hits every shard")
    }

    /// Creation-time shard placement: every instance of a `shard by` class
    /// lands on the node its key hashes to — regardless of where it was
    /// created — and instances sharing a shard are collocated.
    pub(crate) fn sharded_creates_land_on_their_keys_shard_node() {
        let cluster = deployed_sharded(2, 4, 31, 0);
        let mut homes: Vec<(u32, NodeId)> = Vec::new();
        for key in 0..8 {
            let creator = NodeId((key as u32) % 2);
            let obj = cluster
                .new_instance(creator, "K", 0, vec![Value::Int(key)])
                .unwrap();
            cluster.pin(creator, &obj);
            let shard = (shard_hash(&Value::Int(key)) % 4) as u32;
            let want = NodeId(shard % 2);
            assert_eq!(cluster.location_of(creator, &obj), Some(want), "key {key}");
            // The creator's reference works wherever the instance went.
            assert_eq!(
                cluster
                    .call_method(creator, obj.clone(), "bump", vec![Value::Int(1)])
                    .unwrap(),
                Value::Int(1)
            );
            homes.push((shard, want));
        }
        for (s1, n1) in &homes {
            for (s2, n2) in &homes {
                if s1 == s2 {
                    assert_eq!(n1, n2, "same shard must mean same node");
                }
            }
        }
        assert_eq!(cluster.stats().shard_placements, 8);
    }

    /// The rebalancing tick: hot-key skew read from the affinity
    /// call counts moves the hottest shard that fits half the gap off
    /// the overloaded node, ships its members' state through the
    /// migration path, and purges the counters that drove the move.
    pub(crate) fn rebalance_moves_a_warm_shard_off_the_hot_node() {
        let cluster = deployed_sharded(2, 4, 32, 0);
        let shared = cluster.shared();
        // Shards 0 and 2 both seed onto node 0 (owner = shard % nodes).
        let hot_key = key_for_shard(0, 4);
        let warm_key = key_for_shard(2, 4);
        let hot = cluster
            .new_instance(NodeId(1), "K", 0, vec![Value::Int(hot_key)])
            .unwrap();
        let warm = cluster
            .new_instance(NodeId(1), "K", 0, vec![Value::Int(warm_key)])
            .unwrap();
        cluster.pin(NodeId(1), &hot);
        cluster.pin(NodeId(1), &warm);
        assert_eq!(cluster.location_of(NodeId(1), &hot), Some(NodeId(0)));
        assert_eq!(cluster.location_of(NodeId(1), &warm), Some(NodeId(0)));
        let warm_old_oid = read_proxy_state(&shared.vms[1], warm.as_ref_handle().unwrap())
            .expect("warm lives remotely")
            .1;
        for _ in 0..20 {
            cluster
                .call_method(NodeId(1), hot.clone(), "bump", vec![Value::Int(1)])
                .unwrap();
        }
        for _ in 0..4 {
            cluster
                .call_method(NodeId(1), warm.clone(), "bump", vec![Value::Int(1)])
                .unwrap();
        }

        let events = cluster.rebalance_shards(&AffinityConfig::default());
        // 24 calls landed on node 0, none on node 1: the warm shard (4
        // calls) fits in half the gap and moves; the hot one (20) would
        // overshoot and stays put.
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!((events[0].from, events[0].to), (NodeId(0), NodeId(1)));
        assert_eq!(events[0].class, "K");
        let stats = cluster.stats();
        assert_eq!(stats.shard_rebalances, 1, "{stats}");
        // State moved with the shard and both references still resolve.
        assert_eq!(
            cluster
                .call_method(NodeId(1), warm.clone(), "bump", vec![Value::Int(0)])
                .unwrap(),
            Value::Int(4)
        );
        assert_eq!(
            cluster
                .call_method(NodeId(1), hot.clone(), "bump", vec![Value::Int(0)])
                .unwrap(),
            Value::Int(20)
        );
        // The affinity counters for the moved-away export are purged with
        // the move — a stale entry would keep feeding dead locations into
        // the next tick.
        assert!(
            !shared.nodes.borrow()[0]
                .calls
                .call_counts
                .contains_key(&warm_old_oid),
            "stale counter for the moved object"
        );
        // With the skew resolved, the next tick converges to a no-op.
        assert!(cluster
            .rebalance_shards(&AffinityConfig::default())
            .is_empty());
    }

    /// Regression: the rebalance tick used to hold the node registry
    /// borrowed while it read the shard keys of instances it had never
    /// seen, so a key getter that leaves the node (here through a statics
    /// singleton on another node) re-entered `export` and panicked with
    /// `RefCell already borrowed`.
    #[test]
    fn rebalance_reads_a_remote_shard_key_without_holding_the_registry() {
        let key = key_for_shard(0, 2);
        let mut u = ClassUniverse::new();
        // class S { static int k() { return key; } }
        let s = u.declare("S", ClassKind::Class);
        let mut cb = ClassBuilder::new(&u, s);
        let mut mb = MethodBuilder::new(0);
        mb.const_int(key).ret_value();
        cb.static_method(&mut u, "k", vec![], Ty::Int, Some(mb.finish()));
        cb.finish(&mut u);
        let k_sig = u.sig("k", vec![]);
        // class K { int v; int key() { return S.k(); } int bump(int d) }
        let c = u.declare("K", ClassKind::Class);
        let mut cb = ClassBuilder::new(&u, c);
        let vf = cb.field(Field::new("v", Ty::Int));
        let mut mb = MethodBuilder::new(1);
        mb.ret();
        cb.ctor(&mut u, vec![], Some(mb.finish()));
        let mut mb = MethodBuilder::new(1);
        mb.invoke_static(s, k_sig, 0).ret_value();
        cb.method(&mut u, "key", vec![], Ty::Int, Some(mb.finish()));
        let mut mb = MethodBuilder::new(2);
        mb.load_this();
        mb.load_this().get_field(c, vf);
        mb.load_local(1).add();
        mb.put_field(c, vf);
        mb.load_this().get_field(c, vf).ret_value();
        cb.method(&mut u, "bump", vec![Ty::Int], Ty::Int, Some(mb.finish()));
        cb.finish(&mut u);
        let outcome = Transformer::new().protocols(&["RMI"]).run(&mut u).unwrap();
        let policy = StaticPolicy::new()
            .default_statics(NodeId(2))
            .shard("K", "key", 2);
        let cluster = Cluster::new(u, outcome.plan, 3, 5, Box::new(policy));
        let obj = cluster.new_instance(NodeId(0), "K", 0, vec![]).unwrap();
        cluster.pin(NodeId(0), &obj);
        assert_eq!(cluster.location_of(NodeId(0), &obj), Some(NodeId(0)));
        let bump = |d: i32| {
            cluster
                .call_method(NodeId(0), obj.clone(), "bump", vec![Value::Int(d)])
                .unwrap()
        };
        assert_eq!(bump(5), Value::Int(5));
        // Move it off its shard's owner behind the shard map's back: the
        // instance at its new home is one the tick has never seen.
        cluster
            .migrate(NodeId(0), obj.as_ref_handle().unwrap(), NodeId(1))
            .unwrap();
        assert_eq!(cluster.location_of(NodeId(0), &obj), Some(NodeId(1)));
        let events = cluster.rebalance_shards(&AffinityConfig::default());
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(cluster.location_of(NodeId(0), &obj), Some(NodeId(0)));
        assert_eq!(bump(0), Value::Int(5), "state moved with the instance");
    }
}
