//! The server side of an exchange: execute one delivered request on the
//! node that received it.

use crate::client::{discover_value, remote_at};
use crate::cluster::{default_instance, Shared};
use crate::directory::Loc;
use crate::marshal;
use crate::obs::{bump, Met};
use crate::placement::{purge_call_counts, record_call};
use crate::registry::{
    self, cache_import, cached_import, demote_export_to_forward, export, lookup_export,
    proxy_class_for, proxy_fields, read_proxy_state,
};
use crate::replication::{bump_version, store_backup, sync_replicas, take_backup};
use rafda_classmodel::SigId;
use rafda_net::NodeId;
use rafda_vm::{Handle, Value, VmError};
use rafda_wire::{Reply, Request, WireValue};

/// Execute a request on `node` (the server side of the RPC). Returns the
/// reply and the property version it piggybacks: the addressed export's,
/// read *after* handling so a setter's own reply carries the bumped
/// version, or 0 for requests that address no export.
pub(crate) fn handle_request(
    shared: &Shared,
    node: NodeId,
    caller: NodeId,
    req: Request,
) -> (Reply, u64) {
    let versioned_oid = match &req {
        Request::Call { object, .. } | Request::Fetch { object } => Some(*object),
        _ => None,
    };
    let reply = dispatch_request(shared, node, caller, req);
    if matches!(reply, Reply::Fault(_)) {
        bump(shared, node.0, Met::Faults);
    }
    let version = versioned_oid.map_or(0, |oid| shared.dir.borrow().version((node.0, oid)));
    (reply, version)
}

fn dispatch_request(shared: &Shared, node: NodeId, caller: NodeId, req: Request) -> Reply {
    let vm = &shared.vms[node.0 as usize];
    match req {
        Request::Call {
            object,
            method,
            args,
        } => {
            bump(shared, node.0, Met::RpcCalls);
            let Some(h) = lookup_export(shared, node, object) else {
                return Reply::Fault(format!("unknown object {object} on {node}"));
            };
            // Affinity is only meaningful where the object actually lives.
            // A forwarding proxy left behind by a migration serves nothing
            // itself; counting its forwarded traffic would hand the
            // adaptation loops a moved-away location to act on.
            if registry::is_local(shared, node.0, h) {
                record_call(shared, node.0, object, caller.0);
            }
            let Some(sig) = parse_method(&method) else {
                return Reply::Fault(format!("malformed method {method}"));
            };
            // Anything other than a property getter may mutate the object
            // (setters, init$k, arbitrary methods), so it bumps the property
            // version and invalidates every proxy-side cached read. Objects
            // whose class cannot be resolved bump conservatively.
            let is_getter = registry::info_of(shared, node.0, h)
                .is_some_and(|info| info.is_getter(&shared.plan, sig));
            if !is_getter {
                bump_version(shared, node.0, object);
            }
            let values = match marshal::wire_to_values(shared, node, &args) {
                Ok(values) => values,
                Err(m) => return Reply::Fault(m),
            };
            let reply = match vm.call_virtual(Value::Ref(h), sig, values) {
                Ok(v) => match marshal::value_to_wire(shared, node, &v) {
                    Ok(wv) => Reply::Value(wv),
                    Err(m) => Reply::Fault(m),
                },
                Err(VmError::Exception(exc)) => exception_reply(shared, node, exc),
                Err(other) => Reply::Fault(other.to_string()),
            };
            // Anything that may have mutated the object re-ships it to its
            // backups before the reply leaves, so a replica promoted after
            // a later crash holds every mutation this owner acknowledged.
            if !is_getter {
                sync_replicas(shared, node, object);
            }
            reply
        }
        Request::Create { class, .. } => {
            bump(shared, node.0, Met::RpcCreates);
            let Some(base) = shared.universe.by_name(&class) else {
                return Reply::Fault(format!("unknown class {class}"));
            };
            let Some(family) = shared.plan.family(base).cloned() else {
                return Reply::Fault(format!("{class} is not substitutable"));
            };
            if family.has_statics {
                if let Err(e) = discover_value(shared, node, base) {
                    return Reply::Fault(e.to_string());
                }
            }
            let h = default_instance(shared, node, family.obj_local);
            let oid = export(shared, node, h);
            // Replicate the freshly created object at once: an owner that
            // crashes before serving any call must not take it along.
            sync_replicas(shared, node, oid);
            remote(node, oid, &shared.universe.class(family.obj_local).name)
        }
        Request::Discover { class } => {
            bump(shared, node.0, Met::RpcDiscovers);
            let Some(base) = shared.universe.by_name(&class) else {
                return Reply::Fault(format!("unknown class {class}"));
            };
            match discover_value(shared, node, base) {
                Ok(Value::Ref(h)) => {
                    let rt_class = vm.class_of(h).expect("live singleton");
                    // The stale-promotion guard may have resolved to a
                    // *proxy* for a copy promoted onto another node. Reply
                    // with the copy's real location instead of exporting
                    // the proxy, which would add a pointless double hop
                    // (and re-anchor the singleton to this node).
                    if registry::is_proxy(shared, node.0, h) {
                        let promoted =
                            read_proxy_state(vm, h).and_then(|loc| remote_at(shared, loc));
                        let Some(remote) = promoted else {
                            return Reply::Fault(format!("promoted singleton of {class} vanished"));
                        };
                        return Reply::Value(remote);
                    }
                    let oid = export(shared, node, h);
                    // Record the canonical export the first time the
                    // singleton becomes remotely visible; singleton
                    // resolution follows the directory's links from here.
                    shared
                        .dir
                        .borrow_mut()
                        .register_singleton(&class, (node.0, oid));
                    sync_replicas(shared, node, oid);
                    remote(node, oid, &shared.universe.class(rt_class).name)
                }
                Ok(other) => Reply::Fault(format!("discover returned {other}")),
                Err(VmError::Exception(exc)) => exception_reply(shared, node, exc),
                Err(e) => Reply::Fault(e.to_string()),
            }
        }
        Request::Fetch { object } => {
            bump(shared, node.0, Met::RpcFetches);
            let Some(h) = lookup_export(shared, node, object) else {
                return Reply::Fault(format!("unknown object {object} on {node}"));
            };
            match wire_state(shared, node, h) {
                Some(Ok((class, fields))) => Reply::Value(WireValue::ObjectState { class, fields }),
                Some(Err(m)) => Reply::Fault(m),
                None => Reply::Fault("stale export".into()),
            }
        }
        Request::Install { state, source } => {
            bump(shared, node.0, Met::RpcInstalls);
            let WireValue::ObjectState { class, fields } = state else {
                return Reply::Fault("install needs object state".into());
            };
            let oid = match materialise(shared, node, &class, &fields, source) {
                Ok(oid) => oid,
                Err(m) => return Reply::Fault(m),
            };
            sync_replicas(shared, node, oid);
            remote(node, oid, &class)
        }
        Request::Forward {
            object,
            to_node,
            to_object,
        } => {
            bump(shared, node.0, Met::RpcForwards);
            let Some(h) = lookup_export(shared, node, object) else {
                return Reply::Fault(format!("unknown object {object} on {node}"));
            };
            if vm.class_of(h).is_none() {
                return Reply::Fault("stale export".into());
            }
            let Some(info) = registry::info_of(shared, node.0, h) else {
                return Reply::Fault("cannot forward untransformed object".into());
            };
            let base_name = shared.universe.class(info.base).name.clone();
            let proto = shared.policy.protocol(&base_name);
            let Some(proxy_class) = proxy_class_for(shared, info.base, info.side, &proto) else {
                return Reply::Fault(format!("no {proto} proxy for {base_name}"));
            };
            vm.replace_object(h, proxy_class, proxy_fields((to_node, to_object)));
            cache_import(shared, node, to_node, to_object, h);
            // The export now forwards; reads through this location must
            // never be served from a cache again, and the location moves
            // to the forwards side-table so the sweep stops probing it.
            shared.dir.borrow_mut().tombstone((node.0, object));
            demote_export_to_forward(shared, node.0, object);
            Reply::Value(WireValue::Null)
        }
        Request::ReplicaSync {
            object,
            version,
            state,
        } => {
            bump(shared, node.0, Met::ReplicaSyncs);
            let WireValue::ObjectState { class, fields } = state else {
                return Reply::Fault("replica sync needs object state".into());
            };
            store_backup(shared, node, (caller.0, object), (version, class, fields));
            Reply::Value(WireValue::Null)
        }
        Request::Promote {
            node: old_node,
            object: old_object,
        } => {
            let key = (old_node, old_object);
            // Idempotency: if this object was already promoted, report the
            // recorded home instead of materialising a second copy from a
            // (possibly stale) backup. The directory stands in for the
            // promotion registry a real system would replicate alongside
            // the data.
            let recorded = shared.dir.borrow().successor(key);
            if let Some(home) = recorded {
                return match remote_at(shared, home) {
                    Some(remote) => Reply::Value(remote),
                    None => {
                        Reply::Fault(format!("promoted copy of {old_node}#{old_object} vanished"))
                    }
                };
            }
            let Some((_, class, fields)) = take_backup(shared, node, key) else {
                return Reply::Fault(format!("no replica of {old_node}#{old_object} on {node}"));
            };
            let oid = match materialise(shared, node, &class, &fields, Some(key)) {
                Ok(oid) => oid,
                Err(m) => return Reply::Fault(m),
            };
            // The promoted copy supersedes anything cached about the dead
            // location too: tombstone it, and drop affinity data describing
            // traffic the object received there.
            shared.dir.borrow_mut().moved(key, (node.0, oid));
            purge_call_counts(shared, &[key, (node.0, oid)]);
            bump(shared, node.0, Met::Promotions);
            // Re-establish the replication factor from the new home, so a
            // second crash before the next mutation still loses nothing.
            sync_replicas(shared, node, oid);
            remote(node, oid, &class)
        }
        Request::Batch(ops) => {
            // Apply in order under the enclosing message id: the batch was
            // encoded once and is retransmitted verbatim, so at-most-once
            // holds for the whole frame, and each operation's sub-reply is
            // paired with the addressed export's version right after it ran
            // (a later op in the same batch may move it again).
            let mut results = Vec::with_capacity(ops.len());
            for op in ops {
                let (reply, version) = handle_request(shared, node, caller, op);
                results.push((version, reply));
            }
            Reply::Batch(results)
        }
    }
}

/// A reply naming the object now exported as `oid` on `node`.
fn remote(node: NodeId, object: u64, class: &str) -> Reply {
    Reply::Value(WireValue::Remote {
        node: node.0,
        object,
        class: class.to_owned(),
    })
}

/// Materialise an installed or promoted object on `node` from its wire
/// state and export it, returning the export id. A proxy the node already
/// holds for its previous location `was` is rewritten in place, so existing
/// local references see the object as local, with no double hop through the
/// old owner; otherwise the object is freshly allocated. The export's
/// version is bumped: the fresh state supersedes anything cached about a
/// previous export under the id.
fn materialise(
    shared: &Shared,
    node: NodeId,
    class: &str,
    fields: &[WireValue],
    was: Option<Loc>,
) -> Result<u64, String> {
    let class_id = shared
        .universe
        .by_name(class)
        .ok_or_else(|| format!("unknown class {class}"))?;
    let values = marshal::wire_to_values(shared, node, fields)?;
    let vm = &shared.vms[node.0 as usize];
    let h = match was.and_then(|(n, o)| cached_import(shared, node, n, o)) {
        Some(ph) if vm.class_of(ph).is_some() => {
            vm.replace_object(ph, class_id, values);
            ph
        }
        _ => vm.alloc_raw(class_id, values),
    };
    let oid = export(shared, node, h);
    bump_version(shared, node.0, oid);
    Ok(oid)
}

/// The class name and marshalled fields of `h` on `node`; `None` for a
/// stale handle.
fn wire_state(
    shared: &Shared,
    node: NodeId,
    h: Handle,
) -> Option<Result<(String, Vec<WireValue>), String>> {
    let (class, fields) = shared.vms[node.0 as usize].read_object(h)?;
    let class = shared.universe.class(class).name.clone();
    Some(marshal::values_to_wire(shared, node, &fields).map(|fields| (class, fields)))
}

fn exception_reply(shared: &Shared, node: NodeId, exc: Handle) -> Reply {
    match wire_state(shared, node, exc) {
        Some(Ok((class, fields))) => Reply::Exception { class, fields },
        Some(Err(m)) => Reply::Fault(m),
        None => Reply::Fault("stale exception".into()),
    }
}

/// Methods travel as `name@sigid`; both sides share the interned signature
/// table (the same transformed program is deployed on every node).
fn parse_method(method: &str) -> Option<SigId> {
    let (_, id) = method.rsplit_once('@')?;
    id.parse::<u32>().ok().map(SigId)
}
