//! The client side: the factory hooks (`make()`, `discover()`), proxy
//! calls with their property cache and replica-read fast paths, and
//! failover re-homing when an owner is gone.

use crate::batching::enqueue_outcall;
use crate::cluster::{default_instance, Shared};
use crate::directory::{Loc, VERSION_TOMBSTONE};
use crate::fifo::BoundedFifo;
use crate::marshal;
use crate::obs::{bump, monitors_on, Met};
use crate::registry::{self, cache_import, lookup_export, proxy_fields, read_proxy_state};
use crate::replication::{replica_read, replica_targets};
use crate::rpc::rpc;
use rafda_classmodel::{ClassId, SigId, Ty};
use rafda_net::NodeId;
use rafda_telemetry::{MonitorEvent, SpanOutcome};
use rafda_vm::{Handle, NetFailureKind, Value, VmError};
use rafda_wire::{Reply, Request, WireValue};

/// How many property values each node's proxy-side cache holds. A modest
/// cap keeps the per-node footprint proportional to its working set of
/// remote reads.
const PROP_CACHE_CAP: usize = 1024;

/// One node's proxy-side property cache: values returned by remote `get_f`
/// calls, keyed `(owner node, export id, getter sig)` and tagged with the
/// owner's property version at reply time. An entry is served only while
/// its tag still equals the owner's current version. Values are kept in
/// wire form so each hit re-materialises exactly like a fresh reply (arrays
/// copy by value, references resolve via the import cache — and hold no
/// GC-visible handles).
#[derive(Debug, Default)]
pub(crate) struct PropCache(BoundedFifo<(u32, u64, SigId), (u64, WireValue), PROP_CACHE_CAP>);

/// `A_O_Factory.make()` on `node`: policy decides where the instance lives.
pub(crate) fn make_value(shared: &Shared, node: NodeId, base: ClassId) -> Result<Value, VmError> {
    let base_name = shared.universe.class(base).name.clone();
    let target = shared.policy.instance_node(&base_name, node);
    let family = shared.plan.family(base).expect("substitutable").clone();
    if target == node {
        // `new` triggers class initialisation, as in the JVM.
        if family.has_statics {
            discover_value(shared, node, base)?;
        }
        let h = default_instance(shared, node, family.obj_local);
        Ok(Value::Ref(h))
    } else {
        let proto = shared.policy.protocol(&base_name);
        let (reply, _) = rpc(
            shared,
            node,
            target,
            &proto,
            &base_name,
            &Request::Create {
                class: base_name.clone(),
                ctor: 0,
                args: vec![],
            },
        )?;
        marshal::reply_value(shared, node, reply, "create")
    }
}

/// `A_C_Factory.discover()` on `node`: per-node singleton, local or remote
/// per policy, with JVM-style in-progress semantics.
pub(crate) fn discover_value(
    shared: &Shared,
    node: NodeId,
    base: ClassId,
) -> Result<Value, VmError> {
    if let Some(h) = registry::singleton(shared, node, base) {
        return Ok(Value::Ref(h));
    }
    let base_name = shared.universe.class(base).name.clone();
    let family = shared.plan.family(base).expect("substitutable").clone();
    let owner = shared.policy.statics_node(&base_name);
    // Stale-promotion guard (bugfix): if this class's singleton was
    // promoted after a crash, every resolution must follow the promoted
    // copy — even (and especially) on the restarted pre-crash owner, whose
    // wiped registry would otherwise mint a fresh singleton with default
    // state, silently diverging from the copy the survivors still use.
    let moved = {
        let dir = shared.dir.borrow();
        dir.singleton(&base_name)
            .and_then(|start| Some(dir.follow(start)).filter(|&home| home != start))
    };
    // A copy promoted onto this very node is adopted as the local
    // singleton. If the promoted copy vanished too (its node also
    // restarted), fall through to policy resolution; the first proxy call
    // will re-promote from the copy's own backups.
    let promoted = match moved {
        Some((tn, toid)) if tn == node.0 => lookup_export(shared, node, toid).map(Value::Ref),
        Some(home) => remote_at(shared, home)
            .map(|remote| marshal::wire_to_value(shared, node, &remote))
            .transpose()
            .map_err(VmError::Native)?,
        None => None,
    };
    let value = if let Some(value) = promoted {
        value
    } else if owner == node {
        let cls_local = family.cls_local.expect("has statics");
        let h = default_instance(shared, node, cls_local);
        // Registered before `<clinit>` runs, so a re-entrant `discover()`
        // during initialisation sees the in-progress instance.
        registry::set_singleton(shared, node, base, h);
        if let (Some(cls_factory), Some(clinit_sig)) = (family.cls_factory, family.clinit_sig) {
            shared.vms[node.0 as usize].call_static(
                cls_factory,
                clinit_sig,
                vec![Value::Ref(h)],
            )?;
        }
        Value::Ref(h)
    } else {
        let proto = shared.policy.protocol(&base_name);
        let (reply, _) = rpc(
            shared,
            node,
            owner,
            &proto,
            &base_name,
            &Request::Discover {
                class: base_name.clone(),
            },
        )?;
        marshal::reply_value(shared, node, reply, "discover")?
    };
    if let Value::Ref(h) = value {
        registry::set_singleton(shared, node, base, h);
    }
    Ok(value)
}

/// A proxy method invoked on `node`: marshal, ship, execute remotely,
/// unmarshal (or re-throw).
pub(crate) fn proxy_call(
    shared: &Shared,
    node: NodeId,
    method_name: &str,
    sig: SigId,
    args: &[Value],
) -> Result<Value, VmError> {
    let vm = &shared.vms[node.0 as usize];
    let recv = args
        .first()
        .and_then(Value::as_ref_handle)
        .ok_or_else(|| VmError::type_error("proxy call without receiver"))?;
    let class = vm
        .class_of(recv)
        .ok_or_else(|| VmError::Native("stale proxy".into()))?;
    let info = shared.gen_info.get(&class).ok_or_else(|| {
        VmError::Native(format!(
            "no proxy info for {}",
            shared.universe.class(class).name
        ))
    })?;
    let proto = info.proto.clone().expect("hooked on a proxy");
    let (mut target, mut oid) =
        read_proxy_state(vm, recv).ok_or_else(|| VmError::Native("stale proxy".into()))?;
    let wire_args = marshal::values_to_wire(shared, node, &args[1..]).map_err(VmError::Native)?;
    let method = format!("{method_name}@{}", sig.0);
    let base_name = shared.universe.class(info.base).name.clone();
    let labels = (base_name.as_str(), proto.as_str(), method.as_str());
    // Property-cache fast path: a cacheable getter whose cached tag still
    // equals the owner's current version is served locally — no exchange,
    // no clock advance. Coherence rests on the tag check: every mutation
    // on the owner bumps the version, so a hit can never observe a value
    // older than the last write the owner served.
    let is_getter = info.is_getter(&shared.plan, sig);
    // Replica-read fast path (E15): getters of `reads from replicas`
    // classes are served from this node's own replica copy when — and only
    // when — the copy carries the owner's *current* property version. The
    // tag check makes staleness impossible by construction (same argument
    // as the property cache): any acknowledged mutation bumped the owner's
    // version before its reply left, so a lagging copy simply fails the
    // check and the read falls through to a normal owner exchange.
    if is_getter
        && shared.repl.any()
        && shared.policy.reads_from_replicas(&base_name)
        && shared.policy.replicas(&base_name) > 0
    {
        if let Some(v) = replica_read(shared, node, labels, sig, (target, oid))? {
            return Ok(v);
        }
    }
    let cache_on = is_getter && shared.policy.cacheable(&base_name);
    if cache_on {
        let current = shared.dir.borrow().live_version((target, oid));
        let cached = shared
            .node(node.0)
            .props
            .0
            .get(&(target, oid, sig))
            .cloned();
        match cached {
            Some((tag, wv)) if Some(tag) == current => {
                bump(shared, node.0, Met::CacheHits);
                record_local_read(shared, node, labels, (target, oid), "cached");
                return marshal::wire_to_value(shared, node, &wv).map_err(VmError::Native);
            }
            Some(_) => bump(shared, node.0, Met::CacheInvalidations),
            None => bump(shared, node.0, Met::CacheMisses),
        }
    }
    // Batched remote invocation: a void-returning call on a `batch on`
    // class has no result to wait for, so it is deferred onto the
    // `(caller, owner)` outcall queue instead of paying a full exchange.
    // It ships as part of a single [`Request::Batch`] frame at the next
    // synchronization point — and every value-returning call to any owner
    // *is* one, so a later read always observes the deferred writes.
    // Deferral is decided against the proxy class's own method table (the
    // generated setters only exist there, not on the base class;
    // signatures are interned globally, so the ids agree).
    if shared.policy.batched(&base_name) {
        let is_void = shared
            .universe
            .class(class)
            .methods
            .iter()
            .find(|m| m.sig == sig)
            .is_some_and(|m| m.ret == Ty::Void);
        if is_void {
            // Read-your-writes: this node's cached property reads of the
            // object no longer reflect the queue, and the version tag
            // cannot catch that (the owner has not served the write yet).
            // Drop them; the next read goes remote, which flushes first.
            shared
                .node_mut(node.0)
                .props
                .0
                .retain(|&(t, o, _)| !(t == target && o == oid));
            enqueue_outcall(
                shared,
                node,
                NodeId(target),
                &proto,
                &base_name,
                Request::Call {
                    object: oid,
                    method,
                    args: wire_args,
                },
            );
            return Ok(Value::Null);
        }
    }
    let mut req = Request::Call {
        object: oid,
        method: method.clone(),
        args: wire_args,
    };
    // Crash-stop failover: when the owner turns out to be crashed — or has
    // restarted with amnesia and no longer knows the export — re-home the
    // proxy to a (promoted) replica and retry. At most one hop per node:
    // each hop either follows an already-recorded promotion forward or
    // performs a new one, and crash states only change between top-level
    // operations, so the loop cannot cycle.
    let mut hops = 0u32;
    let (reply, obj_version) = loop {
        let outcome = rpc(shared, node, NodeId(target), &proto, &base_name, &req);
        let rehome = match &outcome {
            Err(VmError::Unreachable(nf)) => {
                matches!(nf.kind, NetFailureKind::NodeCrashed(_))
            }
            Ok((Reply::Fault(m), _)) => m.starts_with("unknown object "),
            _ => false,
        };
        if rehome && hops <= shared.vms.len() as u32 {
            if let Some((nn, noid)) = failover(shared, node, recv, class, labels, (target, oid)) {
                hops += 1;
                (target, oid) = (nn, noid);
                if let Request::Call { object, .. } = &mut req {
                    *object = oid;
                }
                continue;
            }
        }
        break outcome?;
    };
    match reply {
        Reply::Exception { class, fields } => Err(marshal::rethrow(shared, node, &class, &fields)),
        Reply::Value(ref wv) if cache_on && obj_version != VERSION_TOMBSTONE => {
            shared
                .node_mut(node.0)
                .props
                .0
                .insert((target, oid, sig), (obj_version, wv.clone()));
            marshal::reply_value(shared, node, reply, "a call")
        }
        reply => marshal::reply_value(shared, node, reply, "a call"),
    }
}

/// Account for a getter served on `node` with no exchange, from the
/// property cache or a replica copy (`flag` names which): a zero-duration
/// `rpc.call` span labelled `(class, protocol, method)` keeps the read
/// visible in traces, and a [`MonitorEvent::CacheHit`] puts it under the
/// stale-read oracle.
pub(crate) fn record_local_read(
    shared: &Shared,
    node: NodeId,
    (base_name, proto, method): (&str, &str, &str),
    (owner, oid): Loc,
    flag: &'static str,
) {
    let now = shared.net.now().as_ns();
    let ctx = {
        let mut spans = shared.spans.borrow_mut();
        let h = spans.start_span("rpc.call", node.0, now);
        spans.set_attr(h, "class", base_name);
        spans.set_attr(h, "method", method.to_owned());
        spans.set_attr(h, "protocol", proto);
        spans.set_attr(h, "from", node.0);
        spans.set_attr(h, "to", owner);
        spans.set_attr(h, flag, true);
        spans.end_span(h, now, SpanOutcome::Ok);
        spans.context_of(h)
    };
    if monitors_on(shared) {
        let stale_location = stale_location(shared, (owner, oid));
        shared.obs.borrow_mut().emit(&MonitorEvent::CacheHit {
            node: node.0,
            owner,
            oid,
            stale_location,
            span_id: ctx.span_id,
            trace_id: ctx.trace_id,
        });
    }
}

/// Whether the authoritative copy at `loc` has moved away: the export now
/// forwards, or the directory links it to a new home. A merely *missing*
/// export (restart amnesia) is not stale — the version survived, the state
/// did not move. Deliberately blind to the version: the stale-read monitor
/// judges cache hits with this, so it must not trust the tombstone whose
/// absence it exists to catch.
fn stale_location(shared: &Shared, (owner, oid): Loc) -> bool {
    let forwards = lookup_export(shared, NodeId(owner), oid)
        .is_some_and(|h| registry::is_proxy(shared, owner, h));
    forwards || shared.dir.borrow().successor((owner, oid)).is_some()
}

/// The live object at `loc` as a remote reference, or `None` when no live
/// export resolves there.
pub(crate) fn remote_at(shared: &Shared, (node, object): Loc) -> Option<WireValue> {
    let h = lookup_export(shared, NodeId(node), object)?;
    let class = shared.vms[node as usize].class_of(h)?;
    Some(WireValue::Remote {
        node,
        object,
        class: shared.universe.class(class).name.clone(),
    })
}

/// Client-side re-homing after the owner of `(target, oid)` turned out to
/// be crashed, or restarted with amnesia. Follows the directory's chain
/// of recorded moves first; only if it dead-ends on a dead (or amnesiac)
/// location does it ask that location's replicas — lowest node id first —
/// to promote their backup copy. On success the proxy `recv` is rewritten
/// in place to the new home, which is also returned; `None` means no live
/// replica could take over and the original failure stands.
///
/// The whole re-homing is wrapped in a `rpc.failover` span chained via
/// `retry_of` to the exchange that failed, so traces show the causal link
/// from the dead owner to the promoted copy.
fn failover(
    shared: &Shared,
    node: NodeId,
    recv: Handle,
    proxy_class: ClassId,
    (base_name, proto, _): (&str, &str, &str),
    (target, oid): Loc,
) -> Option<Loc> {
    let start = shared.net.now().as_ns();
    let span = {
        let mut spans = shared.spans.borrow_mut();
        let h = spans.start_span("rpc.failover", node.0, start);
        spans.set_attr(h, "class", base_name);
        spans.set_attr(h, "protocol", proto);
        spans.set_attr(h, "from", node.0);
        spans.set_attr(h, "old_home", format!("{target}#{oid}"));
        let prior = shared.rpc.last_exchange_span();
        if prior != 0 {
            spans.set_retry_of(h, prior);
        }
        h
    };
    let home = locate_home(shared, node, proto, base_name, target, oid);
    let end = shared.net.now().as_ns();
    {
        let mut spans = shared.spans.borrow_mut();
        match home {
            Some((nn, noid)) => {
                spans.set_attr(span, "new_home", format!("{nn}#{noid}"));
                spans.end_span(span, end, SpanOutcome::Ok);
            }
            None => spans.end_span(span, end, SpanOutcome::NetFailure),
        }
    }
    let (nn, noid) = home?;
    // When this node itself promoted the object, the backup was materialised
    // straight into `recv` (the import rewritten in place, as with Install):
    // `recv` already IS the object, and re-proxying it would create a proxy
    // that points at itself.
    if !(nn == node.0 && lookup_export(shared, node, noid) == Some(recv)) {
        let vm = &shared.vms[node.0 as usize];
        vm.replace_object(recv, proxy_class, proxy_fields((nn, noid)));
        // The old import entry stays: a reference to the dead location that
        // arrives later materialises through it and lands on this re-homed
        // proxy — the same logical object.
        cache_import(shared, node, nn, noid, recv);
    }
    bump(shared, node.0, Met::Failovers);
    Some((nn, noid))
}

/// Find the live home of `(target, oid)`: follow recorded moves, then
/// ask the terminal location's replicas to promote their backup, lowest
/// node id first. Returns `None` when nobody can take over — the class is
/// unreplicated, or every backup is down or lost its copy.
pub(crate) fn locate_home(
    shared: &Shared,
    node: NodeId,
    proto: &str,
    base_name: &str,
    target: u32,
    oid: u64,
) -> Option<Loc> {
    let crashed = |n: u32| shared.net.fault_plan(|f| f.is_crashed(NodeId(n)));
    let (tn, toid) = shared.dir.borrow().follow((target, oid));
    // Only route to the chain's end while the promoted copy is actually
    // there: a terminal node that crash-restarted has a wiped registry, and
    // sending callers to it would loop through "unknown object" faults
    // instead of promoting one of the copy's own backups below.
    if (tn, toid) != (target, oid)
        && !crashed(tn)
        && lookup_export(shared, NodeId(tn), toid).is_some()
    {
        return Some((tn, toid));
    }
    let k = shared.policy.replicas(base_name);
    if k == 0 {
        return None;
    }
    for c in replica_targets(k, tn, shared.vms.len() as u32) {
        // The fault-plan lookup stands in for a failure detector: known-dead
        // candidates are skipped instead of timed out against.
        if crashed(c) {
            continue;
        }
        let req = Request::Promote {
            node: tn,
            object: toid,
        };
        match rpc(shared, node, NodeId(c), proto, base_name, &req) {
            Ok((
                Reply::Value(WireValue::Remote {
                    node: nn,
                    object: noid,
                    ..
                }),
                _,
            )) => return Some((nn, noid)),
            // A fault (the backup restarted and lost its copy) or a network
            // failure both mean: try the next candidate.
            _ => continue,
        }
    }
    None
}
