//! Marshalling between VM values and wire values.
//!
//! The rules mirror Java RMI semantics as the paper assumes them:
//!
//! * primitives and strings travel **by value**;
//! * arrays travel **by value** (element-wise, recursively);
//! * instances of transformed classes (`*_Local`) travel **by reference**:
//!   the sender exports the object and ships a [`WireValue::Remote`]
//!   descriptor; the receiver materialises a proxy of the matching family —
//!   unless the descriptor points back at the receiver itself, in which
//!   case it unwraps to the local object (colocation short-circuit);
//! * proxies travel **by delegation**: a proxy argument ships the
//!   descriptor of its *target*, never a proxy-to-a-proxy;
//! * instances of untransformed (non-transformable) classes travel **by
//!   value** as [`WireValue::ObjectState`] — they have no proxy classes, so
//!   they cannot be remote (Section 2.4), exactly like non-`Remote`
//!   serialisable objects in RMI.

use crate::cluster::{Shared, Side};
use crate::registry::{
    cache_import, cached_import, export, lookup_export, proxy_class_for, proxy_fields,
    read_proxy_state,
};
use rafda_classmodel::Ty;
use rafda_net::NodeId;
use rafda_vm::{HeapEntry, Value, Vm, VmError};
use rafda_wire::{Reply, WireValue};

/// Maximum by-value object-graph depth (cycle guard).
const MAX_DEPTH: u32 = 32;

/// Convert a VM value on `node` into its wire form.
///
/// # Errors
/// A human-readable message on stale handles or over-deep by-value graphs.
pub(crate) fn value_to_wire(shared: &Shared, node: NodeId, v: &Value) -> Result<WireValue, String> {
    value_to_wire_rec(shared, node, v, 0)
}

/// [`value_to_wire`] over a slice, in order; stops at the first failure.
pub(crate) fn values_to_wire(
    shared: &Shared,
    node: NodeId,
    values: &[Value],
) -> Result<Vec<WireValue>, String> {
    values_to_wire_rec(shared, node, values, 0)
}

fn values_to_wire_rec(
    shared: &Shared,
    node: NodeId,
    values: &[Value],
    depth: u32,
) -> Result<Vec<WireValue>, String> {
    let mut out = Vec::with_capacity(values.len());
    for v in values {
        out.push(value_to_wire_rec(shared, node, v, depth)?);
    }
    Ok(out)
}

fn value_to_wire_rec(
    shared: &Shared,
    node: NodeId,
    v: &Value,
    depth: u32,
) -> Result<WireValue, String> {
    if depth > MAX_DEPTH {
        return Err("by-value object graph too deep (cycle?)".to_owned());
    }
    let vm: &Vm = &shared.vms[node.0 as usize];
    Ok(match v {
        Value::Null => WireValue::Null,
        Value::Bool(b) => WireValue::Bool(*b),
        Value::Int(i) => WireValue::Int(*i),
        Value::Long(i) => WireValue::Long(*i),
        Value::Float(x) => WireValue::Float(*x),
        Value::Double(x) => WireValue::Double(*x),
        Value::Str(s) => WireValue::Str(s.to_string()),
        Value::Ref(h) => {
            // Array?
            let array_items: Option<Vec<Value>> = vm.with_heap(|heap| match heap.get(*h) {
                Some(HeapEntry::Array { data, .. }) => Some(data.clone()),
                _ => None,
            });
            if let Some(items) = array_items {
                return Ok(WireValue::Array(values_to_wire_rec(
                    shared,
                    node,
                    &items,
                    depth + 1,
                )?));
            }
            let class = vm.class_of(*h).ok_or("stale handle in marshalling")?;
            match shared.gen_info.get(&class) {
                Some(info) => {
                    // A proxy ships its target descriptor (no proxy chains);
                    // a local implementation is exported by reference.
                    let (owner, object) = if info.is_proxy() {
                        read_proxy_state(vm, *h).ok_or("stale proxy in marshalling")?
                    } else {
                        (node.0, export(shared, node, *h))
                    };
                    WireValue::Remote {
                        node: owner,
                        object,
                        class: logical_class_name(shared, info.base, info.side),
                    }
                }
                None => {
                    // Untransformed class: by value.
                    let (_, fields) = vm.read_object(*h).ok_or("stale handle")?;
                    WireValue::ObjectState {
                        class: shared.universe.class(class).name.clone(),
                        fields: values_to_wire_rec(shared, node, &fields, depth + 1)?,
                    }
                }
            }
        }
    })
}

/// The implementation class a remote reference to `base`'s `side` names on
/// the wire: the `*_Local` class, whichever proxy the sender holds.
pub(crate) fn logical_class_name(
    shared: &Shared,
    base: rafda_classmodel::ClassId,
    side: Side,
) -> String {
    let family = shared.plan.family(base).expect("family exists");
    let id = match side {
        Side::Obj => family.obj_local,
        Side::Cls => family.cls_local.expect("cls side implies statics"),
    };
    shared.universe.class(id).name.clone()
}

/// Convert a wire value arriving at `node` into a VM value, materialising
/// proxies (or unwrapping self-references) as needed.
///
/// # Errors
/// A human-readable message for unknown classes, missing exports or
/// unavailable proxy protocols.
pub(crate) fn wire_to_value(
    shared: &Shared,
    node: NodeId,
    wv: &WireValue,
) -> Result<Value, String> {
    let vm: &Vm = &shared.vms[node.0 as usize];
    Ok(match wv {
        WireValue::Null => Value::Null,
        WireValue::Bool(b) => Value::Bool(*b),
        WireValue::Int(i) => Value::Int(*i),
        WireValue::Long(i) => Value::Long(*i),
        WireValue::Float(x) => Value::Float(*x),
        WireValue::Double(x) => Value::Double(*x),
        WireValue::Str(s) => Value::str(s),
        WireValue::Remote {
            node: owner,
            object,
            class,
        } => {
            if *owner == node.0 {
                // Colocation short-circuit: unwrap to the local object.
                let h = lookup_export(shared, node, *object)
                    .ok_or_else(|| format!("no local export {object}"))?;
                return Ok(Value::Ref(h));
            }
            if let Some(h) = cached_import(shared, node, *owner, *object) {
                return Ok(Value::Ref(h));
            }
            // Materialise a proxy of the right family and protocol.
            let impl_class = shared
                .universe
                .by_name(class)
                .ok_or_else(|| format!("unknown remote class {class}"))?;
            let info = shared
                .gen_info
                .get(&impl_class)
                .ok_or_else(|| format!("{class} is not a transformed implementation"))?;
            let base_name = shared.universe.class(info.base).name.clone();
            let proto = shared.policy.protocol(&base_name);
            let proxy_class = proxy_class_for(shared, info.base, info.side, &proto)
                .ok_or_else(|| format!("no {proto} proxy generated for {base_name}"))?;
            let h = vm.alloc_raw(proxy_class, proxy_fields((*owner, *object)));
            cache_import(shared, node, *owner, *object, h);
            Value::Ref(h)
        }
        WireValue::Array(items) => {
            let data = wire_to_values(shared, node, items)?;
            // The element type is only used for default values of
            // newly-allocated arrays, so a best-effort tag suffices.
            let elem = match items.first() {
                Some(WireValue::Int(_)) => Ty::Int,
                Some(WireValue::Long(_)) => Ty::Long,
                Some(WireValue::Bool(_)) => Ty::Bool,
                Some(WireValue::Float(_)) => Ty::Float,
                Some(WireValue::Double(_)) => Ty::Double,
                _ => Ty::Str,
            };
            let h = vm.with_heap(|heap| heap.alloc_array(elem, data));
            Value::Ref(h)
        }
        WireValue::ObjectState { class, fields } => {
            let class_id = shared
                .universe
                .by_name(class)
                .ok_or_else(|| format!("unknown class {class}"))?;
            let values = wire_to_values(shared, node, fields)?;
            Value::Ref(vm.alloc_raw(class_id, values))
        }
    })
}

/// [`wire_to_value`] over a slice, in order; stops at the first failure.
pub(crate) fn wire_to_values(
    shared: &Shared,
    node: NodeId,
    wire: &[WireValue],
) -> Result<Vec<Value>, String> {
    let mut out = Vec::with_capacity(wire.len());
    for wv in wire {
        out.push(wire_to_value(shared, node, wv)?);
    }
    Ok(out)
}

/// Re-materialise on `node` an exception a remote operation threw.
pub(crate) fn rethrow(shared: &Shared, node: NodeId, class: &str, fields: &[WireValue]) -> VmError {
    let Some(exc_class) = shared.universe.by_name(class) else {
        return VmError::Native(format!("unknown exception class {class}"));
    };
    match wire_to_values(shared, node, fields) {
        Ok(values) => VmError::Exception(shared.vms[node.0 as usize].alloc_raw(exc_class, values)),
        Err(m) => VmError::Native(m),
    }
}

/// The value a reply to a `what` request carries, unmarshalled on `node`;
/// a fault, exception or batch reply is an error.
pub(crate) fn reply_value(
    shared: &Shared,
    node: NodeId,
    reply: Reply,
    what: &str,
) -> Result<Value, VmError> {
    match reply {
        Reply::Value(wv) => wire_to_value(shared, node, &wv).map_err(VmError::Native),
        Reply::Fault(m) => Err(VmError::Native(m)),
        Reply::Exception { .. } => Err(VmError::Native(format!("exception during {what}"))),
        Reply::Batch(_) => Err(VmError::Native(format!("unexpected batch reply to {what}"))),
    }
}
