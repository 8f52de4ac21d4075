//! Batched remote invocation: per-`(caller, owner)` outcall queues of
//! deferred operations, drained as one [`Request::Batch`] exchange per
//! queue at every synchronization point.

use crate::client::locate_home;
use crate::cluster::Shared;
use crate::marshal;
use crate::obs::{bump, Met};
use crate::rpc::rpc;
use rafda_net::NodeId;
use rafda_vm::{NetFailureKind, VmError};
use rafda_wire::{Reply, Request};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// The cluster's outcall queues.
#[derive(Default)]
pub(crate) struct Batching {
    /// Per-`(caller node, owner node)` queues. Drained by
    /// [`flush_outqueues`] at every synchronization point; permanently
    /// empty unless the policy batches some class.
    outqueues: RefCell<HashMap<(u32, u32), PendingBatch>>,
    /// Re-entrancy guard for [`flush_outqueues`]: the flush itself performs
    /// top-level exchanges, which are synchronization points of their own.
    in_flush: Cell<bool>,
}

impl Batching {
    /// `(non-empty queues, deferred operations across all queues)`.
    pub(crate) fn depth(&self) -> (usize, usize) {
        let queues = self.outqueues.borrow();
        (queues.len(), queues.values().map(|p| p.ops.len()).sum())
    }
}

/// Operations deferred toward one owner by one caller, flushed as a single
/// [`Request::Batch`] exchange at the next synchronization point. The
/// protocol and class recorded at first enqueue label the flush exchange
/// (all ops on one queue use the owner's protocol anyway).
#[derive(Debug)]
struct PendingBatch {
    proto: String,
    class: String,
    ops: Vec<Request>,
}

/// Defer `op` onto the `(from, to)` outcall queue instead of performing an
/// exchange now.
pub(crate) fn enqueue_outcall(
    shared: &Shared,
    from: NodeId,
    to: NodeId,
    proto: &str,
    class: &str,
    op: Request,
) {
    {
        let mut queues = shared.batch.outqueues.borrow_mut();
        let pending = queues
            .entry((from.0, to.0))
            .or_insert_with(|| PendingBatch {
                proto: proto.to_owned(),
                class: class.to_owned(),
                ops: Vec::new(),
            });
        // Replica shipments supersede each other: only the newest state of
        // an export needs to travel, so a queued sync of the same object is
        // replaced in place (keeping its slot preserves the order of the
        // other queued operations).
        let queued_sync = match &op {
            Request::ReplicaSync { object, .. } => pending
                .ops
                .iter_mut()
                .find(|q| matches!(**q, Request::ReplicaSync { object: o, .. } if o == *object)),
            _ => None,
        };
        match queued_sync {
            Some(slot) => *slot = op,
            None => pending.ops.push(op),
        }
    }
    bump(shared, from.0, Met::BatchedOps);
}

/// Drain every pending outcall queue, shipping each as one
/// [`Request::Batch`] exchange. Called at every synchronization point: any
/// top-level exchange, fetch/migrate/pull, an adaptation tick,
/// crash/restart, a clock read, and [`Cluster::flush`](crate::Cluster::flush).
///
/// Serving a batch can enqueue follow-up operations (replica shipments of
/// the applied calls, ops re-deferred through a forwarding proxy), so the
/// drain loops until quiescent; queues go out in sorted key order so runs
/// stay deterministic. After the first failure the remaining queues still
/// drain — their operations must not be silently lost — and the first
/// error is reported.
///
/// With batching off the queues are permanently empty and this returns
/// after one emptiness check, leaving clocks, traces and telemetry
/// byte-identical to a runtime without batching.
pub(crate) fn flush_outqueues(shared: &Shared) -> Result<(), VmError> {
    let batch = &shared.batch;
    if batch.in_flush.get() || batch.outqueues.borrow().is_empty() {
        return Ok(());
    }
    batch.in_flush.set(true);
    let mut first_err = None;
    loop {
        let mut keys: Vec<(u32, u32)> = batch.outqueues.borrow().keys().copied().collect();
        if keys.is_empty() {
            break;
        }
        keys.sort_unstable();
        for key in keys {
            let Some(pending) = batch.outqueues.borrow_mut().remove(&key) else {
                continue;
            };
            bump(shared, key.0, Met::Flushes);
            let (from, to) = (NodeId(key.0), NodeId(key.1));
            let outcome = rpc(
                shared,
                from,
                to,
                &pending.proto,
                &pending.class,
                &Request::Batch(pending.ops.clone()),
            );
            // The owner died between the deferral and this flush (delivery
            // refused, nothing applied). The accepted calls must not be
            // lost: re-home each onto the object's promoted backup — the
            // same failover a synchronous call would take — and re-defer
            // it there; this drain loop ships the new queues. Replica
            // shipments for the dead node are dropped: restart clears the
            // synced-version marks, so the owner re-seeds it at its next
            // sync anyway.
            let node_crashed = matches!(
                &outcome,
                Err(e) if matches!(
                    e.net_failure().map(|nf| nf.kind),
                    Some(NetFailureKind::NodeCrashed(_))
                )
            );
            if node_crashed {
                for op in pending.ops {
                    let Request::Call {
                        object,
                        method,
                        args,
                    } = op
                    else {
                        continue;
                    };
                    match locate_home(shared, from, &pending.proto, &pending.class, to.0, object) {
                        Some((nn, noid)) => {
                            enqueue_outcall(
                                shared,
                                from,
                                NodeId(nn),
                                &pending.proto,
                                &pending.class,
                                Request::Call {
                                    object: noid,
                                    method,
                                    args,
                                },
                            );
                            bump(shared, from.0, Met::Failovers);
                        }
                        // Nobody can take over (unreplicated, or every
                        // backup is gone): the deferred call is lost for
                        // real — surface that at this synchronization
                        // point like any other flush failure.
                        None => {
                            if first_err.is_none() {
                                first_err =
                                    outcome.as_ref().err().cloned().or_else(|| {
                                        Some(VmError::Native("deferred call lost".into()))
                                    });
                            }
                        }
                    }
                }
            } else if first_err.is_none() {
                first_err = flush_error(shared, from, outcome);
            }
        }
    }
    batch.in_flush.set(false);
    first_err.map_or(Ok(()), Err)
}

/// Surface the outcome of one flushed batch at the synchronization point
/// that triggered it: network failures and faults propagate as-is, and a
/// deferred operation that threw when it finally ran re-materialises its
/// exception on the flushing node.
fn flush_error(
    shared: &Shared,
    from: NodeId,
    outcome: Result<(Reply, u64), VmError>,
) -> Option<VmError> {
    let results = match outcome {
        Err(e) => return Some(e),
        Ok((Reply::Batch(results), _)) => results,
        Ok((Reply::Fault(m), _)) => return Some(VmError::Native(m)),
        Ok(_) => return None,
    };
    for (_, r) in results {
        match r {
            Reply::Value(_) => {}
            Reply::Exception { class, fields } => {
                return Some(marshal::rethrow(shared, from, &class, &fields))
            }
            Reply::Fault(m) => return Some(VmError::Native(m)),
            Reply::Batch(_) => return Some(VmError::Native("nested batch reply".into())),
        }
    }
    None
}

/// Bodies of the batching tests registered in `cluster::tests`.
#[cfg(test)]
pub(crate) mod tests {
    use crate::cluster::tests::deployed;
    use rafda_net::NodeId;
    use rafda_policy::{Placement, StaticPolicy};
    use rafda_vm::Value;

    /// Batched invocation basics, below the integration level: void calls
    /// on a `batch on` class defer, queued replica shipments of the same
    /// export coalesce, and a value-returning call flushes everything in
    /// one exchange per queue.
    pub(crate) fn deferred_ops_flush_at_a_value_returning_call() {
        let policy = StaticPolicy::new()
            .place("C", Placement::Node(NodeId(1)))
            .batch("C", true);
        let (cluster, _) = deployed(policy);
        let obj = cluster.new_instance(NodeId(0), "C", 0, vec![]).unwrap();
        // The generated setter returns void: deferred, not sent.
        let r = cluster
            .call_method(NodeId(0), obj.clone(), "set_v", vec![Value::Int(4)])
            .unwrap();
        assert_eq!(r, Value::Null);
        assert_eq!(cluster.shared().batch.outqueues.borrow().len(), 1);
        let before = cluster.stats();
        assert_eq!(before.batched_ops, 1);
        assert_eq!(before.flushes, 0);
        // A value-returning call is a synchronization point: the deferred
        // setter lands first (in order), then the read runs.
        let v = cluster
            .call_method(NodeId(0), obj, "get_v", vec![])
            .unwrap();
        assert_eq!(v, Value::Int(4), "the flushed write must be visible");
        let after = cluster.stats();
        assert_eq!(after.flushes, 1);
        assert!(cluster.shared().batch.outqueues.borrow().is_empty());
    }
}
