//! Request/reply exchanges: encode → transmit → serve → transmit → decode,
//! with retries, at-most-once duplicate suppression, per-link signature
//! interning and pooled encode buffers, all charged to the simulated clock
//! and recorded as spans.

use crate::batching::flush_outqueues;
use crate::cluster::{Cluster, Shared};
use crate::fifo::BoundedFifo;
use crate::obs::{bump, maybe_sample, monitors_on, Met};
use crate::replication::sync_dirty_replicas;
use crate::serve::handle_request;
use rafda_net::{BufPool, NetError, NodeId};
use rafda_telemetry::{MonitorEvent, SpanOutcome, TraceContext};
use rafda_vm::{NetFailure, NetFailureKind, VmError};
use rafda_wire::{FrameHeader, Protocol, ProtocolKind, Reply, Request, RequestKind, SigTable};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// Client-side fault tolerance for one request/reply exchange.
///
/// Only *transient* failures (dropped messages) are retried; partitions,
/// crashes and bad addresses fail fast — retrying cannot help until an
/// operator-level event heals them. Each retry charges `backoff_ns` to the
/// **simulated** clock, so runs stay deterministic per seed and the time
/// cost of fault tolerance is visible in the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total transmission attempts per exchange (≥ 1; 1 disables retry).
    pub max_attempts: u32,
    /// Simulated backoff before the first retry, in nanoseconds.
    pub base_backoff_ns: u64,
    /// Exponential backoff multiplier applied per further retry.
    pub multiplier: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_backoff_ns: 200_000,
            multiplier: 2,
        }
    }
}

impl RetryPolicy {
    /// No fault tolerance: a single attempt, any failure surfaces at once.
    /// (The pre-retry behaviour, useful for failure-injection tests.)
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ns: 0,
            multiplier: 1,
        }
    }

    /// Backoff charged before retry number `retry` (1-based): exponential
    /// in the number of failures seen so far, saturating instead of
    /// overflowing.
    pub fn backoff_ns(&self, retry: u32) -> u64 {
        let exp = retry.saturating_sub(1);
        (self.multiplier as u64)
            .saturating_pow(exp)
            .saturating_mul(self.base_backoff_ns)
    }
}

/// Maximum nested (re-entrant) RPC depth across the whole cluster — a
/// distributed call chain deeper than this is almost certainly unbounded
/// mutual recursion, and each level consumes host stack.
const MAX_RPC_DEPTH: u32 = 64;

/// How many served replies each node remembers for duplicate suppression.
/// Old entries are evicted once the cache is full, which is safe because a
/// client only retransmits while its call is still open — ids far in the
/// past can no longer be retried.
const REPLY_CACHE_CAP: usize = 1024;

/// Cluster-wide exchange state.
pub(crate) struct RpcState {
    protocols: HashMap<String, Box<dyn Protocol>>,
    retry: Cell<RetryPolicy>,
    rpc_depth: Cell<u32>,
    /// Every request/reply exchange gets a fresh id, reused verbatim by its
    /// retransmissions (the dedup key).
    next_msg_id: Cell<u64>,
    /// Span id of the most recent exchange that ended in a network failure.
    /// A failover span chains to it via `retry_of`, linking the re-homed
    /// call to the exchange against the crashed owner it retries.
    last_exchange_span: Cell<u64>,
    /// Reusable encode buffers, keyed by directed link. Checked out for
    /// the lifetime of one frame (request frames live across every
    /// retransmission of their exchange) and returned cleared. Never
    /// borrowed across a serve — RPCs re-enter.
    wire_bufs: RefCell<BufPool>,
    /// Per-directed-link signature interning tables, keyed `(from node,
    /// to node)`. The simulation runs both ends in one process, so a
    /// single table per link serves as the encoder's and the decoder's
    /// state: in-order frame processing plus idempotent interning keeps
    /// the two views identical without a handshake. Never borrowed across
    /// a serve.
    sig_tables: RefCell<HashMap<(u32, u32), SigTable>>,
}

/// One node's at-most-once reply cache: replies already sent, keyed by
/// `(caller node, message id)`, each paired with the addressed export's
/// property version **at serve time**. A retransmitted request is answered
/// from here instead of re-running the method, and it replays the stored
/// version too: the reply describes the state the method ran against, and
/// recomputing the version at retransmit time would let a dedup hit
/// validate a cache entry against state the original execution never saw.
#[derive(Debug, Default)]
pub(crate) struct ReplyCache(BoundedFifo<(u32, u64), (Reply, u64), REPLY_CACHE_CAP>);

impl ReplyCache {
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

impl RpcState {
    /// Exchange state with a codec for every protocol the plan generated
    /// proxies for.
    pub(crate) fn new(protocol_names: &[String]) -> RpcState {
        let mut protocols: HashMap<String, Box<dyn Protocol>> = HashMap::new();
        for p in protocol_names {
            if let Some(kind) = ProtocolKind::from_name(p) {
                protocols.insert(p.clone(), kind.codec());
            }
        }
        RpcState {
            protocols,
            retry: Cell::new(RetryPolicy::default()),
            rpc_depth: Cell::new(0),
            next_msg_id: Cell::new(1),
            last_exchange_span: Cell::new(0),
            wire_bufs: RefCell::new(BufPool::new()),
            sig_tables: RefCell::new(HashMap::new()),
        }
    }

    /// Span id of the most recent exchange that ended in a network failure.
    pub(crate) fn last_exchange_span(&self) -> u64 {
        self.last_exchange_span.get()
    }

    /// Run `f` on the signature table of the directed link `from → to`.
    fn with_sig_table<R>(&self, from: NodeId, to: NodeId, f: impl FnOnce(&mut SigTable) -> R) -> R {
        f(self
            .sig_tables
            .borrow_mut()
            .entry((from.0, to.0))
            .or_default())
    }

    /// `node`'s share of the wire-layer counters: signature interning
    /// refs/defs and encode-buffer reuses on links it is the sender of (the
    /// sender owns the encode state, so the work is charged to it).
    pub(crate) fn wire_counters(&self, node: u32) -> [u64; 3] {
        let (mut refs, mut defs) = (0, 0);
        for ((from, _), table) in self.sig_tables.borrow().iter() {
            if *from == node {
                refs += table.refs();
                defs += table.defs();
            }
        }
        let reuses = self.wire_bufs.borrow().reuses_from(NodeId(node));
        [refs, defs, reuses]
    }
}

impl Cluster {
    /// The fault-tolerance policy applied to every RPC exchange.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.shared().rpc.retry.get()
    }

    /// Replace the fault-tolerance policy (applies to subsequent RPCs).
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        self.shared().rpc.retry.set(policy);
    }
}

/// Perform one request/reply exchange, running the full encode → transmit →
/// decode → handle → encode → transmit → decode pipeline and charging the
/// protocol-stack overhead to the simulated clock.
///
/// Returns the reply together with the served object's property version as
/// piggybacked on the reply frame (0 for request kinds that do not address
/// a versioned export).
pub(crate) fn rpc(
    shared: &Shared,
    from: NodeId,
    to: NodeId,
    proto: &str,
    class: &str,
    req: &Request,
) -> Result<(Reply, u64), VmError> {
    // Every exchange is a synchronization point: pending batches drain
    // before this request goes out, so its server observes every operation
    // deferred before it in program order. This must hold at *any* rpc
    // depth — application code usually runs inside a serve already (the
    // driver's `main` is itself a remote call), so gating on depth 0 would
    // let nested value-returning calls read state whose mutations are still
    // queued. Re-entrancy is safe: `flush_outqueues` is a no-op while a
    // flush is already draining, and the paths that snapshot object state
    // (migrate, pull, replica sync of batched classes) flush or enqueue
    // explicitly before snapshotting. With batching off the queues are
    // permanently empty and this is a single emptiness check.
    //
    // The time-series sample is taken first for the same reason in
    // reverse: queue-depth readings must see the work this flush is about
    // to drain.
    maybe_sample(shared);
    flush_outqueues(shared)?;
    // A promoted object's local mutations bypass the serve path entirely;
    // the next exchange is the first chance to notice its backups are
    // behind, and nested calls may observe them through their own replicas.
    sync_dirty_replicas(shared);
    let state = &shared.rpc;
    let codec = state
        .protocols
        .get(proto)
        .ok_or_else(|| VmError::Native(format!("no codec for protocol {proto}")))?;
    if state.rpc_depth.get() >= MAX_RPC_DEPTH {
        return Err(VmError::Native(
            "rpc depth limit exceeded (unbounded distributed recursion?)".into(),
        ));
    }
    state.rpc_depth.set(state.rpc_depth.get() + 1);
    let result = rpc_inner(shared, from, to, codec.as_ref(), class, req);
    state.rpc_depth.set(state.rpc_depth.get() - 1);
    result
}

/// The client-side exchange span and the server-side serve span of one
/// request kind. Decodable from a borrowed frame header, so even a
/// dedup-hit replay (which never builds the owned request) records a
/// correctly named span.
fn span_names(kind: RequestKind) -> (&'static str, &'static str) {
    match kind {
        RequestKind::Call => ("rpc.call", "serve.call"),
        RequestKind::Create => ("rpc.create", "serve.create"),
        RequestKind::Discover => ("rpc.discover", "serve.discover"),
        RequestKind::Fetch => ("rpc.fetch", "serve.fetch"),
        RequestKind::Install => ("rpc.install", "serve.install"),
        RequestKind::Forward => ("rpc.forward", "serve.forward"),
        RequestKind::ReplicaSync => ("rpc.replica", "serve.replica"),
        RequestKind::Promote => ("rpc.promote", "serve.promote"),
        RequestKind::Batch => ("rpc.batch", "serve.batch"),
    }
}

/// The method label recorded on an exchange span named `exch_name`: the
/// wire method string for calls, a pseudo-method named after the request
/// kind (`<discover>`, `<create:1>`, …) for the runtime-internal ones.
fn req_method_label(req: &Request, exch_name: &str) -> String {
    match req {
        Request::Call { method, .. } => method.clone(),
        Request::Create { ctor, .. } => format!("<create:{ctor}>"),
        _ => format!("<{}>", exch_name.trim_start_matches("rpc.")),
    }
}

/// The typed mirror of a transport error (same data, no crate dependency
/// from the VM on the network).
fn net_failure_kind(e: &NetError) -> NetFailureKind {
    match e {
        NetError::Dropped => NetFailureKind::Dropped,
        NetError::Partitioned { from, to } => NetFailureKind::Partitioned {
            from: from.0,
            to: to.0,
        },
        NetError::NodeCrashed(n) => NetFailureKind::NodeCrashed(n.0),
        NetError::NoSuchNode(n) => NetFailureKind::NoSuchNode(n.0),
    }
}

fn rpc_inner(
    shared: &Shared,
    from: NodeId,
    to: NodeId,
    codec: &dyn Protocol,
    class: &str,
    req: &Request,
) -> Result<(Reply, u64), VmError> {
    let state = &shared.rpc;
    let msg_id = state.next_msg_id.get();
    state.next_msg_id.set(msg_id + 1);
    let (exch_name, _) = span_names(RequestKind::of(req));
    // The exchange span covers the whole request/reply exchange, retries
    // included. Its context travels in the frame header — the frame is
    // encoded once and retransmitted verbatim, so the wire cannot carry
    // per-attempt contexts; attempts are recorded as client-local children.
    let (exch, ctx) = {
        let mut spans = shared.spans.borrow_mut();
        let h = spans.start_span(exch_name, from.0, shared.net.now().as_ns());
        spans.set_attr(h, "class", class);
        spans.set_attr(h, "method", req_method_label(req, exch_name));
        spans.set_attr(h, "protocol", codec.name());
        spans.set_attr(h, "from", from.0);
        spans.set_attr(h, "to", to.0);
        if let Request::Batch(ops) = req {
            spans.set_attr(h, "n_ops", ops.len());
        }
        let ctx = spans.context_of(h);
        (h, ctx)
    };
    // Encode once: every retransmission sends the same frame, same id
    // (which also makes re-interning on the decode side idempotent). The
    // buffer comes from the link's pool and goes back when the exchange
    // finishes; the signature table is the directed link's, so repeated
    // method/class names shrink to 5-byte references after their first
    // frame.
    let mut bytes = state.wire_bufs.borrow_mut().checkout(from, to);
    let encoded = state.with_sig_table(from, to, |table| {
        codec.encode_request_into(msg_id, ctx, req, Some(table), &mut bytes)
    });
    if let Err(e) = encoded {
        state.wire_bufs.borrow_mut().put_back(from, to, bytes);
        let end = shared.net.now().as_ns();
        let mut spans = shared.spans.borrow_mut();
        spans.end_span(exch, end, SpanOutcome::Fault);
        state.last_exchange_span.set(spans.span_id_of(exch));
        return Err(VmError::Native(format!("request encode failed: {e}")));
    }
    shared
        .spans
        .borrow_mut()
        .set_attr(exch, "bytes_out", bytes.len());
    let policy = state.retry.get();
    let max_attempts = policy.max_attempts.max(1);
    let mut attempt = 0u32;
    let mut prev_attempt_span: Option<u64> = None;
    let result = loop {
        attempt += 1;
        if attempt > 1 {
            // Back off on the simulated clock before retransmitting, so the
            // cost of fault tolerance is charged deterministically.
            shared.net.advance(policy.backoff_ns(attempt - 1));
            bump(shared, from.0, Met::Retries);
        }
        // Each transmission attempt is a child span: retransmissions get
        // fresh span ids within the same trace and point at the attempt
        // they retry via `retry_of`.
        let attempt_start = shared.net.now().as_ns();
        let att = {
            let mut spans = shared.spans.borrow_mut();
            let h = spans.start_span("rpc.attempt", from.0, attempt_start);
            spans.set_attr(h, "attempt", attempt);
            if let Some(prev) = prev_attempt_span {
                spans.set_retry_of(h, prev);
            }
            h
        };
        match attempt_exchange(shared, from, to, codec, msg_id, &bytes, attempt) {
            Ok((reply, obj_version)) => {
                let end = shared.net.now().as_ns();
                shared.obs.borrow_mut().record_attempts(from.0, attempt);
                let outcome = reply_outcome(&reply);
                let mut spans = shared.spans.borrow_mut();
                spans.end_span(att, end, SpanOutcome::Ok);
                spans.record_link(from.0, to.0, end.saturating_sub(attempt_start));
                spans.set_attr(exch, "attempts", attempt);
                spans.end_span(exch, end, outcome);
                state.last_exchange_span.set(spans.span_id_of(exch));
                break Ok((reply, obj_version));
            }
            Err(kind) if kind.is_transient() && attempt < max_attempts => {
                let end = shared.net.now().as_ns();
                let mut spans = shared.spans.borrow_mut();
                spans.end_span(att, end, SpanOutcome::NetFailure);
                prev_attempt_span = Some(spans.span_id_of(att));
                continue;
            }
            Err(kind) => {
                let end = shared.net.now().as_ns();
                {
                    let mut obs = shared.obs.borrow_mut();
                    obs.inc(from.0, Met::NetFailures);
                    obs.record_attempts(from.0, attempt);
                }
                let mut spans = shared.spans.borrow_mut();
                spans.end_span(att, end, SpanOutcome::NetFailure);
                spans.set_attr(exch, "attempts", attempt);
                spans.end_span(exch, end, SpanOutcome::NetFailure);
                state.last_exchange_span.set(spans.span_id_of(exch));
                break Err(VmError::Unreachable(NetFailure::new(kind, attempt)));
            }
        }
    };
    state.wire_bufs.borrow_mut().put_back(from, to, bytes);
    result
}

/// One transmission attempt of an exchange: request over the wire, serve
/// (with duplicate suppression), reply back over the wire.
fn attempt_exchange(
    shared: &Shared,
    from: NodeId,
    to: NodeId,
    codec: &dyn Protocol,
    msg_id: u64,
    bytes: &[u8],
    attempt: u32,
) -> Result<(Reply, u64), NetFailureKind> {
    let state = &shared.rpc;
    shared
        .net
        .transmit(from, to, bytes.len())
        .map_err(|e| net_failure_kind(&e))?;
    // Zero-copy fast path: only the header is parsed here. Whether this
    // attempt is a dedup hit (answered from the reply cache) is decided on
    // the borrowed header alone; the owned request tree is built inside
    // `serve_frame` only when the request is actually invoked.
    let header = codec
        .decode_request_header(bytes)
        .expect("own encoding must decode");
    debug_assert_eq!(header.msg_id, msg_id);
    if attempt > 1 {
        bump(shared, to.0, Met::Retransmits);
    }
    let (reply, reply_ctx, obj_version) = serve_frame(shared, to, from, &header);
    let mut reply_bytes = state.wire_bufs.borrow_mut().checkout(to, from);
    let encoded = state.with_sig_table(to, from, |table| {
        codec.encode_reply_into(
            msg_id,
            reply_ctx,
            obj_version,
            &reply,
            Some(table),
            &mut reply_bytes,
        )
    });
    if let Err(e) = encoded {
        // The reply itself cannot be framed (e.g. a >4 GiB string): answer
        // a fault instead. The fallback is a short stateless frame, which
        // cannot itself fail to encode.
        let fault = Reply::Fault(format!("reply encode failed: {e}"));
        reply_bytes.clear();
        codec
            .encode_reply_into(
                msg_id,
                reply_ctx,
                obj_version,
                &fault,
                None,
                &mut reply_bytes,
            )
            .expect("fault reply must encode");
    }
    if let Err(e) = shared.net.transmit(to, from, reply_bytes.len()) {
        state.wire_bufs.borrow_mut().put_back(to, from, reply_bytes);
        return Err(net_failure_kind(&e));
    }
    shared.net.advance(2 * codec.overhead_ns());
    let decoded = state.with_sig_table(to, from, |table| {
        codec.decode_reply_with(&reply_bytes, Some(table))
    });
    let (_, _, obj_version, reply) = decoded.expect("own encoding must decode");
    state.wire_bufs.borrow_mut().put_back(to, from, reply_bytes);
    Ok((reply, obj_version))
}

/// Serve a delivered frame with at-most-once semantics: if this `(caller,
/// message id)` was already answered, return the cached reply without
/// re-executing — a retransmission must never apply a mutating method
/// twice. The dedup decision is made on the borrowed header, and the owned
/// request tree is only materialised (resolving signature references
/// against the link's table) when the request is actually going to be
/// invoked.
///
/// Records a `serve.*` span whose parent comes from the wire context, which
/// is what stitches the hops of a multi-node chain into one trace. Returns
/// the reply, the serve span's context, and the addressed export's
/// property version (0 for request kinds that address no export) — both of
/// which ride back in the reply header.
fn serve_frame(
    shared: &Shared,
    node: NodeId,
    caller: NodeId,
    header: &FrameHeader<'_>,
) -> (Reply, TraceContext, u64) {
    let msg_id = header.msg_id;
    let (_, serve_name) = span_names(header.kind);
    let (span, reply_ctx) = {
        let mut spans = shared.spans.borrow_mut();
        let h = spans.start_server_span(serve_name, node.0, shared.net.now().as_ns(), header.ctx);
        spans.set_attr(h, "caller", caller.0);
        let reply_ctx = spans.context_of(h);
        (h, reply_ctx)
    };
    let execution = |replay| MonitorEvent::Execution {
        node: node.0,
        caller: caller.0,
        msg_id,
        replay,
        span_id: reply_ctx.span_id,
        trace_id: reply_ctx.trace_id,
    };
    let key = (caller.0, msg_id);
    let cached = shared.node(node.0).replies.0.get(&key).cloned();
    if let Some((reply, obj_version)) = cached {
        // A dedup hit replays the *stored* version (see [`ReplyCache`]).
        // The request payload is never materialised on this path — the
        // decision used the header alone.
        bump(shared, node.0, Met::DedupHits);
        {
            let mut spans = shared.spans.borrow_mut();
            spans.set_attr(span, "cached", true);
            spans.end_span(span, shared.net.now().as_ns(), reply_outcome(&reply));
        }
        if monitors_on(shared) {
            shared.obs.borrow_mut().emit(&execution(true));
        }
        return (reply, reply_ctx, obj_version);
    }
    let materialised = shared
        .rpc
        .with_sig_table(caller, node, |table| header.materialise(Some(table)));
    let req = match materialised {
        Ok(req) => req,
        Err(e) => {
            // The frame identified itself well enough to route but its
            // payload is malformed: answer a fault (not cached — a
            // retransmission carries the same bytes and faults the same
            // way, so caching would only occupy a dedup slot).
            bump(shared, node.0, Met::Faults);
            let reply = Reply::Fault(format!("malformed request frame: {e}"));
            shared.spans.borrow_mut().end_span(
                span,
                shared.net.now().as_ns(),
                reply_outcome(&reply),
            );
            return (reply, reply_ctx, 0);
        }
    };
    if let Request::Batch(ops) = &req {
        shared.spans.borrow_mut().set_attr(span, "n_ops", ops.len());
    }
    let (reply, obj_version) = handle_request(shared, node, caller, req);
    if monitors_on(shared) {
        shared.obs.borrow_mut().emit(&execution(false));
    }
    shared
        .node_mut(node.0)
        .replies
        .0
        .insert(key, (reply.clone(), obj_version));
    shared
        .spans
        .borrow_mut()
        .end_span(span, shared.net.now().as_ns(), reply_outcome(&reply));
    (reply, reply_ctx, obj_version)
}

/// Span outcome of a served reply. A batch is `Ok` only if every batched
/// operation succeeded.
pub(crate) fn reply_outcome(reply: &Reply) -> SpanOutcome {
    match reply {
        Reply::Value(_) => SpanOutcome::Ok,
        Reply::Exception { .. } | Reply::Fault(_) => SpanOutcome::Fault,
        Reply::Batch(results) => {
            if results.iter().any(|(_, r)| !matches!(r, Reply::Value(_))) {
                SpanOutcome::Fault
            } else {
                SpanOutcome::Ok
            }
        }
    }
}

/// Bodies of the exchange tests registered in `cluster::tests`.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cluster::tests::deployed;
    use crate::registry::read_proxy_state;
    use rafda_policy::{Placement, StaticPolicy};
    use rafda_vm::Value;
    use rafda_wire::WireValue;

    /// Deliver `req` to `node` as an RMI frame from `caller` — exactly what
    /// a lossy network hands the server for a (re)transmission of message
    /// `msg_id` — through the same [`serve_frame`] production traffic takes.
    fn deliver(
        shared: &Shared,
        node: NodeId,
        caller: NodeId,
        msg_id: u64,
        req: &Request,
    ) -> (Reply, TraceContext, u64) {
        let codec = ProtocolKind::Rmi.codec();
        let frame = codec
            .encode_request(msg_id, TraceContext::NONE, req)
            .unwrap();
        let header = codec.decode_request_header(&frame).unwrap();
        serve_frame(shared, node, caller, &header)
    }

    /// The `add(int)` method's wire name on class `base`.
    fn add_method(shared: &Shared, base: rafda_classmodel::ClassId) -> String {
        let sig = shared
            .universe
            .class(base)
            .methods
            .iter()
            .find(|m| m.name == "add")
            .unwrap()
            .sig;
        format!("add@{}", sig.0)
    }

    /// Regression for the stale-version dedup bug: a dedup hit must replay
    /// the object version stored **at serve time**, not recompute it at
    /// retransmit time. The single-threaded simulation cannot interleave a
    /// foreign mutation between a dropped reply and its retransmission from
    /// the outside, so the scenario delivers the frames directly — exactly
    /// what a lossy network would deliver to the server.
    pub(crate) fn dedup_hit_replays_the_serve_time_version() {
        let policy = StaticPolicy::new()
            .place("C", Placement::Node(NodeId(1)))
            .cache("C", true);
        let (cluster, base) = deployed(policy);
        let obj = cluster.new_instance(NodeId(0), "C", 0, vec![]).unwrap();
        let shared = cluster.shared();
        let h = obj.as_ref_handle().unwrap();
        let (owner, oid) = read_proxy_state(&shared.vms[0], h).unwrap();
        assert_eq!(owner, 1, "policy must place the object remotely");
        let get_sig = shared.plan.family(base).unwrap().getters[0];
        let read = Request::Call {
            object: oid,
            method: format!("get_v@{}", get_sig.0),
            args: vec![],
        };
        // Message 900: a cacheable read is served, but the reply is lost on
        // the way back.
        let (r1, _, v1) = deliver(shared, NodeId(1), NodeId(0), 900, &read);
        assert!(matches!(r1, Reply::Value(_)));
        // Before the retransmission arrives, another mutation is served and
        // bumps the object's version.
        let add = Request::Call {
            object: oid,
            method: add_method(shared, base),
            args: vec![WireValue::Int(5)],
        };
        let (r2, _, _) = deliver(shared, NodeId(1), NodeId(0), 901, &add);
        assert!(matches!(r2, Reply::Value(_)));
        let current = shared.dir.borrow().version((1, oid));
        assert!(current > v1, "the mutation must bump the version");
        // The retransmission of 900 dedups. Its reply must carry v1: tagged
        // with `current`, the client would cache the pre-mutation value as
        // fresh and serve the stale read until the next mutation.
        let (r3, _, v3) = deliver(shared, NodeId(1), NodeId(0), 900, &read);
        assert_eq!(r3, r1, "dedup must replay the original reply");
        assert_eq!(cluster.stats().dedup_hits, 1);
        assert_eq!(
            v3, v1,
            "dedup hit must replay the serve-time version, not the current one"
        );
        assert_ne!(v3, current);
    }

    /// The zero-copy wire path at the runtime level: a repeated call sends
    /// fewer bytes than its first occurrence (the method signature shrank
    /// to an interned reference), encode buffers are recycled per link, and
    /// the merged stats expose all three wire counters.
    pub(crate) fn repeat_calls_intern_signatures_and_reuse_buffers() {
        let policy = StaticPolicy::new().place("C", Placement::Node(NodeId(1)));
        let (cluster, _) = deployed(policy);
        let obj = cluster.new_instance(NodeId(0), "C", 0, vec![]).unwrap();
        let net = cluster.network();
        let t0 = net.stats().bytes;
        cluster
            .call_method(NodeId(0), obj.clone(), "add", vec![Value::Int(1)])
            .unwrap();
        let first = net.stats().bytes - t0;
        let t1 = net.stats().bytes;
        cluster
            .call_method(NodeId(0), obj, "add", vec![Value::Int(1)])
            .unwrap();
        let second = net.stats().bytes - t1;
        assert!(
            second < first,
            "an interned repeat call must be smaller on the wire: {second} >= {first}"
        );
        let stats = cluster.stats();
        assert!(stats.sig_defs > 0, "first frames define signatures");
        assert!(stats.sig_refs > 0, "repeat frames reference them");
        assert!(
            stats.wire_buf_reuses > 0,
            "second exchange on a link must reuse its encode buffers"
        );
    }

    /// The at-most-once canary. A retransmission served from the reply
    /// cache is a legitimate replay; losing the cache entry and
    /// re-executing the frame is the violation the monitor exists for.
    /// Like the dedup test above, the scenario delivers frames directly —
    /// the single-threaded simulation cannot evict a reply cache entry
    /// mid-exchange from the outside.
    pub(crate) fn at_most_once_monitor_flags_re_execution_after_cache_loss() {
        let policy = StaticPolicy::new().place("C", Placement::Node(NodeId(1)));
        let (cluster, base) = deployed(policy);
        cluster.enable_monitors();
        let obj = cluster.new_instance(NodeId(0), "C", 0, vec![]).unwrap();
        let shared = cluster.shared();
        let h = obj.as_ref_handle().unwrap();
        let (_, oid) = read_proxy_state(&shared.vms[0], h).unwrap();
        let call = Request::Call {
            object: oid,
            method: add_method(shared, base),
            args: vec![WireValue::Int(5)],
        };
        // Serve once, then retransmit: the dedup cache replays — healthy.
        let (r1, _, _) = deliver(shared, NodeId(1), NodeId(0), 900, &call);
        assert!(matches!(r1, Reply::Value(_)));
        let (r2, _, _) = deliver(shared, NodeId(1), NodeId(0), 900, &call);
        assert_eq!(r2, r1);
        assert_eq!(cluster.monitor_violations(), vec![]);

        // Inject the bug: the server forgets its replies, so the next
        // retransmission of 900 re-executes `add` — the object double-
        // applies the mutation, which is exactly what at-most-once forbids.
        shared.nodes.borrow_mut()[1].replies = ReplyCache::default();
        let (r3, _, _) = deliver(shared, NodeId(1), NodeId(0), 900, &call);
        assert!(matches!(r3, Reply::Value(_)));
        assert_ne!(r3, r1, "re-execution double-applies the mutation");
        let violations = cluster.monitor_violations();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].monitor, "at-most-once");
        assert!(violations[0].message.contains("msg 900"));
        assert_ne!(violations[0].span_id, 0);
    }
}
