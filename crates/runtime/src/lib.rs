//! # rafda-runtime
//!
//! The RAFDA distributed runtime: it takes a *transformed* class universe
//! (`rafda-transform`) and deploys it over a simulated cluster
//! (`rafda-net`), implementing the pieces the paper leaves to the runtime:
//!
//! * the **factory hooks** (`client`) — the generated `make()` and
//!   `discover()` methods are `native`; this crate installs their
//!   implementations, which consult the
//!   [`DistributionPolicy`](rafda_policy::DistributionPolicy) ("the object
//!   creation method contains the policy determining which of the classes
//!   implementing `A_O_Int` will be used", Section 2);
//! * the **proxy hooks** (`client`, `rpc`, `serve`) — every method of a
//!   generated `A_O_Proxy_<P>` / `A_C_Proxy_<P>` class marshals the call
//!   with protocol `P` (`rafda-wire`), ships it over the simulated network,
//!   and the owning node's VM executes the real method, with results,
//!   remote references and exceptions marshalled back;
//! * **object registries** (`registry`) — exported objects, imported
//!   proxies, and the per-node singletons implementing static members;
//! * **dynamic boundary changes** (`cluster`) — [`Cluster::migrate`] moves
//!   a live object to another node, rewriting the local instance *in place*
//!   into a proxy (the paper's Figure 1: `C` becomes `Cp`), and
//!   [`Cluster::pull_local`] reverses it; [`Cluster::adapt`] runs the
//!   affinity loop that re-draws boundaries automatically (`placement`).
//!
//! Each further mechanism is one module that owns its state: crash-stop
//! `replication`, `batching`, sharding in `placement`, the object
//! `directory`, and the metrics and exports in `obs`.
//!
//! ## Example
//!
//! ```
//! use rafda_classmodel::{ClassUniverse, sample};
//! use rafda_transform::Transformer;
//! use rafda_runtime::Cluster;
//! use rafda_policy::StaticPolicy;
//! use rafda_vm::Value;
//!
//! let mut universe = ClassUniverse::new();
//! sample::build_figure2(&mut universe);
//! let outcome = Transformer::new().protocols(&["RMI"]).run(&mut universe).unwrap();
//! // Statics of X, Y, Z live on node 1; the driver runs on node 0.
//! let policy = StaticPolicy::new().default_statics(rafda_net::NodeId(1));
//! let cluster = Cluster::new(universe, outcome.plan, 2, 42, Box::new(policy));
//! let r = cluster
//!     .call_static(rafda_net::NodeId(0), "X", "p", vec![Value::Int(6)])
//!     .unwrap();
//! assert_eq!(r, Value::Int(42)); // same answer as the original program
//! assert!(cluster.network().stats().messages > 0); // …but it went remote
//! ```

#![warn(missing_docs)]

mod batching;
mod client;
pub mod cluster;
mod directory;
pub mod error;
mod fifo;
pub mod introspect;
pub mod local;
pub mod marshal;
mod obs;
pub mod persist;
mod placement;
mod registry;
mod replication;
mod rpc;
mod serve;
pub mod soak;

pub use cluster::{Cluster, MigrationEvent, NodeSummary, RemoteRef, RetryPolicy, RuntimeStats};
pub use error::RuntimeError;
pub use introspect::{declare_introspection, INTROSPECTION_CLASS};
pub use local::LocalRuntime;
pub use persist::{SnapObject, SnapSlot, Snapshot};
pub use soak::{PhaseStats, SoakRecorder, SoakReport};
