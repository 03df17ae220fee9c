//! Distributed-cluster substrate for ParMAC.
//!
//! The paper runs ParMAC on a 128-processor MPI cluster and a 64-core
//! shared-memory machine. This crate replaces that hardware with
//! interchangeable execution engines behind the [`ClusterBackend`] trait
//! ([`backend`]).
//!
//! **One protocol engine, four drivers, one reference.** The asynchronous
//! W step of §4.1 / §4.3 — seed submodel `i` at ring position `i mod P`,
//! update it on every machine `e` times, one forwarding lap, collect — is
//! written once, in the crate-private `ring` module. A backend only decides
//! how an envelope reaches its next machine and on which thread the update
//! runs:
//!
//! * [`ThreadedBackend`] — the **channel ring**: one scoped OS thread per
//!   machine, a crossbeam channel per ring position. Its Z step runs one task
//!   per shard on `P` threads.
//! * [`pool`] — the **stealing deque** (the paper's shared-memory
//!   configuration, §8.5): every visit is a task any worker can take, so the
//!   submodels queued at one machine train concurrently; the Z step splits
//!   shards into point chunks. The pool's ordered task runner *is* the Z
//!   fan-out of every thread backend — they differ only in task shape.
//! * [`server`] — **the threaded ring plus a resident serving fleet**: it
//!   trains exactly like [`ThreadedBackend`] and *holds* long-lived machine
//!   actors — one thread per machine, owning its shards' codes and index
//!   outright (§4; more cores means more machines, §8.5) — that answer
//!   Hamming k-NN queries *during* training through a [`QueryRouter`]; each
//!   Z step's updates are mirrored into the fleet. Besides the `P` actors
//!   the fleet runs at most one admission loop and one rebalancer, nothing
//!   else. The fleet is replicated and self-healing: a
//!   replication factor places each shard on several machines, the router
//!   fails over across live replicas under a bounded deadline, answers carry
//!   explicit coverage, and a health-tracker-driven rebalancer re-replicates
//!   shards when machines die or join.
//! * [`process`] — the **socket ring**: each ring machine is an OS process
//!   (`parmac-machined`) speaking length-prefixed [`wire`] frames over
//!   Unix-domain sockets, the coordinator applies every visit through the
//!   same engine, and — because only a socket can lose an envelope in flight
//!   — generation fencing and re-injection live there. A
//!   [`process::FleetLauncher`] supervises the workers and turns a dead
//!   process into a §4.3 fault event, so training completes bitwise
//!   identical to the simulator even when a worker is SIGKILLed mid-step.
//!
//! [`sim`] is not a driver but the **reference**: a deterministic,
//! synchronous-tick simulator in which machines, shards and circulating
//! submodels are explicit and per-tick computation and communication are
//! charged to a [`CostModel`] (the `t_r^W`, `t_c^W`, `t_r^Z` of the paper's
//! speedup model, fig. 10), with fault injection (§4.3). Every driver is
//! tested bitwise against it.
//!
//! Supporting modules: [`topology`] (the circular topology, including the
//!   random re-wiring used for cross-machine shuffling), [`envelope`] (the
//!   per-submodel protocol metadata: counters and visit lists), [`cost`]
//!   (cost models and step statistics), [`streaming`] (adding/removing data
//!   and machines on the fly), [`wire`] (the byte-level codecs the socket
//!   ring speaks) and the crate-private `replica` (the resident-shard store
//!   both the serving actors and the `parmac-machined` workers keep).
//!
//! The backends are generic over the submodel type `S` and the update/solve
//! closures, so they contain no knowledge of binary autoencoders;
//! `parmac-core` supplies the actual W-step and Z-step work through the
//! [`ClusterBackend`] methods.

#![warn(missing_docs)]

pub mod backend;
pub mod cost;
pub mod envelope;
pub mod pool;
pub mod process;
mod replica;
mod ring;
pub mod server;
pub mod sim;
pub mod streaming;
mod threaded;
pub mod topology;
pub(crate) mod waits;
pub mod wire;

pub use backend::{ClusterBackend, SimBackend, ThreadedBackend, ZUpdate};
pub use cost::{ring_hops, CostModel, StepTimings, WStepStats, ZStepStats};
pub use envelope::SubmodelEnvelope;
pub use pool::PoolBackend;
pub use process::{FleetLauncher, MachineDown, MachineDownReason, ProcessBackend, ProcessConfig};
pub use server::{
    AdmissionConfig, AdmissionError, Coverage, FleetStatus, KnnResponse, MachineMsg, Query,
    QueryReply, QueryRouter, ReplicationConfig, ServerBackend, ServingStats, ShardHits,
    ZShardUpdates,
};
pub use sim::{Fault, SimCluster};
pub use topology::RingTopology;
pub use wire::{WireCode, WireError, WireQuery};
