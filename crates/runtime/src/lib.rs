#![forbid(unsafe_code)]
//! A deterministic simulated message-passing cluster — the MPI substitute.
//!
//! The papers run on a 32-node MPI cluster. This runtime replaces it with a
//! *simulated* distributed-memory machine: `P` virtual processors advance in
//! supersteps; the algorithm layer keeps one state object per processor and
//! moves data between them exclusively through [`Cluster`], which charges
//! every transfer to per-processor LogP virtual clocks and a cost ledger.
//!
//! Why keep the simulator at all: the algorithms under study are defined
//! entirely by *which bytes move when* and *what each processor may know*; a
//! deterministic simulator preserves exactly those semantics, makes every
//! run reproducible, and yields a hardware-independent "cluster time" (the
//! LogP makespan) that the figure reproductions report — see DESIGN.md §2.
//!
//! The two execution backends ([`BackendKind`]) are the same [`Cluster`]
//! with a different worker count: the simulator runs every per-rank stage
//! inline, the threads backend runs [`Cluster::run_on_ranks`] on real OS
//! threads. All accounting goes through the same code either way, so real
//! wall-clock parallelism and the deterministic replay contract coexist,
//! checked by the cross-backend differential suite (DESIGN.md §16).

pub mod cluster;
pub mod detector;
pub mod fault;

pub use cluster::{
    threads_available, BackendKind, Cluster, DeliveryKind, ExchangeMode, TraceEvent, TransferOut,
};
pub use detector::{FailureDetector, RankHealth};
pub use fault::{CrashFault, Delivery, FaultPlan, LinkFaults, StragglerFault};
