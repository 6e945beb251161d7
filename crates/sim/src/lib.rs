//! Deterministic cycle-level GPU execution model.
//!
//! The paper's kernels are CUDA kernels evaluated on Tesla V100 / A30 /
//! RTX 3090 hardware. This crate replaces that hardware with a
//! transaction-level model that reproduces every effect the paper's
//! optimisations target:
//!
//! * **Load imbalance** — each warp's cost is accounted individually; a
//!   thread block finishes when its slowest warp does, and a wave of blocks
//!   finishes when its slowest streaming multiprocessor does
//!   ([`launch`]).
//! * **Tail effect** (§III-B1, Fig. 6) — blocks are scheduled in waves of
//!   `FullWaveSize = NumSM × ActiveBlocksPerSM` (Eq. 3–4 implemented in
//!   [`occupancy`]); a partial final wave costs a full wave while using only
//!   part of the machine.
//! * **Alignment / coalescing / vectorization** (§III-B2, Fig. 7) — every
//!   warp-level global access is decomposed into 32-byte sectors based on
//!   its actual byte address ([`memory`]); misaligned accesses touch extra
//!   sectors and narrow vector widths cost extra instructions.
//! * **Data locality** (§III-C, Fig. 8) — global reads probe a
//!   set-associative LRU sector cache modelling L2 ([`cache`]), so
//!   reordering the graph genuinely changes the hit rate.
//!
//! Kernels drive the model through [`tally::WarpTally`], which both counts
//! cost *and* lets the kernel compute real numeric results, so correctness
//! and performance shape come from one execution.

#![forbid(unsafe_code)]

pub mod attribution;
pub mod cache;
pub mod device;
pub mod interconnect;
pub mod launch;
pub mod memory;
pub mod occupancy;
pub mod profile;
pub mod sink;
pub mod symbolic;
pub mod tally;

pub use attribution::{attribute, Attribution, Bound};
pub use cache::SectorCache;
pub use device::{default_engine, set_default_engine, CostEngine, CostModel, DeviceSpec};
pub use interconnect::{LinkKind, LinkSpec, LinkTimeline, TransferDescriptor};
pub use launch::{GpuSim, LaunchConfig, LaunchRecording, LaunchReport};
pub use memory::{Buffer, MemorySpace, SECTOR_BYTES};
pub use occupancy::{occupancy_of, tail_stretch, KernelResources, Occupancy};
pub use sink::{AccessEvent, AccessKind, AccessSink, BufferDecl, BufferRole};
pub use symbolic::{
    cond_le, Distinct, LaunchBuilder, PlanBuilder, SymAccess, SymAccessKind, SymArm, SymBuffer,
    SymBufferRole, SymCond, SymExpr, SymLaunch, SymOp, SymbolicPlan, VarDecl, VarId, VarKind,
};
pub use tally::{WarpCounters, WarpTally};
