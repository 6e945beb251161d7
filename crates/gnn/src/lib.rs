//! Minimal GNN training substrate — the framework layer of Table V.
//!
//! The paper embeds its kernels into DGL and PyG and measures end-to-end
//! training time. This crate is the equivalent substrate: dense linear
//! algebra on rayon ([`linalg`]), one simulated sparse backend whose
//! kernel choice — the HP kernels, the cuSPARSE-style baselines, or an
//! autotuned plan — is all that differs between Table V's runs, accounting
//! GPU time in one ledger ([`backend`]), a GCN with manual reverse-mode
//! backpropagation ([`gcn`]), a GAT-style attention layer exercising SDDMM
//! ([`gat`]), and full-graph / GraphSAINT training loops ([`train`]).
//!
//! Numerics always run on the CPU (real training, loss really decreases);
//! the backend simultaneously accounts the *simulated GPU cycles* each
//! operation would cost, which is what the Table V comparison reports.

#![forbid(unsafe_code)]

pub mod backend;
pub mod gat;
pub mod gat_model;
pub mod gcn;
pub mod linalg;
pub mod mha;
pub mod sage;
pub mod train;

pub use backend::{
    dense_gemm_cycles, unfused_mha, AutoBackend, CpuBackend, SimBackend, SparseBackend,
};
pub use gat_model::{GatAdam, GatConfig, GatModel};
pub use gcn::{Adam, Gcn, GcnConfig};
pub use mha::{
    GraphTransformer, MhaCache, SparseMha, TransformerAdam, TransformerConfig, TransformerGrads,
};
pub use sage::{mean_operator, Sage, SageAdam, SageConfig};
pub use train::{train_full_graph, train_graph_sampling, TrainConfig, TrainStats};
