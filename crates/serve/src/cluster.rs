//! The multi-device layer: one autotuned backend per simulated GPU, shard
//! feature residency, and batch execution with halo gathers.
//!
//! A [`Cluster`] places the shards of a [`ShardPlan`] onto `num_devices`
//! simulated GPUs (`device = shard % num_devices`) and executes batches of
//! target rows through the shard-owning device's planned [`SimBackend`].
//! Each batch builds a **compact matrix**: target rows in request order,
//! columns compacted to first-appearance ids over the *global* node ids
//! the shard rows reference. Because shard rows preserve the global CSR's
//! within-row order, the compact matrix for a given `(shard, rows)` pair
//! is bit-identical no matter how many devices the cluster has — which is
//! what makes a single-device reference run reproduce sharded outputs
//! byte for byte (halo exchange is lossless by construction).
//!
//! Columns owned by a shard resident on a *different* device price an
//! interconnect transfer ([`TransferDescriptor`]) of the referenced
//! feature rows; columns on the same device gather locally for free.

use crate::shard::ShardPlan;
use hpsparse_autotune::PlanStrategy;
use hpsparse_gnn::{SimBackend, SparseBackend};
use hpsparse_sim::{DeviceSpec, GpuSim, LinkSpec, TransferDescriptor};
use hpsparse_sparse::{Dense, Graph, Hybrid};
use std::collections::HashMap;

/// One executed batch.
#[derive(Debug)]
pub struct BatchResult {
    /// Output embeddings; row `i` belongs to the `i`-th requested target.
    pub outputs: Dense,
    /// Simulated kernel cycles the batch occupied its device (launch
    /// overhead included).
    pub kernel_cycles: u64,
    /// Interconnect transfers feeding the batch's halo gather, one per
    /// remote source device, ascending by source.
    pub transfers: Vec<TransferDescriptor>,
    /// Distinct feature rows gathered from other devices.
    pub remote_rows: usize,
    /// Distinct columns referenced by the batch (matrix width).
    pub gathered_rows: usize,
}

/// N simulated devices serving one sharded graph.
pub struct Cluster {
    plan: ShardPlan,
    backends: Vec<SimBackend>,
    /// Per shard: owned feature rows, in owned (local-id) order.
    shard_features: Vec<Dense>,
    link: LinkSpec,
    num_devices: usize,
    feature_dim: usize,
}

impl Cluster {
    /// Builds a cluster: shards `g` into `num_shards` parts, splits
    /// `features` by ownership, and boots one Heuristic-planning
    /// [`SimBackend`] per device. The Heuristic strategy keeps planning a
    /// pure function of each batch's shape, so identical batches pick
    /// identical kernels on every device — a serving-latency *and* a
    /// reproducibility property.
    pub fn new(
        g: &Graph,
        features: &Dense,
        num_shards: usize,
        num_devices: usize,
        device: DeviceSpec,
        link: LinkSpec,
    ) -> Self {
        assert_eq!(features.rows(), g.num_nodes(), "one feature row per node");
        assert!(num_devices >= 1, "need at least one device");
        let plan = ShardPlan::new(g, num_shards);
        Self::from_plan(plan, features, num_devices, device, link)
    }

    /// Builds a cluster over an existing shard plan (lets callers reuse
    /// one plan across device counts, e.g. the lossless check).
    pub fn from_plan(
        plan: ShardPlan,
        features: &Dense,
        num_devices: usize,
        device: DeviceSpec,
        link: LinkSpec,
    ) -> Self {
        assert!(num_devices >= 1, "need at least one device");
        assert_eq!(
            features.rows(),
            plan.assignment.len(),
            "one feature row per node in the shard plan"
        );
        let k = features.cols();
        let shard_features: Vec<Dense> = plan
            .shards
            .iter()
            .map(|s| {
                Dense::from_fn(s.num_owned(), k, |r, c| {
                    features.get(s.owned[r] as usize, c)
                })
            })
            .collect();
        let backends: Vec<SimBackend> = (0..num_devices)
            .map(|d| {
                let mut b = SimBackend::with_strategy(device.clone(), PlanStrategy::Heuristic);
                if let Some(sim) = b.sim_mut() {
                    sim.set_device_index(d as u32);
                }
                b
            })
            .collect();
        Self {
            plan,
            backends,
            shard_features,
            link,
            num_devices,
            feature_dim: k,
        }
    }

    /// The shard plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of simulated devices.
    pub fn num_devices(&self) -> usize {
        self.num_devices
    }

    /// Feature width `K`.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// The interconnect link model.
    pub fn link(&self) -> &LinkSpec {
        &self.link
    }

    /// The device hosting `shard`.
    pub fn device_of(&self, shard: u32) -> u32 {
        shard % self.num_devices as u32
    }

    /// The backing simulator of device `d`, for attaching observers
    /// (sanitizer sinks, trace sessions).
    pub fn device_sim_mut(&mut self, d: usize) -> &mut GpuSim {
        self.backends[d]
            .sim_mut()
            .expect("simulated backend has a sim")
    }

    /// Kernel cycles device `d` has accumulated so far.
    pub fn device_kernel_cycles(&self, d: usize) -> u64 {
        self.backends[d].sparse_cycles()
    }

    /// Executes one batch on `shard`'s device: `targets` are global node
    /// ids owned by `shard`, in request order (duplicates allowed).
    pub fn run_batch(&mut self, shard: usize, targets: &[u32]) -> BatchResult {
        let s = &self.plan.shards[shard];
        let dst_device = self.device_of(shard as u32);
        let k = self.feature_dim;

        // Compact matrix: rows = targets in order, columns = global ids at
        // first appearance. Walking shard rows enumerates entries in
        // global CSR order, so this assembly is independent of the device
        // count (and of thread count — it is sequential).
        let mut compact_of: HashMap<u32, u32> = HashMap::new();
        let mut compact_global: Vec<u32> = Vec::new();
        let mut triplets: Vec<(u32, u32, f32)> = Vec::new();
        for (i, &t) in targets.iter().enumerate() {
            debug_assert_eq!(self.plan.shard_of(t), shard as u32, "target not owned");
            let r = self.plan.local_id[t as usize] as usize;
            for e in s.row_range(r) {
                let g = s.col_global(s.cols[e]);
                let c = *compact_of.entry(g).or_insert_with(|| {
                    compact_global.push(g);
                    (compact_global.len() - 1) as u32
                });
                triplets.push((i as u32, c, s.vals[e]));
            }
        }
        let matrix = Hybrid::from_triplets(targets.len(), compact_global.len().max(1), &triplets)
            .expect("compact batch matrix");

        // Gather the referenced feature rows from their owning shards and
        // price the cross-device ones as interconnect transfers.
        let mut bytes_from: Vec<u64> = vec![0; self.num_devices];
        let mut remote_rows = 0usize;
        let gathered = Dense::from_fn(compact_global.len().max(1), k, |row, col| {
            if row >= compact_global.len() {
                return 0.0;
            }
            let g = compact_global[row] as usize;
            let owner = self.plan.assignment[g];
            let local = self.plan.local_id[g] as usize;
            self.shard_features[owner as usize].get(local, col)
        });
        for &g in &compact_global {
            let owner = self.plan.assignment[g as usize];
            let src_device = self.device_of(owner);
            if src_device != dst_device {
                bytes_from[src_device as usize] += 4 * k as u64;
                remote_rows += 1;
            }
        }
        let transfers: Vec<TransferDescriptor> = bytes_from
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b > 0)
            .map(|(src, &bytes)| TransferDescriptor {
                src_device: src as u32,
                dst_device,
                bytes,
            })
            .collect();

        let backend = &mut self.backends[dst_device as usize];
        let before = backend.sparse_cycles();
        let outputs = backend.spmm(&matrix, &gathered);
        let kernel_cycles = backend.sparse_cycles() - before;

        BatchResult {
            outputs,
            kernel_cycles,
            transfers,
            remote_rows,
            gathered_rows: compact_global.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsparse_datasets::generators::{GeneratorConfig, Topology};

    fn graph() -> Graph {
        GeneratorConfig {
            nodes: 400,
            edges: 4000,
            topology: Topology::Community {
                communities: 8,
                p_in: 0.85,
                alpha: 2.1,
            },
            seed: 23,
        }
        .generate()
        .with_self_loops()
        .gcn_normalized()
    }

    fn features(g: &Graph, k: usize) -> Dense {
        Dense::from_fn(g.num_nodes(), k, |i, j| {
            ((i * 31 + j * 7) as f32 * 0.01).sin()
        })
    }

    #[test]
    fn batch_outputs_match_full_graph_spmm_rows() {
        let g = graph();
        let k = 16;
        let f = features(&g, k);
        let mut cluster = Cluster::new(&g, &f, 2, 2, DeviceSpec::v100(), LinkSpec::nvlink());
        // Full-graph reference through the CPU path.
        let full = hpsparse_sparse::reference::spmm(&g.to_hybrid(), &f).unwrap();
        let shard0_targets: Vec<u32> = cluster.plan().shards[0].owned[..8].to_vec();
        let res = cluster.run_batch(0, &shard0_targets);
        assert!(res.kernel_cycles > 0);
        for (i, &t) in shard0_targets.iter().enumerate() {
            for c in 0..k {
                let got = res.outputs.get(i, c);
                let want = full.get(t as usize, c);
                assert!(
                    (got - want).abs() <= 1e-5 * want.abs().max(1.0),
                    "row {t} col {c}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn cross_device_columns_price_transfers_and_local_ones_do_not() {
        let g = graph();
        let f = features(&g, 8);
        let plan = ShardPlan::new(&g, 2);
        // Two devices: shard 1's halo columns owned by shard 0 transfer.
        let mut two =
            Cluster::from_plan(plan.clone(), &f, 2, DeviceSpec::v100(), LinkSpec::nvlink());
        // Pick a shard-1 row with at least one halo column.
        let s1 = &two.plan().shards[1];
        let row = (0..s1.num_owned())
            .find(|&r| s1.row_range(r).any(|e| s1.cols[e] >= s1.num_owned() as u32))
            .expect("community graph has cut edges");
        let target = s1.owned[row];
        let res = two.run_batch(1, &[target]);
        assert!(!res.transfers.is_empty());
        assert!(res.remote_rows > 0);
        assert_eq!(res.transfers[0].src_device, 0);
        assert_eq!(res.transfers[0].dst_device, 1);
        assert_eq!(
            res.transfers[0].bytes,
            res.remote_rows as u64 * 4 * two.feature_dim() as u64
        );

        // Same plan, one device: every gather is local.
        let mut one = Cluster::from_plan(plan, &f, 1, DeviceSpec::v100(), LinkSpec::nvlink());
        let res1 = one.run_batch(1, &[target]);
        assert!(res1.transfers.is_empty());
        assert_eq!(res1.remote_rows, 0);
        // And the outputs are bit-identical: halo exchange is lossless.
        assert_eq!(
            res.outputs
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            res1.outputs
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn sharded_execution_is_bitwise_equal_to_single_device() {
        let g = graph();
        let f = features(&g, 16);
        let plan = ShardPlan::new(&g, 4);
        let mut many =
            Cluster::from_plan(plan.clone(), &f, 4, DeviceSpec::v100(), LinkSpec::nvlink());
        let mut one = Cluster::from_plan(plan, &f, 1, DeviceSpec::v100(), LinkSpec::pcie());
        for shard in 0..4usize {
            let targets: Vec<u32> = many.plan().shards[shard]
                .owned
                .iter()
                .copied()
                .take(12)
                .collect();
            let a = many.run_batch(shard, &targets);
            let b = one.run_batch(shard, &targets);
            let bits = |d: &Dense| d.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.outputs), bits(&b.outputs), "shard {shard}");
        }
    }
}
