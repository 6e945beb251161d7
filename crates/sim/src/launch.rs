//! Kernel launch scheduling: blocks → waves → SMs → warps.
//!
//! The scheduler reproduces the execution-shape the paper reasons about in
//! §III-B1 (Fig. 6): a launch of `B` blocks at occupancy `A` blocks/SM runs
//! as `ceil(B / (NumSM·A))` waves; each wave costs as long as its slowest
//! SM, and an SM costs as long as its slowest block or its aggregate warp
//! throughput, whichever dominates. A partial final wave therefore wastes
//! the idle SMs — the tail effect.
//!
//! # Engines
//!
//! A launch executes under one of two cost engines (selected by
//! [`CostEngine`], bit-identical in what they report):
//!
//! * **Batched** — the fast engine and the default: descriptor batching +
//!   warp-signature memoization against the live L2.
//! * **Reference** — element-wise descriptor expansion, no memoization;
//!   the differential-testing witness.
//!
//! Both run the same single wave loop in [`GpuSim::launch_named`]; the
//! engine only changes how a [`WarpTally`] expands each warp's accesses.
//!
//! # Record and replay
//!
//! [`GpuSim::record`] keeps the report of every launch a closure makes.
//! [`GpuSim::replay`] runs the same closure again with numerics only: each
//! launch calls `body` once per warp, in ascending warp order, on a tally
//! whose accounting calls all return at once, and hands back the next
//! recorded report. A replay never probes or changes the L2 and never
//! reaches an attached sink or tracer. A replayed launch whose name or warp
//! count differs from the recorded one panics, as does a launch too many
//! or too few.
//!
//! Replay is sound for a kernel run whose reports depend only on the
//! kernel, the sparsity structure and the dense shapes. That holds for
//! every kernel in this workspace on a fresh run: each run allocates fresh
//! buffers, a fresh address never matches a stale L2 line (so leftover
//! contents act like empty ways), a 256-aligned base shift only rotates
//! the set mapping, and no kernel's accounting reads values. The caller
//! decides when two runs are the same; `hpsparse-gnn`'s `SimBackend` keys
//! them on exactly those inputs.

use crate::cache::SectorCache;
use crate::device::{CostEngine, DeviceSpec};
use crate::memory::MemorySpace;
use crate::occupancy::{occupancy_of, tail_utilization, waves, KernelResources};
use crate::sink::{AccessSink, BufferDecl, BufferRole};
use crate::tally::{WarpCounters, WarpTally};
use hpsparse_trace::{names, LaunchTimeline, MetricsRegistry, TraceSession};
use std::sync::Arc;

/// No kernel completes faster than the pipeline fill/drain floor
/// (~1.5 µs): microscopic launches — tiny sampled subgraphs — are
/// floor-bound on every kernel alike. Shared with the attribution module,
/// whose verdicts must know when the floor (not the schedule or the DRAM
/// roofline) produced [`LaunchReport::cycles`].
pub const KERNEL_FLOOR_CYCLES: f64 = 2_000.0;

/// Launch geometry: total warps and the per-block resources that determine
/// occupancy via Eq. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Total warps of work (the scheduler packs them into blocks).
    pub num_warps: u64,
    /// Per-block resource usage.
    pub resources: KernelResources,
}

/// Everything a launch reports — the simulator's analogue of an Nsight
/// Compute profile.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchReport {
    /// Modelled execution time in SM cycles.
    pub cycles: u64,
    /// Modelled execution time in milliseconds at the device clock.
    pub time_ms: f64,
    /// Thread blocks launched.
    pub blocks: u64,
    /// Warps launched.
    pub warps: u64,
    /// Waves needed (Eq. 4).
    pub num_waves: u64,
    /// `FullWaveSize` (Eq. 4).
    pub full_wave_size: u64,
    /// `ActiveblocksPerSM` (Eq. 3).
    pub active_blocks_per_sm: u32,
    /// Resident-warp occupancy at full residency.
    pub warp_occupancy: f64,
    /// Utilisation of the final wave (1.0 = no tail effect).
    pub tail_utilization: f64,
    /// Aggregate event counters over all warps.
    pub totals: WarpCounters,
    /// L2 hit rate over this launch's global traffic.
    pub l2_hit_rate: f64,
    /// Cycles of the slowest warp (load-imbalance witness).
    pub max_warp_cycles: f64,
    /// Mean warp cycles.
    pub mean_warp_cycles: f64,
    /// Cycles if the kernel were purely DRAM-bandwidth-bound.
    pub dram_bound_cycles: u64,
    /// Cycles from the SM/wave schedule alone.
    pub schedule_cycles: u64,
}

impl LaunchReport {
    /// Load imbalance factor: slowest warp over mean warp (1.0 = balanced).
    pub fn imbalance(&self) -> f64 {
        if self.mean_warp_cycles > 0.0 {
            self.max_warp_cycles / self.mean_warp_cycles
        } else {
            1.0
        }
    }

    /// Achieved bandwidth in bytes per cycle.
    pub fn achieved_bytes_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.totals.global_bytes as f64 / self.cycles as f64
        }
    }

    /// Total sectors served by L2 (see [`WarpCounters::traffic`]).
    pub fn traffic(&self) -> u64 {
        self.totals.traffic()
    }

    /// Bytes fetched from DRAM (only L2 misses reach HBM).
    pub fn dram_bytes(&self) -> u64 {
        self.totals.dram_sectors * crate::memory::SECTOR_BYTES as u64
    }

    /// The launch's scalar metrics under the stable NCU-style names of
    /// [`hpsparse_trace::names`], in fixed order: `(name, value,
    /// is_counter)`. Counters accumulate across launches in a metrics
    /// registry; the rest are gauges (last launch wins). This is the one
    /// list behind [`Self::record_metrics`] and
    /// [`crate::profile::render_metrics`].
    pub fn metric_values(&self) -> Vec<(&'static str, f64, bool)> {
        vec![
            (names::GPU_CYCLES, self.cycles as f64, true),
            (names::GPU_TIME_MS, self.time_ms, false),
            (names::LAUNCH_BLOCKS, self.blocks as f64, true),
            (names::LAUNCH_WARPS, self.warps as f64, true),
            (names::LAUNCH_WAVES, self.num_waves as f64, true),
            (names::LAUNCH_FULL_WAVE, self.full_wave_size as f64, false),
            (
                names::LAUNCH_ACTIVE_BLOCKS,
                self.active_blocks_per_sm as f64,
                false,
            ),
            (
                names::WARP_OCCUPANCY_PCT,
                self.warp_occupancy * 100.0,
                false,
            ),
            (
                names::TAIL_UTILIZATION_PCT,
                self.tail_utilization * 100.0,
                false,
            ),
            (names::INST_EXECUTED, self.totals.instructions as f64, true),
            (names::SHARED_OPS, self.totals.shared_ops as f64, true),
            (names::ATOMICS, self.totals.atomics as f64, true),
            (names::SHUFFLES, self.totals.shuffles as f64, true),
            (names::GLOBAL_BYTES, self.totals.global_bytes as f64, true),
            (names::TRANSACTIONS, self.totals.transactions as f64, true),
            (
                names::DESCRIPTOR_FALLBACKS,
                self.totals.descriptor_fallbacks as f64,
                true,
            ),
            (names::L2_SECTORS, self.traffic() as f64, true),
            (
                names::L2_HIT_SECTORS,
                self.totals.l2_hit_sectors as f64,
                true,
            ),
            (names::L2_HIT_RATE_PCT, self.l2_hit_rate * 100.0, false),
            (names::DRAM_SECTORS, self.totals.dram_sectors as f64, true),
            (names::DRAM_BYTES, self.dram_bytes() as f64, true),
            (
                names::BYTES_PER_CYCLE,
                self.achieved_bytes_per_cycle(),
                false,
            ),
            (names::WARP_CYCLES_MAX, self.max_warp_cycles, false),
            (names::WARP_CYCLES_AVG, self.mean_warp_cycles, false),
            (names::WARP_IMBALANCE, self.imbalance(), false),
            (
                names::DRAM_BOUND_CYCLES,
                self.dram_bound_cycles as f64,
                true,
            ),
            (names::SCHEDULE_CYCLES, self.schedule_cycles as f64, true),
        ]
    }

    /// Records this launch into `metrics` under
    /// `launch.<kernel>.<metric>` names (counters accumulate, gauges
    /// overwrite), plus a `launch__count.sum` counter.
    pub fn record_metrics(&self, metrics: &MetricsRegistry, kernel: &str) {
        metrics.add(&names::launch_metric(kernel, names::LAUNCH_COUNT), 1);
        for (name, value, is_counter) in self.metric_values() {
            let key = names::launch_metric(kernel, name);
            if is_counter {
                metrics.add(&key, value as u64);
            } else {
                metrics.set(&key, value);
            }
        }
    }
}

impl serde_json::ToJson for LaunchReport {
    /// Field-order-stable JSON: every struct field in declaration order
    /// (with `totals` nested), then the derived metrics. The exact shape
    /// is pinned by a golden test in `tests/report_json.rs` so a silent
    /// field addition cannot slip past `fastcheck`'s field-for-field
    /// equality unnoticed.
    fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "cycles": self.cycles,
            "time_ms": self.time_ms,
            "blocks": self.blocks,
            "warps": self.warps,
            "num_waves": self.num_waves,
            "full_wave_size": self.full_wave_size,
            "active_blocks_per_sm": self.active_blocks_per_sm,
            "warp_occupancy": self.warp_occupancy,
            "tail_utilization": self.tail_utilization,
            "totals": self.totals,
            "l2_hit_rate": self.l2_hit_rate,
            "max_warp_cycles": self.max_warp_cycles,
            "mean_warp_cycles": self.mean_warp_cycles,
            "dram_bound_cycles": self.dram_bound_cycles,
            "schedule_cycles": self.schedule_cycles,
            "derived": serde_json::json!({
                "imbalance": self.imbalance(),
                "achieved_bytes_per_cycle": self.achieved_bytes_per_cycle(),
                "traffic_sectors": self.traffic(),
                "dram_bytes": self.dram_bytes(),
            }),
        })
    }
}

/// One launch kept by [`GpuSim::record`]: the identity a replayed launch
/// must match, and the report the replay returns.
#[derive(Debug)]
struct RecordedLaunch {
    name: Box<str>,
    num_warps: u64,
    report: LaunchReport,
}

/// The launches one closure made under [`GpuSim::record`], in launch
/// order; pass it to [`GpuSim::replay`]. Clones share the reports.
#[derive(Debug, Clone)]
pub struct LaunchRecording(Arc<[RecordedLaunch]>);

/// What [`GpuSim::launch_named`] does with a launch besides simulating it.
enum LaunchLog {
    /// Simulate only.
    Off,
    /// Simulate and keep the report.
    Record(Vec<RecordedLaunch>),
    /// Run numerics only and return `launches[next]`.
    Replay {
        launches: LaunchRecording,
        next: usize,
    },
}

/// The simulated GPU: a device spec plus mutable L2 state that persists
/// across launches (reset it for cold-cache measurements).
pub struct GpuSim {
    device: DeviceSpec,
    l2: SectorCache,
    memory: MemorySpace,
    /// Optional access-event observer; every launch and allocation is
    /// forwarded while attached (see [`crate::sink`]).
    sink: Option<Box<dyn AccessSink>>,
    /// Every declaration made so far, kept so a sink attached *after* some
    /// allocations still learns about them (replayed in `attach_sink`).
    decls: Vec<BufferDecl>,
    /// Cost-engine selection for subsequent launches (see [`CostEngine`]).
    /// Never affects a reported number.
    engine: CostEngine,
    /// Optional trace subscriber; while attached, every launch emits its
    /// wave-by-wave timeline and NCU-style metrics into the session. Same
    /// `Option`-test discipline as `sink`: detached costs one branch per
    /// launch plus one per warp/block, and never changes a reported number.
    tracer: Option<TraceSession>,
    /// Position in a multi-device cluster. `Some(d)` routes traced
    /// launches into device `d`'s Perfetto lane group; `None` (the
    /// default) keeps the single-device layout. Never affects costs.
    device_index: Option<u32>,
    /// Record/replay state (see the module docs).
    log: LaunchLog,
}

impl GpuSim {
    /// Builds a simulator for `device` with a cold L2, starting on the
    /// process-wide default cost engine ([`crate::device::default_engine`],
    /// [`CostEngine::Batched`] unless `repro --engine` overrode it).
    pub fn new(device: DeviceSpec) -> Self {
        let l2 = SectorCache::new(device.l2_bytes, device.l2_assoc);
        Self {
            device,
            l2,
            memory: MemorySpace::new(),
            sink: None,
            decls: Vec::new(),
            engine: crate::device::default_engine(),
            tracer: None,
            device_index: None,
            log: LaunchLog::Off,
        }
    }

    /// The device being simulated.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Selects the cost engine for all subsequent launches. Both engines
    /// report bit-identical numbers (`repro -- fastcheck` asserts it); the
    /// reference engine exists as the differential-testing witness.
    pub fn set_engine(&mut self, engine: CostEngine) {
        self.engine = engine;
    }

    /// The currently selected cost engine.
    pub fn engine(&self) -> CostEngine {
        self.engine
    }

    /// Attaches an access-event observer. All buffers declared so far are
    /// replayed into it, so attaching after allocation loses nothing.
    pub fn attach_sink(&mut self, mut sink: Box<dyn AccessSink>) {
        for decl in &self.decls {
            sink.register_buffer(decl);
        }
        self.sink = Some(sink);
    }

    /// Detaches and returns the current observer, if any.
    pub fn detach_sink(&mut self) -> Option<Box<dyn AccessSink>> {
        self.sink.take()
    }

    /// Is an access-event observer currently attached?
    pub fn sink_attached(&self) -> bool {
        self.sink.is_some()
    }

    /// Attaches a trace session: subsequent launches emit their timeline
    /// (blocks on SM lanes, counter tracks) and record NCU-style metrics
    /// into the session's registry. Unlike a sink, a tracer never forces
    /// element-wise expansion — it only consumes the per-warp/per-wave
    /// aggregates the fast engine already produces.
    pub fn attach_tracer(&mut self, tracer: TraceSession) {
        self.tracer = Some(tracer);
    }

    /// Detaches and returns the current trace session, if any.
    pub fn detach_tracer(&mut self) -> Option<TraceSession> {
        self.tracer.take()
    }

    /// Is a trace session currently attached?
    pub fn tracer_attached(&self) -> bool {
        self.tracer.is_some()
    }

    /// Declares this simulator to be device `device` of a multi-device
    /// cluster: traced launches render inside that device's lane group
    /// (`GPU d` in Perfetto) instead of the host group. Purely a tracing
    /// concern — reported cycles and numerics are unchanged.
    pub fn set_device_index(&mut self, device: u32) {
        self.device_index = Some(device);
    }

    /// The cluster position set by [`Self::set_device_index`], if any.
    pub fn device_index(&self) -> Option<u32> {
        self.device_index
    }

    /// Allocates logical device memory (256-byte aligned).
    ///
    /// The allocation is declared to any attached sink as an anonymous
    /// [`BufferRole::Input`] extent — in bounds for memcheck, exempt from
    /// initcheck. Kernels that want precise roles use [`Self::alloc_input`]
    /// / [`Self::alloc_output`] / [`Self::alloc_scratch`].
    pub fn alloc_elems(&mut self, n: usize) -> crate::memory::Buffer {
        self.alloc_named(n, "<unnamed>", BufferRole::Input)
    }

    /// Allocates a named host-initialised buffer the kernel reads.
    pub fn alloc_input(&mut self, n: usize, name: &'static str) -> crate::memory::Buffer {
        self.alloc_named(n, name, BufferRole::Input)
    }

    /// Allocates a named kernel-output buffer (conceptually
    /// zero-initialised; loads before any store are initcheck violations).
    pub fn alloc_output(&mut self, n: usize, name: &'static str) -> crate::memory::Buffer {
        self.alloc_named(n, name, BufferRole::Output)
    }

    /// Allocates a named device-side temporary with no host initialisation.
    pub fn alloc_scratch(&mut self, n: usize, name: &'static str) -> crate::memory::Buffer {
        self.alloc_named(n, name, BufferRole::Scratch)
    }

    fn alloc_named(
        &mut self,
        n: usize,
        name: &'static str,
        role: BufferRole,
    ) -> crate::memory::Buffer {
        let buf = self.memory.alloc_elems(n);
        // Checked here, once per allocation, rather than on the probe path:
        // past the L2 model's address limit a fresh sector could alias an
        // old one and score a false hit.
        assert!(
            self.memory.high_water() <= self.l2.address_limit(),
            "logical device memory exhausted: allocating `{name}` ends at byte {}, \
             but the L2 model tells addresses apart only below {}",
            self.memory.high_water(),
            self.l2.address_limit()
        );
        let decl = BufferDecl {
            name,
            role,
            base: buf.base(),
            len_bytes: buf.len_bytes(),
        };
        self.decls.push(decl);
        if let Some(sink) = self.sink.as_mut() {
            sink.register_buffer(&decl);
        }
        buf
    }

    /// Clears L2 contents and statistics (cold-cache start).
    pub fn reset_cache(&mut self) {
        self.l2.reset();
    }

    /// Current L2 hit rate since the last reset.
    pub fn l2_hit_rate(&self) -> f64 {
        self.l2.hit_rate()
    }

    /// Runs `f` and returns its result with the report of every launch it
    /// made, in order. The launches are simulated as usual.
    ///
    /// # Panics
    ///
    /// If called inside another `record` or `replay`.
    pub fn record<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> (R, LaunchRecording) {
        self.begin_log(LaunchLog::Record(Vec::new()));
        let out = f(self);
        let LaunchLog::Record(launches) = std::mem::replace(&mut self.log, LaunchLog::Off) else {
            unreachable!("the log mode is only changed by record and replay")
        };
        (out, LaunchRecording(launches.into()))
    }

    /// Runs `f` with every launch replayed from `recording` instead of
    /// simulated (see the module docs): kernel bodies compute their
    /// outputs, the reports come from the recording, and the L2, any sink
    /// and any tracer are left alone.
    ///
    /// # Panics
    ///
    /// If called inside another `record` or `replay`; if a launch's name
    /// or warp count differs from the recorded one; if `f` makes more or
    /// fewer launches than were recorded.
    pub fn replay<R>(&mut self, recording: &LaunchRecording, f: impl FnOnce(&mut Self) -> R) -> R {
        self.begin_log(LaunchLog::Replay {
            launches: recording.clone(),
            next: 0,
        });
        let out = f(self);
        let LaunchLog::Replay { launches, next } = std::mem::replace(&mut self.log, LaunchLog::Off)
        else {
            unreachable!("the log mode is only changed by record and replay")
        };
        let recorded = launches.0.len();
        assert_eq!(
            next, recorded,
            "replay made {next} of {recorded} recorded launches"
        );
        out
    }

    fn begin_log(&mut self, log: LaunchLog) {
        assert!(
            matches!(self.log, LaunchLog::Off),
            "GpuSim record/replay do not nest"
        );
        self.log = log;
    }

    /// Runs a kernel: `body(warp_id, tally)` is invoked once per warp, in
    /// block-scheduling order, and must record the warp's events on the
    /// tally. Returns the profile of the launch.
    ///
    /// The launch is reported to any attached sink under the name
    /// `"<anonymous>"`; kernels that want their diagnostics attributed use
    /// [`Self::launch_named`].
    pub fn launch<F>(&mut self, config: LaunchConfig, body: F) -> LaunchReport
    where
        F: FnMut(u64, &mut WarpTally),
    {
        self.launch_named("<anonymous>", config, body)
    }

    /// [`Self::launch`] with a kernel name attached, so sink diagnostics
    /// (e.g. sanitizer violations) can say *which* kernel misbehaved.
    pub fn launch_named<F>(&mut self, name: &str, config: LaunchConfig, mut body: F) -> LaunchReport
    where
        F: FnMut(u64, &mut WarpTally),
    {
        if let LaunchLog::Replay { launches, next } = &mut self.log {
            let recorded = launches.0.get(*next).unwrap_or_else(|| {
                panic!("replay: launch `{name}` is past the {} recorded", *next)
            });
            assert!(
                *recorded.name == *name && recorded.num_warps == config.num_warps,
                "replay: launch {} is `{name}` with {} warps, recorded as `{}` with {}",
                *next,
                config.num_warps,
                recorded.name,
                recorded.num_warps
            );
            *next += 1;
            let mut tally = WarpTally::numerics_only(&mut self.l2, self.device.warp_size);
            for warp_id in 0..config.num_warps {
                body(warp_id, &mut tally);
            }
            return recorded.report.clone();
        }
        if let Some(sink) = self.sink.as_mut() {
            sink.begin_launch(name, config.num_warps);
        }
        let res = config.resources;
        let occ = occupancy_of(&self.device, &res);
        let wpb = res.warps_per_block as u64;
        let blocks = config.num_warps.div_ceil(wpb.max(1));
        let num_waves = waves(blocks, occ.full_wave_size);
        let tail = tail_utilization(blocks, occ.full_wave_size);
        let cost = self.device.cost;
        let num_sms = self.device.num_sms as usize;

        let mut totals = WarpCounters::default();
        let mut max_warp_cycles = 0f64;
        let mut sum_warp_cycles = 0f64;
        let mut schedule_cycles = 0f64;

        // Timeline builder while a tracer is attached. It buffers locally
        // and touches the session lock only at begin/finish, so the warp
        // loop below pays one `Option` branch per warp/block — the same
        // discipline as the sink.
        let mut timeline = self
            .tracer
            .as_ref()
            .map(|t| LaunchTimeline::begin_on(t, name, num_sms, self.device_index));

        // One tally and one set of per-SM accumulators serve the whole
        // launch; per-warp/per-wave state is reset in place. This keeps
        // the inner loop (millions of warps for the large graphs) free
        // of heap allocation.
        let mut tally = WarpTally::with_sink(
            &mut self.l2,
            self.device.warp_size,
            self.sink.as_deref_mut(),
        );
        tally.set_reference(self.engine == CostEngine::Reference);
        let mut sm_sum = vec![0f64; num_sms];
        let mut sm_max_block = vec![0f64; num_sms];

        let mut warp_id: u64 = 0;
        let mut block_id: u64 = 0;
        for _wave in 0..num_waves {
            sm_sum.fill(0.0);
            sm_max_block.fill(0.0);
            let wave_hits0 = totals.l2_hit_sectors;
            let wave_dram0 = totals.dram_sectors;
            let blocks_this_wave = occ.full_wave_size.min(blocks - block_id);
            for slot in 0..blocks_this_wave {
                let sm = (slot as usize) % num_sms;
                let mut block_max = 0f64;
                let warps_in_block = wpb.min(config.num_warps - warp_id);
                for _ in 0..warps_in_block {
                    tally.set_warp(warp_id);
                    body(warp_id, &mut tally);
                    let counters = tally.take_counters();
                    let wc = counters.cycles(&cost);
                    totals.add(&counters);
                    sum_warp_cycles += wc;
                    max_warp_cycles = max_warp_cycles.max(wc);
                    block_max = block_max.max(wc);
                    if let Some(tl) = timeline.as_mut() {
                        tl.record_warp(wc);
                    }
                    warp_id += 1;
                }
                sm_sum[sm] += block_max * warps_in_block as f64;
                sm_max_block[sm] = sm_max_block[sm].max(block_max);
                if let Some(tl) = timeline.as_mut() {
                    tl.record_block(sm, block_max, warps_in_block);
                }
            }
            block_id += blocks_this_wave;
            // An SM finishes when its slowest block does, or when its
            // aggregate warp-cycles drain through the SMT pipeline,
            // whichever is later. The pipeline's effective width
            // depends on how many warps are resident to hide latency:
            // it saturates at 50% occupancy (typical for memory-bound
            // kernels) and degrades below that — the register-scarcity
            // effect of the paper's §IV-F.
            let occ_factor = (occ.warp_occupancy * 2.0).clamp(0.05, 1.0);
            let effective_width = cost.smt_width * occ_factor;
            let wave_time = (0..num_sms)
                .map(|sm| sm_max_block[sm].max(sm_sum[sm] / effective_width))
                .fold(0f64, f64::max);
            schedule_cycles += wave_time;
            if let Some(tl) = timeline.as_mut() {
                let hits = totals.l2_hit_sectors - wave_hits0;
                let dram = totals.dram_sectors - wave_dram0;
                tl.end_wave(
                    wave_time,
                    hits,
                    dram,
                    dram * crate::memory::SECTOR_BYTES as u64,
                );
            }
        }
        drop(tally);
        if let Some(sink) = self.sink.as_mut() {
            sink.end_launch();
        }

        // Saturating HBM needs enough warps in flight to keep loads
        // outstanding; below ~50% occupancy the achievable bandwidth
        // degrades proportionally (the flip side of the same
        // latency-hiding limit that throttles the SM pipeline).
        let occ_factor = (occ.warp_occupancy * 2.0).clamp(0.05, 1.0);
        // Only L2 misses consume HBM bandwidth; hits are served on chip.
        let dram_bytes = totals.dram_sectors * crate::memory::SECTOR_BYTES as u64;
        let dram_bound = dram_bytes as f64 / (self.device.dram_bytes_per_cycle * occ_factor);
        let floor = if config.num_warps > 0 {
            KERNEL_FLOOR_CYCLES
        } else {
            0.0
        };
        let cycles = schedule_cycles.max(dram_bound).max(floor).ceil() as u64;
        let report = LaunchReport {
            cycles,
            time_ms: self.device.cycles_to_ms(cycles),
            blocks,
            warps: config.num_warps,
            num_waves,
            full_wave_size: occ.full_wave_size,
            active_blocks_per_sm: occ.active_blocks_per_sm,
            warp_occupancy: occ.warp_occupancy,
            tail_utilization: tail,
            totals,
            l2_hit_rate: totals.l2_hit_rate(),
            max_warp_cycles,
            mean_warp_cycles: if config.num_warps == 0 {
                0.0
            } else {
                sum_warp_cycles / config.num_warps as f64
            },
            dram_bound_cycles: dram_bound.ceil() as u64,
            schedule_cycles: schedule_cycles.ceil() as u64,
        };
        if let Some(tl) = timeline {
            tl.finish(report.cycles as f64);
            if let Some(t) = self.tracer.as_ref() {
                report.record_metrics(&t.metrics(), name);
                crate::attribution::attribute(&report, &self.device)
                    .record_metrics(&t.metrics(), name);
            }
        }
        if let LaunchLog::Record(launches) = &mut self.log {
            launches.push(RecordedLaunch {
                name: name.into(),
                num_warps: config.num_warps,
                report: report.clone(),
            });
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_res() -> KernelResources {
        KernelResources {
            warps_per_block: 8,
            registers_per_thread: 32,
            shared_mem_per_block: 4096,
        }
    }

    #[test]
    fn empty_launch_is_free() {
        let mut sim = GpuSim::new(DeviceSpec::v100());
        let report = sim.launch(
            LaunchConfig {
                num_warps: 0,
                resources: small_res(),
            },
            |_, _| {},
        );
        assert_eq!(report.cycles, 0);
        assert_eq!(report.blocks, 0);
        assert_eq!(report.num_waves, 0);
    }

    #[test]
    fn uniform_work_scales_with_waves() {
        let mut sim = GpuSim::new(DeviceSpec::v100());
        let res = small_res();
        let run = |sim: &mut GpuSim, warps: u64| {
            sim.launch(
                LaunchConfig {
                    num_warps: warps,
                    resources: res,
                },
                |_, t| t.compute(20_000),
            )
        };
        let occ = occupancy_of(sim.device(), &res);
        let warps_per_wave = occ.full_wave_size * 8;
        let one = run(&mut sim, warps_per_wave);
        let two = run(&mut sim, warps_per_wave * 2);
        assert_eq!(one.num_waves, 1);
        assert_eq!(two.num_waves, 2);
        assert_eq!(two.cycles, one.cycles * 2);
    }

    #[test]
    fn tail_effect_costs_a_full_wave() {
        let mut sim = GpuSim::new(DeviceSpec::v100());
        let res = small_res();
        let occ = occupancy_of(sim.device(), &res);
        let warps_per_wave = occ.full_wave_size * 8;
        let full = sim.launch(
            LaunchConfig {
                num_warps: warps_per_wave,
                resources: res,
            },
            |_, t| t.compute(20_000),
        );
        // One extra block spills into a second, nearly-empty wave: the
        // launch pays extra cycles while adding only 1/640th more work.
        let spill = sim.launch(
            LaunchConfig {
                num_warps: warps_per_wave + 8,
                resources: res,
            },
            |_, t| t.compute(20_000),
        );
        assert_eq!(spill.num_waves, 2);
        assert!(spill.cycles > full.cycles);
        // The marginal cost of the spilled block far exceeds its share of
        // the work (tail effect): one block is 1/640 of a wave but costs a
        // full block-latency wave.
        let marginal = spill.cycles - full.cycles;
        assert!(marginal as f64 > full.cycles as f64 / 640.0 * 10.0);
        assert!(spill.tail_utilization < 0.01);
    }

    #[test]
    fn imbalanced_warp_dominates_block() {
        let mut sim = GpuSim::new(DeviceSpec::v100());
        let res = small_res();
        let balanced = sim.launch(
            LaunchConfig {
                num_warps: 64,
                resources: res,
            },
            |_, t| t.compute(20_000),
        );
        let imbalanced = sim.launch(
            LaunchConfig {
                num_warps: 64,
                resources: res,
            },
            |w, t| t.compute(if w == 0 { 1_280_000 } else { 0 }),
        );
        // Same total work, radically different times.
        assert!(imbalanced.cycles > balanced.cycles * 4);
        assert!(imbalanced.imbalance() > 10.0);
        assert!(balanced.imbalance() < 1.5);
    }

    #[test]
    fn dram_roofline_kicks_in_for_streaming_kernels() {
        let mut sim = GpuSim::new(DeviceSpec::v100());
        let res = small_res();
        let mut next = 0u64;
        let report = sim.launch(
            LaunchConfig {
                num_warps: 10_000,
                resources: res,
            },
            |_, t| {
                // Each warp streams 4 KiB of never-reused data.
                t.global_read(next, 4096, 4);
                next += 4096;
            },
        );
        assert!(report.totals.dram_sectors > 0);
        assert!(report.dram_bound_cycles > 0);
        assert!(report.cycles >= report.dram_bound_cycles);
    }

    #[test]
    fn cache_reuse_between_warps_is_visible() {
        let mut sim = GpuSim::new(DeviceSpec::v100());
        let res = small_res();
        let report = sim.launch(
            LaunchConfig {
                num_warps: 1000,
                resources: res,
            },
            |_, t| t.global_read(0, 4096, 4), // all warps read the same 4 KiB
        );
        assert!(report.l2_hit_rate > 0.99);
        let cold = report.totals.dram_sectors;
        assert_eq!(cold, 128); // 4096 / 32 fetched exactly once
    }

    #[test]
    fn report_time_matches_clock() {
        let mut sim = GpuSim::new(DeviceSpec::v100());
        let report = sim.launch(
            LaunchConfig {
                num_warps: 8,
                resources: small_res(),
            },
            |_, t| t.compute(1380),
        );
        assert!((report.time_ms - sim.device().cycles_to_ms(report.cycles)).abs() < 1e-12);
    }

    #[test]
    fn sink_sees_replayed_decls_launch_protocol_and_events() {
        use crate::sink::{AccessEvent, AccessSink, BufferDecl};
        use std::sync::{Arc, Mutex};
        struct Rec(Arc<Mutex<Vec<String>>>);
        impl AccessSink for Rec {
            fn begin_launch(&mut self, kernel: &str, num_warps: u64) {
                self.0
                    .lock()
                    .unwrap()
                    .push(format!("begin {kernel} warps={num_warps}"));
            }
            fn register_buffer(&mut self, d: &BufferDecl) {
                self.0
                    .lock()
                    .unwrap()
                    .push(format!("decl {} {:?}", d.name, d.role));
            }
            fn record(&mut self, e: &AccessEvent) {
                self.0
                    .lock()
                    .unwrap()
                    .push(format!("{:?} w{}", e.kind, e.warp));
            }
            fn end_launch(&mut self) {
                self.0.lock().unwrap().push("end".into());
            }
        }

        let mut sim = GpuSim::new(DeviceSpec::v100());
        let early = sim.alloc_input(8, "early"); // pre-attach: must be replayed
        let log = Arc::new(Mutex::new(Vec::new()));
        sim.attach_sink(Box::new(Rec(Arc::clone(&log))));
        assert!(sim.sink_attached());
        let out = sim.alloc_output(8, "out");
        sim.launch_named(
            "demo-kernel",
            LaunchConfig {
                num_warps: 2,
                resources: small_res(),
            },
            |_, t| {
                t.global_read(early.addr(0), 32, 1);
                t.global_write(out.addr(0), 32, 1);
            },
        );
        assert!(sim.detach_sink().is_some());
        assert!(!sim.sink_attached());

        let log = log.lock().unwrap();
        assert_eq!(
            *log,
            vec![
                "decl early Input".to_string(),
                "decl out Output".to_string(),
                "begin demo-kernel warps=2".to_string(),
                "Read w0".to_string(),
                "Write w0".to_string(),
                "Read w1".to_string(),
                "Write w1".to_string(),
                "end".to_string(),
            ]
        );
    }

    #[test]
    fn anonymous_launch_and_alloc_still_reach_the_sink() {
        use crate::sink::{AccessEvent, AccessSink, BufferDecl};
        use std::sync::{Arc, Mutex};
        struct Names(Arc<Mutex<Vec<String>>>);
        impl AccessSink for Names {
            fn begin_launch(&mut self, kernel: &str, _: u64) {
                self.0.lock().unwrap().push(kernel.to_string());
            }
            fn register_buffer(&mut self, d: &BufferDecl) {
                self.0.lock().unwrap().push(d.name.to_string());
            }
            fn record(&mut self, _: &AccessEvent) {}
            fn end_launch(&mut self) {}
        }
        let mut sim = GpuSim::new(DeviceSpec::v100());
        let log = Arc::new(Mutex::new(Vec::new()));
        sim.attach_sink(Box::new(Names(Arc::clone(&log))));
        let _ = sim.alloc_elems(4);
        sim.launch(
            LaunchConfig {
                num_warps: 1,
                resources: small_res(),
            },
            |_, _| {},
        );
        assert_eq!(*log.lock().unwrap(), vec!["<unnamed>", "<anonymous>"]);
    }

    #[test]
    fn reset_cache_makes_reruns_cold() {
        let mut sim = GpuSim::new(DeviceSpec::v100());
        let res = small_res();
        let cfg = LaunchConfig {
            num_warps: 8,
            resources: res,
        };
        let first = sim.launch(cfg, |_, t| t.global_read(0, 4096, 4));
        let warm = sim.launch(cfg, |_, t| t.global_read(0, 4096, 4));
        sim.reset_cache();
        let cold = sim.launch(cfg, |_, t| t.global_read(0, 4096, 4));
        assert!(warm.totals.dram_sectors < first.totals.dram_sectors.max(1));
        assert_eq!(cold.totals.dram_sectors, first.totals.dram_sectors);
    }

    #[test]
    fn allocation_past_the_l2_address_limit_panics() {
        let mut sim = GpuSim::new(DeviceSpec::v100());
        let limit = sim.l2.address_limit();
        // Allocation starts at byte 256, so this one ends exactly at the
        // limit. Logical buffers are free, whatever their size.
        sim.alloc_elems(((limit - 256) / 4) as usize);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.alloc_input(1, "one-too-many");
        }))
        .expect_err("the allocation past the limit must panic");
        let msg = err.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("one-too-many"), "{msg}");
    }

    /// Two launches reading and atomically updating one buffer; `out`
    /// receives each warp's id in visiting order.
    fn two_launches(sim: &mut GpuSim, out: &mut Vec<u64>) -> Vec<LaunchReport> {
        let data = sim.alloc_input(4096, "data");
        let cfg = LaunchConfig {
            num_warps: 70,
            resources: small_res(),
        };
        let a = sim.launch_named("first", cfg, |w, t| {
            out.push(w);
            t.compute(5 + w % 3);
            t.global_read(data.addr((w % 9) * 256), 512, 4);
            t.global_atomic(data.addr(w * 4), 4);
        });
        let b = sim.launch_named("second", cfg, |w, t| {
            out.push(w);
            t.global_gather((0..32).map(|i| data.addr((w * 7 + i * 33) % 4096 * 4)), 4);
        });
        vec![a, b]
    }

    #[test]
    fn replay_returns_recorded_reports_and_leaves_the_l2_alone() {
        let mut sim = GpuSim::new(DeviceSpec::v100());
        let mut order = Vec::new();
        let (reports, rec) = sim.record(|sim| two_launches(sim, &mut order));
        assert_eq!(rec.0.len(), 2);
        let (hits, misses) = (sim.l2.hits(), sim.l2.misses());

        let mut replay_order = Vec::new();
        let replayed = sim.replay(&rec, |sim| two_launches(sim, &mut replay_order));
        assert_eq!(replayed, reports);
        assert_eq!(replay_order, order, "every warp, in ascending order");
        assert_eq!((sim.l2.hits(), sim.l2.misses()), (hits, misses));

        // A warm simulation of the same run reports what the recording
        // holds: fresh buffers never hit the earlier lines.
        assert_eq!(two_launches(&mut sim, &mut Vec::new()), reports);
    }

    #[test]
    fn replay_is_hidden_from_sinks_and_tracers() {
        use crate::sink::{AccessEvent, AccessSink, BufferDecl};
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Launches(Arc<AtomicUsize>);
        impl AccessSink for Launches {
            fn begin_launch(&mut self, _: &str, _: u64) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
            fn register_buffer(&mut self, _: &BufferDecl) {}
            fn record(&mut self, _: &AccessEvent) {}
            fn end_launch(&mut self) {}
        }
        let mut sim = GpuSim::new(DeviceSpec::v100());
        let (_, rec) = sim.record(|sim| two_launches(sim, &mut Vec::new()));
        let seen = Arc::new(AtomicUsize::new(0));
        sim.attach_sink(Box::new(Launches(Arc::clone(&seen))));
        let session = TraceSession::new();
        sim.attach_tracer(session.clone());
        sim.replay(&rec, |sim| two_launches(sim, &mut Vec::new()));
        assert_eq!(seen.load(Ordering::Relaxed), 0);
        assert!(session
            .metrics()
            .get("launch.first.launch__count.sum")
            .is_none());
    }

    fn replay_panic(f: impl FnOnce(&mut GpuSim, &LaunchRecording)) -> String {
        let mut sim = GpuSim::new(DeviceSpec::v100());
        let (_, rec) = sim.record(|sim| two_launches(sim, &mut Vec::new()));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut sim, &rec)))
            .expect_err("a mismatched replay must panic");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn mismatched_replays_panic() {
        let cfg = |num_warps| LaunchConfig {
            num_warps,
            resources: small_res(),
        };
        let renamed = replay_panic(|sim, rec| {
            sim.replay(rec, |sim| sim.launch_named("other", cfg(70), |_, _| {}));
        });
        assert!(renamed.contains("recorded as `first`"), "{renamed}");
        let resized = replay_panic(|sim, rec| {
            sim.replay(rec, |sim| sim.launch_named("first", cfg(71), |_, _| {}));
        });
        assert!(resized.contains("with 70"), "{resized}");
        let leftover = replay_panic(|sim, rec| {
            sim.replay(rec, |sim| sim.launch_named("first", cfg(70), |_, _| {}));
        });
        assert!(leftover.contains("made 1 of 2"), "{leftover}");
        let missing = replay_panic(|sim, rec| {
            sim.replay(rec, |sim| {
                two_launches(sim, &mut Vec::new());
                sim.launch_named("third", cfg(1), |_, _| {});
            });
        });
        assert!(missing.contains("past the 2 recorded"), "{missing}");
    }

    /// A messy three-launch workload touching every probe path: runs (with
    /// cross-warp reuse), a stepped gather, a scatter-shaped gather list,
    /// atomics, shared/shuffle/compute — plus warp-signature memoization,
    /// cross-launch cache state (launch 2 re-reads launch 1's data) and a
    /// long many-wave launch with an odd warp count.
    fn run_mixed_workload(engine: CostEngine) -> (Vec<LaunchReport>, f64) {
        let mut sim = GpuSim::new(DeviceSpec::v100());
        sim.set_engine(engine);
        let cfg = LaunchConfig {
            num_warps: 600,
            resources: small_res(),
        };
        let a = sim.launch(cfg, |w, t| {
            t.begin_memo(w % 7);
            t.compute(40 + (w % 7) * 3);
            // Strided base keeps neighbouring warps in different sets;
            // every 5th warp re-reads warp 0's block for L2 reuse.
            let base = if w % 5 == 0 { 0 } else { w * 8192 };
            t.global_read(base, 4096, 4);
            let idx = [3u32, 17, 4, 99, 4, 250];
            t.global_gather_stepped(w * 512, &idx, 64, w % 4, 512, 3, 4);
            t.global_atomic(64 * (w % 13), 4);
            t.shared_op(6);
            t.shuffle_reduce(32);
        });
        let b = sim.launch(cfg, |w, t| {
            // No memo: every warp is live. Gather hits a pseudo-random
            // sector list.
            let addrs = (0..24).map(|i| ((w * 31 + i * 97) % 4096) * 32);
            t.global_gather(addrs, 4);
            t.global_read(w * 8192, 2048, 4);
            t.global_write((1 << 24) | (w * 256), 256, 4);
        });
        let c = sim.launch(
            LaunchConfig {
                num_warps: (1 << 15) + 1234,
                resources: small_res(),
            },
            |w, t| {
                t.compute(10 + w % 11);
                t.global_read((w % 3000) * 4096, 128, 4);
            },
        );
        (vec![a, b, c], sim.l2_hit_rate())
    }

    #[test]
    fn engines_agree_on_mixed_workload() {
        let (ref_reports, ref_hr) = run_mixed_workload(CostEngine::Reference);
        let (bat_reports, bat_hr) = run_mixed_workload(CostEngine::Batched);
        assert_eq!(ref_reports, bat_reports);
        // Cross-launch cache state must be identical too.
        assert_eq!(ref_hr.to_bits(), bat_hr.to_bits());
    }

    /// With a tracer attached, the exported timeline + metrics are
    /// byte-identical across engines — including a launch of many waves
    /// followed by a small one sharing the session clock.
    #[test]
    fn traced_exports_are_byte_identical_across_engines() {
        use hpsparse_trace::TraceSession;
        let run = |engine: CostEngine| -> (String, String, LaunchReport) {
            let mut sim = GpuSim::new(DeviceSpec::v100());
            sim.set_engine(engine);
            let session = TraceSession::new();
            sim.attach_tracer(session.clone());
            let cfg = LaunchConfig {
                num_warps: (1 << 14) + 4321,
                resources: small_res(),
            };
            let big = sim.launch_named("big", cfg, |w, t| {
                t.compute(10 + w % 11);
                let base = if w % 5 == 0 { 0 } else { w * 8192 };
                t.global_read(base, 1024, 4);
            });
            // A second, small launch shares the session: the clock must
            // advance identically across engines.
            sim.launch_named(
                "small",
                LaunchConfig {
                    num_warps: 64,
                    resources: small_res(),
                },
                |w, t| t.global_read(w * 4096, 256, 4),
            );
            let metrics = serde_json::to_string(&session.metrics().to_json()).unwrap();
            (session.to_chrome_json(), metrics, big)
        };
        let (trace_ref, metrics_ref, report_ref) = run(CostEngine::Reference);
        let (trace_bat, metrics_bat, report_bat) = run(CostEngine::Batched);
        assert_eq!(report_ref, report_bat);
        assert_eq!(metrics_ref, metrics_bat, "metrics differ under batched");
        assert_eq!(trace_ref, trace_bat, "trace differs under batched");
    }

    /// Every traced launch records an attribution verdict with headroom in
    /// `[0, 1)` next to its NCU-style metrics.
    #[test]
    fn traced_launches_carry_attribution_metrics() {
        use hpsparse_trace::{Metric, TraceSession};
        let mut sim = GpuSim::new(DeviceSpec::v100());
        let session = TraceSession::new();
        sim.attach_tracer(session.clone());
        sim.launch_named(
            "attr",
            LaunchConfig {
                num_warps: 512,
                resources: small_res(),
            },
            |w, t| {
                t.compute(1_000);
                t.global_read(w * 8192, 2048, 4);
            },
        );
        let m = session.metrics();
        let bound = m.get("launch.attr.attribution__bound.id");
        assert!(
            matches!(bound, Some(Metric::Gauge(v)) if (0.0..=4.0).contains(&v)),
            "{bound:?}"
        );
        let head = m.get("launch.attr.attribution__headroom.pct");
        assert!(
            matches!(head, Some(Metric::Gauge(v)) if (0.0..100.0).contains(&v)),
            "{head:?}"
        );
    }
}
