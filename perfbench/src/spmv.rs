//! `spmv-ooc`: iterative `y = A·x` over row blocks of a seeded sparse
//! matrix on `c2050_platform(1)` under dmdar, with the device budget at
//! half the working set.
//!
//! The `spmv` component is composed in set-up from the descriptor XML in
//! `perfbench/descriptors/` (parse, IR, kernel binding), as
//! `tests/xml_to_execution.rs` does. The matrix blocks are registered once
//! and only ever read; each iteration rewrites `x` from the host, calls the
//! component once per block, waits, and reads every `y` block back. Every
//! block is checked bitwise against `spmv::reference`.

use crate::measure::{IterOut, Rng, Tracer};
use crate::{executed, Bench, Build, SetupLayers, Workload, STATIC_BUILD, STATIC_ITERS};
use peppher_apps::spmv::{self, CsrMatrix, SpmvArgs};
use peppher_compose::{build_ir, instantiate_registry, KernelBindings, Recipe};
use peppher_core::ComponentRegistry;
use peppher_descriptor::Repository;
use peppher_runtime::{DataHandle, KernelCtx, Runtime, RuntimeConfig, SchedulerKind};
use peppher_sim::MachineConfig;
use std::sync::Arc;
use std::time::Instant;

const ROWS: usize = 32_768;
const AVG_NNZ: usize = 12;
const BLOCKS: usize = 32;
/// Distinct input vectors; iteration k multiplies by `x[k mod XS]`.
const XS: usize = 4;
const WARMUP: u64 = 3;

const DESCRIPTORS: [&str; 5] = [
    include_str!("../descriptors/spmv.xml"),
    include_str!("../descriptors/spmv_cpu.xml"),
    include_str!("../descriptors/spmv_omp.xml"),
    include_str!("../descriptors/spmv_cuda.xml"),
    include_str!("../descriptors/main.xml"),
];

fn bindings() -> KernelBindings {
    // The kernels read their operands in place and build `y` aside, since
    // a kernel cannot hold read and write borrows of its buffers at once.
    fn operands<'a>(ctx: &'a KernelCtx<'_>) -> (&'a [u32], &'a [u32], &'a [f32], &'a [f32]) {
        (
            ctx.r::<Vec<u32>>(0),
            ctx.r::<Vec<u32>>(1),
            ctx.r::<Vec<f32>>(2),
            ctx.r::<Vec<f32>>(3),
        )
    }
    let serial = |ctx: &mut KernelCtx<'_>| {
        let rows = ctx.arg::<SpmvArgs>().rows;
        let mut y = vec![0.0f32; rows];
        let (rp, ci, v, x) = operands(ctx);
        spmv::spmv_kernel(rp, ci, v, x, &mut y, rows);
        ctx.w::<Vec<f32>>(4)[..rows].copy_from_slice(&y);
    };
    // On `c2050_platform(1)` the team has one member; like an OpenMP
    // region with one thread, it then runs in place instead of spawning.
    let team = |ctx: &mut KernelCtx<'_>| {
        let rows = ctx.arg::<SpmvArgs>().rows;
        let mut y = vec![0.0f32; rows];
        let (rp, ci, v, x) = operands(ctx);
        match ctx.team_size {
            0 | 1 => spmv::spmv_kernel(rp, ci, v, x, &mut y, rows),
            t => spmv::spmv_kernel_parallel(rp, ci, v, x, &mut y, rows, t),
        }
        ctx.w::<Vec<f32>>(4)[..rows].copy_from_slice(&y);
    };
    KernelBindings::new()
        .kernel("spmv_cpu", serial)
        .kernel("spmv_omp", team)
        .kernel("spmv_cuda", serial)
        .cost("spmv", |ctx| {
            spmv::cost_model(
                ctx.get("nnz").unwrap_or(0.0),
                ctx.get("rows").unwrap_or(0.0),
                0.3,
            )
        })
}

pub struct SpmvOoc {
    seed: u64,
    blocks: Arc<Vec<CsrMatrix>>,
    xs: Arc<Vec<Vec<f32>>>,
    refs: Arc<Vec<Vec<f32>>>,
    /// Device memory: half the working set.
    budget: u64,
}

impl SpmvOoc {
    pub fn new(seed: u64) -> Self {
        let m = spmv::scattered_matrix(ROWS, AVG_NNZ, seed);
        let per = ROWS.div_ceil(BLOCKS);
        let blocks = (0..BLOCKS)
            .map(|b| m.row_block(b * per, ((b + 1) * per).min(ROWS)))
            .collect();
        let mut rng = Rng(seed ^ 0x5EED);
        let xs: Vec<Vec<f32>> = (0..XS)
            .map(|_| {
                (0..m.cols)
                    .map(|_| (rng.unit() * 2.0 - 1.0) as f32)
                    .collect()
            })
            .collect();
        let refs = xs.iter().map(|x| spmv::reference(&m, x)).collect();
        let working_set = (m.bytes() + (m.cols + m.rows) * 4) as u64;
        SpmvOoc {
            seed,
            blocks: Arc::new(blocks),
            xs: Arc::new(xs),
            refs: Arc::new(refs),
            budget: working_set / 2,
        }
    }

    fn build(
        &self,
        force: Option<&'static str>,
        build: Build,
        tr: &mut Tracer,
    ) -> Result<Blocked, String> {
        let span = tr.open("compose.parse");
        let mut repo = Repository::new();
        for doc in DESCRIPTORS {
            repo.ingest(doc).map_err(|e| format!("descriptor: {e}"))?;
        }
        let parse_ns = tr.close(span);
        let span = tr.open("compose.ir");
        let ir =
            build_ir(&repo, "spmv_app", Recipe::default()).map_err(|e| format!("compose: {e}"))?;
        let ir_ns = tr.close(span);
        let span = tr.open("compose.bind");
        let registry = instantiate_registry(&ir, &bindings())?;
        let bind_ns = tr.close(span);

        let rt = Runtime::with_config(
            MachineConfig {
                noise_seed: build.noise_seed(self.seed),
                ..MachineConfig::c2050_platform(1)
            }
            .with_device_mem(self.budget),
            RuntimeConfig {
                scheduler: SchedulerKind::Dmdar,
                enable_trace: build.traced,
                ..RuntimeConfig::default()
            },
        );
        let mats = self
            .blocks
            .iter()
            .map(|b| {
                [
                    rt.register(b.row_ptr.clone()),
                    rt.register(b.col_idx.clone()),
                    rt.register(b.values.clone()),
                ]
            })
            .collect();
        let ys = self
            .blocks
            .iter()
            .map(|b| rt.register(vec![0.0f32; b.rows]))
            .collect();
        let x = rt.register(vec![0.0f32; self.xs[0].len()]);
        let mut w = Blocked {
            rt,
            registry,
            mats,
            x,
            ys,
            force,
            blocks: Arc::clone(&self.blocks),
            xs: Arc::clone(&self.xs),
            refs: Arc::clone(&self.refs),
            layers: SetupLayers {
                parse_ms: parse_ns as f64 / 1e6,
                ir_ms: ir_ns as f64 / 1e6,
                bind_ms: bind_ns as f64 / 1e6,
                ..SetupLayers::default()
            },
        };
        let mut quiet = Tracer::new(false);
        for k in 0..WARMUP {
            w.iteration(k, &mut quiet)
                .check
                .map_err(|e| format!("warm-up product {k}: {e}"))?;
        }
        Ok(w)
    }
}

impl Bench for SpmvOoc {
    fn setup(&self, build: Build, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
        Ok(Box::new(self.build(None, build, tr)?))
    }

    fn best_static_us(&self) -> Result<f64, String> {
        let mut best = f64::INFINITY;
        for force in ["spmv_cpu", "spmv_omp", "spmv_cuda"] {
            let mut w = self.build(Some(force), STATIC_BUILD, &mut Tracer::new(false))?;
            best = best.min(crate::static_vmakespan_us(&mut w, STATIC_ITERS)?);
        }
        Ok(best)
    }
}

struct Blocked {
    rt: Runtime,
    registry: ComponentRegistry,
    /// Per block: row pointers, column indices, values.
    mats: Vec<[DataHandle; 3]>,
    x: DataHandle,
    ys: Vec<DataHandle>,
    force: Option<&'static str>,
    blocks: Arc<Vec<CsrMatrix>>,
    xs: Arc<Vec<Vec<f32>>>,
    refs: Arc<Vec<Vec<f32>>>,
    layers: SetupLayers,
}

impl Blocked {
    fn submit_blocks(&self) {
        for ((m, y), b) in self.mats.iter().zip(&self.ys).zip(self.blocks.iter()) {
            let mut c = self
                .registry
                .call("spmv")
                .operand(&m[0])
                .operand(&m[1])
                .operand(&m[2])
                .operand(&self.x)
                .operand(y)
                .arg(SpmvArgs { rows: b.rows })
                .context("nnz", b.nnz() as f64)
                .context("rows", b.rows as f64);
            if let Some(f) = self.force {
                c = c.force_variant(f);
            }
            c.submit(&self.rt);
        }
    }
}

impl Workload for Blocked {
    fn rt(&self) -> &Runtime {
        &self.rt
    }

    fn iteration(&mut self, k: u64, tr: &mut Tracer) -> IterOut {
        let which = k as usize % XS;
        let t0 = Instant::now();
        tr.time("host_write", || {
            self.rt
                .acquire_write::<Vec<f32>>(&self.x)
                .copy_from_slice(&self.xs[which]);
        });
        let ((), submit_ns) = tr.time("core.call", || self.submit_blocks());
        let (waited, wait_ns) = tr.time("wait_all", || self.rt.try_wait_all());
        let t1 = Instant::now();
        let done = executed(&self.rt);
        let t2 = Instant::now();
        let (guards, read_ns) = tr.time("host_read", || {
            self.ys
                .iter()
                .map(|y| self.rt.acquire_read::<Vec<f32>>(y))
                .collect::<Vec<_>>()
        });
        let wall_ns = ((t1 - t0) + t2.elapsed()).as_nanos() as u64;
        let check = waited.and_then(|()| {
            let want = &self.refs[which];
            let mut r0 = 0;
            for (b, got) in guards.iter().enumerate() {
                let rows = &want[r0..r0 + got.len()];
                if let Some(i) = got
                    .iter()
                    .zip(rows)
                    .position(|(g, w)| g.to_bits() != w.to_bits())
                {
                    return Err(format!(
                        "block {b} row {i}: {} vs reference {}",
                        got[i], rows[i]
                    ));
                }
                r0 += got.len();
            }
            Ok(())
        });
        drop(guards);
        IterOut {
            tasks: BLOCKS as u64,
            calls: BLOCKS as u64,
            wall_ns,
            submit_ns,
            wait_ns,
            read_ns,
            reads: BLOCKS as u64,
            done_after_barrier: done,
            check,
            ..IterOut::default()
        }
    }

    fn setup_layers(&self) -> SetupLayers {
        self.layers
    }
}
