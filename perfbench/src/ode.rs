//! `ode-rk4` and `ode-replay`: the libsolve RK4 Brusselator solver on
//! `c2050_platform(1)` (one CPU worker plus the GPU worker).
//!
//! `ode-rk4` drives the nine `peppher-core` components exactly as
//! `odesolver::run_peppherized` does (init, 9 calls per step, copy) under
//! dmda; one iteration is one solve ending in a host read of the result.
//! `ode-replay` records the solver's double step once with
//! `odesolver::record_double_step` and replays it with
//! `GraphInstance::try_execute_many` under dmdar; one iteration rebinds the
//! state, replays `DOUBLE_STEPS` double steps and reads the state back.
//! Both check every result bitwise against `odesolver::reference`.

use crate::measure::{IterOut, Rng, Tracer};
use crate::{executed, Bench, Build, SetupLayers, Workload, STATIC_BUILD, STATIC_ITERS};
use peppher_apps::odesolver::{self, OdeArgs};
use peppher_core::ComponentRegistry;
use peppher_runtime::{
    DataHandle, GraphInstance, GraphSlot, Runtime, RuntimeConfig, SchedulerKind,
};
use peppher_sim::MachineConfig;
use std::sync::Arc;
use std::time::Instant;

/// Brusselator grid edge: 2 * 16 * 16 unknowns, a working set that fits
/// in device memory.
const EDGE: usize = 16;
const N: usize = 2 * EDGE * EDGE;
/// RK4 steps per `ode-rk4` solve.
const STEPS: usize = 50;
/// Double steps replayed per `ode-replay` iteration (the same 50 steps).
const DOUBLE_STEPS: u32 = 25;
/// Step size of the recorded graph (fixed by `record_double_step`).
const REPLAY_H: f32 = 1e-4;
const WARMUP: u64 = 3;

/// The paper's platform with one CPU worker.
fn runtime(scheduler: SchedulerKind, noise_seed: u64, build: Build) -> Runtime {
    Runtime::with_config(
        MachineConfig {
            noise_seed,
            ..MachineConfig::c2050_platform(1)
        },
        RuntimeConfig {
            scheduler,
            enable_trace: build.traced,
            ..RuntimeConfig::default()
        },
    )
}

fn compare(got: &[f32], want: &[f32]) -> Result<(), String> {
    match got
        .iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits())
    {
        None if got.len() == want.len() => Ok(()),
        None => Err(format!(
            "result has {} values, expected {}",
            got.len(),
            want.len()
        )),
        Some(i) => Err(format!("y[{i}] = {}, reference {}", got[i], want[i])),
    }
}

pub struct Rk4 {
    seed: u64,
    h: f32,
    expect: Arc<Vec<f32>>,
}

impl Rk4 {
    pub fn new(seed: u64) -> Self {
        // The seed picks the step size; the work per solve is unchanged.
        let h = (1e-4 * (0.5 + Rng(seed).unit())) as f32;
        Rk4 {
            seed,
            h,
            expect: Arc::new(odesolver::reference(EDGE, STEPS, h)),
        }
    }

    fn build(&self, force: Option<&'static str>, build: Build) -> Result<Solver, String> {
        let rt = runtime(SchedulerKind::Dmda, build.noise_seed(self.seed), build);
        let registry = ComponentRegistry::new();
        odesolver::register_components(&registry);
        let vec = || rt.register(vec![0.0f32; N]);
        let mut s = Solver {
            y: vec(),
            k: [vec(), vec(), vec(), vec()],
            yt: vec(),
            out: vec(),
            err: rt.register_sized(0.0f32, 4),
            rt,
            registry,
            h: self.h,
            force,
            expect: Arc::clone(&self.expect),
        };
        let mut tr = Tracer::new(false);
        for k in 0..WARMUP {
            s.iteration(k, &mut tr)
                .check
                .map_err(|e| format!("warm-up solve {k}: {e}"))?;
        }
        Ok(s)
    }
}

impl Bench for Rk4 {
    fn setup(&self, build: Build, _tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
        Ok(Box::new(self.build(None, build)?))
    }

    fn best_static_us(&self) -> Result<f64, String> {
        let mut best = f64::INFINITY;
        for force in ["cpu", "cuda"] {
            let mut s = self.build(Some(force), STATIC_BUILD)?;
            best = best.min(crate::static_vmakespan_us(&mut s, STATIC_ITERS)?);
        }
        Ok(best)
    }
}

struct Solver {
    rt: Runtime,
    registry: ComponentRegistry,
    y: DataHandle,
    k: [DataHandle; 4],
    yt: DataHandle,
    out: DataHandle,
    err: DataHandle,
    h: f32,
    /// Variant suffix every call is forced to (static baselines).
    force: Option<&'static str>,
    expect: Arc<Vec<f32>>,
}

impl Solver {
    fn call(&self, name: &str, ops: &[&DataHandle], coeff: f32) {
        let mut c = self
            .registry
            .call(name)
            .arg(OdeArgs {
                n: N,
                coeff,
                edge: EDGE,
            })
            .context("n", N as f64);
        for h in ops {
            c = c.operand(h);
        }
        if let Some(f) = self.force {
            c = c.force_variant(format!("{name}_{f}"));
        }
        c.submit(&self.rt);
    }

    /// One solve, call for call as `odesolver::run_peppherized`.
    /// Returns the number of component calls made.
    fn submit_solve(&self) -> u64 {
        let h = self.h;
        let [k1, k2, k3, k4] = &self.k;
        let (y, yt) = (&self.y, &self.yt);
        self.call("ode_init", &[y], 0.0);
        for step in 0..STEPS {
            self.call("ode_feval", &[y, k1], 0.0);
            self.call("ode_stage2", &[y, k1, yt], h / 2.0);
            self.call("ode_feval", &[yt, k2], 0.0);
            self.call("ode_stage3", &[y, k2, yt], h / 2.0);
            self.call("ode_feval", &[yt, k3], 0.0);
            self.call("ode_stage4", &[y, k3, yt], h);
            self.call("ode_feval", &[yt, k4], 0.0);
            self.call("ode_combine", &[y, k1, k2, k3, k4], h / 6.0);
            if step % 2 == 0 {
                self.call("ode_norm", &[k1, k4, &self.err], 0.0);
            } else {
                self.call("ode_scale", &[k4], 1.0);
            }
        }
        self.call("ode_copy", &[y, &self.out], 0.0);
        9 * STEPS as u64 + 2
    }
}

impl Workload for Solver {
    fn rt(&self) -> &Runtime {
        &self.rt
    }

    fn iteration(&mut self, _k: u64, tr: &mut Tracer) -> IterOut {
        let t0 = Instant::now();
        let (calls, submit_ns) = tr.time("core.call", || self.submit_solve());
        let (waited, wait_ns) = tr.time("wait_all", || self.rt.try_wait_all());
        let t1 = Instant::now();
        let done = executed(&self.rt);
        let t2 = Instant::now();
        let (guard, read_ns) = tr.time("host_read", || self.rt.acquire_read::<Vec<f32>>(&self.out));
        let wall_ns = ((t1 - t0) + t2.elapsed()).as_nanos() as u64;
        let check = waited.and_then(|()| compare(&guard, &self.expect));
        drop(guard);
        IterOut {
            tasks: calls,
            calls,
            wall_ns,
            submit_ns,
            wait_ns,
            read_ns,
            reads: 1,
            done_after_barrier: done,
            check,
            ..IterOut::default()
        }
    }
}

pub struct Replay {
    seed: u64,
    y0: Arc<Vec<f32>>,
    expect: Arc<Vec<f32>>,
}

impl Replay {
    pub fn new(seed: u64) -> Self {
        // The seed picks where on the reference trajectory each solve
        // starts; the work per iteration is unchanged.
        let start = (seed % 16) as usize;
        let end = start + 2 * DOUBLE_STEPS as usize;
        Replay {
            seed,
            y0: Arc::new(odesolver::reference(EDGE, start, REPLAY_H)),
            expect: Arc::new(odesolver::reference(EDGE, end, REPLAY_H)),
        }
    }

    fn build(&self, gpu_only: bool, build: Build, tr: &mut Tracer) -> Result<Replayer, String> {
        let rt = runtime(SchedulerKind::Dmdar, build.noise_seed(self.seed), build);
        let rec = odesolver::record_double_step(EDGE, gpu_only);
        let span = tr.open("graph.instantiate");
        let inst = rec.graph.instantiate(&rt);
        let instantiate_ms = tr.close(span) as f64 / 1e6;
        let mut r = Replayer {
            rt,
            inst,
            y: rec.y,
            y0: Arc::clone(&self.y0),
            expect: Arc::clone(&self.expect),
            instantiate_ms,
        };
        let mut tr = Tracer::new(false);
        for k in 0..WARMUP {
            r.iteration(k, &mut tr)
                .check
                .map_err(|e| format!("warm-up replay {k}: {e}"))?;
        }
        Ok(r)
    }
}

impl Bench for Replay {
    fn setup(&self, build: Build, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
        Ok(Box::new(self.build(false, build, tr)?))
    }

    /// The recorded graph offers one forced variant: GPU-only codelets.
    fn best_static_us(&self) -> Result<f64, String> {
        let mut r = self.build(true, STATIC_BUILD, &mut Tracer::new(false))?;
        crate::static_vmakespan_us(&mut r, STATIC_ITERS)
    }
}

struct Replayer {
    rt: Runtime,
    inst: GraphInstance,
    y: GraphSlot,
    y0: Arc<Vec<f32>>,
    expect: Arc<Vec<f32>>,
    instantiate_ms: f64,
}

impl Workload for Replayer {
    fn rt(&self) -> &Runtime {
        &self.rt
    }

    fn iteration(&mut self, _k: u64, tr: &mut Tracer) -> IterOut {
        let t0 = Instant::now();
        tr.time("bind", || self.inst.bind(self.y, (*self.y0).clone()));
        let (ran, exec_ns) = tr.time("execute_many", || self.inst.try_execute_many(DOUBLE_STEPS));
        let t1 = Instant::now();
        let done = executed(&self.rt);
        let t2 = Instant::now();
        let (got, read_ns) = tr.time("host_read", || self.inst.read::<Vec<f32>>(self.y));
        let wall_ns = ((t1 - t0) + t2.elapsed()).as_nanos() as u64;
        let check = ran.and_then(|_| compare(&got, &self.expect));
        IterOut {
            tasks: 18 * DOUBLE_STEPS as u64,
            wall_ns,
            read_ns,
            reads: 1,
            exec_ns,
            replays: DOUBLE_STEPS as u64,
            done_after_barrier: done,
            check,
            ..IterOut::default()
        }
    }

    fn setup_layers(&self) -> SetupLayers {
        SetupLayers {
            instantiate_ms: self.instantiate_ms,
            ..SetupLayers::default()
        }
    }
}
