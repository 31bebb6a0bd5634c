//! `task-dag`: empty-kernel task graphs on `cpu_only(2)` under dmda.
//!
//! Each round is an independent frontier reading pairs of handles from a
//! fixed pool of long-lived read-only handles, a ReadWrite chain whose
//! kernel bumps a counter, and a 1-writer/N-reader fan-out. Tasks go in
//! through `TaskBuilder::submit`; the round ends at `Runtime::try_wait_all`.
//! The workload exercises submit and dependency wiring, scheduler
//! push/pop and worker wake-up/release, and bypasses memory nodes,
//! coherence transfers and real kernels.

use crate::measure::{IterOut, Rng, Tracer};
use crate::{executed, Bench, Build, Workload, STATIC_BUILD, STATIC_ITERS};
use peppher_runtime::{AccessMode, Arch, Codelet, DataHandle, Runtime, SchedulerKind, TaskBuilder};
use peppher_sim::MachineConfig;
use std::sync::Arc;
use std::time::Instant;

const POOL: usize = 64;
const FRONTIER: usize = 256;
const CHAIN: u64 = 64;
const FANOUT: usize = 64;
const TASKS: u64 = FRONTIER as u64 + CHAIN + 1 + FANOUT as u64;
/// Distinct frontier read patterns; round k uses pattern k mod this.
const PATTERNS: usize = 16;
const WORKERS: usize = 2;
const WARMUP: u64 = 3;

/// How tasks are placed.
#[derive(Clone, Copy, PartialEq)]
enum Placement {
    Dynamic,
    /// Every task pinned to worker 0.
    AllOnFirst,
    /// Task i pinned to worker i mod WORKERS.
    RoundRobin,
}

pub struct TaskDag {
    seed: u64,
    /// Per pattern, the two pool handles each frontier task reads.
    patterns: Arc<Vec<Vec<(usize, usize)>>>,
}

impl TaskDag {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng(seed);
        let patterns = (0..PATTERNS)
            .map(|_| {
                (0..FRONTIER)
                    .map(|_| {
                        let a = rng.below(POOL);
                        (a, (a + 1 + rng.below(POOL - 1)) % POOL)
                    })
                    .collect()
            })
            .collect();
        TaskDag {
            seed,
            patterns: Arc::new(patterns),
        }
    }

    fn build(&self, placement: Placement, build: Build) -> Result<Dag, String> {
        // The CPU-only preset has no timing jitter; give it the same 3% as
        // the GPU platform so virtual times are not quantized to the
        // 100 ns invocation overhead of an empty kernel.
        let machine = MachineConfig {
            noise_rel_stddev: 0.03,
            noise_seed: build.noise_seed(self.seed),
            ..MachineConfig::cpu_only(WORKERS)
        };
        let rt = Runtime::with_config(
            machine,
            peppher_runtime::RuntimeConfig {
                scheduler: SchedulerKind::Dmda,
                enable_trace: build.traced,
                ..Default::default()
            },
        );
        let empty = Arc::new(Codelet::new("dag_empty").with_impl(Arch::Cpu, |_| {}));
        let bump = Arc::new(Codelet::new("dag_bump").with_impl(Arch::Cpu, |ctx| {
            *ctx.w::<u64>(0) += 1;
        }));
        let pool = (0..POOL).map(|i| rt.register(i as u64)).collect();
        let chain = rt.register(0u64);
        let fan = rt.register(0u64);
        let mut dag = Dag {
            rt,
            empty,
            bump,
            pool,
            chain,
            fan,
            patterns: Arc::clone(&self.patterns),
            placement,
            counter: 0,
        };
        let mut tr = Tracer::new(false);
        for k in 0..WARMUP {
            let out = dag.iteration(k, &mut tr);
            out.check.map_err(|e| format!("warm-up round {k}: {e}"))?;
        }
        Ok(dag)
    }
}

impl Bench for TaskDag {
    fn setup(&self, build: Build, _tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
        Ok(Box::new(self.build(Placement::Dynamic, build)?))
    }

    fn best_static_us(&self) -> Result<f64, String> {
        let mut best = f64::INFINITY;
        for placement in [Placement::AllOnFirst, Placement::RoundRobin] {
            let mut dag = self.build(placement, STATIC_BUILD)?;
            best = best.min(crate::static_vmakespan_us(&mut dag, STATIC_ITERS)?);
        }
        Ok(best)
    }
}

struct Dag {
    rt: Runtime,
    empty: Arc<Codelet>,
    bump: Arc<Codelet>,
    pool: Vec<DataHandle>,
    chain: DataHandle,
    fan: DataHandle,
    patterns: Arc<Vec<Vec<(usize, usize)>>>,
    placement: Placement,
    /// Expected value of the chain counter.
    counter: u64,
}

impl Dag {
    fn task(&self, codelet: &Arc<Codelet>, i: usize) -> TaskBuilder {
        let tb = TaskBuilder::new(codelet);
        match self.placement {
            Placement::Dynamic => tb,
            Placement::AllOnFirst => tb.on_worker(0),
            Placement::RoundRobin => tb.on_worker(i % WORKERS),
        }
    }

    fn submit_round(&self, k: u64) {
        let pattern = &self.patterns[k as usize % PATTERNS];
        let mut i = 0;
        for &(a, b) in pattern {
            self.task(&self.empty, i)
                .access(&self.pool[a], AccessMode::Read)
                .access(&self.pool[b], AccessMode::Read)
                .submit(&self.rt);
            i += 1;
        }
        for _ in 0..CHAIN {
            self.task(&self.bump, i)
                .access(&self.chain, AccessMode::ReadWrite)
                .submit(&self.rt);
            i += 1;
        }
        self.task(&self.empty, i)
            .access(&self.fan, AccessMode::Write)
            .submit(&self.rt);
        for _ in 0..FANOUT {
            i += 1;
            self.task(&self.empty, i)
                .access(&self.fan, AccessMode::Read)
                .submit(&self.rt);
        }
    }
}

impl Workload for Dag {
    fn rt(&self) -> &Runtime {
        &self.rt
    }

    fn iteration(&mut self, k: u64, tr: &mut Tracer) -> IterOut {
        let t0 = Instant::now();
        let ((), submit_ns) = tr.time("submit", || self.submit_round(k));
        let (waited, wait_ns) = tr.time("wait_all", || self.rt.try_wait_all());
        let t1 = Instant::now();
        let done = executed(&self.rt);
        let t2 = Instant::now();
        let (value, read_ns) = tr.time("host_read", || *self.rt.acquire_read::<u64>(&self.chain));
        let wall_ns = ((t1 - t0) + t2.elapsed()).as_nanos() as u64;
        self.counter += CHAIN;
        let check = waited.and_then(|()| {
            if value == self.counter {
                Ok(())
            } else {
                Err(format!("chain counter {value}, expected {}", self.counter))
            }
        });
        self.counter = value;
        IterOut {
            tasks: TASKS,
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
