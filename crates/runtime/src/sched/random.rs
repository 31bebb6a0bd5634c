//! Uniformly random placement (a weak baseline for ablations).

use super::fair::JobLanes;
use super::pq::PrioQueue;
use super::{options_for, SchedCtx, Scheduler};
use crate::memory::MemoryView;
use crate::task::{ExecChoice, Task};
use parking_lot::Mutex;
use peppher_sim::VTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Assigns each ready task to a uniformly random eligible worker.
pub struct RandomScheduler {
    queues: Vec<Mutex<JobLanes<PrioQueue>>>,
    rng: Mutex<StdRng>,
}

impl RandomScheduler {
    /// Creates queues for `workers` workers with a deterministic seed.
    pub fn new(workers: usize, seed: u64) -> Self {
        RandomScheduler {
            queues: (0..workers).map(|_| Mutex::new(JobLanes::new())).collect(),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }

    /// Draws a uniformly random placement and records it on the task.
    fn draw(&self, task: &Arc<Task>, ctx: &SchedCtx<'_>) -> usize {
        let opts = options_for(task, ctx.machine);
        assert!(
            !opts.is_empty(),
            "task for codelet `{}` has no eligible worker",
            task.codelet.name
        );
        let pick = self.rng.lock().gen_range(0..opts.len());
        let (worker, arch) = opts[pick];
        *task.chosen.lock() = Some(ExecChoice {
            worker,
            arch,
            pred_delta: VTime::ZERO,
        });
        worker
    }
}

impl Scheduler for RandomScheduler {
    fn push_ready(&self, task: Arc<Task>, ctx: &SchedCtx<'_>) -> Option<usize> {
        let worker = self.draw(&task, ctx);
        let job = Arc::clone(&task.job);
        self.queues[worker].lock().queue_for(&job).push(task);
        Some(worker)
    }

    fn push_ready_placed(&self, task: Arc<Task>, ctx: &SchedCtx<'_>) -> Option<usize> {
        // Keep the previous iteration's draw — re-rolling every replay
        // would burn RNG state for no scheduling benefit.
        let choice = *task.chosen.lock();
        match choice {
            Some(c) => {
                let job = Arc::clone(&task.job);
                self.queues[c.worker].lock().queue_for(&job).push(task);
                Some(c.worker)
            }
            None => self.push_ready(task, ctx),
        }
    }

    fn push_ready_batch(
        &self,
        tasks: &[Arc<Task>],
        placed: bool,
        ctx: &SchedCtx<'_>,
    ) -> Vec<Option<usize>> {
        // Draw every placement first, then enqueue per-worker groups under
        // one queue-lock acquisition each instead of one per task.
        let mut targets = Vec::with_capacity(tasks.len());
        let mut groups: Vec<(usize, Vec<Arc<Task>>)> = Vec::new();
        for task in tasks {
            let w = match placed.then(|| *task.chosen.lock()).flatten() {
                Some(c) => c.worker,
                None => self.draw(task, ctx),
            };
            targets.push(Some(w));
            match groups.iter_mut().find(|(gw, _)| *gw == w) {
                Some((_, g)) => g.push(Arc::clone(task)),
                None => groups.push((w, vec![Arc::clone(task)])),
            }
        }
        for (w, group) in groups {
            let mut q = self.queues[w].lock();
            for task in group {
                q.queue_for(&task.job).push(Arc::clone(&task));
            }
        }
        targets
    }

    fn pop_for_worker(
        &self,
        worker: usize,
        view: &MemoryView,
        ctx: &SchedCtx<'_>,
    ) -> Option<Arc<Task>> {
        let (task, depth) = {
            let mut q = self.queues[worker].lock();
            let depth = q.total_len();
            (q.pop_with(|lane| lane.pop())?, depth)
        };
        let node = ctx.machine.worker_memory_node(worker);
        let resident = view.resident_read_bytes(node, &task.accesses);
        ctx.stats.record_dispatch(depth, resident, false);
        Some(task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codelet::{Arch, Codelet};
    use crate::coherence::Topology;
    use crate::memory::{EvictionPolicy, MemoryManager};
    use crate::perfmodel::PerfRegistry;
    use crate::runtime::RuntimeConfig;
    use crate::sched::WorkerClasses;
    use crate::stats::StatsCollector;
    use crate::task::TaskBuilder;
    use peppher_sim::MachineConfig;

    #[test]
    fn spreads_across_eligible_workers() {
        let machine = MachineConfig::c2050_platform(2);
        let perf = PerfRegistry::default();
        let timelines = crate::sched::Timelines::new(machine.total_workers());
        let topo = Topology::new(&machine);
        let memory = MemoryManager::new(&machine, EvictionPolicy::Lru, true);
        let config = RuntimeConfig::default();
        let stats = StatsCollector::new(machine.total_workers(), false);
        let classes = WorkerClasses::new(&machine);
        let ctx = SchedCtx {
            machine: &machine,
            perf: &perf,
            timelines: &timelines,
            topo: &topo,
            memory: &memory,
            config: &config,
            stats: &stats,
            classes: &classes,
        };
        let view = memory.view();

        let codelet = Arc::new(
            Codelet::new("t")
                .with_impl(Arch::Cpu, |_| {})
                .with_impl(Arch::Gpu, |_| {}),
        );
        let s = RandomScheduler::new(machine.total_workers(), 1);
        for i in 0..300 {
            s.push_ready(Arc::new(TaskBuilder::new(&codelet).into_task(i)), &ctx);
        }
        let mut counts = vec![0usize; machine.total_workers()];
        for (w, count) in counts.iter_mut().enumerate() {
            while s.pop_for_worker(w, &view, &ctx).is_some() {
                *count += 1;
            }
        }
        assert_eq!(counts.iter().sum::<usize>(), 300);
        // All three workers (2 CPU + 1 GPU) should receive a decent share.
        for (w, &c) in counts.iter().enumerate() {
            assert!(c > 50, "worker {w} got only {c} of 300 tasks");
        }
    }

    #[test]
    fn chosen_arch_matches_worker_kind() {
        let machine = MachineConfig::c2050_platform(1);
        let perf = PerfRegistry::default();
        let timelines = crate::sched::Timelines::new(machine.total_workers());
        let topo = Topology::new(&machine);
        let memory = MemoryManager::new(&machine, EvictionPolicy::Lru, true);
        let config = RuntimeConfig::default();
        let stats = StatsCollector::new(machine.total_workers(), false);
        let classes = WorkerClasses::new(&machine);
        let ctx = SchedCtx {
            machine: &machine,
            perf: &perf,
            timelines: &timelines,
            topo: &topo,
            memory: &memory,
            config: &config,
            stats: &stats,
            classes: &classes,
        };
        let view = memory.view();
        let codelet = Arc::new(
            Codelet::new("t")
                .with_impl(Arch::Cpu, |_| {})
                .with_impl(Arch::Gpu, |_| {}),
        );
        let s = RandomScheduler::new(machine.total_workers(), 7);
        for i in 0..50 {
            s.push_ready(Arc::new(TaskBuilder::new(&codelet).into_task(i)), &ctx);
        }
        for w in 0..machine.total_workers() {
            while let Some(t) = s.pop_for_worker(w, &view, &ctx) {
                let arch = t.chosen.lock().unwrap().arch;
                if machine.worker_is_gpu(w) {
                    assert_eq!(arch, Arch::Gpu);
                } else {
                    assert_eq!(arch, Arch::Cpu);
                }
            }
        }
    }
}
