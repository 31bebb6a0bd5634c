//! Central-queue greedy scheduler.

use super::fair::JobLanes;
use super::pq::PrioQueue;
use super::{SchedCtx, Scheduler};
use crate::memory::MemoryView;
use crate::task::Task;
use parking_lot::Mutex;
use std::sync::Arc;

/// One global queue; an idle worker takes the highest-priority task it is
/// able to execute (StarPU's `eager` policy). The pull API is per-worker,
/// but eager deliberately keeps a single shared queue — late binding *is*
/// the policy: no task commits to a worker before one asks for it.
///
/// Each job's tasks live in a [`PrioQueue`] heap ordered `(priority desc,
/// push seq asc)`, so the highest-priority-FIFO-among-equals pop is
/// O(log n); entries the popping worker cannot run are skipped (and kept)
/// by [`PrioQueue::pop_where`]. With multiple tenants the lanes are
/// walked in fair-share order (see [`super::fair`]); with one job the
/// lane layer is a single bounds check.
pub struct EagerScheduler {
    queue: Mutex<JobLanes<PrioQueue>>,
}

impl EagerScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        EagerScheduler {
            queue: Mutex::new(JobLanes::new()),
        }
    }
}

impl Default for EagerScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for EagerScheduler {
    fn push_ready(&self, task: Arc<Task>, _ctx: &SchedCtx<'_>) -> Option<usize> {
        let mut q = self.queue.lock();
        let job = Arc::clone(&task.job);
        q.queue_for(&job).push(task);
        None
    }

    fn push_ready_batch(
        &self,
        tasks: &[Arc<Task>],
        _placed: bool,
        _ctx: &SchedCtx<'_>,
    ) -> Vec<Option<usize>> {
        // One queue-lock acquisition seeds the whole batch.
        let mut q = self.queue.lock();
        for task in tasks {
            q.queue_for(&task.job).push(Arc::clone(task));
        }
        vec![None; tasks.len()]
    }

    fn pop_for_worker(
        &self,
        worker: usize,
        view: &MemoryView,
        ctx: &SchedCtx<'_>,
    ) -> Option<Arc<Task>> {
        let is_gpu = ctx.machine.worker_is_gpu(worker);
        let (task, depth) = {
            let mut q = self.queue.lock();
            let depth = q.total_len();
            let task = q.pop_with(|lane| lane.pop_where(|t| t.runnable_on(worker, is_gpu)))?;
            (task, depth)
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

    type CtxParts = (
        PerfRegistry,
        crate::sched::Timelines,
        Topology,
        MemoryManager,
        RuntimeConfig,
        StatsCollector,
        WorkerClasses,
    );

    fn ctx_fixture(machine: &MachineConfig) -> CtxParts {
        (
            PerfRegistry::default(),
            crate::sched::Timelines::new(machine.total_workers()),
            Topology::new(machine),
            MemoryManager::new(machine, EvictionPolicy::Lru, true),
            RuntimeConfig::default(),
            StatsCollector::new(machine.total_workers(), false),
            WorkerClasses::new(machine),
        )
    }

    fn task(archs: &[Arch], priority: i32) -> Arc<Task> {
        let mut c = Codelet::new("t");
        for &a in archs {
            c = c.with_impl(a, |_| {});
        }
        Arc::new(
            TaskBuilder::new(&Arc::new(c))
                .priority(priority)
                .into_task(0),
        )
    }

    #[test]
    fn pop_skips_incompatible_tasks() {
        let machine = MachineConfig::c2050_platform(1);
        let (perf, timelines, topo, memory, config, stats, classes) = ctx_fixture(&machine);
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
        let s = EagerScheduler::new();
        assert!(s.pop_for_worker(0, &view, &ctx).is_none());
        assert!(s.pop_for_worker(1, &view, &ctx).is_none());
        s.push_ready(task(&[Arch::Gpu], 0), &ctx);
        s.push_ready(task(&[Arch::Cpu], 0), &ctx);

        // CPU worker 0 must skip the GPU-only task and take the CPU one.
        let got = s
            .pop_for_worker(0, &view, &ctx)
            .expect("cpu task available");
        assert!(got.codelet.has_arch(Arch::Cpu));
        // GPU worker 1 gets the GPU task.
        let got = s
            .pop_for_worker(1, &view, &ctx)
            .expect("gpu task available");
        assert!(got.codelet.has_arch(Arch::Gpu));
        assert!(s.pop_for_worker(0, &view, &ctx).is_none());
        assert!(s.pop_for_worker(1, &view, &ctx).is_none());
    }

    #[test]
    fn pop_prefers_higher_priority() {
        let machine = MachineConfig::cpu_only(1);
        let (perf, timelines, topo, memory, config, stats, classes) = ctx_fixture(&machine);
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
        let s = EagerScheduler::new();
        let low = task(&[Arch::Cpu], 0);
        let high = task(&[Arch::Cpu], 5);
        s.push_ready(Arc::clone(&low), &ctx);
        s.push_ready(Arc::clone(&high), &ctx);
        assert_eq!(s.pop_for_worker(0, &view, &ctx).unwrap().priority, 5);
        assert_eq!(s.pop_for_worker(0, &view, &ctx).unwrap().priority, 0);
    }
}
