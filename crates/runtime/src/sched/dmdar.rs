//! `dmdar` — dmda placement plus memory-aware *ordering* (StarPU's
//! "dmda ready" policy).
//!
//! Placement is [`super::dmda`]'s: every ready task is assigned the
//! (worker, implementation) pair with the smallest predicted finish time,
//! using the same history models, calibration round-robin, and eviction-
//! pressure costs via the shared [`DmdaCore`] — with one refinement:
//! dmdar hands the core its incremental [`LocalityIndex`], so placement's
//! transfer pricing and the pop-side readiness reorder below price the
//! *same* resident bytes from the same source instead of placement
//! consulting the handles' valid-masks separately. What changes beyond
//! that is the *pop* path: instead of dispatching each worker's queue FIFO, dmdar dispatches
//! the task whose missing read operands are *cheapest to fetch* into the
//! worker's memory node — the task that is most "ready" in StarPU's
//! sense. Each missing operand is priced along its cheapest route from
//! any node holding a replica (a direct peer link beats two hops through
//! the host when the platform has one) and includes the backlog already
//! queued on the route's channels, so a task whose operands sit one cheap
//! peer hop away outranks one that must wait on a congested host link for
//! the same byte count. Under capacity pressure this groups tasks that
//! share resident operands together, so a block is fetched once and fully
//! consumed instead of being evicted and re-fetched every round trip (the
//! cyclic-LRU thrash a FIFO order produces when the working set exceeds
//! the budget).
//!
//! # Decision cost
//!
//! Early versions rescanned the whole per-worker queue against a
//! [`MemoryView`] snapshot on every pop — O(depth × operands) per
//! dispatch, which made dmdar *slower* than a dumb FIFO exactly when load
//! was highest. The queue is now heap-ordered by a **cached** fetch-cost
//! score: scores are computed once at push time against the incremental
//! [`LocalityIndex`] and re-computed only for queue entries whose operands
//! the index reports as moved since the last pop (replica added, evicted,
//! or written back — see the residency-delta log in `memory`). A pop is
//! then O(log depth) plus O(changed entries), not O(depth).
//!
//! Starvation of transfer-heavy tasks is bounded by an aging term: every
//! time the queue's *front* (oldest) entry is passed over by a reordered
//! dispatch its skip count increments, and once it reaches
//! [`crate::RuntimeConfig::dmdar_age_limit`] the front entry is dispatched
//! FIFO regardless of readiness.

use super::dmda::{DmdaCore, PlaceScratch};
use super::fair::{JobLanes, LaneQueue};
use super::{SchedCtx, Scheduler};
use crate::hash::{FastMap, FastSet};
use crate::memory::{LocalityIndex, MemoryView, ResidentLookup};
use crate::stats::TraceEvent;
use crate::task::Task;
use parking_lot::{Mutex, RwLock};
use peppher_sim::VTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Route-aware fetch cost of the read operands `task` is missing from
/// `node`: each missing operand is priced along its cheapest route from
/// any node holding a replica (main memory when none is recorded),
/// occupancy-aware beyond `now` — channel backlog delays the estimate
/// exactly as it would delay the real transfer. Generic over the residency
/// source so it can run against a point-in-time [`MemoryView`] snapshot
/// (tests, one-off queries) or the incrementally-maintained
/// [`LocalityIndex`] (the hot pop path).
fn fetch_cost<L: ResidentLookup + ?Sized>(
    lookup: &L,
    node: usize,
    task: &Task,
    now: VTime,
    ctx: &SchedCtx<'_>,
) -> VTime {
    let mut total = VTime::ZERO;
    for (h, mode) in &task.accesses {
        if !mode.reads() || lookup.resident_bytes_at(node, h.id()) > 0 {
            continue;
        }
        let bytes = h.bytes() as u64;
        let mut best: Option<VTime> = None;
        lookup.for_each_source(h.id(), &mut |src, _| {
            if src != node {
                let t = ctx.topo.estimate_transfer_after(src, node, bytes, now);
                best = Some(match best {
                    Some(b) if b <= t => b,
                    _ => t,
                });
            }
        });
        total += best.unwrap_or_else(|| ctx.topo.estimate_transfer_after(0, node, bytes, now));
    }
    total
}

/// One queued task plus its cached locality score and pass-over count.
struct QEntry {
    task: Arc<Task>,
    /// Fetch cost cached at push (or last rescore) time; the heap key.
    score: VTime,
    /// Times this entry, while at the queue front, was passed over by a
    /// readiness reorder (the aging term).
    skipped: u32,
}

/// A worker's heap-ordered ready queue. Sequence numbers are monotonic,
/// so entries live in a dense slab (`slots[i]` holds sequence `base + i`)
/// instead of a map: lookup is pointer arithmetic, insert/remove are O(1)
/// amortized, and the slab's front compacts away as entries leave — the
/// front slot is always live while the queue is non-empty, which makes the
/// FIFO-oldest entry (the aging candidate) an O(1) read. `heap` holds
/// `(score, seq)` keys for O(log n) best-entry pops. Rescoring pushes a
/// fresh key and leaves the old one behind — a popped key is *stale*
/// (skipped) unless it matches the entry's current score. `by_handle`
/// inverts read-operand handles to sequence numbers so a residency delta
/// rescores only the entries that reference the moved handle.
struct ReadyQueue {
    slots: VecDeque<Option<QEntry>>,
    /// Sequence number of `slots[0]`; `base + slots.len()` is the next
    /// sequence to assign.
    base: u64,
    /// Live entries (slots not yet removed).
    live: usize,
    /// Live entries whose cached score is nonzero. When zero, every
    /// queued task is equally (fully) ready, the heap minimum is provably
    /// the FIFO front (zero score, smallest sequence), and pops take an
    /// O(1) front-removal fast path instead of churning the heap; the
    /// front's heap key retires lazily via the staleness check.
    nonzero: usize,
    heap: BinaryHeap<Reverse<(VTime, u64)>>,
    by_handle: FastMap<u64, Vec<u64>>,
    /// Handles that moved (per the residency-delta log) since this queue
    /// last reconciled its cached scores. Fanned out by the index sync
    /// under this queue's own lock; drained by the owning worker's pop.
    dirty: FastSet<u64>,
}

impl Default for ReadyQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl LaneQueue for ReadyQueue {
    fn lane_len(&self) -> usize {
        self.live
    }
}

impl ReadyQueue {
    fn new() -> Self {
        ReadyQueue {
            slots: VecDeque::new(),
            base: 0,
            live: 0,
            nonzero: 0,
            heap: BinaryHeap::new(),
            by_handle: FastMap::default(),
            dirty: FastSet::default(),
        }
    }

    fn get(&self, seq: u64) -> Option<&QEntry> {
        self.slots
            .get(seq.checked_sub(self.base)? as usize)?
            .as_ref()
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut QEntry> {
        let idx = seq.checked_sub(self.base)? as usize;
        self.slots.get_mut(idx)?.as_mut()
    }

    fn insert(&mut self, task: Arc<Task>, score: VTime) {
        let seq = self.base + self.slots.len() as u64;
        for (h, mode) in &task.accesses {
            if mode.reads() {
                self.by_handle.entry(h.id()).or_default().push(seq);
            }
        }
        self.heap.push(Reverse((score, seq)));
        self.slots.push_back(Some(QEntry {
            task,
            score,
            skipped: 0,
        }));
        self.live += 1;
        if score != VTime::ZERO {
            self.nonzero += 1;
        }
    }

    fn remove(&mut self, seq: u64) -> QEntry {
        let idx = (seq - self.base) as usize;
        let e = self.slots[idx].take().expect("sequence number queued");
        self.live -= 1;
        if e.score != VTime::ZERO {
            self.nonzero -= 1;
        }
        // Compact dead front slots so `base` stays the live FIFO front.
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        for (h, mode) in &e.task.accesses {
            if mode.reads() {
                if let Some(seqs) = self.by_handle.get_mut(&h.id()) {
                    seqs.retain(|&s| s != seq);
                    if seqs.is_empty() {
                        self.by_handle.remove(&h.id());
                    }
                }
            }
        }
        e
    }

    /// Reconciles cached scores against the residency moves recorded in
    /// this queue's dirty set: each affected entry is rescored against
    /// the locality index, pushing a fresh heap key (the stale one is
    /// skipped by `select`'s score-match check). No-op when clean.
    fn rescore_dirty(
        &mut self,
        index: &LocalityIndex,
        node: usize,
        now: VTime,
        ctx: &SchedCtx<'_>,
    ) {
        if self.dirty.is_empty() {
            return;
        }
        let dirty = std::mem::take(&mut self.dirty);
        let mut to_rescore: Vec<u64> = dirty
            .iter()
            .filter_map(|h| self.by_handle.get(h))
            .flatten()
            .copied()
            .collect();
        to_rescore.sort_unstable();
        to_rescore.dedup();
        for seq in to_rescore {
            let Some(e) = self.get(seq) else { continue };
            let score = fetch_cost(index, node, &e.task, now, ctx);
            let old = e.score;
            if score != old {
                self.get_mut(seq).expect("present").score = score;
                self.heap.push(Reverse((score, seq)));
                match (old == VTime::ZERO, score == VTime::ZERO) {
                    (true, false) => self.nonzero += 1,
                    (false, true) => self.nonzero -= 1,
                    _ => {}
                }
            }
        }
    }

    /// Removes and returns the next entry to dispatch: `(task, queue depth
    /// before removal, live entries jumped over, was a reorder)`. Scores
    /// must already be reconciled (dirty rescores applied) — selection
    /// itself never consults the locality index. Caller checks `live > 0`.
    fn select(&mut self, age_limit: u32) -> (Arc<Task>, usize, usize, bool) {
        let depth = self.live;
        // The slab front compacts on removal, so `base` is the live
        // FIFO-oldest entry while the queue is non-empty.
        let front_seq = self.base;
        // Anti-starvation: a front entry passed over `age_limit` times
        // is dispatched FIFO no matter how transfer-heavy it is.
        if self.nonzero == 0
            || (age_limit > 0 && self.get(front_seq).expect("front live").skipped >= age_limit)
        {
            // Either every queued task is equally ready (uniform zero
            // score — the heap minimum is the front, so skip the heap
            // and its lazy-key churn entirely) or the front aged out:
            // both dispatch FIFO, and neither counts as a reorder.
            (self.remove(front_seq).task, depth, 0, false)
        } else {
            // Readiness pop: the min-(score, seq) heap key that still
            // matches a live entry. Sequence as tiebreaker keeps equal
            // readiness FIFO.
            let seq = loop {
                let Reverse((score, seq)) = self.heap.pop().expect("heap covers every live entry");
                match self.get(seq) {
                    Some(e) if e.score == score => break seq,
                    _ => {} // stale key: entry dispatched or rescored
                }
            };
            let reordered = seq != front_seq;
            let jumped = if reordered {
                self.get_mut(front_seq).expect("front live").skipped += 1;
                // Live entries older than the dispatched one (reorder
                // events only — never on the FIFO fast path).
                self.slots
                    .iter()
                    .take((seq - self.base) as usize)
                    .filter(|s| s.is_some())
                    .count()
            } else {
                0
            };
            (self.remove(seq).task, depth, jumped, reordered)
        }
    }
}

/// dmda placement + readiness reordering (see module docs).
pub struct DmdarScheduler {
    pub(crate) core: DmdaCore,
    /// The incremental locality index, created lazily on the first push
    /// or pop (one instance per memory manager — it drains a shared
    /// delta log). Write-locked only to create it or apply residency
    /// deltas; the hot scoring paths share read access.
    index: RwLock<Option<LocalityIndex>>,
    /// Residency epoch the index was last reconciled against, mirrored
    /// outside the lock so the unchanged-epoch fast path is one atomic
    /// load against [`crate::memory::MemoryManager::epoch`]. `u64::MAX`
    /// until the index exists, which funnels the first caller into the
    /// slow path that creates it.
    synced_epoch: AtomicU64,
    /// Per-worker ready queues, laned per job (see [`super::fair`]).
    queues: Vec<Mutex<JobLanes<ReadyQueue>>>,
}

impl DmdarScheduler {
    /// Creates the per-worker structures.
    pub fn new(workers: usize) -> Self {
        DmdarScheduler {
            core: DmdaCore::new(workers),
            index: RwLock::new(None),
            synced_epoch: AtomicU64::new(u64::MAX),
            queues: (0..workers).map(|_| Mutex::new(JobLanes::new())).collect(),
        }
    }

    /// Brings the index up to the memory manager's residency epoch and
    /// fans the moved handles out to every queue's dirty set. The
    /// unchanged-epoch fast path is one atomic load and takes no lock;
    /// only a stale epoch (or a missing index) pays for the write lock.
    ///
    /// Lock order here and everywhere else in this scheduler: index
    /// before queue. The epoch stored is the one read *before* draining
    /// the delta log — deltas that land mid-drain bump the epoch again,
    /// so the next call re-syncs (a replayed absolute delta is harmless).
    fn sync_if_stale(&self, ctx: &SchedCtx<'_>) {
        if self.synced_epoch.load(Ordering::Acquire) == ctx.memory.epoch() {
            return;
        }
        let mut guard = self.index.write();
        // Reload under the lock: a racing caller may have synced already.
        let epoch = ctx.memory.epoch();
        if self.synced_epoch.load(Ordering::Acquire) == epoch {
            return;
        }
        let index = guard.get_or_insert_with(|| LocalityIndex::new(ctx.memory));
        let touched = index.sync(ctx.memory);
        if !touched.is_empty() {
            for q in &self.queues {
                for lane in q.lock().queues_mut() {
                    lane.dirty.extend(touched.iter().copied());
                }
            }
        }
        self.synced_epoch.store(epoch, Ordering::Release);
    }

    /// Scores and enqueues a placed task on worker `w`.
    fn enqueue(&self, w: usize, task: Arc<Task>, ctx: &SchedCtx<'_>) {
        self.sync_if_stale(ctx);
        let guard = self.index.read();
        let index = guard.as_ref().expect("index created by sync");
        self.enqueue_under(index, w, task, ctx);
    }

    /// [`DmdarScheduler::enqueue`] with the index guard already in hand
    /// (lock order: index before queue).
    fn enqueue_under(&self, index: &LocalityIndex, w: usize, task: Arc<Task>, ctx: &SchedCtx<'_>) {
        let node = ctx.machine.worker_memory_node(w);
        let now = ctx.timelines.get(w);
        let score = fetch_cost(index, node, &task, now, ctx);
        let job = Arc::clone(&task.job);
        self.queues[w].lock().queue_for(&job).insert(task, score);
    }

    #[cfg(test)]
    fn queue_len(&self, worker: usize) -> usize {
        self.queues[worker].lock().total_len()
    }
}

impl Scheduler for DmdarScheduler {
    fn push_ready(&self, task: Arc<Task>, ctx: &SchedCtx<'_>) -> Option<usize> {
        // Placement prices transfers against the same locality index the
        // pop-side readiness reorder scores with, so the two halves of the
        // policy agree on which bytes are resident.
        self.sync_if_stale(ctx);
        let guard = self.index.read();
        let index = guard.as_ref().expect("index created by sync");
        let w = self.core.place(&task, ctx, Some(index));
        self.enqueue_under(index, w, task, ctx);
        Some(w)
    }

    fn pop_for_worker(
        &self,
        worker: usize,
        view: &MemoryView,
        ctx: &SchedCtx<'_>,
    ) -> Option<Arc<Task>> {
        let node = ctx.machine.worker_memory_node(worker);
        let age_limit = ctx.config.dmdar_age_limit;
        let (task, depth, jumped, reordered) = {
            self.sync_if_stale(ctx);
            let mut q = self.queues[worker].lock();
            if q.total_len() == 0 {
                return None;
            }
            if q.queues().any(|lane| !lane.dirty.is_empty()) {
                // Rescoring consults the index, and the lock order is
                // index before queue (the sync fan-out relies on it): give
                // the queue lock back, take the index read guard, and
                // re-acquire. The clean-queue path — every pop on a
                // residency-quiescent runtime — never touches the index
                // lock at all.
                drop(q);
                let iguard = self.index.read();
                q = self.queues[worker].lock();
                if q.total_len() == 0 {
                    return None;
                }
                // Rescore only the entries whose operands moved since this
                // worker's last pop, in every lane that saw a delta.
                let index = iguard.as_ref().expect("index created by sync");
                let now = ctx.timelines.get(worker);
                for lane in q.queues_mut() {
                    lane.rescore_dirty(index, node, now, ctx);
                }
                let depth = q.total_len();
                let (task, _, jumped, reordered) =
                    q.pop_with(|lane| Some(lane.select(age_limit)))?;
                (task, depth, jumped, reordered)
            } else {
                let depth = q.total_len();
                let (task, _, jumped, reordered) =
                    q.pop_with(|lane| Some(lane.select(age_limit)))?;
                (task, depth, jumped, reordered)
            }
        };
        let resident = view.resident_read_bytes(node, &task.accesses);
        ctx.stats.record_dispatch(depth, resident, reordered);
        if reordered {
            ctx.stats.record_event(TraceEvent::Reorder {
                task: task.id,
                worker,
                resident_bytes: resident,
                jumped,
            });
        }
        Some(task)
    }

    fn task_timed(&self, worker: usize, _task: &Task, choice: Option<crate::task::ExecChoice>) {
        self.core
            .release(worker, choice.map(|c| c.pred_delta).unwrap_or(VTime::ZERO));
    }

    fn push_ready_placed(&self, task: Arc<Task>, ctx: &SchedCtx<'_>) -> Option<usize> {
        let choice = *task.chosen.lock();
        match choice {
            Some(c) => {
                // Same contract as dmda's placed path: re-charge the
                // recorded prediction (released by task_timed) and enqueue
                // on the previously chosen worker; the readiness reorder
                // still applies at pop time.
                self.core.charge_pred(c.worker, c.pred_delta);
                self.enqueue(c.worker, task, ctx);
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
        // One index sync and one read-guard acquisition cover the whole
        // batch: placement prices every task's transfers against the
        // index (sharing one prediction memo), then enqueueing scores
        // per-worker groups under one queue lock per distinct worker.
        self.sync_if_stale(ctx);
        let guard = self.index.read();
        let index = guard.as_ref().expect("index created by sync");
        let mut targets = Vec::with_capacity(tasks.len());
        let mut groups: Vec<(usize, Vec<Arc<Task>>)> = Vec::new();
        let mut scratch = PlaceScratch::default();
        for task in tasks {
            let w = match placed.then(|| *task.chosen.lock()).flatten() {
                Some(c) => {
                    self.core.charge_pred(c.worker, c.pred_delta);
                    c.worker
                }
                None => self
                    .core
                    .place_with_scratch(task, ctx, &mut scratch, Some(index)),
            };
            targets.push(Some(w));
            match groups.iter_mut().find(|(gw, _)| *gw == w) {
                Some((_, g)) => g.push(Arc::clone(task)),
                None => groups.push((w, vec![Arc::clone(task)])),
            }
        }
        for (w, group) in groups {
            let node = ctx.machine.worker_memory_node(w);
            let now = ctx.timelines.get(w);
            let mut q = self.queues[w].lock();
            for task in group {
                let score = fetch_cost(index, node, &task, now, ctx);
                let job = Arc::clone(&task.job);
                q.queue_for(&job).insert(task, score);
            }
        }
        targets
    }
}

#[cfg(test)]
mod tests {
    use super::super::dmda::tests::Fixture;
    use super::*;
    use crate::codelet::{Arch, Codelet};
    use crate::handle::{AccessMode, DataHandle};
    use crate::runtime::RuntimeConfig;
    use crate::task::TaskBuilder;
    use peppher_sim::MachineConfig;
    use std::sync::atomic::Ordering;

    fn gpu_codelet() -> Arc<Codelet> {
        Arc::new(Codelet::new("k").with_impl(Arch::Gpu, |_| {}))
    }

    fn task_on(codelet: &Arc<Codelet>, id: u64, h: &DataHandle) -> Arc<Task> {
        Arc::new(
            TaskBuilder::new(codelet)
                .access(h, AccessMode::Read)
                .into_task(id),
        )
    }

    /// c2050_platform(1): worker 0 = CPU, worker 1 = GPU (memory node 1).
    fn fixture(config: RuntimeConfig) -> Fixture {
        Fixture::new(MachineConfig::c2050_platform(1), config)
    }

    #[test]
    fn resident_operand_task_jumps_the_queue() {
        let f = fixture(RuntimeConfig::default());
        let cold = DataHandle::new(1, vec![0u8; 4 * 1024], 4 * 1024, 2);
        let hot = DataHandle::new(2, vec![0u8; 4 * 1024], 4 * 1024, 2);
        crate::coherence::make_valid(&hot, 1, AccessMode::Read, &f.topo, &f.stats, &f.memory);

        let c = gpu_codelet();
        let s = DmdarScheduler::new(f.machine.total_workers());
        s.push_ready(task_on(&c, 0, &cold), &f.ctx());
        s.push_ready(task_on(&c, 1, &hot), &f.ctx());

        let view = f.memory.view();
        let first = s.pop_for_worker(1, &view, &f.ctx()).expect("queued");
        assert_eq!(first.id, 1, "resident-operand task dispatches first");
        assert_eq!(f.stats.sched_reorders.load(Ordering::Relaxed), 1);
        assert_eq!(
            f.stats.dispatch_resident_bytes.load(Ordering::Relaxed),
            4 * 1024
        );
        let second = s.pop_for_worker(1, &view, &f.ctx()).expect("queued");
        assert_eq!(second.id, 0);
        // The non-jump dispatch did not count as a reorder.
        assert_eq!(f.stats.sched_reorders.load(Ordering::Relaxed), 1);
        assert_eq!(s.queue_len(1), 0);
    }

    #[test]
    fn equal_readiness_stays_fifo() {
        let f = fixture(RuntimeConfig::default());
        let a = DataHandle::new(1, vec![0u8; 4 * 1024], 4 * 1024, 2);
        let b = DataHandle::new(2, vec![0u8; 4 * 1024], 4 * 1024, 2);
        let c = gpu_codelet();
        let s = DmdarScheduler::new(f.machine.total_workers());
        s.push_ready(task_on(&c, 0, &a), &f.ctx());
        s.push_ready(task_on(&c, 1, &b), &f.ctx());

        let view = f.memory.view();
        assert_eq!(s.pop_for_worker(1, &view, &f.ctx()).unwrap().id, 0);
        assert_eq!(s.pop_for_worker(1, &view, &f.ctx()).unwrap().id, 1);
        assert_eq!(
            f.stats.sched_reorders.load(Ordering::Relaxed),
            0,
            "ties break FIFO, not as reorders"
        );
    }

    #[test]
    fn fetch_cost_prices_cheapest_route_per_operand() {
        // Two GPUs behind a peer link: an operand resident on the *other*
        // device is cheaper to fetch than an equal-sized one that must
        // come over the (higher-latency) host link.
        let f = Fixture::new(
            MachineConfig::c2050_platform_p2p(1, 2),
            RuntimeConfig::default(),
        );
        let peer_h = DataHandle::new(1, vec![0u8; 4 * 1024], 4 * 1024, 3);
        crate::coherence::make_valid(&peer_h, 2, AccessMode::Read, &f.topo, &f.stats, &f.memory);
        let host_h = DataHandle::new(2, vec![0u8; 4 * 1024], 4 * 1024, 3);

        let c = gpu_codelet();
        let t_peer = task_on(&c, 0, &peer_h);
        let t_host = task_on(&c, 1, &host_h);
        let view = f.memory.view();
        let ctx = f.ctx();
        let peer_cost = fetch_cost(&*view, 1, &t_peer, VTime::ZERO, &ctx);
        let host_cost = fetch_cost(&*view, 1, &t_host, VTime::ZERO, &ctx);
        assert!(peer_cost > VTime::ZERO);
        assert!(
            peer_cost < host_cost,
            "peer hop ({peer_cost:?}) must undercut the host link ({host_cost:?})"
        );
        // Already resident at the target node: nothing to fetch.
        assert_eq!(
            fetch_cost(&*view, 2, &t_peer, VTime::ZERO, &ctx),
            VTime::ZERO
        );
    }

    #[test]
    fn aging_forces_fifo_pop_after_limit() {
        let config = RuntimeConfig {
            dmdar_age_limit: 2,
            ..RuntimeConfig::default()
        };
        let f = fixture(config);
        let cold = DataHandle::new(1, vec![0u8; 4 * 1024], 4 * 1024, 2);
        let hot = DataHandle::new(2, vec![0u8; 4 * 1024], 4 * 1024, 2);
        crate::coherence::make_valid(&hot, 1, AccessMode::Read, &f.topo, &f.stats, &f.memory);

        let c = gpu_codelet();
        let s = DmdarScheduler::new(f.machine.total_workers());
        // The cold task is pushed first, then a stream of hot tasks that
        // would each out-ready it forever without aging.
        s.push_ready(task_on(&c, 0, &cold), &f.ctx());
        for i in 1..=3 {
            s.push_ready(task_on(&c, i, &hot), &f.ctx());
        }

        let view = f.memory.view();
        assert_eq!(s.pop_for_worker(1, &view, &f.ctx()).unwrap().id, 1);
        assert_eq!(s.pop_for_worker(1, &view, &f.ctx()).unwrap().id, 2);
        // Front entry now skipped twice == limit: dispatched FIFO even
        // though task 3's operand is resident.
        assert_eq!(
            s.pop_for_worker(1, &view, &f.ctx()).unwrap().id,
            0,
            "aged-out task dispatches before a more-ready one"
        );
        assert_eq!(s.pop_for_worker(1, &view, &f.ctx()).unwrap().id, 3);
        // The forced FIFO pop is not a reorder; the two jumps were.
        assert_eq!(f.stats.sched_reorders.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn residency_change_after_push_rescores_queue() {
        // Regression for the cached-score design: scores are computed at
        // push time, so a replica that lands *after* the push must flow
        // through the delta log and rescore the affected entries before
        // the next pop — otherwise the hot task would stay priced cold.
        let f = fixture(RuntimeConfig::default());
        let cold = DataHandle::new(1, vec![0u8; 4 * 1024], 4 * 1024, 2);
        let hot = DataHandle::new(2, vec![0u8; 4 * 1024], 4 * 1024, 2);

        let c = gpu_codelet();
        let s = DmdarScheduler::new(f.machine.total_workers());
        // Both tasks are cold at push time: equal scores, FIFO order.
        s.push_ready(task_on(&c, 0, &cold), &f.ctx());
        s.push_ready(task_on(&c, 1, &hot), &f.ctx());
        // Now the second task's operand becomes resident on the GPU node.
        crate::coherence::make_valid(&hot, 1, AccessMode::Read, &f.topo, &f.stats, &f.memory);

        let view = f.memory.view();
        let first = s.pop_for_worker(1, &view, &f.ctx()).expect("queued");
        assert_eq!(first.id, 1, "rescored hot task jumps the cold one");
        assert_eq!(f.stats.sched_reorders.load(Ordering::Relaxed), 1);
        assert_eq!(s.pop_for_worker(1, &view, &f.ctx()).unwrap().id, 0);
    }

    #[test]
    fn batch_push_places_scores_and_preserves_fifo() {
        let f = fixture(RuntimeConfig::default());
        let cold = DataHandle::new(1, vec![0u8; 4 * 1024], 4 * 1024, 2);
        let hot = DataHandle::new(2, vec![0u8; 4 * 1024], 4 * 1024, 2);
        crate::coherence::make_valid(&hot, 1, AccessMode::Read, &f.topo, &f.stats, &f.memory);

        let c = gpu_codelet();
        let s = DmdarScheduler::new(f.machine.total_workers());
        let batch = vec![
            task_on(&c, 0, &cold),
            task_on(&c, 1, &cold),
            task_on(&c, 2, &hot),
        ];
        let targets = s.push_ready_batch(&batch, false, &f.ctx());
        assert_eq!(targets, vec![Some(1); 3], "GPU-only tasks target worker 1");
        assert_eq!(s.queue_len(1), 3);

        let view = f.memory.view();
        // Hot entry jumps; the two equal cold entries then drain FIFO.
        assert_eq!(s.pop_for_worker(1, &view, &f.ctx()).unwrap().id, 2);
        assert_eq!(s.pop_for_worker(1, &view, &f.ctx()).unwrap().id, 0);
        assert_eq!(s.pop_for_worker(1, &view, &f.ctx()).unwrap().id, 1);
    }
}
