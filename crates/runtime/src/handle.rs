//! Registered data and its per-memory-node replicas.

use crate::task::Task;
use parking_lot::{Mutex, RwLock};
use peppher_sim::VTime;
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// How a task (or the host program) accesses an operand.
///
/// Access modes drive both dependency inference (sequential data
/// consistency) and coherence: a write-only access allocates a replica
/// without copying ("just a memory allocation is made in the device
/// memory" — paper §IV-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// Read-only.
    Read,
    /// Write-only; previous contents are not transferred.
    Write,
    /// Read-modify-write.
    ReadWrite,
}

impl AccessMode {
    /// Whether the access observes existing data.
    pub fn reads(self) -> bool {
        matches!(self, AccessMode::Read | AccessMode::ReadWrite)
    }

    /// Whether the access produces new data.
    pub fn writes(self) -> bool {
        matches!(self, AccessMode::Write | AccessMode::ReadWrite)
    }
}

/// Type-erased payload stored in a replica.
pub type PayloadBox = Box<dyn Any + Send + Sync>;

/// A replica buffer cell. Kernels hold read/write lock guards on the cell
/// for the duration of execution; coherence replaces the boxed payload on
/// transfer.
pub type PayloadCell = Arc<RwLock<PayloadBox>>;

/// MSI-style replica status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaStatus {
    /// No valid copy at this node.
    Invalid,
    /// A valid copy that other nodes may also hold.
    Shared,
    /// The unique up-to-date copy; all other replicas are invalid.
    Modified,
}

/// One memory node's view of a handle's data.
pub struct Replica {
    /// The buffer, if one was ever allocated at this node.
    pub cell: Option<PayloadCell>,
    /// Coherence status.
    pub status: ReplicaStatus,
    /// Virtual time at which this replica's contents become available
    /// (produced by a task or delivered by a transfer).
    pub vready: VTime,
}

impl Replica {
    fn empty() -> Self {
        Replica {
            cell: None,
            status: ReplicaStatus::Invalid,
            vready: VTime::ZERO,
        }
    }

    /// Whether this replica currently holds valid data.
    pub fn is_valid(&self) -> bool {
        self.status != ReplicaStatus::Invalid
    }
}

/// Mutable handle state, guarded by one mutex.
pub struct HandleState {
    /// Per-memory-node replicas (index 0 = main memory).
    pub replicas: Vec<Replica>,
    /// The in-flight task that last wrote this handle (sequential-
    /// consistency tracking); `None` once that writer has completed and
    /// retired, or a host write took the data over.
    pub last_writer: Option<Arc<Task>>,
    /// In-flight tasks that read the handle since the last write.
    pub readers: Vec<Arc<Task>>,
    /// Virtual finish time of the retired last writer: the floor every
    /// later access starts from.
    pub writer_vdone: VTime,
    /// Max virtual finish time of readers retired since the last write:
    /// the floor the next writer starts from.
    pub readers_vdone: VTime,
    /// Bumped by every write that takes the data over (a writer task's
    /// ownership and completion, a host write). A copy started before a
    /// bump carries stale contents.
    pub version: u64,
}

impl HandleState {
    /// Forgets the access history and its floors (a write by the host or a
    /// new writer task takes the data over).
    pub(crate) fn reset_history(&mut self) {
        self.last_writer = None;
        self.readers.clear();
        self.writer_vdone = VTime::ZERO;
        self.readers_vdone = VTime::ZERO;
    }
}

pub(crate) struct HandleInner {
    pub id: u64,
    /// Payload size in bytes (fixed at registration; used for transfer
    /// modelling and performance-model footprints).
    pub bytes: usize,
    /// Owning job id (0 = the implicit default job). Device replicas are
    /// charged to this job's memory quota, and a job cancellation reclaims
    /// exactly the replicas carrying its id.
    pub job: u64,
    /// Deep-copies a payload (drives replica allocation and transfer).
    pub clone_fn: Arc<dyn Fn(&PayloadBox) -> PayloadBox + Send + Sync>,
    pub state: Mutex<HandleState>,
}

/// A reference-counted handle to registered data.
///
/// Cloning the handle clones the reference, not the data. Handles are
/// created by [`crate::Runtime::register`] (or [`crate::Runtime::register_sized`]
/// for payloads without a [`Data`] impl) and consumed by
/// [`crate::Runtime::unregister`] / dropped.
#[derive(Clone)]
pub struct DataHandle {
    pub(crate) inner: Arc<HandleInner>,
}

impl fmt::Debug for DataHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataHandle")
            .field("id", &self.inner.id)
            .field("bytes", &self.inner.bytes)
            .finish()
    }
}

impl DataHandle {
    /// Creates a handle whose initial valid copy is `payload` in main
    /// memory (node 0) of a machine with `nodes` memory nodes. Test-only
    /// shorthand; the runtime registers through [`DataHandle::new_owned`].
    #[cfg(test)]
    pub(crate) fn new<T: Clone + Send + Sync + 'static>(
        id: u64,
        payload: T,
        bytes: usize,
        nodes: usize,
    ) -> Self {
        Self::new_owned(id, payload, bytes, nodes, 0)
    }

    /// [`DataHandle::new`] with an explicit owning job id (see
    /// [`HandleInner::job`]).
    pub(crate) fn new_owned<T: Clone + Send + Sync + 'static>(
        id: u64,
        payload: T,
        bytes: usize,
        nodes: usize,
        job: u64,
    ) -> Self {
        let mut replicas: Vec<Replica> = (0..nodes).map(|_| Replica::empty()).collect();
        replicas[0] = Replica {
            cell: Some(Arc::new(RwLock::new(Box::new(payload) as PayloadBox))),
            status: ReplicaStatus::Modified,
            vready: VTime::ZERO,
        };
        let clone_fn: Arc<dyn Fn(&PayloadBox) -> PayloadBox + Send + Sync> =
            Arc::new(|src: &PayloadBox| {
                let typed = src
                    .downcast_ref::<T>()
                    .expect("clone_fn: payload type changed underneath handle");
                Box::new(typed.clone()) as PayloadBox
            });
        DataHandle {
            inner: Arc::new(HandleInner {
                id,
                bytes,
                job,
                clone_fn,
                state: Mutex::new(HandleState {
                    replicas,
                    last_writer: None,
                    readers: Vec::new(),
                    writer_vdone: VTime::ZERO,
                    readers_vdone: VTime::ZERO,
                    version: 0,
                }),
            }),
        }
    }

    /// Stable identifier of this handle.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Owning job id (0 = the implicit default job).
    pub fn job(&self) -> u64 {
        self.inner.job
    }

    /// Registered payload size in bytes.
    pub fn bytes(&self) -> usize {
        self.inner.bytes
    }

    /// Whether node `node` currently holds a valid replica. Used by the
    /// `dmda` scheduler to estimate transfer costs.
    pub fn valid_on(&self, node: usize) -> bool {
        let st = self.inner.state.lock();
        st.replicas.get(node).is_some_and(|r| r.is_valid())
    }

    /// Per-node replica statuses (diagnostics / invariant tests).
    pub fn replica_statuses(&self) -> Vec<ReplicaStatus> {
        self.inner
            .state
            .lock()
            .replicas
            .iter()
            .map(|r| r.status)
            .collect()
    }

    /// The set of nodes holding valid replicas (diagnostics / tests).
    pub fn valid_nodes(&self) -> Vec<usize> {
        let st = self.inner.state.lock();
        st.replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_valid())
            .map(|(i, _)| i)
            .collect()
    }

    /// Tasks a host access with mode `mode` must wait for, per sequential
    /// data consistency.
    pub(crate) fn tasks_to_wait_for(&self, mode: AccessMode) -> Vec<Arc<Task>> {
        let st = self.inner.state.lock();
        let mut out = Vec::new();
        if let Some(w) = &st.last_writer {
            out.push(Arc::clone(w));
        }
        if mode.writes() {
            out.extend(st.readers.iter().cloned());
        }
        out
    }

    /// Records a task access at submission time and returns the in-flight
    /// tasks it depends on: the last writer (for any access) plus all
    /// readers since the last write (for writing accesses). Completed
    /// predecessors have retired (see [`DataHandle::retire`]); their finish
    /// times reach the task through the history's floors instead.
    pub(crate) fn record_access(&self, task: &Arc<Task>, mode: AccessMode) -> Vec<Arc<Task>> {
        let mut st = self.inner.state.lock();
        let mut deps = Vec::new();
        if let Some(w) = &st.last_writer {
            if w.id != task.id {
                deps.push(Arc::clone(w));
            }
        }
        if mode.writes() {
            task.observe_dep(st.writer_vdone.max(st.readers_vdone));
            deps.extend(st.readers.iter().filter(|r| r.id != task.id).cloned());
            st.reset_history();
            st.last_writer = Some(Arc::clone(task));
        } else {
            task.observe_dep(st.writer_vdone);
            // A task reading one handle twice records both reads back to
            // back. A concurrent submitter can slip in between and leave a
            // duplicate entry, which `retire` removes along with the first.
            if st.readers.last().is_none_or(|r| r.id != task.id) {
                st.readers.push(Arc::clone(task));
            }
        }
        deps
    }

    /// Removes a completed task from the access history, folding its
    /// virtual finish time into the floor its successors-to-be start from.
    /// Called once per access right after [`Task::complete`], so a
    /// submission racing the completion either links to the task (and sees
    /// it completed) or finds the floor.
    pub(crate) fn retire(&self, task: &Task, mode: AccessMode, vfinish: VTime) {
        let mut st = self.inner.state.lock();
        if mode.writes() {
            if st.last_writer.as_ref().is_some_and(|w| w.id == task.id) {
                st.last_writer = None;
                st.writer_vdone = vfinish;
            }
        } else {
            let before = st.readers.len();
            st.readers.retain(|r| r.id != task.id);
            if st.readers.len() != before {
                st.readers_vdone = st.readers_vdone.max(vfinish);
            }
        }
    }
}

/// Constructs the clone function and byte size for a `Vec<T>` payload.
pub(crate) fn vec_bytes<T>(v: &[T]) -> usize {
    std::mem::size_of_val(v)
}

/// Payload types [`crate::Runtime::register`] can size on its own.
///
/// The byte count feeds transfer-cost modelling, performance-model
/// footprints, and memory-node capacity accounting, so it should reflect
/// the payload's bulk data — for `Vec<T>` that is the heap storage, for
/// scalars the value itself. Types whose size the runtime cannot infer
/// (or where the default would be wrong) can skip this trait and go
/// through [`crate::Runtime::register_sized`] with an explicit byte count.
pub trait Data: Clone + Send + Sync + 'static {
    /// Size in bytes of the payload's bulk data.
    fn data_bytes(&self) -> usize;
}

impl<T: Clone + Send + Sync + 'static> Data for Vec<T> {
    fn data_bytes(&self) -> usize {
        vec_bytes(self)
    }
}

macro_rules! scalar_data {
    ($($t:ty),* $(,)?) => {
        $(impl Data for $t {
            fn data_bytes(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        })*
    };
}

scalar_data!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_mode_predicates() {
        assert!(AccessMode::Read.reads() && !AccessMode::Read.writes());
        assert!(!AccessMode::Write.reads() && AccessMode::Write.writes());
        assert!(AccessMode::ReadWrite.reads() && AccessMode::ReadWrite.writes());
    }

    #[test]
    fn new_handle_master_copy_in_main_memory() {
        let h = DataHandle::new(1, vec![1.0f32; 8], 32, 3);
        assert!(h.valid_on(0));
        assert!(!h.valid_on(1));
        assert!(!h.valid_on(2));
        assert_eq!(h.valid_nodes(), vec![0]);
        assert_eq!(h.bytes(), 32);
    }

    #[test]
    fn completed_tasks_retire_from_the_access_history() {
        use crate::{Arch, Codelet, Runtime, SchedulerKind, TaskBuilder};
        use peppher_sim::MachineConfig;

        let rt = Runtime::new(MachineConfig::cpu_only(2), SchedulerKind::Dmda);
        let c = Arc::new(Codelet::new("nop").with_impl(Arch::Cpu, |_| {}));
        let h = rt.register(vec![0u8; 8]);
        TaskBuilder::new(&c)
            .access(&h, AccessMode::Write)
            .submit(&rt);
        for _ in 0..10_000 {
            TaskBuilder::new(&c)
                .access(&h, AccessMode::Read)
                .submit(&rt);
        }
        rt.wait_all();
        let st = h.inner.state.lock();
        assert!(st.last_writer.is_none(), "the completed writer retired");
        assert!(
            st.readers.is_empty(),
            "{} completed readers kept",
            st.readers.len()
        );
    }

    #[test]
    fn vec_bytes_counts_payload() {
        assert_eq!(vec_bytes(&[0u64; 10]), 80);
        assert_eq!(vec_bytes::<f32>(&[]), 0);
    }
}
