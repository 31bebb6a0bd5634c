//! Handle access histories hold only in-flight tasks: a completed task
//! retires from the history of every handle it accessed. These tests check
//! that retirement is invisible to virtual time (a successor finishes at
//! the same virtual instant whether its predecessor is still in flight or
//! already retired) and that nothing outlives the runtime.

use peppher::runtime::{AccessMode, Arch, Codelet, Runtime, SchedulerKind, TaskBuilder};
use peppher::sim::{KernelCost, MachineConfig, VTime};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Blocks kernels until opened, so a predecessor stays in flight while its
/// successor is submitted. Virtual times are fixed before the kernel runs,
/// so blocking does not change them.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn pass(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

/// Modelled cost of `ms` milliseconds on a `cpu_only` worker.
fn cost_ms(ms: f64) -> KernelCost {
    KernelCost::new(9e6 * ms, 0.0, 0.0).with_arithmetic_efficiency(1.0)
}

/// One access of the scenario: mode, pinned worker, modelled cost.
type Step = (AccessMode, usize, f64);

/// Runs `preds` on one handle, then `succ` — either while every predecessor
/// is still held in flight by a gate, or after all of them completed and
/// retired — and returns the successor's virtual finish time.
fn succ_vfinish(preds: &[Step], succ: Step, in_flight: bool) -> VTime {
    let rt = Runtime::new(
        MachineConfig::cpu_only(4).without_noise(),
        SchedulerKind::Dmda,
    );
    let gate = Arc::new(Gate::default());
    let g = Arc::clone(&gate);
    let gated = Arc::new(Codelet::new("gated").with_impl(Arch::Cpu, move |_| g.pass()));
    let free = Arc::new(Codelet::new("free").with_impl(Arch::Cpu, |_| {}));
    let h = rt.register(vec![0u8; 64]);
    let submit = |codelet: &Arc<Codelet>, (mode, worker, ms): Step| {
        TaskBuilder::new(codelet)
            .access(&h, mode)
            .on_worker(worker)
            .cost(cost_ms(ms))
            .submit(&rt)
    };
    let pred_handles: Vec<_> = preds.iter().map(|&p| submit(&gated, p)).collect();
    if !in_flight {
        gate.open();
        rt.wait_all();
    }
    let s = submit(&free, succ);
    if in_flight {
        assert!(
            pred_handles.iter().all(|p| p.vfinish().is_none()),
            "predecessors must still be in flight"
        );
        gate.open();
    }
    rt.wait_all();
    let v = s.vfinish().expect("successor completed");
    rt.shutdown();
    v
}

/// Asserts bitwise-equal successor finish times in both orders.
fn assert_retirement_invisible(what: &str, preds: &[Step], succ: Step) -> VTime {
    let live = succ_vfinish(preds, succ, true);
    let retired = succ_vfinish(preds, succ, false);
    assert_eq!(
        live.as_nanos(),
        retired.as_nanos(),
        "{what}: successor vfinish differs once its predecessors retired"
    );
    live
}

/// Virtual execution time of one `ms` task on an idle worker (the
/// modelled kernel plus the device's launch overhead).
fn exec(ms: f64) -> VTime {
    succ_vfinish(&[], (AccessMode::Read, 0, ms), false)
}

#[test]
fn read_after_write_is_unchanged_by_retirement() {
    let v = assert_retirement_invisible(
        "R-after-W",
        &[(AccessMode::Write, 0, 2.0)],
        (AccessMode::Read, 1, 1.0),
    );
    assert_eq!(v, exec(2.0) + exec(1.0));
}

#[test]
fn write_after_reads_takes_the_latest_reader() {
    // The slowest reader sits in the middle, so neither the first nor the
    // last reader alone gives the right floor.
    let readers = [
        (AccessMode::Read, 0, 1.0),
        (AccessMode::Read, 1, 3.0),
        (AccessMode::Read, 2, 2.0),
    ];
    let v = assert_retirement_invisible("W-after-R", &readers, (AccessMode::Write, 3, 1.0));
    assert_eq!(v, exec(3.0) + exec(1.0));
}

#[test]
fn write_after_write_is_unchanged_by_retirement() {
    let v = assert_retirement_invisible(
        "W-after-W",
        &[(AccessMode::ReadWrite, 0, 2.0)],
        (AccessMode::Write, 1, 1.0),
    );
    assert_eq!(v, exec(2.0) + exec(1.0));
}

#[test]
fn write_after_write_then_reads_chains_through_retired_tasks() {
    // W, then readers of W, then a writer: the floor is the latest reader.
    let preds = [
        (AccessMode::Write, 0, 2.0),
        (AccessMode::Read, 1, 1.0),
        (AccessMode::Read, 2, 4.0),
    ];
    let v = assert_retirement_invisible("W-after-W-R", &preds, (AccessMode::Write, 3, 1.0));
    assert_eq!(v, exec(2.0) + exec(4.0) + exec(1.0));
}

#[test]
fn retired_reads_do_not_delay_a_later_read() {
    // Reads never order against each other: a read submitted after a long
    // read retired starts at its own worker's clock, not at that read's
    // finish.
    let v = assert_retirement_invisible(
        "R-after-R",
        &[(AccessMode::Read, 0, 5.0)],
        (AccessMode::Read, 1, 1.0),
    );
    assert_eq!(v, exec(1.0));
}

/// A value that counts its live instances in `LIVE`.
macro_rules! tracked {
    ($name:ident, $live:ident) => {
        static $live: AtomicIsize = AtomicIsize::new(0);

        struct $name;

        impl $name {
            fn new() -> Self {
                $live.fetch_add(1, Ordering::SeqCst);
                $name
            }
        }

        impl Clone for $name {
            fn clone(&self) -> Self {
                $name::new()
            }
        }

        impl Drop for $name {
            fn drop(&mut self) {
                $live.fetch_sub(1, Ordering::SeqCst);
            }
        }
    };
}

tracked!(Payload, LIVE_PAYLOADS);
tracked!(ArgPack, LIVE_ARGS);

#[test]
fn completed_tasks_and_dropped_handles_are_freed() {
    let rt = Runtime::new(MachineConfig::cpu_only(2), SchedulerKind::Dmda);
    let codelet = Arc::new(Codelet::new("touch").with_impl(Arch::Cpu, |ctx| {
        let _ = ctx.arg::<ArgPack>();
    }));
    // Every edge kind: a long-lived read-only handle, a read-modify-write
    // chain, and a writer fanned out to readers.
    let shared = rt.register_sized(Payload::new(), 8);
    let chain = rt.register_sized(Payload::new(), 8);
    for round in 0..50 {
        let fan = rt.register_sized(Payload::new(), 8);
        let task = |h, mode| {
            TaskBuilder::new(&codelet)
                .access(h, mode)
                .arg(ArgPack::new())
                .submit(&rt);
        };
        task(&fan, AccessMode::Write);
        for _ in 0..4 {
            task(&shared, AccessMode::Read);
            task(&fan, AccessMode::Read);
        }
        task(&chain, AccessMode::ReadWrite);
        if round % 10 == 0 {
            rt.wait_all();
        }
    }
    drop((shared, chain));
    rt.wait_all();
    rt.shutdown();
    assert_eq!(LIVE_ARGS.load(Ordering::SeqCst), 0, "task arg packs leaked");
    assert_eq!(
        LIVE_PAYLOADS.load(Ordering::SeqCst),
        0,
        "payloads of dropped handles leaked"
    );
}
