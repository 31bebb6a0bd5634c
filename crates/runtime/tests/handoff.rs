//! The idle-worker hand-off protocol (spin, then park): a task handed to
//! a worker that is spinning or parked must always run, `shutdown` must
//! join workers caught spinning, and an idle runtime must stop spinning.
//!
//! CI also runs this file pinned to one core (`taskset -c 0`), where a
//! spinning worker that did not yield would starve the very producer it
//! waits for.

use peppher_runtime::{
    AccessMode, Arch, Codelet, Runtime, RuntimeConfig, SchedulerKind, TaskBuilder,
};
use peppher_sim::MachineConfig;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WATCHDOG: Duration = Duration::from_secs(60);

/// Runs `body` on its own thread and fails the test if it does not finish
/// within [`WATCHDOG`] — a lost wakeup shows up as a hang, not a panic.
fn with_watchdog(what: &str, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let t = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(()) => t.join().expect("test body panicked"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The body panicked before signalling; surface its panic.
            t.join().expect("test body panicked");
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what}: hung (lost wakeup?)"),
    }
}

fn runtime(kind: SchedulerKind) -> Runtime {
    Runtime::with_config(
        MachineConfig::cpu_only(2).without_noise(),
        RuntimeConfig {
            scheduler: kind,
            ..RuntimeConfig::default()
        },
    )
}

const BURSTS: u64 = 150;
const BURST_LEN: u64 = 4;

/// A read-write chain on one counter whose tasks alternate between
/// worker 0 and worker 1, so every edge hands the counter to the other
/// worker. The host sleeps 0–200 µs between bursts — around the spin
/// budget — so the next task finds its worker sometimes spinning and
/// sometimes parked.
fn ping_pong(kind: SchedulerKind) {
    let rt = runtime(kind);
    let incr = Arc::new(Codelet::new("pingpong").with_impl(Arch::Cpu, |ctx| {
        ctx.w::<Vec<f64>>(0)[0] += 1.0;
    }));
    let h = rt.register(vec![0.0f64; 1]);
    let mut n = 0u64;
    for burst in 0..BURSTS {
        for _ in 0..BURST_LEN {
            TaskBuilder::new(&incr)
                .access(&h, AccessMode::ReadWrite)
                .on_worker((n % 2) as usize)
                .submit(&rt);
            n += 1;
        }
        std::thread::sleep(Duration::from_micros(burst * 37 % 201));
    }
    rt.wait_all();
    let stats = rt.stats();
    assert_eq!(stats.tasks_executed, n, "{kind:?}: every task ran");
    assert_eq!(
        stats.tasks_per_worker,
        vec![n / 2, n / 2],
        "{kind:?}: each task ran on its pinned worker"
    );
    assert_eq!(
        rt.unregister::<Vec<f64>>(h)[0],
        n as f64,
        "{kind:?}: counter"
    );
    rt.shutdown();
}

#[test]
fn cross_worker_chain_survives_spinning_and_parked_targets() {
    for kind in [
        SchedulerKind::Eager,
        SchedulerKind::Ws,
        SchedulerKind::Dmda,
        SchedulerKind::Dmdar,
    ] {
        with_watchdog(&format!("{kind:?} ping-pong"), move || ping_pong(kind));
    }
}

/// `shutdown` right after the last task completes catches the workers
/// inside their spin; it must claim them and join, not wait them out.
#[test]
fn shutdown_joins_spinning_workers() {
    with_watchdog("shutdown while spinning", || {
        let noop = Arc::new(Codelet::new("noop").with_impl(Arch::Cpu, |_| {}));
        for _ in 0..50 {
            let rt = runtime(SchedulerKind::Eager);
            TaskBuilder::new(&noop).submit_sync(&rt);
            rt.shutdown();
        }
    });
}

/// With nothing to do, every worker ends its spin and parks. This checks
/// that the spin ends, not how long it takes.
#[test]
fn idle_workers_park() {
    with_watchdog("idle park", || {
        let rt = runtime(SchedulerKind::Eager);
        let workers = rt.machine().total_workers() as u64;
        let deadline = Instant::now() + Duration::from_secs(1);
        while rt.stats().parks < workers {
            assert!(
                Instant::now() < deadline,
                "idle workers still spinning after 1 s: {} of {workers} parked",
                rt.stats().parks
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // Parked workers must still be claimable.
        rt.shutdown();
    });
}
