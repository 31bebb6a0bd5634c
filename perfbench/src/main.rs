//! End-to-end and per-layer benchmark of composed PEPPHER runs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <task-dag|ode-rk4|ode-replay|spmv-ooc|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is one closed-loop client: a single thread submits
//! iteration k+1 only after it has awaited iteration k and read its
//! output back. `--trace 0` prints the end-to-end metrics (runtime
//! tracing off); `--trace 1` prints the per-layer metrics, from an
//! untraced phase with benchmark-side spans plus a phase with the
//! runtime's event trace on. The last stdout line is one JSON object.
//! See `perfbench/README.md` for the workloads and metrics.

mod measure;
mod ode;
mod spmv;
mod taskdag;

use measure::{median, peak_rss_mb, quantile, ratio, IterOut, Tracer};
use peppher_runtime::{Runtime, RuntimeStats, TraceEvent};
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Builds the end-to-end run's time is split over (the last ones set up).
/// Pooling iterations from several builds averages out what one build
/// settles into: thread placement, and the placements learned under one
/// timing-jitter sequence.
const MEASURED_BUILDS: usize = 8;
/// Iterations of a forced single-variant baseline run.
pub const STATIC_ITERS: usize = 12;
/// The build forced single-variant baselines are measured on.
pub const STATIC_BUILD: Build = Build {
    traced: false,
    index: 0,
};
/// Tasks after which the traced phase stops: the runtime's event log
/// grows without bound while tracing is on.
const TRACED_TASK_CAP: u64 = 60_000;

/// Program state built by a workload's set-up, driven one iteration at a
/// time by the measurement loop.
pub trait Workload {
    fn rt(&self) -> &Runtime;
    /// Runs iteration `k`: submit, barrier, host read, verification.
    fn iteration(&mut self, k: u64, tr: &mut Tracer) -> IterOut;
    /// Wall times of set-up steps that belong to one layer (ms).
    fn setup_layers(&self) -> SetupLayers {
        SetupLayers::default()
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SetupLayers {
    pub parse_ms: f64,
    pub ir_ms: f64,
    pub bind_ms: f64,
    pub instantiate_ms: f64,
}

/// Which build of a run a set-up makes.
#[derive(Debug, Clone, Copy)]
pub struct Build {
    /// Turns the runtime's event trace on.
    pub traced: bool,
    /// Index of the build within the run; seeds the simulated devices'
    /// timing jitter together with the run's seed.
    pub index: u64,
}

impl Build {
    pub fn noise_seed(&self, seed: u64) -> u64 {
        seed ^ self.index.rotate_left(32)
    }
}

/// A workload: seeded inputs plus the ways to build the program on them.
pub trait Bench {
    /// Builds runtime, components, handles and graphs, and runs the
    /// calibration warm-up.
    fn setup(&self, build: Build, tr: &mut Tracer) -> Result<Box<dyn Workload>, String>;
    /// Median virtual time (µs) of one iteration under the best forced
    /// single-variant (static) placement.
    fn best_static_us(&self) -> Result<f64, String>;
}

/// Samples `tasks_executed` for the barrier check.
pub fn executed(rt: &Runtime) -> u64 {
    rt.stats().tasks_executed
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let val = argv
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {}", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val == "1",
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn bench_for(name: &str, seed: u64) -> Option<Box<dyn Bench>> {
    Some(match name {
        "task-dag" => Box::new(taskdag::TaskDag::new(seed)),
        "ode-rk4" => Box::new(ode::Rk4::new(seed)),
        "ode-replay" => Box::new(ode::Replay::new(seed)),
        "spmv-ooc" => Box::new(spmv::SpmvOoc::new(seed)),
        _ => return None,
    })
}

pub const WORKLOADS: [&str; 4] = ["task-dag", "ode-rk4", "ode-replay", "spmv-ooc"];

/// The timed iterations of one phase and the runtime counters around them.
struct Phase {
    iters: Vec<IterOut>,
    vmakespan_ns: Vec<f64>,
    failures: Vec<String>,
    before: RuntimeStats,
    after: RuntimeStats,
}

/// Runs timed iterations until `stop` says so. Each iteration must prove
/// that its barrier awaited exactly the tasks it submitted, that no
/// kernel failed, and that its output matched the reference.
fn measure(
    work: &mut dyn Workload,
    tr: &mut Tracer,
    k0: u64,
    mut stop: impl FnMut(&[IterOut]) -> bool,
) -> Phase {
    let rt = work.rt().clone();
    let mut vm_prev = rt.sync_virtual_clocks();
    let before = rt.stats();
    let mut prev = before.clone();
    let mut phase = Phase {
        iters: Vec::new(),
        vmakespan_ns: Vec::new(),
        failures: Vec::new(),
        after: before.clone(),
        before,
    };
    let mut k = k0;
    while !stop(&phase.iters) {
        tr.iter = Some(k as u32);
        let root = tr.open("iteration");
        tr.parent = root.id();
        let out = work.iteration(k, tr);
        tr.parent = None;
        tr.close(root);
        tr.iter = None;
        let now = rt.stats();
        let mut problems = Vec::new();
        if let Err(e) = &out.check {
            problems.push(e.clone());
        }
        if out.done_after_barrier != prev.tasks_executed + out.tasks {
            problems.push(format!(
                "barrier returned with {} of {} tasks executed",
                out.done_after_barrier.saturating_sub(prev.tasks_executed),
                out.tasks
            ));
        }
        if now.kernel_failures != prev.kernel_failures {
            problems.push(format!(
                "{} kernels failed",
                now.kernel_failures - prev.kernel_failures
            ));
        }
        if !problems.is_empty() {
            phase
                .failures
                .push(format!("iteration {k}: {}", problems.join("; ")));
        }
        let vm = rt.sync_virtual_clocks();
        phase
            .vmakespan_ns
            .push(vm.saturating_sub(vm_prev).as_nanos() as f64);
        vm_prev = vm;
        prev = now;
        phase.iters.push(out);
        k += 1;
    }
    phase.after = rt.stats();
    phase
}

/// Median virtual time (µs) per iteration of a forced-placement build,
/// with the same per-iteration checks as a measured run.
pub fn static_vmakespan_us(work: &mut dyn Workload, iters: usize) -> Result<f64, String> {
    let phase = measure(work, &mut Tracer::new(false), 1_000, |it: &[IterOut]| {
        it.len() >= iters
    });
    match phase.failures.first() {
        Some(f) => Err(f.clone()),
        None => Ok(median(&phase.vmakespan_ns) / 1e3),
    }
}

fn time_stop(seconds: f64) -> impl FnMut(&[IterOut]) -> bool {
    let t0 = Instant::now();
    let limit = Duration::from_secs_f64(seconds);
    move |iters: &[IterOut]| !iters.is_empty() && t0.elapsed() >= limit
}

/// Tasks per wall second over `iters` (timed parts only).
fn throughput(iters: &[IterOut]) -> f64 {
    let tasks: u64 = iters.iter().map(|i| i.tasks).sum();
    let ns: u64 = iters.iter().map(|i| i.wall_ns).sum();
    ratio(tasks as f64 * 1e9, ns as f64)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(
    iters: &[IterOut],
    vmakespan_ns: &[f64],
    setup_s: f64,
    best_static_us: f64,
) -> Metrics {
    let walls_ms: Vec<f64> = iters.iter().map(|i| i.wall_ns as f64 / 1e6).collect();
    let vm_us = median(vmakespan_ns) / 1e3;
    vec![
        ("setup_s", setup_s, "s"),
        ("throughput_tasks_per_s", throughput(iters), "1/s"),
        ("iter_p50_ms", quantile(&walls_ms, 0.5), "ms"),
        ("iter_p90_ms", quantile(&walls_ms, 0.9), "ms"),
        ("vmakespan_p50_us", vm_us, "us"),
        ("best_static_ratio", ratio(vm_us, best_static_us), "ratio"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

fn sum(iters: &[IterOut], f: impl Fn(&IterOut) -> u64) -> f64 {
    iters.iter().map(f).sum::<u64>() as f64
}

/// Growth of per-task submit cost: mean of the last tenth of the
/// iterations over the mean of the first tenth.
fn growth(iters: &[IterOut]) -> f64 {
    let per_task = |s: &[IterOut]| ratio(sum(s, |i| i.submit_ns), sum(s, |i| i.tasks));
    if iters.len() < 10 {
        return 0.0;
    }
    let d = iters.len() / 10;
    ratio(per_task(&iters[iters.len() - d..]), per_task(&iters[..d]))
}

fn busy_ns(s: &RuntimeStats, channel: &str) -> f64 {
    s.channel_busy
        .iter()
        .find(|(name, _)| name == channel)
        .map_or(0.0, |(_, t)| t.as_nanos() as f64)
}

fn per_layer(work: &dyn Workload, a: &Phase, b: &Phase, trace: &[TraceEvent]) -> Metrics {
    let it = &a.iters;
    let n = it.len() as f64;
    let (s0, s1) = (&a.before, &a.after);
    let d = |f: fn(&RuntimeStats) -> u64| (f(s1) - f(s0)) as f64;
    let tasks = d(|s| s.tasks_executed);
    let machine = work.rt().machine().clone();
    let workers = s1.busy.len();
    let gpu_tasks: u64 = (0..workers)
        .filter(|&w| machine.worker_is_gpu(w))
        .map(|w| s1.tasks_per_worker[w] - s0.tasks_per_worker[w])
        .sum();
    let busy: Vec<f64> = (0..workers)
        .map(|w| s1.busy[w].saturating_sub(s0.busy[w]).as_nanos() as f64)
        .collect();
    let busy_max = busy.iter().cloned().fold(0.0, f64::max);
    let busy_min = busy.iter().cloned().fold(f64::INFINITY, f64::min);
    let vm_total: f64 = a.vmakespan_ns.iter().sum();
    let cache_hits = d(|s| s.alloc_cache_hits);
    let cache_all = cache_hits + d(|s| s.alloc_cache_misses);
    let layers = work.setup_layers();

    // Traced phase: virtual kernel time and event count per task.
    let kernel_ns: u64 = trace
        .iter()
        .map(|e| match e {
            TraceEvent::TaskEnd {
                vstart, vfinish, ..
            } => vfinish.saturating_sub(*vstart).as_nanos(),
            _ => 0,
        })
        .sum();
    let b_tasks = sum(&b.iters, |i| i.tasks);
    let overhead = ratio(
        throughput(&b.iters),
        throughput(&a.iters[..b.iters.len().min(a.iters.len())]),
    );

    vec![
        (
            "submit.ns_per_task",
            ratio(sum(it, |i| i.submit_ns), sum(it, |i| i.tasks)),
            "ns",
        ),
        ("submit.growth_ratio", growth(it), "ratio"),
        (
            "wait.ns_per_task",
            ratio(sum(it, |i| i.wait_ns), sum(it, |i| i.tasks)),
            "ns",
        ),
        (
            "core.call_ns",
            ratio(sum(it, |i| i.submit_ns), sum(it, |i| i.calls)),
            "ns",
        ),
        ("compose.parse_ms", layers.parse_ms, "ms"),
        ("compose.ir_ms", layers.ir_ms, "ms"),
        ("compose.bind_ms", layers.bind_ms, "ms"),
        ("graph.instantiate_ms", layers.instantiate_ms, "ms"),
        (
            "graph.execute_ns_per_iter",
            ratio(sum(it, |i| i.exec_ns), sum(it, |i| i.replays)),
            "ns",
        ),
        (
            "sched.pop_ns",
            ratio(d(|s| s.sched_pop_ns), d(|s| s.sched_pops)),
            "ns",
        ),
        (
            "sched.pops_per_task",
            ratio(d(|s| s.sched_pops), tasks),
            "ratio",
        ),
        (
            "sched.reorders",
            ratio(d(|s| s.sched_reorders), n),
            "count/iter",
        ),
        ("sched.steals", ratio(d(|s| s.steals), n), "count/iter"),
        ("sched.max_queue_depth", s1.max_queue_depth as f64, "count"),
        (
            "worker.gpu_task_share",
            ratio(gpu_tasks as f64, tasks),
            "ratio",
        ),
        ("worker.busy_balance", ratio(busy_min, busy_max), "ratio"),
        (
            "perfmodel.calibrated_ratio",
            ratio(s1.perf_keys_calibrated as f64, s1.perf_keys as f64),
            "ratio",
        ),
        ("perfmodel.drifts", d(|s| s.model_drifts), "count"),
        (
            "memory.evictions_per_iter",
            ratio(d(|s| s.evictions), n),
            "count/iter",
        ),
        (
            "memory.writeback_bytes_per_iter",
            ratio(d(|s| s.writeback_bytes), n),
            "B/iter",
        ),
        (
            "memory.alloc_cache_hit_ratio",
            ratio(cache_hits, cache_all),
            "ratio",
        ),
        (
            "memory.gpu_high_water_bytes",
            s1.mem_high_water.get(1).copied().unwrap_or(0) as f64,
            "B",
        ),
        (
            "coherence.h2d_bytes_per_iter",
            ratio(d(|s| s.h2d_bytes), n),
            "B/iter",
        ),
        (
            "coherence.d2h_bytes_per_iter",
            ratio(d(|s| s.d2h_bytes), n),
            "B/iter",
        ),
        (
            "coherence.transfer_joins",
            ratio(d(|s| s.transfer_joins), n),
            "count/iter",
        ),
        (
            "coherence.h2d_busy_share",
            ratio(busy_ns(s1, "h2d:1") - busy_ns(s0, "h2d:1"), vm_total),
            "ratio",
        ),
        (
            "coherence.d2h_busy_share",
            ratio(busy_ns(s1, "d2h:1") - busy_ns(s0, "d2h:1"), vm_total),
            "ratio",
        ),
        (
            "coherence.host_read_ns",
            ratio(sum(it, |i| i.read_ns), sum(it, |i| i.reads)),
            "ns",
        ),
        (
            "trace.kernel_vus_per_iter",
            ratio(kernel_ns as f64 / 1e3, b.iters.len() as f64),
            "us",
        ),
        (
            "trace.events_per_task",
            ratio(trace.len() as f64, b_tasks),
            "ratio",
        ),
        ("trace.overhead_ratio", overhead, "ratio"),
    ]
}

struct Outcome {
    metrics: Metrics,
    attempted: usize,
    failures: Vec<String>,
    /// Raw samples kept in the result file: set-up seconds and
    /// per-iteration wall nanoseconds.
    setup_s: Vec<f64>,
    iter_wall_ns: Vec<u64>,
}

fn run_end_to_end(bench: &dyn Bench, seconds: f64) -> Result<Outcome, String> {
    let mut tr = Tracer::new(false);
    let mut setups = Vec::new();
    let mut iters = Vec::new();
    let mut vmakespan_ns = Vec::new();
    let mut failures = Vec::new();
    for index in 0..SETUPS {
        let t0 = Instant::now();
        let build = Build {
            traced: false,
            index: index as u64,
        };
        let mut work = bench.setup(build, &mut tr)?;
        setups.push(t0.elapsed().as_secs_f64());
        // The last builds are measured, each for its share of the run;
        // the earlier ones only add set-up samples.
        if index + MEASURED_BUILDS >= SETUPS {
            let share = seconds / MEASURED_BUILDS as f64;
            let phase = measure(work.as_mut(), &mut tr, 1_000, time_stop(share));
            iters.extend(phase.iters);
            vmakespan_ns.extend(phase.vmakespan_ns);
            failures.extend(phase.failures);
        }
    }
    let best = bench.best_static_us().unwrap_or_else(|e| {
        failures.push(format!("static baseline: {e}"));
        0.0
    });
    Ok(Outcome {
        metrics: end_to_end(&iters, &vmakespan_ns, median(&setups), best),
        attempted: iters.len(),
        failures,
        iter_wall_ns: iters.iter().map(|i| i.wall_ns).collect(),
        setup_s: setups,
    })
}

fn traced_setup(
    bench: &dyn Bench,
    traced: bool,
    tr: &mut Tracer,
) -> Result<Box<dyn Workload>, String> {
    let s = tr.open("setup");
    tr.parent = s.id();
    let work = bench.setup(Build { traced, index: 0 }, tr);
    tr.parent = None;
    tr.close(s);
    work
}

fn run_per_layer(bench: &dyn Bench, seconds: f64, spans_path: &str) -> Result<Outcome, String> {
    // Phase A: runtime tracing off, benchmark spans on.
    let mut tr_a = Tracer::new(true);
    let mut work = traced_setup(bench, false, &mut tr_a)?;
    let a = measure(work.as_mut(), &mut tr_a, 1_000, time_stop(seconds / 2.0));
    drop(work);

    // Phase B: the runtime's event trace on, over at most as many
    // iterations as phase A ran, so the throughput ratio compares like
    // with like even when per-iteration cost drifts over a run.
    let mut tr_b = Tracer::new(true);
    let work_b = traced_setup(bench, true, &mut tr_b)?;
    let warm_events = work_b.rt().trace().len();
    let mut work_b = work_b;
    let limit = a.iters.len();
    let b = measure(work_b.as_mut(), &mut tr_b, 1_000, |it: &[IterOut]| {
        it.len() >= limit
            || (!it.is_empty() && it.iter().map(|i| i.tasks).sum::<u64>() >= TRACED_TASK_CAP)
    });
    let trace: Vec<TraceEvent> = work_b.rt().trace().split_off(warm_events);
    let metrics = per_layer(work_b.as_ref(), &a, &b, &trace);
    drop(work_b);

    let mut spans = tr_a.to_jsonl("untraced");
    spans.push_str(&tr_b.to_jsonl("traced"));
    if let Err(e) = std::fs::write(spans_path, spans) {
        eprintln!("perfbench: could not write {spans_path}: {e}");
    }
    let mut failures = a.failures;
    failures.extend(b.failures);
    Ok(Outcome {
        metrics,
        attempted: a.iters.len() + b.iters.len(),
        failures,
        setup_s: Vec::new(),
        iter_wall_ns: a.iters.iter().map(|i| i.wall_ns).collect(),
    })
}

fn metrics_json(m: &Metrics) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                finite(*v)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn run_one(args: &Args, workload: &str) -> bool {
    let Some(bench) = bench_for(workload, args.seed) else {
        eprintln!("perfbench: unknown workload `{workload}` (one of {WORKLOADS:?} or all)");
        return false;
    };
    let out_dir = "perfbench/out";
    let _ = std::fs::create_dir_all(out_dir);
    let tag = format!("{workload}-seed{}-trace{}", args.seed, args.trace as u8);
    let steal0 = measure::steal_ticks();
    let result = if args.trace {
        run_per_layer(
            bench.as_ref(),
            args.seconds,
            &format!("{out_dir}/spans-{tag}.jsonl"),
        )
    } else {
        run_end_to_end(bench.as_ref(), args.seconds)
    };
    let outcome = result.unwrap_or_else(|e| Outcome {
        metrics: Vec::new(),
        attempted: 1,
        failures: vec![format!("set-up: {e}")],
        setup_s: Vec::new(),
        iter_wall_ns: Vec::new(),
    });
    for f in outcome.failures.iter().take(20) {
        eprintln!("perfbench: {workload}: FAILED {f}");
    }
    let correct = outcome.failures.is_empty();
    for (name, v, unit) in &outcome.metrics {
        eprintln!("{workload:>10}  {name:<34} {v:>16.4} {unit}");
    }
    let steal1 = measure::steal_ticks();
    let steal_share = ratio((steal1.0 - steal0.0) as f64, (steal1.1 - steal0.1) as f64);
    let host = measure::host_json();
    let metrics = if correct {
        metrics_json(&outcome.metrics)
    } else {
        "{}".to_string()
    };
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.attempted.max(1),
        outcome.failures.len()
    );
    let list = |v: Vec<String>| v.join(",");
    let record = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {host}, \"host_steal_share\": {steal_share}, \"result\": {line}, \"setup_s\": [{}], \"iter_wall_ns\": [{}]}}\n",
        args.seed,
        args.seconds,
        args.trace as u8,
        list(outcome.setup_s.iter().map(f64::to_string).collect()),
        list(outcome.iter_wall_ns.iter().map(u64::to_string).collect()),
    );
    let _ = std::fs::write(format!("{out_dir}/result-{tag}.json"), &record);
    println!("host {host}");
    println!("{line}");
    correct
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ok = if args.workload == "all" {
        // Every workload in turn; the last line is the last workload's.
        let results: Vec<bool> = WORKLOADS.iter().map(|w| run_one(&args, w)).collect();
        results.iter().all(|&ok| ok)
    } else {
        run_one(&args, &args.workload)
    };
    std::process::exit(if ok { 0 } else { 1 });
}
