//! Measurement plumbing shared by every workload: the span recorder, the
//! per-iteration record, order statistics, and the host description.

use std::time::Instant;

/// One timed call into a layer of the program, recorded from the
/// benchmark's side of the boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<u32>,
    /// Iteration the call belongs to (`None` during set-up).
    pub iter: Option<u32>,
}

/// An open span: close it with [`Tracer::close`].
pub struct Open {
    id: Option<u32>,
    start: Instant,
}

impl Open {
    /// Recorder index of the span, for use as a child's parent.
    pub fn id(&self) -> Option<u32> {
        self.id
    }
}

/// In-memory span recorder. When off, `open`/`close` cost nothing but the
/// `Instant` reads the caller needs anyway; when on, spans are kept up to
/// `cap` (later ones are only counted) and written out at the end of the
/// run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
    /// Iteration stamped on new spans.
    pub iter: Option<u32>,
    /// Parent of new spans.
    pub parent: Option<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            cap: 200_000,
            dropped: 0,
            iter: None,
            parent: None,
        }
    }

    /// Starts a span named `name` under the current parent.
    pub fn open(&mut self, name: &'static str) -> Open {
        let parent = self.parent;
        let start = Instant::now();
        let id = if self.on && self.spans.len() < self.cap {
            let at = (start - self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at,
                parent,
                iter: self.iter,
            });
            Some(self.spans.len() as u32 - 1)
        } else {
            if self.on {
                self.dropped += 1;
            }
            None
        };
        Open { id, start }
    }

    /// Ends `span` and returns its duration in nanoseconds.
    pub fn close(&mut self, span: Open) -> u64 {
        let end = Instant::now();
        if let Some(id) = span.id {
            self.spans[id as usize].end_ns = (end - self.epoch).as_nanos() as u64;
        }
        (end - span.start).as_nanos() as u64
    }

    /// Times `f` as a span when recording is on; otherwise just runs it.
    /// Layer timings inside iterations go through this so an untraced
    /// run pays no clock reads per call.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        if !self.on {
            return (f(), 0);
        }
        let s = self.open(name);
        let r = f();
        (r, self.close(s))
    }

    /// Spans as JSON lines, tagged with the phase they were recorded in.
    pub fn to_jsonl(&self, phase: &str) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"phase\":\"{phase}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"iter\":{}}}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.iter),
            ));
        }
        if self.dropped > 0 {
            out.push_str(&format!(
                "{{\"phase\":\"{phase}\",\"dropped_spans\":{}}}\n",
                self.dropped
            ));
        }
        out
    }
}

fn opt(v: Option<u32>) -> String {
    v.map_or("null".into(), |v| v.to_string())
}

/// What one timed iteration did, as seen from outside the program.
#[derive(Debug, Clone)]
pub struct IterOut {
    /// Tasks the iteration submitted (directly, through component calls,
    /// or through graph replay).
    pub tasks: u64,
    /// Component calls made (0 when the workload bypasses `core`).
    pub calls: u64,
    /// Wall time from the first submit to the last host read.
    pub wall_ns: u64,
    /// Layer timings; zero unless spans are recorded.
    pub submit_ns: u64,
    pub wait_ns: u64,
    pub read_ns: u64,
    pub reads: u64,
    pub exec_ns: u64,
    /// Graph iterations replayed (0 outside `ode-replay`).
    pub replays: u64,
    /// `tasks_executed` sampled right after the barrier, before any host
    /// read could wait for tasks the barrier missed.
    pub done_after_barrier: u64,
    /// Output verification against the reference.
    pub check: Result<(), String>,
}

impl Default for IterOut {
    fn default() -> Self {
        IterOut {
            tasks: 0,
            calls: 0,
            wall_ns: 0,
            submit_ns: 0,
            wait_ns: 0,
            read_ns: 0,
            reads: 0,
            exec_ns: 0,
            replays: 0,
            done_after_barrier: 0,
            check: Ok(()),
        }
    }
}

/// `q`-quantile (0..=1) by nearest rank on a copy of `v`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload never exercised).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str], envs: &[(&str, &str)]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .envs(envs.iter().copied())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Host description stored next to every result, so results are only
/// ever compared with results from the same kind of host.
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"], &[]).unwrap_or_else(|| "unknown".into());
    // Look only at this directory's own repository, never a parent's.
    let commit = command_line("git", &["rev-parse", "HEAD"], &[("GIT_DIR", ".git")])
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\":{nproc},\"cpu_model\":\"{}\",\"rustc\":\"{}\",\"git_commit\":\"{}\"}}",
        escape(&cpu),
        escape(&rustc),
        escape(&commit)
    )
}

/// Cumulative (stolen, total) CPU ticks of the machine from `/proc/stat`:
/// the time the hypervisor ran something else while this machine's vCPUs
/// wanted to run. Stored with each result so that runs made under
/// different host load are not compared as like with like.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

pub fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// SplitMix64: the benchmark's seeded input generator.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
