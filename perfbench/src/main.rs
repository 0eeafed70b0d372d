//! Host-speed benchmark of the DTU 2.0 simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-cold|sweep-rerun|fleet-serve|gen-serve|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `all` runs the four workloads one after another in this process,
//! each for `--seconds`, and its JSON line prefixes every metric with
//! the workload's name. Each workload runs as a closed loop with one
//! caller: each iteration starts when the previous one returns. Set-up
//! runs several times and reports its median. With `--trace 0` the run
//! prints the end-to-end metrics, their times scaled to the reference
//! host speed (see `reference.rs`); with `--trace 1` it alternates
//! untraced and traced iterations, runs the workload's probes,
//! prints the per-layer metrics and writes the spans as a Chrome trace
//! under `perfbench/out/`. The last line of standard output is always
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Every time here is host time; simulated time is only checked.
//! `GLOSSARY.md` defines each metric and workload.

mod fleet;
mod gen;
mod hooks;
mod layers;
mod reference;
mod stats;
mod sweep;
mod trace;
mod workload;

use layers::{Layers, END_TO_END, PER_LAYER};
use stats::{median, tail};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Bench, Iter, Kind, Runs};

/// Worker threads, at most this many (and never more than the host
/// has), so results compare across machines with more cores.
const MAX_JOBS: usize = 2;
/// Set-ups per measured run: at least `MIN_SETUPS`, and more until
/// they have taken `SETUP_BUDGET`, so that a short set-up gets enough
/// samples for a steady median. `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

const USAGE: &str =
    "usage: perfbench --workload <sweep-cold|sweep-rerun|fleet-serve|gen-serve|all> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kinds = Vec::new();
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kinds = match Kind::parse(&name) {
                    Some(kind) => vec![kind],
                    None if name == "all" => Kind::ALL.to_vec(),
                    None => return Err(format!("unknown workload '{name}'")),
                };
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds needs an integer")?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        kinds: if kinds.is_empty() {
            return Err("--workload is required".into());
        } else {
            kinds
        },
        seed,
        seconds,
        trace,
    })
}

/// A directory under `perfbench/out/` owned by this process and
/// removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn out_dir() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }

    fn new() -> Result<Scratch, String> {
        let dir = Scratch::out_dir().join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Restarts the resident-set high-water mark at the current resident
/// set, so that it covers only what runs next.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting VmHWM: {e}"))
}

/// The process's resident-set high-water mark, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// What one run prints: human-readable lines, then the JSON result.
struct Outcome {
    lines: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `step` at least once and until `budget` has passed.
fn repeat_for(budget: Duration, mut step: impl FnMut()) {
    let started = Instant::now();
    loop {
        step();
        if started.elapsed() >= budget {
            break;
        }
    }
}

fn totals(iters: &[Iter]) -> (u64, u64) {
    iters
        .iter()
        .fold((0, 0), |(a, f), i| (a + i.ops, f + i.failed))
}

fn failed_line(attempted: u64, failed: u64, what: &str) -> String {
    format!(
        "{:<22} {} ratio  ({failed} failed / {attempted} attempted {what})",
        "failed_ratio",
        failed as f64 / attempted.max(1) as f64
    )
}

fn measured(kind: Kind, args: &Args, jobs: usize, scratch: &Scratch) -> Result<Outcome, String> {
    // The reference kernel runs in its own process between the timed
    // intervals; the run's times are scaled by its median.
    let mut kernel = reference::Kernel::spawn()?;
    let (mut setups, mut kernels) = (Vec::new(), Vec::new());
    let mut bench: Option<Box<dyn Bench>> = None;
    let first = Instant::now();
    for k in 0.. {
        if k >= MIN_SETUPS && first.elapsed() >= SETUP_BUDGET {
            break;
        }
        // Free the previous set-up first, so each one starts alike.
        drop(bench.take());
        let started = Instant::now();
        let dir = scratch.0.join(format!("{}-setup-{k}", kind.name()));
        let b = kind.setup(args.seed, jobs, dir)?;
        setups.push(started.elapsed().as_secs_f64());
        kernels.push(kernel.sample_ms()?);
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");

    // Each iteration gets its own resident-set high-water mark; their
    // median is steadier than one mark over the whole run, which moves
    // with how the allocator happened to spread the set-ups over its
    // arenas.
    let (mut iters, mut peaks) = (Vec::new(), Vec::new());
    let started = Instant::now();
    loop {
        reset_peak_rss()?;
        iters.push(bench.run());
        peaks.push(peak_rss_mib()?);
        kernels.push(kernel.sample_ms()?);
        if started.elapsed() >= Duration::from_secs(args.seconds) {
            break;
        }
    }
    drop(kernel);

    let kernel_ms = median(&kernels);
    let scale = |raw: f64| reference::scaled(raw, kernel_ms);
    let walls: Vec<f64> = iters.iter().map(|i| i.wall_ms).collect();
    let rates: Vec<f64> = iters
        .iter()
        .map(|i| i.units / (scale(i.wall_ms) / 1e3))
        .collect();
    let (attempted, failed) = totals(&iters);
    let n = iters.len();
    let t = tail(&walls);
    let (raw_setup_s, raw_p50) = (median(&setups), median(&walls));
    let (setup_s, p50, tail_ms) = (scale(raw_setup_s), scale(raw_p50), scale(t.value));
    let work = median(&rates);
    let rss = median(&peaks);
    let what = match kind {
        Kind::SweepCold | Kind::SweepRerun => "points",
        Kind::FleetServe | Kind::GenServe => "runs",
    };
    let lines = vec![
        format!(
            "reference kernel (child process): median {kernel_ms} ms over {} runs; times below \
             are scaled by {} ms / {kernel_ms} ms",
            kernels.len(),
            reference::REFERENCE_MS
        ),
        format!(
            "{:<22} {setup_s} s  (median of {} set-ups; raw {raw_setup_s} s)",
            "setup_s",
            setups.len()
        ),
        format!(
            "{:<22} {p50} ms  (median of {n} iterations; raw {raw_p50} ms)",
            "iter_ms.p50"
        ),
        format!(
            "{:<22} {tail_ms} ms  (p{:.1} of {n} iterations, {} beyond; raw {} ms)",
            "iter_ms.tail", t.percentile, t.beyond, t.value
        ),
        format!(
            "{:<22} {work} 1/s  ({}: median of {n} iterations)",
            "work_per_s",
            bench.work_name()
        ),
        format!(
            "{:<22} {rss} MiB  (median of {n} per-iteration high-water marks)",
            "peak_rss_mb"
        ),
        failed_line(attempted, failed, what),
        bench.describe(),
    ];
    let values = [setup_s, p50, tail_ms, work, rss];
    Ok(Outcome {
        lines,
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect(),
    })
}

fn traced(kind: Kind, args: &Args, jobs: usize, scratch: &Scratch) -> Result<Outcome, String> {
    let mut bench = kind.setup(args.seed, jobs, scratch.0.join(kind.name()))?;
    // Untraced, unmonitored and traced iterations alternate, so host
    // drift during the run reaches all three alike.
    let mut runs = Runs::default();
    let tracer = Tracer::new();
    let mut iter = 0;
    repeat_for(Duration::from_secs(args.seconds), || {
        runs.untraced.push(bench.run());
        if let Some(plain) = bench.run_plain() {
            runs.plain.push(plain);
        }
        iter += 1;
        runs.traced.push(bench.run_traced(&tracer, iter));
    });

    let mut layers = Layers::default();
    let (probe_attempted, probe_failed) = bench.per_layer(&tracer, &runs, &mut layers);
    layers.set(
        "trace.overhead_ratio",
        Runs::p50(&runs.traced) / Runs::p50(&runs.untraced),
    );

    let spans = tracer.spans();
    let file = format!("trace-{}-seed{}.json", kind.name(), args.seed);
    let path = Scratch::out_dir().join(&file);
    std::fs::write(&path, trace::to_chrome(&spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let mut attempted = probe_attempted;
    let mut failed = probe_failed;
    for iters in [&runs.untraced, &runs.plain, &runs.traced] {
        let (a, f) = totals(iters);
        attempted += a;
        failed += f;
    }
    let mut lines = vec![
        format!(
            "iterations: {} untraced, {} unmonitored, {} traced; {} spans written to \
             perfbench/out/{file}",
            runs.untraced.len(),
            runs.plain.len(),
            runs.traced.len(),
            spans.len(),
        ),
        bench.describe(),
    ];
    for &(name, unit) in &PER_LAYER {
        lines.push(format!("{name:<32} {} {unit}", layers.get(name)));
    }
    lines.push(failed_line(attempted, failed, "operations and probes"));
    lines.push(format!(
        "{:<28} {:>7} {:>12} {:>12}",
        "self time by span", "spans", "total ms", "self ms"
    ));
    for (name, n, total, own) in layers::self_time_table(&spans) {
        lines.push(format!("{name:<28} {n:>7} {total:>12.3} {own:>12.3}"));
    }
    Ok(Outcome {
        lines,
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name.to_string(), layers.get(name), unit))
            .collect(),
    })
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(reference::SERVE_FLAG) {
        return reference::serve();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = cores.min(MAX_JOBS);
    let scratch = match Scratch::new() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut total = Outcome {
        lines: Vec::new(),
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for &kind in &args.kinds {
        let run = if args.trace {
            traced(kind, &args, jobs, &scratch)
        } else {
            measured(kind, &args, jobs, &scratch)
        };
        let out = match run {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", kind.name());
                return ExitCode::FAILURE;
            }
        };
        println!(
            "perfbench workload={} seed={} seconds={} trace={} jobs={jobs} (host cores {cores})",
            kind.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        for line in &out.lines {
            println!("{line}");
        }
        total.attempted += out.attempted;
        total.failed += out.failed;
        if args.kinds.len() == 1 {
            total.metrics = out.metrics;
        } else {
            let prefixed = out.metrics.into_iter();
            total.metrics.extend(
                prefixed.map(|(name, v, unit)| (format!("{}.{name}", kind.name()), v, unit)),
            );
        }
    }
    println!("{}", total.json());
    ExitCode::SUCCESS
}
