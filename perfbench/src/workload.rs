//! The four workloads and what every one of them provides.

use crate::layers::Layers;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{fleet, gen, sweep};
use dtu_harness::CacheStats;
use std::path::PathBuf;

/// The benchmark's workloads, by the names `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The 40 Table III points against an empty disk-cache directory.
    SweepCold,
    /// The same 40 points against the disk tier set-up filled.
    SweepRerun,
    /// Eight chips serving resnet50 + bert with a rolling deploy.
    FleetServe,
    /// gpt1b continuous batching under KV-cache pressure.
    GenServe,
}

impl Kind {
    /// Every workload, in the order the glossary lists them.
    pub const ALL: [Kind; 4] = [
        Kind::SweepCold,
        Kind::SweepRerun,
        Kind::FleetServe,
        Kind::GenServe,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SweepCold => "sweep-cold",
            Kind::SweepRerun => "sweep-rerun",
            Kind::FleetServe => "fleet-serve",
            Kind::GenServe => "gen-serve",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Sets the workload up in `dir` (a fresh directory it owns).
    ///
    /// # Errors
    ///
    /// A message when set-up fails or the workload does not behave as
    /// defined (e.g. the fleet sheds past its ceiling).
    pub fn setup(self, seed: u64, jobs: usize, dir: PathBuf) -> Result<Box<dyn Bench>, String> {
        Ok(match self {
            Kind::SweepCold => Box::new(sweep::Sweep::setup(false, jobs, dir)?),
            Kind::SweepRerun => Box::new(sweep::Sweep::setup(true, jobs, dir)?),
            Kind::FleetServe => Box::new(fleet::Fleet::setup(seed, jobs)?),
            Kind::GenServe => Box::new(gen::Gen::setup(seed, jobs)?),
        })
    }
}

/// One closed-loop iteration, already checked.
#[derive(Debug, Clone, Copy, Default)]
pub struct Iter {
    /// Host wall time of the call into the entry point, ms.
    pub wall_ms: f64,
    /// Operations attempted: sweep points, or serving runs.
    pub ops: u64,
    /// Operations that errored or failed an output check.
    pub failed: u64,
    /// Work completed: points, simulated requests or simulated tokens.
    pub units: f64,
    /// Session-cache traffic of the iteration.
    pub cache: CacheStats,
}

/// A set-up workload.
pub trait Bench {
    /// One iteration through the workload's public entry point.
    fn run(&mut self) -> Iter;

    /// The same inputs through the unmonitored entry point, for the
    /// monitor overhead; `None` for workloads without a monitor.
    fn run_plain(&mut self) -> Option<Iter> {
        None
    }

    /// One iteration with spans recorded around the layer calls.
    fn run_traced(&mut self, t: &Tracer, iter: u32) -> Iter;

    /// Runs the workload's probes (as iteration 0 spans) and fills its
    /// per-layer metrics. Returns the probe operations attempted and
    /// failed.
    fn per_layer(&mut self, t: &Tracer, runs: &Runs, out: &mut Layers) -> (u64, u64);

    /// What the workload's `work_per_s` counts, e.g. `points_per_s`.
    fn work_name(&self) -> &'static str;

    /// Lines describing the workload's self-validation figures.
    fn describe(&self) -> String;
}

/// The iterations of a traced run, by phase.
#[derive(Debug, Default)]
pub struct Runs {
    /// Untraced iterations of the workload itself.
    pub untraced: Vec<Iter>,
    /// Unmonitored iterations on the same inputs (serving workloads).
    pub plain: Vec<Iter>,
    /// Traced iterations.
    pub traced: Vec<Iter>,
}

impl Runs {
    /// Median wall of `iters`, ms.
    pub fn p50(iters: &[Iter]) -> f64 {
        median(&iters.iter().map(|i| i.wall_ms).collect::<Vec<_>>())
    }

    /// Sets the `cache.*` counts as per-iteration medians of the
    /// untraced iterations.
    pub fn cache_layers(&self, out: &mut Layers) {
        let m = |f: fn(&CacheStats) -> f64| {
            median(
                &self
                    .untraced
                    .iter()
                    .map(|i| f(&i.cache))
                    .collect::<Vec<_>>(),
            )
        };
        out.set("cache.memory_hits", m(|c| c.memory_hits as f64));
        out.set("cache.disk_hits", m(|c| c.disk_hits as f64));
        out.set("cache.misses", m(|c| c.misses as f64));
        out.set("cache.hit_ratio", m(|c| c.hit_rate()));
    }
}
