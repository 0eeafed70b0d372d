//! `sweep-cold` and `sweep-rerun`: the 40 Table III points (10 models ×
//! batch 1/2/4/8) through `dtu_harness::run_sweep`.
//!
//! `sweep-cold` is a user's first `topsexec sweep`: every iteration gets
//! a fresh, empty disk-cache directory, so it compiles and encodes all
//! 40 artifacts. `sweep-rerun` is the second invocation: every iteration
//! gets an empty memory tier over the directory set-up filled, so it
//! decodes all 40 artifacts and compiles nothing.

use crate::hooks::{Phases, Site, TracedWalk};
use crate::layers::{self, total_ns, ByIter, Layers};
use crate::trace::Tracer;
use crate::workload::{Bench, Iter, Runs};
use dtu::{Accelerator, SessionOptions};
use dtu_compiler::{compile_recorded, Fnv1a};
use dtu_harness::{
    run_sweep, CacheOutcome, ExperimentPlan, HarnessError, SessionCache, SweepModel, SweepPoint,
    GOLDEN_RTOL,
};
use dtu_models::Model;
use dtu_sim::{program_from_json, program_to_json};
use std::path::PathBuf;
use std::time::Instant;

/// Batch sizes of the grid.
const BATCHES: [usize; 4] = [1, 2, 4, 8];
/// Points per iteration.
const POINTS: usize = Model::ALL.len() * BATCHES.len();
/// The committed Fig. 12-15 figures; batch-1 sweep latencies must match
/// Fig. 13's `i20_ms` column.
const GOLDEN: &str = include_str!("../../tests/golden/figures.json");

/// Fig. 13's i20 latencies in Table III order.
fn golden_i20_ms() -> Result<Vec<f64>, String> {
    let fig13 = GOLDEN
        .split("\"fig13\"")
        .nth(1)
        .and_then(|s| s.split("\"fig14\"").next())
        .ok_or("golden figures have no fig13")?;
    let mut out = Vec::new();
    for (row, model) in fig13.split("\"model\":").skip(1).zip(Model::ALL) {
        let name = row.split('"').nth(1).unwrap_or_default();
        if name != model.name() {
            return Err(format!("fig13 row {name:?} where {model} was expected"));
        }
        let value = row
            .split("\"i20_ms\":")
            .nth(1)
            .and_then(|v| v.split([',', '}']).next())
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("fig13 row {name:?} has no i20_ms"))?;
        out.push(value);
    }
    if out.len() != Model::ALL.len() {
        return Err(format!("fig13 has {} rows, expected 10", out.len()));
    }
    Ok(out)
}

/// Whether two points carry the same simulated output (the cache label
/// is provenance, not output).
fn same_output(a: &SweepPoint, b: &SweepPoint) -> bool {
    a.model == b.model
        && a.batch == b.batch
        && a.latency_ms == b.latency_ms
        && a.throughput_sps == b.throughput_sps
        && a.energy_j == b.energy_j
}

fn grid() -> impl Iterator<Item = (Model, usize)> {
    Model::ALL
        .into_iter()
        .flat_map(|m| BATCHES.into_iter().map(move |b| (m, b)))
}

fn point_key(model: Model, batch: usize) -> u64 {
    let mut key = Fnv1a::new();
    key.write_str("perfbench-sweep/");
    key.write_str(model.name());
    key.write_u64(batch as u64);
    key.finish()
}

/// A set-up sweep workload.
pub struct Sweep {
    rerun: bool,
    jobs: usize,
    accel: Accelerator,
    models: Vec<SweepModel<'static>>,
    golden: Vec<f64>,
    /// The set-up pass's points: the outputs every iteration must repeat.
    reference: Vec<SweepPoint>,
    digest: u64,
    /// Owned scratch directory (removed on drop).
    dir: PathBuf,
    fresh: u64,
    /// The last untraced iteration's cache: its memory tier holds the
    /// 40 programs the hit probe recalls.
    last_cache: Option<SessionCache>,
}

impl Drop for Sweep {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Sweep {
    /// Builds the accelerator and the grid, then runs one cold sweep:
    /// for `sweep-rerun` it fills the disk tier the iterations read;
    /// for both it warms the process and records the reference outputs.
    ///
    /// # Errors
    ///
    /// A message when the golden figures cannot be read or the
    /// reference sweep fails.
    pub fn setup(rerun: bool, jobs: usize, dir: PathBuf) -> Result<Sweep, String> {
        let golden = golden_i20_ms()?;
        let models = Model::ALL
            .into_iter()
            .map(|m| SweepModel::new(m.name(), move |b| m.build(b)))
            .collect();
        let mut sweep = Sweep {
            rerun,
            jobs,
            accel: Accelerator::cloudblazer_i20(),
            models,
            golden,
            reference: Vec::new(),
            digest: 0,
            dir,
            fresh: 0,
            last_cache: None,
        };
        let ref_dir = if rerun {
            sweep.artifacts()
        } else {
            sweep.fresh_dir()
        };
        let cache = SessionCache::with_disk(&ref_dir);
        let report = run_sweep(&sweep.accel, &sweep.models, &BATCHES, &cache, jobs)
            .map_err(|e| format!("reference sweep failed: {e}"))?;
        if report.points.len() != POINTS || report.cache.misses != POINTS as u64 {
            return Err(format!(
                "reference sweep should compile {POINTS} points, compiled {}",
                report.cache.misses
            ));
        }
        let mut h = Fnv1a::new();
        h.write_str(&report.points_json());
        sweep.digest = h.finish();
        sweep.reference = report.points;
        if !rerun {
            let _ = std::fs::remove_dir_all(&ref_dir);
        }
        Ok(sweep)
    }

    fn artifacts(&self) -> PathBuf {
        self.dir.join("artifacts")
    }

    fn fresh_dir(&mut self) -> PathBuf {
        self.fresh += 1;
        self.dir.join(format!("cold-{}", self.fresh))
    }

    /// Counts the points that fail a check: a point must repeat the
    /// reference output, come from the expected cache tier, and at batch
    /// 1 match the golden Fig. 13 latency.
    fn failed_points(&self, points: &[SweepPoint]) -> u64 {
        if points.len() != POINTS {
            return POINTS as u64;
        }
        let expected_tier = if self.rerun { "disk" } else { "miss" };
        let bad = points
            .iter()
            .zip(&self.reference)
            .enumerate()
            .filter(|(i, (p, r))| {
                let golden_ok = p.batch != 1 || {
                    let g = self.golden[i / BATCHES.len()];
                    (p.latency_ms - g).abs() <= GOLDEN_RTOL * g.abs().max(p.latency_ms.abs())
                };
                !same_output(p, r) || p.cache != expected_tier || !golden_ok
            });
        bad.count() as u64
    }

    fn checked(&self, wall_ms: f64, points: Option<&[SweepPoint]>) -> Iter {
        let failed = points.map_or(POINTS as u64, |p| self.failed_points(p));
        Iter {
            wall_ms,
            ops: POINTS as u64,
            failed,
            units: (POINTS as u64 - failed) as f64,
            cache: Default::default(),
        }
    }

    /// One traced pass over the grid through `cache`: the work of
    /// `run_sweep`'s point jobs on the same worker pool, with each
    /// graph build, each `SessionCache::compile_session` call (the one
    /// `run_sweep` makes) and each timing walk in its own span.
    fn traced_pass(
        &self,
        t: &Tracer,
        iter: u32,
        cache: &SessionCache,
    ) -> (f64, Option<Vec<SweepPoint>>) {
        let started = Instant::now();
        let root = t.open("iteration", None, iter);
        let site = Site {
            tracer: t,
            parent: Some(root.id()),
            iter,
        };
        let accel = &self.accel;
        let mut plan: ExperimentPlan<'_, SweepPoint> = ExperimentPlan::new();
        for (model, batch) in grid() {
            plan.add_point(
                point_key(model, batch),
                format!("{model} b{batch}"),
                &[],
                move |_| {
                    site.span("sweep.point", |id| {
                        traced_point(site.under(id), accel, cache, model, batch)
                    })
                    .map_err(|message| HarnessError::Job {
                        label: format!("{model} b{batch}"),
                        message,
                    })
                },
            );
        }
        let points: Result<Vec<SweepPoint>, HarnessError> =
            plan.run(self.jobs).into_iter().collect();
        t.close(root, 0);
        (started.elapsed().as_secs_f64() * 1e3, points.ok())
    }
}

/// The span name of a session-cache lookup that ended in `outcome`.
pub fn lookup_span(outcome: CacheOutcome) -> &'static str {
    match outcome {
        CacheOutcome::MemoryHit => "cache.lookup.memory",
        CacheOutcome::DiskHit => "cache.lookup.disk",
        CacheOutcome::Miss => "cache.lookup.miss",
    }
}

/// One point of [`Sweep::traced_pass`]. The lookup span carries the
/// program's command count.
fn traced_point(
    site: Site<'_>,
    accel: &Accelerator,
    cache: &SessionCache,
    model: Model,
    batch: usize,
) -> Result<SweepPoint, String> {
    let t = site.tracer;
    let graph = site.span("models.build", |_| model.build(batch));
    let open = t.open("cache.lookup", site.parent, site.iter);
    let found = cache.compile_session(accel, &graph, &SessionOptions::batched(batch));
    let (session, outcome) = match found {
        Ok(found) => found,
        Err(e) => {
            t.close(open, 0);
            return Err(e.to_string());
        }
    };
    let commands = session.program().total_commands() as u64;
    t.close(open.renamed(lookup_span(outcome)), commands);
    let report = session
        .run_with(&TracedWalk(site))
        .map_err(|e| e.to_string())?;
    Ok(SweepPoint {
        model: model.name().to_string(),
        batch: session.batch(),
        latency_ms: report.latency_ms(),
        throughput_sps: report.throughput(),
        energy_j: report.energy_joules(),
        cache: outcome.label(),
    })
}

impl Bench for Sweep {
    fn run(&mut self) -> Iter {
        let dir = if self.rerun {
            self.artifacts()
        } else {
            self.fresh_dir()
        };
        let cache = SessionCache::with_disk(&dir);
        let started = Instant::now();
        let result = run_sweep(&self.accel, &self.models, &BATCHES, &cache, self.jobs);
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let mut iter = self.checked(wall_ms, result.as_ref().ok().map(|r| &r.points[..]));
        iter.cache = cache.stats();
        if !self.rerun {
            let _ = std::fs::remove_dir_all(&dir);
        }
        self.last_cache = Some(cache);
        iter
    }

    fn run_traced(&mut self, t: &Tracer, iter: u32) -> Iter {
        let dir = if self.rerun {
            self.artifacts()
        } else {
            self.fresh_dir()
        };
        let cache = SessionCache::with_disk(&dir);
        let (wall_ms, points) = self.traced_pass(t, iter, &cache);
        if !self.rerun {
            let _ = std::fs::remove_dir_all(&dir);
        }
        self.checked(wall_ms, points.as_deref())
    }

    fn per_layer(&mut self, t: &Tracer, runs: &Runs, out: &mut Layers) -> (u64, u64) {
        let spans = t.spans();
        layers::from_spans(&spans, out);
        runs.cache_layers(out);
        let jobs = self.jobs as f64;
        out.set(
            "plan.busy_ratio",
            ByIter::new(&spans).median_of(|v| {
                let wall = total_ns(v, "iteration") as f64;
                total_ns(v, "sweep.point") as f64 / (jobs * wall)
            }),
        );

        let (mut attempted, mut failed) = (0, 0);
        let probe = Site {
            tracer: t,
            parent: None,
            iter: 0,
        };
        // Codec probe: compile (with the compiler's phase spans),
        // encode and decode every point once on one thread. Its sums
        // are the compiler's and the codec's cost of one iteration's
        // 40 programs.
        let (mut compile_ns, mut encode_ns, mut decode_ns, mut bytes) = (0u64, 0u64, 0u64, 0u64);
        probe.span("probe.codec", |id| {
            let site = probe.under(id);
            for (model, batch) in grid() {
                attempted += 1;
                let graph = model.build(batch);
                let (placement, compiler, _) = SessionOptions::batched(batch).resolve(&self.accel);
                let open = t.open("probe.compile", site.parent, 0);
                let mut phases = Phases::default();
                let base_ns = t.now_ns();
                let program = compile_recorded(
                    &graph,
                    self.accel.config(),
                    &placement,
                    &compiler,
                    &mut phases,
                );
                phases.emit(site.under(open.id()), base_ns);
                compile_ns += t.close(open, 0);
                let Ok(program) = program else {
                    failed += 1;
                    continue;
                };
                let open = t.open("probe.encode", site.parent, 0);
                let json = program_to_json(&program);
                encode_ns += t.close(open, 0);
                let Ok(json) = json else {
                    failed += 1;
                    continue;
                };
                bytes += json.len() as u64;
                let open = t.open("probe.decode", site.parent, 0);
                let decoded = program_from_json(&json);
                decode_ns += t.close(open, 0);
                if decoded.as_ref() != Ok(&program) {
                    failed += 1;
                }
            }
        });
        let spans = t.spans();
        for (name, span) in [
            ("compiler.optimize_ms", "compiler.optimize"),
            ("compiler.infer_shapes_ms", "compiler.infer_shapes"),
            ("compiler.fuse_ms", "compiler.fuse"),
            ("compiler.lower_ms", "compiler.lower"),
            ("compiler.emit_ms", "compiler.emit"),
        ] {
            let probe_ns: u64 = spans
                .iter()
                .filter(|s| s.iter == 0 && s.name == span)
                .map(|s| s.duration_ns())
                .sum();
            out.set(name, probe_ns as f64 / 1e6);
        }
        out.set("program_io.encode_ms", encode_ns as f64 / 1e6);
        out.set("program_io.decode_ms", decode_ns as f64 / 1e6);
        out.set("program_io.artifact_bytes", bytes as f64);
        out.set(
            "program_io.decode_over_compile",
            decode_ns as f64 / compile_ns as f64,
        );

        // Memory-hit probe: recall each point's session from the memory
        // tier the last untraced iteration filled.
        if let Some(cache) = self.last_cache.as_ref() {
            let mut hit_ns = 0u64;
            probe.span("probe.memory_hits", |id| {
                for (model, batch) in grid() {
                    attempted += 1;
                    let graph = model.build(batch);
                    let open = t.open("cache.lookup", Some(id), 0);
                    let hit =
                        cache.compile_session(&self.accel, &graph, &SessionOptions::batched(batch));
                    hit_ns += t.close(open, 0);
                    if !matches!(hit, Ok((_, CacheOutcome::MemoryHit))) {
                        failed += 1;
                    }
                }
            });
            out.set("cache.memory_hit_us", hit_ns as f64 / 1e3 / POINTS as f64);
        }
        (attempted, failed)
    }

    fn work_name(&self) -> &'static str {
        "points_per_s"
    }

    fn describe(&self) -> String {
        format!(
            "grid: {} models x batches {:?} = {POINTS} points; reference digest {:016x}; \
             batch-1 latencies checked against fig13 i20_ms (rtol {GOLDEN_RTOL:e})",
            Model::ALL.len(),
            BATCHES,
            self.digest
        )
    }
}
