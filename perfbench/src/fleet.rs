//! `fleet-serve`: eight i20 chips serving resnet50 + bert through
//! `dtu_fleet::run_fleet_monitored`, with a rolling deploy and the
//! fleet monitor attached.
//!
//! The offered load is fixed here rather than taken from the CLI
//! default (which sheds about three quarters of it), and sized so the
//! fleet sheds under [`SHED_CEILING`] of offered: the workload measures
//! the serve event loop, routing and epoch merges, and the per-chip-epoch
//! session lookups and timing walks, not admission control. Set-up runs
//! the same inputs once unmonitored, so every session the iterations
//! look up is already in the memory tier and the compiler does no work.

use crate::hooks::{Site, TracedSource, TracedWalk};
use crate::layers::{self, Layers};
use crate::stats::median;
use crate::trace::{self_times, Tracer};
use crate::workload::{Bench, Iter, Runs};
use dtu_compiler::Fnv1a;
use dtu_fleet::{
    run_fleet, run_fleet_monitored, FleetConfig, FleetError, FleetReport, FleetTenant,
    FleetTopology, RollPlan,
};
use dtu_harness::{SessionCache, SweepModel};
use dtu_models::Model;
use dtu_serve::{
    run_serving, ArrivalProcess, BatchPolicy, CompiledModel, ScalePolicy, ServeConfig,
    ServiceModel, SlaPolicy, TenantSpec,
};
use dtu_sim::{Chip, ChipConfig};
use std::time::Instant;

/// Chips in the fleet (one card).
const CHIPS: usize = 8;
/// The tenants, each offered half of [`QPS`].
const TENANTS: [Model; 2] = [Model::Resnet50, Model::BertLarge];
/// Fleet-wide offered load, requests per simulated second.
const QPS: f64 = 2000.0;
/// Arrival horizon, simulated ms.
const DURATION_MS: f64 = 20_000.0;
/// Routing-epoch length, simulated ms.
const EPOCH_MS: f64 = 1_000.0;
/// The workload is invalid if it sheds this share of offered or more.
const SHED_CEILING: f64 = 0.10;
/// Timed repetitions of the single-chip serve probe.
const PROBE_REPS: usize = 5;

fn tenants<'m>(build: impl Fn(Model) -> SweepModel<'m>) -> Vec<FleetTenant<'m>> {
    TENANTS
        .into_iter()
        .map(|m| FleetTenant::new(build(m), QPS / TENANTS.len() as f64))
        .collect()
}

fn shed_share(r: &FleetReport) -> f64 {
    r.shed as f64 / r.offered.max(1) as f64
}

/// A set-up fleet workload.
pub struct Fleet {
    jobs: usize,
    topology: FleetTopology,
    tenants: Vec<FleetTenant<'static>>,
    cfg: FleetConfig,
    /// Memory-only session cache, pre-warmed by set-up.
    cache: SessionCache,
    /// The unmonitored set-up run: the report every iteration repeats.
    reference: FleetReport,
    reference_json: String,
}

impl Fleet {
    /// Builds the topology and tenants and runs the inputs once
    /// unmonitored, warming the session cache.
    ///
    /// # Errors
    ///
    /// A message when the run fails, its books do not balance, or it
    /// sheds past [`SHED_CEILING`].
    pub fn setup(seed: u64, jobs: usize) -> Result<Fleet, String> {
        let topology = FleetTopology::homogeneous(1, CHIPS, &ChipConfig::dtu20())
            .map_err(|e| e.to_string())?;
        let cfg = FleetConfig {
            duration_ms: DURATION_MS,
            epoch_ms: EPOCH_MS,
            seed,
            cells_per_replica: 2,
            roll: Some(RollPlan::new(DURATION_MS * 0.2, CHIPS / 4)),
            kill: None,
        };
        let tenants = tenants(|m| SweepModel::new(m.name(), move |b| m.build(b)));
        let cache = SessionCache::memory_only();
        let reference = run_fleet(&topology, &tenants, &cfg, &cache, jobs)
            .map_err(|e| format!("reference fleet run failed: {e}"))?;
        if !reference.accounting_balances() {
            return Err("reference fleet run does not balance its books".into());
        }
        if shed_share(&reference) >= SHED_CEILING {
            return Err(format!(
                "fleet-serve sheds {:.1}% of offered, past its {:.0}% ceiling",
                100.0 * shed_share(&reference),
                100.0 * SHED_CEILING
            ));
        }
        Ok(Fleet {
            jobs,
            topology,
            tenants,
            cfg,
            cache,
            reference_json: reference.to_json(),
            reference,
        })
    }

    /// An iteration passes when its report is byte-identical to the
    /// unmonitored reference, its books balance, and it sheds under the
    /// ceiling.
    fn checked(&self, wall_ms: f64, result: Result<FleetReport, FleetError>) -> Iter {
        let mut iter = Iter {
            wall_ms,
            ops: 1,
            failed: 1,
            ..Iter::default()
        };
        if let Ok(r) = result {
            let ok = r.to_json() == self.reference_json
                && r.accounting_balances()
                && r.offered == r.completed + r.shed + r.fault_dropped
                && shed_share(&r) < SHED_CEILING;
            iter.failed = u64::from(!ok);
            iter.units = if ok { r.completed as f64 } else { 0.0 };
            iter.cache = r.cache;
        }
        iter
    }

    /// One chip's share of one epoch through `dtu_serve::run_serving`,
    /// with the chip's sessions looked up in the warmed cache and walked
    /// through span-recording hooks. Returns the offered request count.
    fn serve_epoch(&self, site: Site<'_>, chip: &Chip) -> Result<u64, String> {
        let source = TracedSource {
            cache: &self.cache,
            site,
        };
        let walk = TracedWalk(site);
        let mut models: Vec<CompiledModel<'_>> = TENANTS
            .into_iter()
            .map(|m| {
                CompiledModel::new(chip, m.name(), move |b| {
                    site.span("models.build", |_| m.build(b))
                })
                .with_source(&source)
                .with_timing(&walk)
            })
            .collect();
        let tenants = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| TenantSpec {
                name: t.model.name().to_string(),
                model: i,
                arrival: ArrivalProcess::Poisson {
                    qps: t.qps / CHIPS as f64,
                },
                batch: BatchPolicy::dynamic(t.max_batch, t.batch_timeout_ms),
                sla: SlaPolicy::new(t.deadline_ms, t.queue_depth),
                scale: ScalePolicy::none(),
                cluster: None,
                initial_groups: t.initial_groups,
            })
            .collect();
        let cfg = ServeConfig {
            duration_ms: EPOCH_MS,
            seed: self.cfg.seed,
            tenants,
            record_requests: true,
            ..ServeConfig::default()
        };
        let mut refs: Vec<&mut dyn ServiceModel> = models
            .iter_mut()
            .map(|m| m as &mut dyn ServiceModel)
            .collect();
        let out = run_serving(&cfg, chip.config(), &mut refs).map_err(|e| e.to_string())?;
        Ok(out.report.offered)
    }
}

impl Bench for Fleet {
    fn run(&mut self) -> Iter {
        let started = Instant::now();
        let result = run_fleet_monitored(
            &self.topology,
            &self.tenants,
            &self.cfg,
            &self.cache,
            self.jobs,
        );
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        self.checked(wall_ms, result.map(|(r, _monitor)| r))
    }

    fn run_plain(&mut self) -> Option<Iter> {
        let started = Instant::now();
        let result = run_fleet(
            &self.topology,
            &self.tenants,
            &self.cfg,
            &self.cache,
            self.jobs,
        );
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        Some(self.checked(wall_ms, result))
    }

    fn run_traced(&mut self, t: &Tracer, iter: u32) -> Iter {
        let started = Instant::now();
        let root = t.open("iteration", None, iter);
        let run = t.open("fleet.run", Some(root.id()), iter);
        let site = Site {
            tracer: t,
            parent: Some(run.id()),
            iter,
        };
        let traced = tenants(|m| {
            SweepModel::new(m.name(), move |b| site.span("models.build", |_| m.build(b)))
        });
        let result =
            run_fleet_monitored(&self.topology, &traced, &self.cfg, &self.cache, self.jobs);
        t.close(run, 0);
        t.close(root, 0);
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        self.checked(wall_ms, result.map(|(r, _monitor)| r))
    }

    fn per_layer(&mut self, t: &Tracer, runs: &Runs, out: &mut Layers) -> (u64, u64) {
        layers::from_spans(&t.spans(), out);
        runs.cache_layers(out);

        // Serve probe: one chip-epoch of the fleet's per-chip load, after
        // an untimed pass that looks up every session it needs.
        let chip = Chip::new(ChipConfig::dtu20());
        let untimed = Tracer::new();
        let warm = Site {
            tracer: &untimed,
            parent: None,
            iter: 0,
        };
        let (mut attempted, mut failed) = (1, u64::from(self.serve_epoch(warm, &chip).is_err()));
        let mut us_per_request = Vec::new();
        for _ in 0..PROBE_REPS {
            attempted += 1;
            let probe = t.open("probe.serve_epoch", None, 0);
            let run = t.open("serve.run", Some(probe.id()), 0);
            let site = Site {
                tracer: t,
                parent: Some(run.id()),
                iter: 0,
            };
            let offered = self.serve_epoch(site, &chip);
            let run_id = run.id();
            t.close(run, 0);
            t.close(probe, 0);
            match offered {
                Ok(offered) if offered > 0 => {
                    let own = self_times(&t.spans())[&run_id];
                    us_per_request.push(own as f64 / 1e3 / offered as f64);
                }
                _ => failed += 1,
            }
        }
        out.set("serve.us_per_request", median(&us_per_request));

        // Per-call costs from the probe's spans.
        let spans = t.spans();
        let per_call = |name: &str| {
            let calls: Vec<_> = spans
                .iter()
                .filter(|s| s.iter == 0 && s.name == name)
                .collect();
            let ns: u64 = calls.iter().map(|s| s.duration_ns()).sum();
            let amount: u64 = calls.iter().map(|s| s.amount).sum();
            let n = calls.len().max(1) as f64;
            (ns as f64 / n, amount as f64 / n, ns as f64, amount as f64)
        };
        let (hit_ns, _, _, _) = per_call("cache.lookup");
        let (walk_ns, commands, walk_total, commands_total) = per_call("sim.walk");
        out.set("cache.memory_hit_us", hit_ns / 1e3);
        if commands_total > 0.0 {
            out.set("sim.walk_ns_per_command", walk_total / commands_total);
        }

        // Inside run_fleet the counts are exact (every session lookup of
        // a chip-epoch walks its program once); times are estimates
        // scaled from the probe's per-call costs.
        let lookups = out.get("cache.memory_hits") + out.get("cache.misses");
        out.set("fleet.session_lookups", lookups);
        out.set("fleet.routed_cells", self.reference.routed_cells as f64);
        out.set("sim.walk_calls", lookups);
        out.set("sim.walk_ms", lookups * walk_ns / 1e6);
        out.set("sim.commands_walked", lookups * commands);
        let wall_ns = Runs::p50(&runs.untraced) * 1e6;
        out.set(
            "fleet.lookup_walk_share",
            lookups * (hit_ns + walk_ns) / (self.jobs as f64 * wall_ns),
        );
        out.set(
            "monitor.fleet_overhead_ratio",
            Runs::p50(&runs.untraced) / Runs::p50(&runs.plain),
        );
        (attempted, failed)
    }

    fn work_name(&self) -> &'static str {
        "sim_requests_per_s"
    }

    fn describe(&self) -> String {
        let r = &self.reference;
        let mut h = Fnv1a::new();
        h.write_str(&self.reference_json);
        format!(
            "fleet: {CHIPS} chips, resnet50 + bert at {QPS} qps over {DURATION_MS} ms, rolling \
             deploy, seed {}; offered {}, completed {}, shed {} ({:.2}% < {:.0}% ceiling), \
             routed cells {}; reference digest {:016x}",
            self.cfg.seed,
            r.offered,
            r.completed,
            r.shed,
            100.0 * shed_share(r),
            100.0 * SHED_CEILING,
            r.routed_cells,
            h.finish()
        )
    }
}
