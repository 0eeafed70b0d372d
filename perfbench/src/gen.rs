//! `gen-serve`: gpt1b continuous batching through
//! `dtu_harness::run_generative_serve_live`, with the generative monitor
//! attached.
//!
//! Long outputs and a KV budget of 0.2% of L3 force preemptions, so the
//! workload exercises the token engine, the paged KV allocator,
//! preemption and the monitor together; it is the only workload that
//! runs them. An iteration is [`RUNS`] serving runs that differ only in
//! their arrival seeds. Set-up runs the same inputs once unmonitored,
//! which compiles every prefill/decode session into the memory tier.

use crate::layers::{self, Layers};
use crate::trace::Tracer;
use crate::workload::{Bench, Iter, Runs};
use dtu::Accelerator;
use dtu_compiler::Fnv1a;
use dtu_harness::{
    gen_session_grid, run_generative_serve, run_generative_serve_live, HarnessError, SessionCache,
};
use dtu_models::GenerativeConfig;
use dtu_serve::{
    ArrivalProcess, GenLiveConfig, GenMonitor, GenOutcome, GenReport, GenerativeScenario,
    KvCacheConfig,
};
use dtu_telemetry::SloSpec;
use std::time::Instant;

/// Mean arrival rate, requests per simulated second.
const QPS: f64 = 5.0;
/// Arrival horizon, simulated ms (admitted requests drain past it).
const DURATION_MS: f64 = 60_000.0;
/// Prompt tokens per request.
const PROMPT: usize = 64;
/// Output tokens per request are drawn from `MIN_NEW..=MAX_NEW`.
const MIN_NEW: usize = 4;
const MAX_NEW: usize = 128;
/// Share of L3 granted to the paged KV-cache pool.
const KV_BUDGET: f64 = 0.002;
/// Time-to-first-token and time-per-output-token deadlines, ms.
const TTFT_MS: f64 = 100.0;
const TPOT_MS: f64 = 20.0;

fn monitor() -> GenMonitor {
    GenMonitor::new(GenLiveConfig {
        ttft_slo: Some(SloSpec::new(format!("ttft_p99<{TTFT_MS}ms"), 0.99, TTFT_MS)),
        tpot_slo: Some(SloSpec::new(format!("tpot_p99<{TPOT_MS}ms"), 0.99, TPOT_MS)),
        tenant: "gpt1b".into(),
        ..GenLiveConfig::default()
    })
}

/// Serving runs per iteration, each with its own arrival seed drawn
/// from `--seed`. One run's host cost moves by up to 20% from seed to
/// seed, with the arrival pattern; a longer horizon would average that
/// out but overloads the chip (shed climbs from about a fifth to near
/// half at 240 s), so an iteration runs several horizons instead.
const RUNS: u64 = 8;

/// The arrival seed of run `i` of an iteration.
fn run_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(RUNS).wrapping_add(i)
}

/// A set-up generative workload.
pub struct Gen {
    jobs: usize,
    accel: Accelerator,
    config: GenerativeConfig,
    /// One scenario per run, differing only in their arrival seeds.
    scenarios: Vec<GenerativeScenario>,
    /// Memory-only session cache, pre-warmed by set-up.
    cache: SessionCache,
    /// The unmonitored set-up runs: the reports every iteration repeats.
    references: Vec<GenReport>,
    reference_json: Vec<String>,
}

impl Gen {
    /// Builds the scenarios from `seed` and runs each once unmonitored,
    /// compiling every session into the cache.
    ///
    /// # Errors
    ///
    /// A message when a run fails, its books do not balance, or it
    /// preempts nothing (the workload would no longer exercise KV
    /// pressure).
    pub fn setup(seed: u64, jobs: usize) -> Result<Gen, String> {
        let accel = Accelerator::cloudblazer_i20();
        let config = GenerativeConfig::gpt_1b();
        let scenarios: Vec<GenerativeScenario> = (0..RUNS)
            .map(|i| GenerativeScenario {
                duration_ms: DURATION_MS,
                seed: run_seed(seed, i),
                arrival: ArrivalProcess::Poisson { qps: QPS },
                prompt_tokens: PROMPT,
                min_new_tokens: MIN_NEW,
                max_new_tokens: MAX_NEW,
                max_concurrency: 8,
                queue_depth: 64,
                ttft_deadline_ms: TTFT_MS,
                tpot_deadline_ms: TPOT_MS,
                kv: KvCacheConfig::for_chip_with_budget(
                    accel.config(),
                    config.kv_bytes_per_token(),
                    KV_BUDGET,
                ),
            })
            .collect();
        let cache = SessionCache::memory_only();
        let mut references = Vec::new();
        for scenario in &scenarios {
            let out = run_generative_serve(&accel, &config, scenario, &cache, jobs, None)
                .map_err(|e| format!("reference generative run failed: {e}"))?;
            let reference = out.report;
            if !reference.balanced() {
                return Err("reference generative run does not balance its books".into());
            }
            if reference.preemptions == 0 {
                return Err(format!(
                    "gen-serve run with seed {} preempted nothing; it no longer exercises KV \
                     pressure",
                    scenario.seed
                ));
            }
            references.push(reference);
        }
        Ok(Gen {
            jobs,
            accel,
            config,
            scenarios,
            cache,
            reference_json: references.iter().map(GenReport::to_json).collect(),
            references,
        })
    }

    /// Runs every scenario through `serve` and checks each run: its
    /// report must be byte-identical to the unmonitored reference, its
    /// books must balance, and it must preempt.
    fn iteration(
        &self,
        mut serve: impl FnMut(&GenerativeScenario) -> Result<GenOutcome, HarnessError>,
    ) -> Iter {
        let before = self.cache.stats();
        let mut iter = Iter {
            ops: RUNS,
            ..Iter::default()
        };
        for (scenario, reference) in self.scenarios.iter().zip(&self.reference_json) {
            let started = Instant::now();
            let result = serve(scenario);
            iter.wall_ms += started.elapsed().as_secs_f64() * 1e3;
            match result {
                Ok(out) => {
                    let r = &out.report;
                    if r.to_json() == *reference && r.balanced() && r.preemptions > 0 {
                        iter.units += (r.prefill_tokens + r.decode_tokens) as f64;
                    } else {
                        iter.failed += 1;
                    }
                }
                Err(_) => iter.failed += 1,
            }
        }
        iter.cache = self.cache.stats().delta_since(before);
        iter
    }

    /// Sum of `f` over the reference reports: a per-iteration count.
    fn total(&self, f: impl Fn(&GenReport) -> u64) -> u64 {
        self.references.iter().map(f).sum()
    }
}

impl Bench for Gen {
    fn run(&mut self) -> Iter {
        self.iteration(|scenario| {
            run_generative_serve_live(
                &self.accel,
                &self.config,
                scenario,
                &self.cache,
                None,
                self.jobs,
                &mut monitor(),
            )
        })
    }

    fn run_plain(&mut self) -> Option<Iter> {
        Some(self.iteration(|scenario| {
            run_generative_serve(
                &self.accel,
                &self.config,
                scenario,
                &self.cache,
                self.jobs,
                None,
            )
        }))
    }

    /// The monitored entry point itself, one `gen.run` span per run:
    /// `run_generative_serve_live` exposes no layer seams, so its
    /// per-layer figures come from its reports, the cache statistics
    /// and the untraced timings.
    fn run_traced(&mut self, t: &Tracer, iter: u32) -> Iter {
        t.span("iteration", None, iter, |root| {
            self.iteration(|scenario| {
                t.span("gen.run", Some(root), iter, |_| {
                    run_generative_serve_live(
                        &self.accel,
                        &self.config,
                        scenario,
                        &self.cache,
                        None,
                        self.jobs,
                        &mut monitor(),
                    )
                })
            })
        })
    }

    fn per_layer(&mut self, t: &Tracer, runs: &Runs, out: &mut Layers) -> (u64, u64) {
        layers::from_spans(&t.spans(), out);
        runs.cache_layers(out);
        let steps = self.total(|r| r.prefill_steps + r.decode_steps);
        out.set("gen.prefill_steps", self.total(|r| r.prefill_steps) as f64);
        out.set("gen.decode_steps", self.total(|r| r.decode_steps) as f64);
        out.set("gen.preemptions", self.total(|r| r.preemptions) as f64);
        out.set(
            "gen.us_per_step",
            Runs::p50(&runs.untraced) * 1e3 / steps as f64,
        );
        out.set(
            "monitor.gen_overhead_ratio",
            Runs::p50(&runs.untraced) / Runs::p50(&runs.plain),
        );
        (0, 0)
    }

    fn work_name(&self) -> &'static str {
        "sim_tokens_per_s"
    }

    fn describe(&self) -> String {
        let mut h = Fnv1a::new();
        for json in &self.reference_json {
            h.write_str(json);
        }
        let fewest = self.references.iter().map(|r| r.preemptions).min();
        format!(
            "gen: {RUNS} runs per iteration, each gpt1b at {QPS} qps over {DURATION_MS} ms, \
             {PROMPT}-token prompts, {MIN_NEW}..{MAX_NEW} new tokens, KV budget {KV_BUDGET}; \
             seed {} gives run seeds {}..={}; per iteration: offered {}, completed {}, shed {}, \
             preemptions {} (fewest in one run {}, > 0 required), {} prefill + {} decode steps; \
             session grid {} entries; reference digest {:016x}",
            self.scenarios[0].seed / RUNS,
            self.scenarios[0].seed,
            self.scenarios[self.scenarios.len() - 1].seed,
            self.total(|r| r.offered),
            self.total(|r| r.completed),
            self.total(|r| r.shed),
            self.total(|r| r.preemptions),
            fewest.unwrap_or(0),
            self.total(|r| r.prefill_steps),
            self.total(|r| r.decode_steps),
            gen_session_grid(&self.scenarios[0]).len(),
            h.finish()
        )
    }
}
