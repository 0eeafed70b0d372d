//! `topsexec`: the measurement CLI of the reproduced software stack,
//! playing the role `trtexec` plays in §VI-A of the paper.
//!
//! ```text
//! topsexec --model resnet50            # a Table III model by name
//! topsexec --import my_model.tops      # a textual-format model file
//! topsexec --model vgg16 --batch 16 --chip i10 --groups 3 --profile
//! topsexec --model bert --trace-out out.json --no-power-management
//! topsexec profile resnet50            # cross-layer trace + attribution
//! topsexec profile bert --trace-out bert.json --format prometheus
//! topsexec serve                       # multi-tenant serving scenario
//! topsexec serve --models resnet50,bert --qps 600 --bursty --trace-out t.jsonl
//! topsexec serve --generative          # continuous-batching LLM scenario
//! topsexec serve --generative --gen-model tiny --seed 7 --jobs 4
//! topsexec serve --llm --prompt 128 --max-new 64 --kv-budget 0.25
//! topsexec serve --generative --monitor --slo --flight-out blackbox.json
//! topsexec top --generative --gen-model tiny --duration 4000 --once
//! topsexec sweep                       # model x batch grid, parallel + cached
//! topsexec sweep --models resnet50,bert --batches 1,4,16 --jobs 4 --format json
//! topsexec sweep --check-golden tests/golden/figures.json   # CI figure gate
//! topsexec faults resnet50 --seed 7 --plan core-failure     # fault injection
//! topsexec faults --models resnet50,bert --plans none,ecc,thermal --severities 0.5,1
//! topsexec top --once                  # live serving dashboard (windowed QPS/p50/p99/burn)
//! topsexec top --models resnet50,bert --plan core-failure --severity 1
//! topsexec slo resnet50 --seed 7       # SLO compliance report (byte-deterministic JSON)
//! topsexec slo resnet50 --plan core-failure --flight-out blackbox.json
//! topsexec fleet resnet50 --chips 16 --seed 7   # cluster-scale serving simulation
//! topsexec fleet --chips 8 --kill-chip 3 --kill-at 5000 --format table
//! topsexec fleet top --chips 8 --once  # fleet dashboard (per-chip + per-tenant rows)
//! topsexec fleet resnet50 --slo        # fleet SLO compliance report with burn attribution
//! topsexec fleet --format prom         # Prometheus exposition with chip=/tenant= labels
//! ```

use dtu::serve::{
    faults::FaultPlan, run_serving, run_serving_live, run_serving_recorded, ArrivalProcess,
    BatchPolicy, CompiledModel, GenLiveConfig, GenMonitor, GenerativeScenario, KvCacheConfig,
    LiveConfig, LiveMonitor, ScalePolicy, ServeConfig, ServeError, ServiceModel, SlaPolicy,
    TenantSpec,
};
use dtu::telemetry::{
    AlertEvent, AlertKind, AttributionReport, FlightDump, FlightRecorder, Recorder, SloSpec,
    TraceBuffer,
};
use dtu::{
    Accelerator, ChipConfig, DataType, DtuError, Graph, Session, SessionOptions, WorkloadSize,
};
use dtu_fleet::{
    run_fleet, run_fleet_monitored, ChipKill, FleetConfig, FleetFrame, FleetMonitor, FleetTenant,
    FleetTopology, RollPlan,
};
use dtu_graph::parse_model;
use dtu_harness::{
    available_jobs, run_fault_sweep, run_slo_scenario, run_slo_sweep, run_sweep, slo_point_seed,
    SessionCache, SloScenario, SweepModel,
};
use dtu_models::{GenerativeConfig, Model};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: topsexec (--model <name> | --import <file.tops>) [options]\n\
     \x20      topsexec profile (<name> | --import <file.tops>) [profile options]\n\
     \x20      topsexec serve [serve options]\n\
     \x20      topsexec sweep [sweep options]\n\
     \x20      topsexec faults [<name>] [fault options]\n\
     \x20      topsexec top [top options]\n\
     \x20      topsexec slo [<name>] [slo options]\n\
     \x20      topsexec fleet [<name>] [fleet options]\n\
     \n\
     options:\n\
       --model <name>           one of: yolov3 centernet retinaface vgg16\n\
                                resnet50 inceptionv4 unet srresnet bert conformer\n\
       --import <file>          load a model in the textual .tops format\n\
       --batch <n>              batch size (default 1; >1 uses throughput mode)\n\
       --chip <i20|i10>         accelerator generation (default i20)\n\
       --groups <1|2|3>         restrict to N groups of cluster 0 (default: full chip)\n\
       --profile                print the profiler's hot-kernel report\n\
       --trace-out <file.json>  write a Chrome-trace timeline (--trace also accepted)\n\
       --no-power-management    pin the clock at f_max\n\
     \n\
     profile options (cross-layer telemetry trace + per-operator attribution):\n\
       --batch / --chip / --groups / --no-power-management as above\n\
       --trace-out <file.json>  Perfetto/Chrome trace path (default topsexec.trace.json)\n\
       --format <fmt>           attribution report format: table (default),\n\
                                prometheus, or json\n\
     \n\
     serve options (multi-tenant dynamic-batching scenario):\n\
       --models <a,b,...>       comma-separated model names, one tenant each\n\
                                (default resnet50,bert)\n\
       --qps <n>                mean arrival rate per tenant, queries/s (default 400)\n\
       --duration <ms>          arrival horizon (default 1000)\n\
       --max-batch <n>          dynamic-batching cap (default 8; 1 disables)\n\
       --batch-timeout <ms>     max co-batching wait (default 2)\n\
       --deadline <ms>          per-request SLA deadline (default 50)\n\
       --queue-depth <n>        admission queue cap, arrivals beyond shed (default 64)\n\
       --bursty                 Markov-modulated arrivals instead of Poisson\n\
       --no-autoscale           pin each tenant at one processing group\n\
       --seed <n>               run seed (default 0x5EED)\n\
       --chip <i20|i10>         accelerator generation (default i20)\n\
       --trace-out <file>       write the event trace: .json gets Chrome-trace\n\
                                spans, anything else JSON lines\n\
       --cache-dir <dir>        compiled-session artifact directory\n\
                                (default target/dtu-cache)\n\
       --no-disk-cache          keep the session cache in memory only\n\
     \n\
     serve --generative options (continuous-batching generative scenario;\n\
     --llm is a synonym; JSON report on stdout is byte-identical across\n\
     --jobs and cache temperature):\n\
       --gen-model <name>       decoder-only transformer config: gpt1b\n\
                                (16 layers, d_model 2048, ~1B params;\n\
                                default) or tiny (CI-sized)\n\
       --qps <n>                mean arrival rate, requests/s (default 200)\n\
       --duration <ms>          arrival horizon; admitted requests drain\n\
                                to completion past it (default 200)\n\
       --prompt <n>             prompt tokens per request (default 64)\n\
       --min-new <n>            minimum output tokens (default 4)\n\
       --max-new <n>            maximum output tokens (default 32); each\n\
                                request's target is drawn from the seed,\n\
                                independent of schedule\n\
       --max-concurrency <n>    running-batch cap (default 8)\n\
       --queue-depth <n>        admission queue cap, arrivals beyond\n\
                                shed (default 64)\n\
       --ttft-deadline <ms>     time-to-first-token SLO (default 100)\n\
       --tpot-deadline <ms>     time-per-output-token SLO (default 20)\n\
       --kv-budget <f>          fraction of L3 granted to the paged\n\
                                KV-cache pool, in (0,1] (default 1)\n\
       --bursty                 Markov-modulated arrivals instead of\n\
                                Poisson\n\
       --seed <n>               run seed (default 7)\n\
       --jobs <n>               session warm-up workers (default: all\n\
                                cores); does not affect the report\n\
       --monitor                attach the token-level live monitor\n\
                                (TTFT/TPOT burn-rate alerts and the\n\
                                flight-recorder tally on stderr); the\n\
                                stdout report stays byte-identical\n\
       --slo                    print the TTFT/TPOT SLO compliance\n\
                                report (per-objective budget, burn\n\
                                pages, preemption/KV-exhaustion counts)\n\
                                instead of the run report\n\
       --flight-out <file.json> write the flight dump (the first\n\
                                KV-pressure preemption or burn-rate\n\
                                page freezes the token timeline) as a\n\
                                Perfetto/Chrome trace\n\
       --format <json|prom>     run report format on stdout: json\n\
                                (default) or prom (Prometheus\n\
                                exposition with tenant= labels)\n\
       --chip / --trace-out / --cache-dir / --no-disk-cache as for serve\n\
     \n\
     sweep options (model x batch grid on the parallel experiment engine):\n\
       --models <a,b,...>       comma-separated model names\n\
                                (default resnet50,vgg16,bert)\n\
       --batches <1,2,...>      comma-separated batch sizes (default 1,2,4,8)\n\
       --chip <i20|i10>         accelerator generation (default i20)\n\
       --jobs <n>               worker threads (default: all cores)\n\
       --format <table|json>    report format on stdout (default table);\n\
                                json output is byte-stable across --jobs\n\
       --wall-out <file.json>   write the grid's point count and wall-clock\n\
                                ms to a file, keeping stdout\n\
                                schedule-independent\n\
       --cache-dir <dir>        compiled-session artifact directory\n\
                                (default target/dtu-cache)\n\
       --no-disk-cache          keep the session cache in memory only\n\
       --write-golden <file>    regenerate the fig. 12-15 figure data and\n\
                                write it as the golden JSON (skips the grid)\n\
       --check-golden <file>    regenerate the fig. 12-15 figure data and\n\
                                fail unless it matches the golden within a\n\
                                1e-9 relative tolerance (the CI figure gate)\n\
     \n\
     fault options (model x fault-plan x severity degradation grid):\n\
       <name> / --models <a,..> model name(s) to inject into (default resnet50)\n\
       --plan / --plans <a,..>  fault-plan presets: none core-failure ecc\n\
                                dma-stall dma-timeout thermal icache mixed\n\
                                (default none,core-failure,ecc,dma-stall,thermal)\n\
       --severity <s,..>        severities in [0,1] (--severities also\n\
                                accepted; default 0.5,1)\n\
       --seed <n>               sweep seed, mixed into every point (default 7)\n\
       --chip <i20|i10>         accelerator generation (default i20)\n\
       --jobs <n>               worker threads (default: all cores)\n\
       --format <json|table>    report format on stdout (default json);\n\
                                byte-identical across runs and --jobs\n\
       --cache-dir / --no-disk-cache as for sweep\n\
     \n\
     top options (live serving dashboard: windowed QPS/p50/p99/burn-rate\n\
     per tenant, refreshed per simulated second):\n\
       --models / --qps / --duration / --max-batch / --batch-timeout /\n\
       --deadline / --queue-depth / --bursty / --no-autoscale / --seed /\n\
       --chip / --cache-dir / --no-disk-cache as for serve\n\
       --plan <name>            inject a fault-plan preset (default none)\n\
       --severity <s>           fault severity in [0,1] (default 1)\n\
       --once                   print the final dashboard once and exit\n\
                                (deterministic stdout; for scripts and CI)\n\
       --span <s>               trailing window the rows aggregate over,\n\
                                simulated seconds (default 5)\n\
       --refresh-ms <n>         wall-clock delay between frames (default 150)\n\
     \n\
     top --generative (token-level dashboard over a monitored generative\n\
     run: QPS, active batch, KV occupancy, preempt/s, spill, and one\n\
     TTFT/TPOT objective row with burn rates and FIRE markers):\n\
       all serve --generative options as above, plus --once / --span /\n\
       --refresh-ms as for top\n\
     \n\
     slo options (SLO compliance report over a calibrated serving run):\n\
       <name> / --models <a,..> model name(s) to grade (default resnet50)\n\
       --plan / --plans <a,..>  fault-plan presets to grade (default none)\n\
       --severity <s,..>        severities in [0,1] (--severities also\n\
                                accepted; default 1)\n\
       --seed <n>               sweep seed, mixed into every point (default 7)\n\
       --chip <i20|i10>         accelerator generation (default i20)\n\
       --jobs <n>               worker threads (default: all cores)\n\
       --format <json|table>    report format on stdout (default json);\n\
                                byte-identical across runs, --jobs, and\n\
                                cache temperature\n\
       --flight-out <file.json> write the first grid point's flight-recorder\n\
                                dump as a Perfetto/Chrome trace\n\
       --cache-dir / --no-disk-cache as for sweep\n\
     \n\
     fleet options (cluster-scale serving over N chips x M cards):\n\
       <name> / --models <a,..> model name(s) to serve (default resnet50)\n\
       --chips <n>              chips in the fleet (default 4)\n\
       --cards <n>              cards they sit on; chips must divide\n\
                                evenly (default 1)\n\
       --qps <q>                fleet-wide offered load (default\n\
                                7500 x chips, split across models)\n\
       --duration <ms>          arrival horizon (default 10000)\n\
       --epoch <ms>             routing-epoch length (default 1000)\n\
       --replicas <n>           replicas per tenant, 0 = every chip\n\
                                (default 0)\n\
       --deadline <ms>          per-request SLA deadline (default 50)\n\
       --queue-depth <n>        per-replica admission cap (default 256)\n\
       --cells <n>              routing cells per replica per epoch\n\
                                (default 2)\n\
       --no-roll                skip the default rolling deploy\n\
       --roll-start <ms>        when the roll begins (default 20% of\n\
                                the horizon)\n\
       --roll-chips <n>         chips drained per epoch (default\n\
                                chips/4, at least 1)\n\
       --kill-chip <n>          kill chip n mid-run (whole-chip fault)\n\
       --kill-at <ms>           when the kill fires (default 50% of\n\
                                the horizon)\n\
       --seed <n>               fleet seed (default 7)\n\
       --jobs <n>               worker threads (default: all cores)\n\
       --format <fmt>           report on stdout: json (default), table,\n\
                                or prom (Prometheus exposition with\n\
                                chip=/tenant= labels); json is\n\
                                byte-identical across runs, --jobs, and\n\
                                cache temperature (table adds the\n\
                                schedule-dependent cache tally)\n\
       --monitor                attach the fleet monitor (alerts and\n\
                                burn attribution on stderr); the stdout\n\
                                report stays byte-identical\n\
       --slo                    print the fleet SLO compliance report\n\
                                (per-tenant budget, burn alerts, top\n\
                                offending chip/tenant pairs) instead\n\
                                of the fleet report\n\
       --flight-out <file.json> write the first fleet flight dump (an\n\
                                alert or chip kill freezes the chip's\n\
                                span ring + routing decisions) as a\n\
                                Perfetto/Chrome trace\n\
       --chip / --cache-dir / --no-disk-cache as for sweep\n\
     \n\
     fleet top (fleet dashboard: per-tenant and per-chip QPS/shed/p99/\n\
     burn-rate/FIRE rows, one frame per routing epoch):\n\
       all fleet options as above, plus:\n\
       --once                   print the final frame once and exit\n\
                                (deterministic stdout; for scripts/CI)\n\
       --refresh-ms <n>         wall-clock delay between frames\n\
                                (default 150)"
}

/// Why a subcommand stopped.
enum CliError {
    /// Malformed arguments: `error: <reason>` (no line for `--help`'s
    /// empty reason), then the usage text.
    Usage(String),
    /// A failure once the arguments parsed, printed as it stands.
    Run(String),
}

/// A run failure reported as `error: <e>`.
fn fail(e: impl std::fmt::Display) -> CliError {
    CliError::Run(format!("error: {e}"))
}

/// A run failure of a `what` step, reported as `<what> error: <e>`.
fn step_error<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> CliError {
    move |e| CliError::Run(format!("{what} error: {e}"))
}

/// A session failure, printed as it stands: a `DtuError` already names
/// its layer (`compile error: …`, `simulation error: …`).
fn run_error(e: DtuError) -> CliError {
    CliError::Run(e.to_string())
}

fn write_file(path: &str, payload: impl AsRef<[u8]>) -> Result<(), CliError> {
    std::fs::write(path, payload).map_err(|e| fail(format!("cannot write {path}: {e}")))
}

/// A numeric flag value, and what its parse error says it needs.
trait FlagNum: std::str::FromStr {
    const KIND: &'static str;
}

impl FlagNum for usize {
    const KIND: &'static str = "an integer";
}

impl FlagNum for u64 {
    const KIND: &'static str = "an integer";
}

impl FlagNum for f64 {
    const KIND: &'static str = "a number";
}

/// Spellings every subcommand reads as another flag.
const ALIASES: &[(&str, &str)] = &[
    ("--trace", "--trace-out"),
    ("-j", "--jobs"),
    ("--llm", "--generative"),
];

/// The flag [`scan`] is at, and the rest of the argv to read its value
/// from. Errors are usage messages.
struct Scanner<'a> {
    args: std::slice::Iter<'a, String>,
    /// The flag's canonical name.
    flag: &'a str,
}

impl Scanner<'_> {
    fn value(&mut self) -> Result<String, String> {
        let flag = self.flag;
        self.args
            .next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    fn num<T: FlagNum>(&mut self) -> Result<T, String> {
        let flag = self.flag;
        self.value()?
            .parse()
            .map_err(|_| format!("{flag} needs {}", T::KIND))
    }

    /// An arrival rate: finite and non-negative.
    fn qps(&mut self) -> Result<f64, String> {
        let v = self.value()?;
        match v.parse::<f64>() {
            Ok(q) if q.is_finite() && q >= 0.0 => Ok(q),
            _ => Err(format!(
                "--qps needs a finite, non-negative number, got '{v}'"
            )),
        }
    }

    /// A comma-separated value, each trimmed item parsed by `item`.
    fn list<T>(&mut self, item: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
        self.value()?.split(',').map(|s| item(s.trim())).collect()
    }

    /// A comma-separated list of names, blanks dropped.
    fn names(&mut self) -> Result<Vec<String>, String> {
        let mut names = self.list(|s| Ok(s.to_string()))?;
        names.retain(|s| !s.is_empty());
        Ok(names)
    }
}

/// Readers for `flags!` rows: a switch that turns a setting on or
/// off, and an optional setting's value.
fn on(_: &mut Scanner) -> Result<bool, String> {
    Ok(true)
}

fn off(_: &mut Scanner) -> Result<bool, String> {
    Ok(false)
}

fn some<'a, T>(
    read: impl Fn(&mut Scanner<'a>) -> Result<T, String>,
) -> impl Fn(&mut Scanner<'a>) -> Result<Option<T>, String> {
    move |s| read(s).map(Some)
}

fn strings(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

/// Scans one subcommand's argv: hands each flag, by canonical name, or
/// positional word to `take` with the scanner positioned to read its
/// value, and rejects what `take` declines. `aliases` are the
/// subcommand's own spellings, tried before [`ALIASES`].
fn scan(
    argv: &[String],
    sub: &str,
    aliases: &[(&str, &'static str)],
    mut take: impl FnMut(&str, &mut Scanner) -> Result<bool, String>,
) -> Result<(), String> {
    let mut s = Scanner {
        args: argv.iter(),
        flag: "",
    };
    while let Some(arg) = s.args.next() {
        if arg == "--help" || arg == "-h" {
            return Err(String::new());
        }
        s.flag = aliases
            .iter()
            .chain(ALIASES)
            .find(|(alias, _)| alias == arg)
            .map_or(arg, |&(_, flag)| flag);
        if !take(s.flag, &mut s)? {
            return Err(format!("unknown {sub}flag '{arg}'"));
        }
    }
    Ok(())
}

/// Declares a subcommand's flag table: a struct of settings that start
/// at their defaults, and `flag`, which sets the one a flag names. A
/// row reads `field: Type = default, "--flag" => reader;`, where the
/// reader takes the flag's value off the [`Scanner`].
macro_rules! flags {
    ($(#[$doc:meta])* struct $name:ident {
        $($field:ident: $ty:ty = $default:expr, $flag:literal => $read:expr;)*
    }) => {
        $(#[$doc])*
        struct $name {
            $($field: $ty,)*
        }

        impl $name {
            fn new() -> Self {
                $name { $($field: $default,)* }
            }

            /// Sets the field `flag` names; `false` if it names none.
            fn flag(&mut self, flag: &str, s: &mut Scanner) -> Result<bool, String> {
                match flag {
                    $($flag => self.$field = $read(s)?,)*
                    _ => return Ok(false),
                }
                Ok(true)
            }
        }
    };
}

fn chip_by_name(name: &str) -> Result<ChipConfig, CliError> {
    match name {
        "i20" => Ok(ChipConfig::dtu20()),
        "i10" => Ok(ChipConfig::dtu10()),
        other => Err(fail(format!("unknown chip '{other}' (use i20 or i10)"))),
    }
}

/// The accelerator `--chip` names, its clock pinned at f_max when
/// `no_power_management` is set.
fn accelerator(chip: &str, no_power_management: bool) -> Result<Accelerator, CliError> {
    let mut cfg = chip_by_name(chip)?;
    if no_power_management {
        cfg.features.power_management = false;
    }
    Accelerator::with_config(cfg).map_err(fail)
}

fn model_by_name(name: &str) -> Option<Model> {
    match name.to_lowercase().as_str() {
        "yolov3" | "yolo" => Some(Model::YoloV3),
        "centernet" => Some(Model::CenterNet),
        "retinaface" => Some(Model::RetinaFace),
        "vgg16" | "vgg" => Some(Model::Vgg16),
        "resnet50" | "resnet" => Some(Model::Resnet50),
        "inceptionv4" | "inception" => Some(Model::InceptionV4),
        "unet" => Some(Model::Unet),
        "srresnet" => Some(Model::SrResnet),
        "bert" | "bertlarge" => Some(Model::BertLarge),
        "conformer" => Some(Model::Conformer),
        _ => None,
    }
}

fn table_model(name: &str) -> Result<Model, CliError> {
    model_by_name(name).ok_or_else(|| CliError::Usage(format!("unknown model '{name}'")))
}

/// The Table III models `names` pick, as experiment-grid entries.
fn table_models(names: &[String]) -> Result<Vec<SweepModel<'static>>, CliError> {
    names
        .iter()
        .map(|name| {
            let m = table_model(name)?;
            Ok(SweepModel::new(name.clone(), move |b| m.build(b)))
        })
        .collect()
}

/// The Table III models `names` pick, as serving models compiling
/// through `cache`.
fn compiled_models<'c>(
    names: &[String],
    accel: &'c Accelerator,
    cache: &'c SessionCache,
) -> Result<Vec<CompiledModel<'c>>, CliError> {
    let models = table_models(names)?.into_iter().map(|m| {
        CompiledModel::new(accel.chip(), m.name().to_string(), move |b| m.build(b))
            .with_source(cache)
    });
    Ok(models.collect())
}

/// Builds the artifact cache the `sweep` and `serve` subcommands share
/// (on disk) from the common `--cache-dir` / `--no-disk-cache` flags.
fn artifact_cache(cache_dir: Option<&str>, disk_cache: bool) -> SessionCache {
    if !disk_cache {
        return SessionCache::memory_only();
    }
    let dir = cache_dir.map_or_else(SessionCache::default_disk_dir, PathBuf::from);
    SessionCache::with_disk(dir)
}

/// Poisson arrivals at `qps`, or Markov-modulated bursts around it.
fn arrival(bursty: bool, qps: f64, duration_ms: f64) -> ArrivalProcess {
    if bursty {
        ArrivalProcess::Bursty {
            base_qps: 0.5 * qps,
            burst_qps: 2.5 * qps,
            mean_dwell_ms: duration_ms / 8.0,
        }
    } else {
        ArrivalProcess::Poisson { qps }
    }
}

/// Replays a finished run as a live dashboard: each frame after a
/// screen clear, `refresh_ms` of wall time apart.
fn replay(frames: impl Iterator<Item = String>, refresh_ms: u64) {
    use std::io::Write;
    for frame in frames {
        print!("\x1b[2J\x1b[H{frame}");
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(refresh_ms));
    }
}

/// Prints a finished serving run's dashboard: with `once` the frame at
/// `end_ns`, else a replay of one frame per simulated second (one
/// evaluation window each, against the retained rings).
fn show_dashboard(once: bool, end_ns: f64, refresh_ms: u64, render: impl Fn(f64) -> String) {
    if once {
        print!("{}", render(end_ns));
        return;
    }
    let frames = (end_ns / 1e9).ceil().max(1.0) as u64;
    let times = (1..=frames).map(|f| (f as f64 * 1e9).min(end_ns));
    replay(times.map(render), refresh_ms);
}

/// `FIRE` if an alert log's burn-rate page is firing at simulated time
/// `t_ns`, else `-`. Replayed from the log: the tracker only holds
/// end-of-run state, and a dashboard replays history.
fn alert_mark<'a>(alerts: impl Iterator<Item = &'a AlertEvent>, t_ns: f64) -> &'static str {
    let mut firing = false;
    for a in alerts.filter(|a| a.t_ns <= t_ns) {
        match a.kind {
            AlertKind::BurnRate => firing = true,
            AlertKind::Resolved => firing = false,
            AlertKind::Fault => {}
        }
    }
    if firing {
        "FIRE"
    } else {
        "-"
    }
}

/// Writes a flight dump to `path` as a Perfetto/Chrome trace: the first
/// whose reason names an entry of `prefer` (tried in order), else the
/// first dump. The caller has made sure there is one.
fn write_flight_dump(
    dumps: &[FlightDump],
    prefer: &[&str],
    path: &str,
    tag: &str,
) -> Result<(), CliError> {
    let dump = prefer
        .iter()
        .find_map(|p| dumps.iter().find(|d| d.reason.contains(p)))
        .or_else(|| dumps.first())
        .expect("an end-of-run snapshot stands in for a clean run");
    write_file(path, dump.to_chrome_trace(true))?;
    eprintln!(
        "[{tag}] flight dump `{}` ({} spans at t={:.2}s) written to {path}",
        dump.reason,
        dump.spans.len(),
        dump.at_ns / 1e9
    );
    Ok(())
}

/// Freezes the ring at end of run when nothing went wrong, so a
/// `--flight-out` always has a dump to write.
fn end_of_run_snapshot(flight: &mut FlightRecorder, end_ns: f64) -> &[FlightDump] {
    if flight.dumps().is_empty() {
        flight.trigger("end-of-run snapshot", end_ns);
    }
    flight.dumps()
}

flags! {
    /// The single-model flags of the default mode and `profile`.
    struct Target {
        model: Option<String> = None, "--model" => some(Scanner::value);
        import: Option<String> = None, "--import" => some(Scanner::value);
        batch: usize = 1, "--batch" => Scanner::num;
        chip: String = "i20".into(), "--chip" => Scanner::value;
        groups: Option<usize> = None, "--groups" => some(Scanner::num);
        no_power_management: bool = false, "--no-power-management" => on;
    }
}

impl Target {
    /// The model's graph, the accelerator, and the session options the
    /// graph compiles with.
    fn load(&self) -> Result<(Graph, Accelerator, SessionOptions), CliError> {
        let graph = match (&self.model, &self.import) {
            (Some(name), _) => table_model(name)?.build(self.batch),
            (None, path) => {
                let path = path.as_deref().expect("validated");
                let text = std::fs::read_to_string(path)
                    .map_err(|e| fail(format!("cannot read {path}: {e}")))?;
                // Shapes are checked here, so a model that cannot
                // compile fails before any report line is printed.
                let graph = parse_model(&text).map_err(|e| fail(format!("{path}: {e}")))?;
                graph
                    .infer_shapes()
                    .map_err(|e| fail(format!("{path}: {e}")))?;
                graph
            }
        };
        let accel = accelerator(&self.chip, self.no_power_management)?;
        let size = match self.groups {
            Some(1) => WorkloadSize::Small,
            Some(2) => WorkloadSize::Medium,
            Some(3) => WorkloadSize::Large,
            None => WorkloadSize::FullChip,
            Some(n) => return Err(fail(format!("--groups must be 1..3, got {n}"))),
        };
        let options = SessionOptions {
            size,
            batch: self.batch,
            ..Default::default()
        };
        Ok((graph, accel, options))
    }
}

flags! {
    /// The default mode's own flags.
    struct Measure {
        profile: bool = false, "--profile" => on;
        trace: Option<String> = None, "--trace-out" => some(Scanner::value);
    }
}

fn run_measure(argv: &[String]) -> Result<(), CliError> {
    let (mut target, mut args) = (Target::new(), Measure::new());
    scan(argv, "", &[], |flag, s| {
        Ok(args.flag(flag, s)? || target.flag(flag, s)?)
    })
    .map_err(CliError::Usage)?;
    if target.model.is_none() == target.import.is_none() {
        let e = "exactly one of --model / --import is required";
        return Err(CliError::Usage(e.into()));
    }
    let (graph, accel, options) = target.load()?;

    println!("=== topsexec ===");
    println!("accelerator : {accel}");
    println!("model       : {graph}");
    println!("batch       : {}", target.batch);

    let session = Session::compile(&accel, &graph, options).map_err(run_error)?;
    println!(
        "compiled    : {} commands over {} streams",
        session.program().total_commands(),
        session.program().streams.len()
    );

    let (report, timeline) = session.run_traced().map_err(run_error)?;

    println!("\n--- measurements ---");
    println!("latency      : {:.3} ms", report.latency_ms());
    println!("throughput   : {:.1} samples/s", report.throughput());
    println!("avg power    : {:.1} W", report.average_watts());
    println!("energy/sample: {:.4} J", 1.0 / report.samples_per_joule());
    println!("mean clock   : {:.0} MHz", report.mean_freq_mhz());
    let c = report.raw().counters;
    println!(
        "kernels      : {} launches, icache hit rate {:.0}%",
        c.kernel_launches,
        c.icache_hit_rate() * 100.0
    );
    println!(
        "dma          : {} transfers, {:.1} MiB on the wire",
        c.dma_transfers,
        c.dma_wire_bytes as f64 / (1024.0 * 1024.0)
    );

    if args.profile {
        println!("\n--- profile ---");
        println!("{}", timeline.report(10));
    }
    if let Some(path) = &args.trace {
        write_file(path, timeline.to_chrome_trace())?;
        println!("\ntrace written to {path} (open in chrome://tracing)");
    }
    Ok(())
}

flags! {
    /// `profile`'s own flags.
    struct Profile {
        trace_out: String = "topsexec.trace.json".into(), "--trace-out" => Scanner::value;
        format: String = "table".into(), "--format" => Scanner::value;
    }
}

fn run_profile(argv: &[String]) -> Result<(), CliError> {
    let (mut target, mut args) = (Target::new(), Profile::new());
    scan(argv, "profile ", &[], |flag, s| {
        if !flag.starts_with('-') && target.model.is_none() {
            target.model = Some(flag.into());
            return Ok(true);
        }
        Ok(args.flag(flag, s)? || target.flag(flag, s)?)
    })
    .map_err(CliError::Usage)?;
    if target.model.is_none() == target.import.is_none() {
        let e = "profile needs a model name or --import <file>";
        return Err(CliError::Usage(e.into()));
    }
    if !matches!(args.format.as_str(), "table" | "prometheus" | "json") {
        return Err(CliError::Usage(format!(
            "--format must be table, prometheus, or json, got '{}'",
            args.format
        )));
    }
    let (graph, accel, options) = target.load()?;

    // Compiler phases, the session envelope, and the simulator's
    // kernel/DMA/sync spans all land in one buffer on one clock.
    let mut buf = TraceBuffer::new();
    let session =
        Session::compile_recorded(&accel, &graph, options, &mut buf).map_err(run_error)?;
    let report = session.run_recorded(&mut buf).map_err(run_error)?;

    let groups = target
        .groups
        .unwrap_or_else(|| accel.config().total_groups());
    // The compiler lowers to fp16 by default; fold the Table I
    // throughput ratio into the roofline peak.
    let machine = accel
        .config()
        .machine_spec(groups, DataType::Fp16.ops_multiplier());
    let attr = AttributionReport::from_spans(buf.spans(), report.raw().latency_ns, machine);
    for s in attr.operator_spans() {
        buf.record(s);
    }
    write_file(&args.trace_out, buf.to_chrome_trace(true))?;

    println!("=== topsexec profile ===");
    println!("accelerator : {accel}");
    println!("model       : {graph}");
    println!(
        "run         : {:.3} ms, {} operator segments, {} spans",
        report.latency_ms(),
        attr.ops.len(),
        buf.len()
    );
    println!(
        "trace       : {} (open in Perfetto / chrome://tracing)",
        args.trace_out
    );
    println!();
    match args.format.as_str() {
        "prometheus" => print!("{}", attr.to_prometheus()),
        "json" => println!("{}", attr.to_json()),
        _ => print!("{}", attr.to_table()),
    }
    Ok(())
}

flags! {
    /// The request-level serving flags `serve` and `top` share.
    struct Traffic {
        models: Vec<String> = strings(&["resnet50", "bert"]), "--models" => Scanner::names;
        qps: f64 = 400.0, "--qps" => Scanner::qps;
        duration_ms: f64 = 1000.0, "--duration" => Scanner::num;
        max_batch: usize = 8, "--max-batch" => Scanner::num;
        batch_timeout_ms: f64 = 2.0, "--batch-timeout" => Scanner::num;
        deadline_ms: f64 = 50.0, "--deadline" => Scanner::num;
        queue_depth: usize = 64, "--queue-depth" => Scanner::num;
        bursty: bool = false, "--bursty" => on;
        autoscale: bool = true, "--no-autoscale" => off;
        seed: u64 = 0x5EED, "--seed" => Scanner::num;
        chip: String = "i20".into(), "--chip" => Scanner::value;
        cache_dir: Option<String> = None, "--cache-dir" => some(Scanner::value);
        disk_cache: bool = true, "--no-disk-cache" => off;
    }
}

impl Traffic {
    fn check(&self) -> Result<(), CliError> {
        if self.models.is_empty() {
            let e = "--models needs at least one model name";
            return Err(CliError::Usage(e.into()));
        }
        Ok(())
    }

    /// The scenario: one tenant per model, named by `name`, on a chip
    /// with `gpc` groups per cluster, under `faults`.
    fn config(&self, gpc: usize, faults: FaultPlan, name: impl Fn(usize) -> String) -> ServeConfig {
        ServeConfig {
            duration_ms: self.duration_ms,
            seed: self.seed,
            record_requests: false,
            faults,
            retry: Default::default(),
            tenants: (0..self.models.len())
                .map(|i| TenantSpec {
                    name: name(i),
                    model: i,
                    arrival: arrival(self.bursty, self.qps, self.duration_ms),
                    batch: if self.max_batch > 1 {
                        BatchPolicy::dynamic(self.max_batch, self.batch_timeout_ms)
                    } else {
                        BatchPolicy::none()
                    },
                    sla: SlaPolicy::new(self.deadline_ms, self.queue_depth),
                    scale: if self.autoscale {
                        ScalePolicy::elastic(self.deadline_ms / 4.0, self.deadline_ms / 20.0, gpc)
                    } else {
                        ScalePolicy::none()
                    },
                    cluster: None,
                    initial_groups: 1,
                })
                .collect(),
        }
    }
}

flags! {
    /// `serve`'s own flags.
    struct Serve {
        trace: Option<String> = None, "--trace-out" => some(Scanner::value);
    }
}

fn run_serve(argv: &[String]) -> Result<(), CliError> {
    let (mut t, mut args) = (Traffic::new(), Serve::new());
    scan(argv, "serve ", &[], |flag, s| {
        Ok(args.flag(flag, s)? || t.flag(flag, s)?)
    })
    .map_err(CliError::Usage)?;
    t.check()?;
    let accel = accelerator(&t.chip, false)?;

    // The artifact cache outlives the per-tenant models so every
    // tenant compiles through it — and, with the disk tier on, reuses
    // sessions a previous `serve` or `sweep` run already lowered.
    let cache = artifact_cache(t.cache_dir.as_deref(), t.disk_cache);
    let mut models = compiled_models(&t.models, &accel, &cache)?;
    let gpc = accel.config().groups_per_cluster;
    let cfg = t.config(gpc, FaultPlan::default(), |i| format!("tenant{i}"));

    println!("=== topsexec serve ===");
    println!("accelerator : {accel}");
    println!(
        "tenants     : {} ({}), {:.0} qps each{}, {:.0} ms horizon",
        cfg.tenants.len(),
        t.models.join(", "),
        t.qps,
        if t.bursty { " (bursty)" } else { "" },
        t.duration_ms
    );
    println!(
        "policies    : max batch {}, timeout {:.1} ms, deadline {:.0} ms, queue cap {}, autoscale {}",
        t.max_batch,
        t.batch_timeout_ms,
        t.deadline_ms,
        t.queue_depth,
        if t.autoscale { "on" } else { "off" }
    );

    let mut refs: Vec<&mut dyn ServiceModel> = models
        .iter_mut()
        .map(|m| m as &mut dyn ServiceModel)
        .collect();
    // A .json trace goes through the telemetry exporter (request/batch
    // spans on the shared clock); anything else stays JSONL.
    let chrome_trace = args.trace.as_deref().is_some_and(|p| p.ends_with(".json"));
    let mut buf = TraceBuffer::new();
    let out = if chrome_trace {
        run_serving_recorded(&cfg, accel.config(), &mut refs, &mut buf)
    } else {
        run_serving(&cfg, accel.config(), &mut refs)
    }
    .map_err(step_error("serve"))?;

    println!("\n--- report ---");
    print!("{}", out.report);
    println!("\n--- session cache ---");
    for m in &models {
        let s = m.cache_stats();
        println!(
            "  {}: {} sessions compiled, {} hits / {} misses",
            m.name(),
            m.cached_sessions(),
            s.hits,
            s.misses
        );
    }
    let s = cache.stats();
    println!(
        "  shared artifacts: {} memory + {} disk hits, {} misses",
        s.memory_hits, s.disk_hits, s.misses
    );

    if let Some(path) = &args.trace {
        let payload = if chrome_trace {
            buf.to_chrome_trace(true)
        } else {
            out.trace.to_jsonl()
        };
        write_file(path, payload)?;
        println!("\ntrace written to {path} ({} events)", out.trace.len());
    }
    Ok(())
}

flags! {
    /// `serve --generative` / `top --generative` flags.
    struct GenServe {
        gen_model: String = "gpt1b".into(), "--gen-model" => Scanner::value;
        qps: f64 = 200.0, "--qps" => Scanner::qps;
        duration_ms: f64 = 200.0, "--duration" => Scanner::num;
        prompt: usize = 64, "--prompt" => Scanner::num;
        min_new: usize = 4, "--min-new" => Scanner::num;
        max_new: usize = 32, "--max-new" => Scanner::num;
        max_concurrency: usize = 8, "--max-concurrency" => Scanner::num;
        queue_depth: usize = 64, "--queue-depth" => Scanner::num;
        ttft_deadline_ms: f64 = 100.0, "--ttft-deadline" => Scanner::num;
        tpot_deadline_ms: f64 = 20.0, "--tpot-deadline" => Scanner::num;
        kv_budget: f64 = 1.0, "--kv-budget" => Scanner::num;
        bursty: bool = false, "--bursty" => on;
        seed: u64 = 7, "--seed" => Scanner::num;
        chip: String = "i20".into(), "--chip" => Scanner::value;
        jobs: usize = available_jobs(), "--jobs" => Scanner::num;
        trace: Option<String> = None, "--trace-out" => some(Scanner::value);
        monitor: bool = false, "--monitor" => on;
        slo: bool = false, "--slo" => on;
        flight_out: Option<String> = None, "--flight-out" => some(Scanner::value);
        format: String = "json".into(), "--format" => Scanner::value;
        once: bool = false, "--once" => on;
        span_s: f64 = 5.0, "--span" => Scanner::num;
        refresh_ms: u64 = 150, "--refresh-ms" => Scanner::num;
        cache_dir: Option<String> = None, "--cache-dir" => some(Scanner::value);
        disk_cache: bool = true, "--no-disk-cache" => off;
    }
}

fn gen_model_by_name(name: &str) -> Option<GenerativeConfig> {
    match name.to_lowercase().as_str() {
        "gpt1b" | "gpt-1b" | "1b" => Some(GenerativeConfig::gpt_1b()),
        "tiny" => Some(GenerativeConfig::tiny()),
        _ => None,
    }
}

/// A generative run as `serve --generative` and `top --generative`
/// read it: the flags, the model, the accelerator, the scenario, and
/// the monitor's deadline-derived objectives.
struct GenRun {
    args: GenServe,
    model: GenerativeConfig,
    accel: Accelerator,
    scenario: GenerativeScenario,
    live: GenLiveConfig,
}

fn gen_run(argv: &[String]) -> Result<GenRun, CliError> {
    let mut args = GenServe::new();
    // `--generative` is the mode selector main() already routed on.
    scan(argv, "generative serve ", &[], |flag, s| {
        Ok(flag == "--generative" || args.flag(flag, s)?)
    })
    .map_err(CliError::Usage)?;
    let usage = |e: &str| Err(CliError::Usage(e.into()));
    if args.min_new == 0 || args.max_new < args.min_new {
        return usage("--min-new must be at least 1 and --max-new at least --min-new");
    }
    if !(args.kv_budget > 0.0 && args.kv_budget <= 1.0) {
        return usage("--kv-budget must be in (0, 1]");
    }
    if !matches!(args.format.as_str(), "json" | "prom") {
        return usage(&format!(
            "--format must be json or prom, got '{}'",
            args.format
        ));
    }
    if args.span_s <= 0.0 {
        return usage("--span must be positive");
    }
    let Some(model) = gen_model_by_name(&args.gen_model) else {
        let name = &args.gen_model;
        return usage(&format!(
            "unknown generative model '{name}' (use gpt1b or tiny)"
        ));
    };
    let accel = accelerator(&args.chip, false)?;
    let kv = KvCacheConfig::for_chip_with_budget(
        accel.config(),
        model.kv_bytes_per_token(),
        args.kv_budget,
    );
    let scenario = GenerativeScenario {
        duration_ms: args.duration_ms,
        seed: args.seed,
        arrival: arrival(args.bursty, args.qps, args.duration_ms),
        prompt_tokens: args.prompt,
        min_new_tokens: args.min_new,
        max_new_tokens: args.max_new,
        max_concurrency: args.max_concurrency,
        queue_depth: args.queue_depth,
        ttft_deadline_ms: args.ttft_deadline_ms,
        tpot_deadline_ms: args.tpot_deadline_ms,
        kv,
    };
    // A p99 objective per finite deadline (an infinite deadline means
    // "no SLO", matching the engine's violation accounting).
    let spec = |metric: &str, deadline_ms: f64| {
        deadline_ms.is_finite().then(|| {
            SloSpec::new(
                format!("{metric}_p99<{deadline_ms:.0}ms"),
                0.99,
                deadline_ms,
            )
        })
    };
    let live = GenLiveConfig {
        ttft_slo: spec("ttft", args.ttft_deadline_ms),
        tpot_slo: spec("tpot", args.tpot_deadline_ms),
        tenant: args.gen_model.clone(),
        ..GenLiveConfig::default()
    };
    Ok(GenRun {
        args,
        model,
        accel,
        scenario,
        live,
    })
}

/// Stderr lines for a generative monitor's alert log.
fn report_gen_alerts(tag: &str, mon: &GenMonitor) {
    for a in &mon.alerts {
        eprintln!(
            "[{tag}] t={:.2}s {} alert `{}` (burn fast {:.1} / slow {:.1})",
            a.t_ns / 1e9,
            a.kind.name(),
            a.slo,
            a.burn_fast,
            a.burn_slow
        );
    }
}

fn run_genserve(argv: &[String]) -> Result<(), CliError> {
    let GenRun {
        args,
        model,
        accel,
        scenario,
        live,
    } = gen_run(argv)?;

    eprintln!(
        "[serve --generative] {} ({} prompt tokens, {}..{} new), {:.0} qps{} over {:.0} ms, \
         concurrency {}, KV pool {} pages ({} L2-resident) on {} warm-up workers",
        args.gen_model,
        args.prompt,
        args.min_new,
        args.max_new,
        args.qps,
        if args.bursty { " (bursty)" } else { "" },
        args.duration_ms,
        args.max_concurrency,
        scenario.kv.total_pages,
        scenario.kv.l2_pages,
        args.jobs
    );

    let cache = artifact_cache(args.cache_dir.as_deref(), args.disk_cache);
    let chrome_trace = args.trace.as_deref().is_some_and(|p| p.ends_with(".json"));
    let monitored = args.monitor || args.slo || args.flight_out.is_some();
    let mut buf = TraceBuffer::new();
    let mut mon = monitored.then(|| GenMonitor::new(live));
    let started = std::time::Instant::now();
    let out = if let Some(mon) = mon.as_mut() {
        // Monitored: the live path. The monitor is observational, so
        // stdout stays byte-identical to the plain run.
        dtu_harness::run_generative_serve_live(
            &accel, &model, &scenario, &cache, None, args.jobs, mon,
        )
    } else {
        let rec: Option<&mut dyn Recorder> = if chrome_trace { Some(&mut buf) } else { None };
        dtu_harness::run_generative_serve(&accel, &model, &scenario, &cache, args.jobs, rec)
    }
    .map_err(step_error("generative serve"))?;
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    if chrome_trace && monitored {
        // The live path has no recorder attached; rebuild the exact
        // spans (and final counter snapshot) the recorded path emits,
        // from the schedule-independent event trace.
        for s in out.trace.to_spans() {
            buf.record(s);
        }
        buf.snapshot(dtu::telemetry::CounterSnapshot {
            at_ns: out.report.drained_ms * 1e6,
            label: "generative".into(),
            set: out.report.counters(),
        });
    }

    // The stdout payload is schedule-independent so two runs (any
    // --jobs, warm or cold cache, monitored or not) compare
    // byte-for-byte; wall-clock chatter stays on stderr.
    if args.slo {
        println!(
            "{}",
            mon.as_ref()
                .expect("slo implies monitored")
                .compliance_json()
        );
    } else if args.format == "prom" {
        print!("{}", out.report.to_prometheus(&args.gen_model));
    } else {
        println!("{}", out.report.to_json());
    }
    let s = cache.stats();
    eprintln!(
        "[serve --generative] {} prefill + {} decode steps in {:.0} ms; \
         cache: {} memory + {} disk hits, {} misses",
        out.report.prefill_steps,
        out.report.decode_steps,
        elapsed_ms,
        s.memory_hits,
        s.disk_hits,
        s.misses
    );
    if let Some(mon) = &mon {
        report_gen_alerts("serve --generative", mon);
        eprintln!(
            "[serve --generative] monitor: {} preemptions, {} kv exhaustions; \
             flight recorder: {} spans in ring, {} dumps ({} triggers)",
            mon.preempts.total() as u64,
            mon.exhausts.total() as u64,
            mon.flight.len(),
            mon.flight.dumps().len(),
            mon.flight.triggers()
        );
    }

    if let (Some(path), Some(mon)) = (&args.flight_out, mon.as_mut()) {
        let end_ns = mon.now_ns();
        let dumps = end_of_run_snapshot(&mut mon.flight, end_ns);
        // Prefer the KV-pressure dump (it names the preempted
        // request), then the first burn-rate page, then whatever came
        // first.
        let prefer = ["kv-exhaustion", "alert"];
        write_flight_dump(dumps, &prefer, path, "serve --generative")?;
    }

    if let Some(path) = &args.trace {
        let payload = if chrome_trace {
            buf.to_chrome_trace(true)
        } else {
            out.trace.to_jsonl()
        };
        write_file(path, payload)?;
        eprintln!(
            "[serve --generative] trace written to {path} ({} events)",
            out.trace.len()
        );
    }
    Ok(())
}

flags! {
    /// `sweep`'s flags.
    struct Sweep {
        models: Vec<String> = strings(&["resnet50", "vgg16", "bert"]), "--models" => Scanner::names;
        batches: Vec<usize> = vec![1, 2, 4, 8], "--batches" => |s: &mut Scanner| s.list(batch_size);
        chip: String = "i20".into(), "--chip" => Scanner::value;
        jobs: usize = available_jobs(), "--jobs" => Scanner::num;
        format: String = "table".into(), "--format" => Scanner::value;
        wall_out: Option<String> = None, "--wall-out" => some(Scanner::value);
        cache_dir: Option<String> = None, "--cache-dir" => some(Scanner::value);
        disk_cache: bool = true, "--no-disk-cache" => off;
        check_golden: Option<String> = None, "--check-golden" => some(Scanner::value);
        write_golden: Option<String> = None, "--write-golden" => some(Scanner::value);
    }
}

fn batch_size(b: &str) -> Result<usize, String> {
    match b.parse() {
        Ok(b) if b > 0 => Ok(b),
        _ => Err(format!("bad batch size '{b}'")),
    }
}

/// The `sweep --write-golden` / `--check-golden` modes: regenerate the
/// fig. 12–15 figure data through the shared cache and either commit it
/// as the golden or gate against it at [`dtu_harness::GOLDEN_RTOL`].
fn run_golden(args: &Sweep, cache: &SessionCache) -> Result<(), CliError> {
    let regenerated = dtu_bench::figures_json(cache, args.jobs);
    if let Some(path) = &args.write_golden {
        write_file(path, format!("{regenerated}\n"))?;
        println!("golden figures written to {path}");
        return Ok(());
    }
    let path = args.check_golden.as_deref().expect("validated");
    let golden = std::fs::read_to_string(path)
        .map_err(|e| fail(format!("cannot read golden {path}: {e}")))?;
    dtu_harness::compare_golden(golden.trim_end(), &regenerated, dtu_harness::GOLDEN_RTOL)
        .map_err(|e| {
            CliError::Run(format!(
                "golden figure regression against {path}: {e}\n\
                 if the change is intentional, regenerate with\n\
                 \x20 topsexec sweep --write-golden {path}\n\
                 and commit the diff (see docs/CLI.md)"
            ))
        })?;
    println!("golden figures OK: {path} matches within 1e-9 relative tolerance");
    Ok(())
}

fn run_sweep_cmd(argv: &[String]) -> Result<(), CliError> {
    let mut args = Sweep::new();
    scan(argv, "sweep ", &[], |flag, s| args.flag(flag, s)).map_err(CliError::Usage)?;
    let usage = |e: &str| Err(CliError::Usage(e.into()));
    if args.models.is_empty() || args.batches.is_empty() {
        return usage("sweep needs at least one model and one batch");
    }
    if !matches!(args.format.as_str(), "table" | "json") {
        return usage(&format!(
            "--format must be table or json, got '{}'",
            args.format
        ));
    }
    if args.check_golden.is_some() && args.write_golden.is_some() {
        return usage("--check-golden and --write-golden are mutually exclusive");
    }
    let accel = accelerator(&args.chip, false)?;
    if args.check_golden.is_some() || args.write_golden.is_some() {
        let cache = artifact_cache(args.cache_dir.as_deref(), args.disk_cache);
        return run_golden(&args, &cache);
    }
    let grid = table_models(&args.models)?;
    let cache = artifact_cache(args.cache_dir.as_deref(), args.disk_cache);

    let started = std::time::Instant::now();
    let report =
        run_sweep(&accel, &grid, &args.batches, &cache, args.jobs).map_err(step_error("sweep"))?;
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    // The report itself is schedule-independent and goes to stdout;
    // anything wall-clock-dependent stays on stderr so json output can
    // be compared byte-for-byte between runs (--wall-out is the file
    // side channel for the wall-clock numbers).
    match args.format.as_str() {
        "json" => println!("{}", report.to_json()),
        _ => print!("{}", report.to_table()),
    }
    eprintln!(
        "[sweep] {} points ({} models x {} batches) on {} workers \
         in {wall_ms:.0} ms; cache: {} memory + {} disk hits, {} misses",
        report.points.len(),
        report.models.len(),
        report.batches.len(),
        args.jobs,
        report.cache.memory_hits,
        report.cache.disk_hits,
        report.cache.misses
    );
    if let Some(path) = &args.wall_out {
        // What `scripts/bench_smoke.sh` reads to guard the warm sweep's
        // wall time.
        use dtu::telemetry::json::{number, JsonObject};
        let payload = JsonObject::new()
            .int("points", report.points.len() as i64)
            .raw("interpreted_wall_ms", &number(wall_ms))
            .build();
        write_file(path, format!("{payload}\n"))?;
    }
    Ok(())
}

flags! {
    /// The model x fault-plan x severity grid flags `faults` and `slo`
    /// share.
    struct Grid {
        models: Vec<String> = Vec::new(), "--models" => Scanner::names;
        plans: Vec<String> = Vec::new(), "--plans" => Scanner::names;
        severities: Vec<f64> = Vec::new(), "--severities" => |s: &mut Scanner| s.list(severity);
        seed: u64 = 7, "--seed" => Scanner::num;
        chip: String = "i20".into(), "--chip" => Scanner::value;
        jobs: usize = available_jobs(), "--jobs" => Scanner::num;
        format: String = "json".into(), "--format" => Scanner::value;
        cache_dir: Option<String> = None, "--cache-dir" => some(Scanner::value);
        disk_cache: bool = true, "--no-disk-cache" => off;
    }
}

fn severity(v: &str) -> Result<f64, String> {
    v.parse().map_err(|_| format!("bad severity '{v}'"))
}

impl Grid {
    /// Scans `sub`'s argv over these defaults; `own` takes the flags
    /// only `sub` has. Positional words are model names.
    fn scan(
        &mut self,
        argv: &[String],
        sub: &str,
        mut own: impl FnMut(&str, &mut Scanner) -> Result<bool, String>,
    ) -> Result<(), CliError> {
        let aliases = [
            ("--model", "--models"),
            ("--plan", "--plans"),
            ("--severity", "--severities"),
        ];
        scan(argv, &format!("{sub} "), &aliases, |flag, s| {
            if !flag.starts_with('-') {
                self.models.push(flag.into());
                return Ok(true);
            }
            Ok(own(flag, s)? || self.flag(flag, s)?)
        })
        .map_err(CliError::Usage)?;
        if self.models.is_empty() {
            self.models.push("resnet50".into());
        }
        let usage = |e: String| Err(CliError::Usage(e));
        if self.plans.is_empty() || self.severities.is_empty() {
            return usage(format!("{sub} needs at least one plan and one severity"));
        }
        if !matches!(self.format.as_str(), "table" | "json") {
            return usage(format!(
                "--format must be table or json, got '{}'",
                self.format
            ));
        }
        Ok(())
    }
}

fn run_faults(argv: &[String]) -> Result<(), CliError> {
    let mut args = Grid::new();
    args.plans = strings(&["none", "core-failure", "ecc", "dma-stall", "thermal"]);
    args.severities = vec![0.5, 1.0];
    args.scan(argv, "faults", |_, _| Ok(false))?;
    let accel = accelerator(&args.chip, false)?;
    let grid = table_models(&args.models)?;
    let plans: Vec<&str> = args.plans.iter().map(String::as_str).collect();
    let cache = artifact_cache(args.cache_dir.as_deref(), args.disk_cache);

    let started = std::time::Instant::now();
    let report = run_fault_sweep(
        &accel,
        &grid,
        &plans,
        &args.severities,
        args.seed,
        &cache,
        args.jobs,
    )
    .map_err(step_error("faults"))?;
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    // Like `sweep`: the report is schedule-independent and goes to
    // stdout, so two runs of the same grid and seed are byte-identical;
    // wall-clock chatter stays on stderr.
    match args.format.as_str() {
        "table" => print!("{}", report.to_table()),
        _ => println!("{}", report.to_json()),
    }
    eprintln!(
        "[faults] {} points ({} models x {} plans x {} severities) on {} workers in {:.0} ms; \
         availability {:.1}%; cache: {} memory + {} disk hits, {} misses",
        report.points.len(),
        report.models.len(),
        report.plans.len(),
        report.severities.len(),
        args.jobs,
        elapsed_ms,
        report.availability() * 100.0,
        report.cache.memory_hits,
        report.cache.disk_hits,
        report.cache.misses
    );
    Ok(())
}

flags! {
    /// `top`'s own flags.
    struct Top {
        plan: String = "none".into(), "--plan" => Scanner::value;
        severity: f64 = 1.0, "--severity" => Scanner::num;
        once: bool = false, "--once" => on;
        span_s: f64 = 5.0, "--span" => Scanner::num;
        refresh_ms: u64 = 150, "--refresh-ms" => Scanner::num;
    }
}

/// One dashboard frame at simulated time `t_ns`, rows aggregated over
/// the trailing `span_ns`.
fn render_top(mon: &LiveMonitor, t_ns: f64, span_ns: f64) -> String {
    use std::fmt::Write;
    let alerts = mon.alerts.iter().filter(|(_, a)| a.t_ns <= t_ns).count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "t={:.0}s  window={:.0}s  alerts={alerts}",
        t_ns / 1e9,
        span_ns / 1e9
    );
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>8} {:>8} {:>9} {:>9} {:>6} {:>8} {:>8} {:>6}",
        "tenant",
        "qps",
        "shed/s",
        "drop/s",
        "p50(ms)",
        "p99(ms)",
        "batch",
        "burn5s",
        "burn60s",
        "alert"
    );
    for (idx, ten) in mon.tenants().iter().enumerate() {
        let r = ten.row(t_ns, span_ns);
        let tenant_alerts = mon.alerts.iter().filter(|(t, _)| *t == idx);
        let _ = writeln!(
            out,
            "{:<12} {:>8.0} {:>8.1} {:>8.1} {:>9.3} {:>9.3} {:>6.2} {:>8.2} {:>8.2} {:>6}",
            r.name,
            r.qps,
            r.shed_rate,
            r.drop_rate,
            r.p50_ms,
            r.p99_ms,
            r.mean_batch,
            r.burn_fast,
            r.burn_slow,
            alert_mark(tenant_alerts.map(|(_, a)| a), t_ns)
        );
    }
    out
}

fn run_top(argv: &[String]) -> Result<(), CliError> {
    let (mut t, mut args) = (Traffic::new(), Top::new());
    t.duration_ms = 10_000.0;
    scan(argv, "top ", &[], |flag, s| {
        Ok(args.flag(flag, s)? || t.flag(flag, s)?)
    })
    .map_err(CliError::Usage)?;
    t.check()?;
    if args.span_s <= 0.0 {
        return Err(CliError::Usage("--span must be positive".into()));
    }
    let accel = accelerator(&t.chip, false)?;
    let cache = artifact_cache(t.cache_dir.as_deref(), t.disk_cache);
    let mut models = compiled_models(&t.models, &accel, &cache)?;

    let chip = accel.config();
    let faults = FaultPlan::preset(
        &args.plan,
        t.seed,
        args.severity,
        chip.clusters,
        chip.groups_per_cluster,
        t.duration_ms * 1e6,
    )
    .map_err(fail)?;
    let cfg = t.config(chip.groups_per_cluster, faults, |i| t.models[i].clone());

    eprintln!(
        "[top] {} tenants ({}), {:.0} qps each, {:.0} ms horizon, plan {} s{:.2}, \
         SLO p99 < {:.0} ms",
        cfg.tenants.len(),
        t.models.join(", "),
        t.qps,
        t.duration_ms,
        args.plan,
        args.severity,
        t.deadline_ms
    );

    let mut mon = LiveMonitor::new(LiveConfig {
        slo: Some(SloSpec::new(
            format!("p99<{:.0}ms", t.deadline_ms),
            0.99,
            t.deadline_ms,
        )),
        ..LiveConfig::default()
    });
    let mut refs: Vec<&mut dyn ServiceModel> = models
        .iter_mut()
        .map(|m| m as &mut dyn ServiceModel)
        .collect();
    let aborted = match run_serving_live(&cfg, accel.config(), &mut refs, &mut mon) {
        Ok(_) => None,
        // A fault killed a tenant's last group: the dashboard still
        // shows everything the monitor saw up to the outage.
        Err(ServeError::Sim(dtu_sim::SimError::Fault(e))) => Some(e.to_string()),
        Err(e) => return Err(step_error("top")(e)),
    };

    let span_ns = args.span_s * 1e9;
    show_dashboard(args.once, mon.now_ns(), args.refresh_ms, |t_ns| {
        render_top(&mon, t_ns, span_ns)
    });
    for (idx, a) in &mon.alerts {
        eprintln!(
            "[top] t={:.2}s {} alert `{}` (tenant {}, burn fast {:.1} / slow {:.1})",
            a.t_ns / 1e9,
            a.kind.name(),
            a.slo,
            mon.tenants()[*idx].name,
            a.burn_fast,
            a.burn_slow
        );
    }
    if let Some(e) = aborted {
        eprintln!("[top] run aborted early: {e}");
    }
    eprintln!(
        "[top] flight recorder: {} spans in ring, {} dumps ({} triggers)",
        mon.flight.len(),
        mon.flight.dumps().len(),
        mon.flight.triggers()
    );
    Ok(())
}

/// One generative dashboard frame at simulated time `t_ns`: the
/// engine-level gauges (QPS, active batch, KV occupancy, spill,
/// preemptions) plus one row per TTFT/TPOT objective.
fn render_gen_top(mon: &GenMonitor, t_ns: f64, span_ns: f64) -> String {
    use std::fmt::Write;
    let r = mon.row(t_ns, span_ns);
    let alerts = mon.alerts.iter().filter(|a| a.t_ns <= t_ns).count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "t={:.0}s  window={:.0}s  tenant={}  alerts={alerts}",
        t_ns / 1e9,
        span_ns / 1e9,
        mon.config().tenant
    );
    let _ = writeln!(
        out,
        "qps {:.0}  shed/s {:.1}  preempt/s {:.1}  batch {:.2}  kv {:.1}% of {} pages  \
         spill {:.1} ms/s",
        r.qps,
        r.shed_rate,
        r.preempt_rate,
        r.active_batch,
        100.0 * r.kv_occupancy,
        mon.total_pages(),
        r.spill_ms_per_s
    );
    let _ = writeln!(
        out,
        "{:<20} {:>9} {:>9} {:>8} {:>8} {:>6}",
        "objective", "p50(ms)", "p99(ms)", "burn5s", "burn60s", "alert"
    );
    let rows = [
        (
            "ttft",
            &mon.ttft_slo,
            r.ttft_p50_ms,
            r.ttft_p99_ms,
            r.ttft_burn_fast,
            r.ttft_burn_slow,
        ),
        (
            "tpot",
            &mon.tpot_slo,
            r.tpot_p50_ms,
            r.tpot_p99_ms,
            r.tpot_burn_fast,
            r.tpot_burn_slow,
        ),
    ];
    for (metric, tracker, p50, p99, burn_fast, burn_slow) in rows {
        let (name, fire) = match tracker {
            Some(t) => {
                let slo_alerts = mon.alerts.iter().filter(|a| a.slo == t.spec.name);
                (t.spec.name.clone(), alert_mark(slo_alerts, t_ns))
            }
            None => (metric.to_string(), "off"),
        };
        let _ = writeln!(
            out,
            "{:<20} {:>9.3} {:>9.3} {:>8.2} {:>8.2} {:>6}",
            name, p50, p99, burn_fast, burn_slow, fire
        );
    }
    out
}

fn run_gen_top(argv: &[String]) -> Result<(), CliError> {
    let GenRun {
        args,
        model,
        accel,
        scenario,
        live,
    } = gen_run(argv)?;

    eprintln!(
        "[top --generative] {} at {:.0} qps over {:.0} ms, concurrency {}, \
         KV pool {} pages; SLOs ttft p99 < {:.0} ms, tpot p99 < {:.0} ms",
        args.gen_model,
        args.qps,
        args.duration_ms,
        args.max_concurrency,
        scenario.kv.total_pages,
        args.ttft_deadline_ms,
        args.tpot_deadline_ms
    );

    let cache = artifact_cache(args.cache_dir.as_deref(), args.disk_cache);
    let mut mon = GenMonitor::new(live);
    dtu_harness::run_generative_serve_live(
        &accel, &model, &scenario, &cache, None, args.jobs, &mut mon,
    )
    .map_err(step_error("top"))?;

    let span_ns = args.span_s * 1e9;
    show_dashboard(args.once, mon.now_ns(), args.refresh_ms, |t_ns| {
        render_gen_top(&mon, t_ns, span_ns)
    });
    report_gen_alerts("top --generative", &mon);
    eprintln!(
        "[top --generative] flight recorder: {} spans in ring, {} dumps ({} triggers)",
        mon.flight.len(),
        mon.flight.dumps().len(),
        mon.flight.triggers()
    );
    Ok(())
}

flags! {
    /// `slo`'s own flags.
    struct Slo {
        flight_out: Option<String> = None, "--flight-out" => some(Scanner::value);
    }
}

fn run_slo(argv: &[String]) -> Result<(), CliError> {
    let (mut args, mut own) = (Grid::new(), Slo::new());
    args.plans = strings(&["none"]);
    args.severities = vec![1.0];
    args.scan(argv, "slo", |flag, s| own.flag(flag, s))?;
    let accel = accelerator(&args.chip, false)?;
    let grid = table_models(&args.models)?;
    let plans: Vec<&str> = args.plans.iter().map(String::as_str).collect();
    let cache = artifact_cache(args.cache_dir.as_deref(), args.disk_cache);
    let scenario = SloScenario::default();

    let started = std::time::Instant::now();
    let report = run_slo_sweep(
        &accel,
        &grid,
        &plans,
        &args.severities,
        args.seed,
        &scenario,
        &cache,
        args.jobs,
    )
    .map_err(step_error("slo"))?;
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    // The report is schedule-independent and goes to stdout, so two
    // runs of the same grid and seed are byte-identical; wall-clock
    // chatter stays on stderr.
    match args.format.as_str() {
        "table" => print!("{}", report.to_table()),
        _ => println!("{}", report.to_json()),
    }
    eprintln!(
        "[slo] {} points ({} models x {} plans x {} severities) on {} workers in {:.0} ms; \
         compliance {:.1}%; cache: {} memory + {} disk hits, {} misses",
        report.points.len(),
        report.models.len(),
        report.plans.len(),
        report.severities.len(),
        args.jobs,
        elapsed_ms,
        report.compliance() * 100.0,
        report.cache.memory_hits,
        report.cache.disk_hits,
        report.cache.misses
    );

    if let Some(path) = &own.flight_out {
        // Re-run the first grid point with its content-derived seed
        // (warm cache, so this is cheap) to recover the monitor and
        // its flight recorder.
        let seed = slo_point_seed(grid[0].name(), plans[0], args.severities[0], args.seed);
        let (_, mut mon) = run_slo_scenario(
            &accel,
            &grid[0],
            plans[0],
            args.severities[0],
            seed,
            &scenario,
            &cache,
        )
        .map_err(step_error("slo"))?;
        let end_ns = mon.now_ns();
        write_flight_dump(
            end_of_run_snapshot(&mut mon.flight, end_ns),
            &[],
            path,
            "slo",
        )?;
    }
    Ok(())
}

flags! {
    /// `fleet`'s and `fleet top`'s flags.
    struct Fleet {
        models: Vec<String> = Vec::new(), "--models" => Scanner::names;
        chips: usize = 4, "--chips" => Scanner::num;
        cards: usize = 1, "--cards" => Scanner::num;
        qps: Option<f64> = None, "--qps" => some(Scanner::qps);
        duration_ms: f64 = 10_000.0, "--duration" => Scanner::num;
        epoch_ms: f64 = 1_000.0, "--epoch" => Scanner::num;
        replicas: usize = 0, "--replicas" => Scanner::num;
        deadline_ms: f64 = 50.0, "--deadline" => Scanner::num;
        queue_depth: usize = 256, "--queue-depth" => Scanner::num;
        cells: usize = 2, "--cells" => Scanner::num;
        roll: bool = true, "--no-roll" => off;
        roll_start: Option<f64> = None, "--roll-start" => some(Scanner::num);
        roll_chips: Option<usize> = None, "--roll-chips" => some(Scanner::num);
        kill_chip: Option<usize> = None, "--kill-chip" => some(Scanner::num);
        kill_at: Option<f64> = None, "--kill-at" => some(Scanner::num);
        seed: u64 = 7, "--seed" => Scanner::num;
        chip: String = "i20".into(), "--chip" => Scanner::value;
        jobs: usize = available_jobs(), "--jobs" => Scanner::num;
        format: String = "json".into(), "--format" => Scanner::value;
        cache_dir: Option<String> = None, "--cache-dir" => some(Scanner::value);
        disk_cache: bool = true, "--no-disk-cache" => off;
        once: bool = false, "--once" => on;
        refresh_ms: u64 = 150, "--refresh-ms" => Scanner::num;
        slo: bool = false, "--slo" => on;
        monitor: bool = false, "--monitor" => on;
        flight_out: Option<String> = None, "--flight-out" => some(Scanner::value);
    }
}

fn render_fleet_top(frame: &FleetFrame) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet t={:.0}s  epoch={}  alerts={}",
        frame.t_ms / 1e3,
        frame.epoch,
        frame.alerts
    );
    let _ = writeln!(
        out,
        "{:<14} {:>8} {:>8} {:>8} {:>9} {:>8} {:>8} {:>6}",
        "tenant", "qps", "shed/s", "drop/s", "p99(ms)", "burn5s", "burn60s", "alert"
    );
    for t in &frame.tenants {
        let _ = writeln!(
            out,
            "{:<14} {:>8.0} {:>8.1} {:>8.1} {:>9.3} {:>8.2} {:>8.2} {:>6}",
            t.name,
            t.qps,
            t.shed_rate,
            t.drop_rate,
            t.p99_ms,
            t.burn_fast,
            t.burn_slow,
            if t.firing { "FIRE" } else { "-" }
        );
    }
    let _ = writeln!(
        out,
        "{:<6} {:>8} {:>8} {:>9} {:>8} {:>6}",
        "chip", "qps", "shed/s", "p99(ms)", "burn", "state"
    );
    for c in &frame.chips {
        let state = if c.dead {
            "DEAD"
        } else if c.fire {
            "FIRE"
        } else {
            "-"
        };
        let _ = writeln!(
            out,
            "{:<6} {:>8.0} {:>8.1} {:>9.3} {:>8.2} {:>6}",
            c.chip, c.qps, c.shed_rate, c.p99_ms, c.burn, state
        );
    }
    out
}

fn report_fleet_monitor(mon: &FleetMonitor) {
    for a in mon.alerts() {
        let scope = match (a.chip, a.tenant) {
            (Some(c), Some(t)) => format!("chip {c}, tenant {t}"),
            (Some(c), None) => format!("chip {c}"),
            (None, Some(t)) => format!("tenant {t}"),
            (None, None) => "fleet".to_string(),
        };
        eprintln!(
            "[fleet] e{} t={:.2}s {} alert `{}` ({scope})",
            a.epoch,
            a.event.t_ns / 1e9,
            a.event.kind.name(),
            a.event.slo
        );
    }
    for o in mon.top_offenders(3) {
        eprintln!(
            "[fleet] offender chip {} / {}: {:.0} bad ({:.0}% of burn)",
            o.chip,
            o.tenant,
            o.bad,
            o.share * 100.0
        );
    }
    eprintln!(
        "[fleet] flight recorder: {} dumps retained ({} triggers)",
        mon.dumps().len(),
        mon.triggers()
    );
}

fn run_fleet_cmd(argv: &[String]) -> Result<(), CliError> {
    // `topsexec fleet top ...` is the dashboard form of the command.
    let (top, argv) = match argv.split_first() {
        Some((first, rest)) if first == "top" => (true, rest),
        _ => (false, argv),
    };
    let mut args = Fleet::new();
    scan(argv, "fleet ", &[("--model", "--models")], |flag, s| {
        if !flag.starts_with('-') {
            args.models.push(flag.into());
            return Ok(true);
        }
        args.flag(flag, s)
    })
    .map_err(CliError::Usage)?;
    if args.models.is_empty() {
        args.models.push("resnet50".into());
    }
    let usage = |e: String| Err(CliError::Usage(e));
    if args.cards == 0 || args.chips == 0 || !args.chips.is_multiple_of(args.cards) {
        let (chips, cards) = (args.chips, args.cards);
        return usage(format!(
            "--chips {chips} must divide evenly over --cards {cards}"
        ));
    }
    if !matches!(args.format.as_str(), "table" | "json" | "prom") {
        let format = &args.format;
        return usage(format!(
            "--format must be table, json, or prom, got '{format}'"
        ));
    }
    if args.once && !top {
        return usage("--once only applies to `fleet top`".into());
    }
    let chip_cfg = chip_by_name(&args.chip)?;
    let topology =
        FleetTopology::homogeneous(args.cards, args.chips / args.cards, &chip_cfg).map_err(fail)?;
    let qps_total = args.qps.unwrap_or(7_500.0 * topology.len() as f64);
    let qps_per_model = qps_total / args.models.len() as f64;
    let tenants: Vec<FleetTenant> = table_models(&args.models)?
        .into_iter()
        .map(|m| {
            let mut tenant = FleetTenant::new(m, qps_per_model);
            tenant.replicas = args.replicas;
            tenant.deadline_ms = args.deadline_ms;
            tenant.queue_depth = args.queue_depth;
            tenant
        })
        .collect();
    let cache = artifact_cache(args.cache_dir.as_deref(), args.disk_cache);
    let cfg = FleetConfig {
        duration_ms: args.duration_ms,
        epoch_ms: args.epoch_ms,
        seed: args.seed,
        cells_per_replica: args.cells,
        roll: args.roll.then(|| {
            RollPlan::new(
                args.roll_start.unwrap_or(args.duration_ms * 0.2),
                args.roll_chips
                    .unwrap_or_else(|| (topology.len() / 4).max(1)),
            )
        }),
        kill: args.kill_chip.map(|chip| ChipKill {
            chip,
            at_ms: args.kill_at.unwrap_or(args.duration_ms * 0.5),
        }),
    };

    // The dashboard, compliance report, and flight dump all need the
    // fleet monitor; a plain run skips it entirely. Either way the
    // stdout report is byte-identical — the monitor is observational.
    let monitored = top || args.slo || args.monitor || args.flight_out.is_some();
    let started = std::time::Instant::now();
    let (report, monitor) = if monitored {
        run_fleet_monitored(&topology, &tenants, &cfg, &cache, args.jobs).map(|(r, m)| (r, Some(m)))
    } else {
        run_fleet(&topology, &tenants, &cfg, &cache, args.jobs).map(|r| (r, None))
    }
    .map_err(step_error("fleet"))?;
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    // Everything on stdout is schedule-independent; the wall-clock
    // chatter and cache tally stay on stderr.
    if top {
        let frames = monitor.as_ref().expect("top runs monitored").frames();
        if args.once {
            if let Some(f) = frames.last() {
                print!("{}", render_fleet_top(f));
            }
        } else {
            // The run is already simulated; replay it one routing
            // epoch per frame against the retained rollups.
            replay(frames.iter().map(render_fleet_top), args.refresh_ms);
        }
    } else if args.slo {
        let mon = monitor.as_ref().expect("--slo runs monitored");
        println!("{}", mon.compliance_json());
    } else {
        match args.format.as_str() {
            "table" => print!("{}", report.to_table()),
            "prom" => print!("{}", report.to_prometheus()),
            _ => println!("{}", report.to_json()),
        }
    }
    let availability = if report.offered == 0 {
        1.0
    } else {
        report.completed as f64 / report.offered as f64
    };
    eprintln!(
        "[fleet] {} chips x {} epochs on {} workers in {:.0} ms; {} offered, \
         availability {:.3}, {} lost / {} rolled; cache: {} memory + {} disk hits, {} misses",
        report.chips,
        report.epochs,
        args.jobs,
        elapsed_ms,
        report.offered,
        availability,
        report.chips_lost,
        report.chips_rolled,
        report.cache.memory_hits,
        report.cache.disk_hits,
        report.cache.misses
    );
    if let Some(mut mon) = monitor {
        report_fleet_monitor(&mon);
        if let Some(path) = &args.flight_out {
            if mon.dumps().is_empty() {
                // Nothing went wrong: freeze the worst-burning (or
                // first) chip's ring so the flag always yields a trace.
                let chip = mon.top_offenders(1).first().map_or(0, |o| o.chip);
                mon.snapshot_chip(chip, "end-of-run snapshot");
            }
            // A whole-chip loss is the incident the operator came for:
            // prefer its black box over an earlier burn-rate page.
            write_flight_dump(mon.dumps(), &["killed"], path, "fleet")?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `serve` and `top` with `--generative` (or `--llm`) run the
    // continuous-batching token-level engine; without it they stay
    // the multi-tenant request-level scenario.
    let generative = argv.iter().any(|a| a == "--generative" || a == "--llm");
    let rest = argv.get(1..).unwrap_or_default();
    let result = match argv.first().map(String::as_str) {
        Some("serve") if generative => run_genserve(rest),
        Some("serve") => run_serve(rest),
        Some("top") if generative => run_gen_top(rest),
        Some("top") => run_top(rest),
        Some("profile") => run_profile(rest),
        Some("sweep") => run_sweep_cmd(rest),
        Some("faults") => run_faults(rest),
        Some("slo") => run_slo(rest),
        Some("fleet") => run_fleet_cmd(rest),
        _ => run_measure(&argv),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(reason)) => {
            if !reason.is_empty() {
                eprintln!("error: {reason}\n");
            }
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
        Err(CliError::Run(message)) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
