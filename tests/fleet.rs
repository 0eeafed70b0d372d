//! Fleet-layer integration tests: routing determinism across worker
//! counts and cache temperature, the power-of-two-choices balance
//! bound, chip-loss accounting, compile sharing through the
//! content-addressed session cache, the run-scoped service-latency
//! memo, and rolling-deploy availability.

use dtu_fleet::{
    run_fleet, run_fleet_monitored, ChipKill, FleetChip, FleetConfig, FleetTenant, FleetTopology,
    RollPlan,
};
use dtu_graph::{Graph, Op, TensorType};
use dtu_harness::{SessionCache, SweepModel};
use dtu_sim::ChipConfig;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn toy_model() -> SweepModel<'static> {
    SweepModel::new("toy", |batch| {
        let mut g = Graph::new("toy");
        let x = g.input("x", TensorType::fixed(&[batch, 16, 24, 24]));
        let c = g.add_node(Op::conv2d(16, 3, 1, 1), vec![x]).unwrap();
        g.mark_output(c);
        g
    })
}

fn wide_model() -> SweepModel<'static> {
    SweepModel::new("wide", |batch| {
        let mut g = Graph::new("wide");
        let x = g.input("x", TensorType::fixed(&[batch, 32, 16, 16]));
        let c = g.add_node(Op::conv2d(32, 3, 1, 1), vec![x]).unwrap();
        let r = g.add_node(Op::Relu, vec![c]).unwrap();
        g.mark_output(r);
        g
    })
}

fn tiny_cfg(seed: u64) -> FleetConfig {
    FleetConfig {
        duration_ms: 1000.0,
        epoch_ms: 500.0,
        seed,
        cells_per_replica: 2,
        roll: None,
        kill: None,
    }
}

proptest! {
    /// The fleet report's JSON is a pure function of (topology,
    /// tenants, config): byte-identical whether the per-chip epoch
    /// simulations ran on one worker or four, and whether the artifact
    /// cache was cold or pre-warmed by a previous identical run.
    #[test]
    fn fleet_json_is_byte_identical_across_jobs_and_cache_temperature(seed in 0u64..1000) {
        let topo = FleetTopology::homogeneous(1, 2, &ChipConfig::dtu20()).unwrap();
        let cfg = tiny_cfg(seed);

        let cold = SessionCache::memory_only();
        let tenants = vec![FleetTenant::new(toy_model(), 600.0)];
        let j1 = run_fleet(&topo, &tenants, &cfg, &cold, 1).unwrap().to_json();

        let tenants = vec![FleetTenant::new(toy_model(), 600.0)];
        let j4 = run_fleet(&topo, &tenants, &cfg, &cold, 4).unwrap().to_json();
        prop_assert_eq!(&j1, &j4, "jobs 1 vs 4 diverged");

        // `cold` is now warm: every artifact of the run is cached.
        let tenants = vec![FleetTenant::new(toy_model(), 600.0)];
        let warm = run_fleet(&topo, &tenants, &cfg, &cold, 4).unwrap();
        prop_assert_eq!(&j1, &warm.to_json(), "cold vs warm cache diverged");
        prop_assert_eq!(warm.cache.misses, 0, "a warm cache compiles nothing");
    }
}

/// Power-of-two-choices keeps per-chip offered load within a small
/// constant factor under uniform traffic — no chip starves, no chip
/// hot-spots.
#[test]
fn fleet_load_stays_balanced_under_uniform_traffic() {
    let topo = FleetTopology::homogeneous(2, 4, &ChipConfig::dtu20()).unwrap();
    let tenants = vec![FleetTenant::new(toy_model(), 4000.0)];
    let cache = SessionCache::memory_only();
    let cfg = FleetConfig {
        duration_ms: 4000.0,
        epoch_ms: 500.0,
        ..tiny_cfg(11)
    };
    let r = run_fleet(&topo, &tenants, &cfg, &cache, 2).unwrap();
    assert!(r.chips_detail.iter().all(|c| c.offered > 0));
    assert!(
        r.load_ratio <= 2.0,
        "p2c bound violated: load ratio {}",
        r.load_ratio
    );
    assert!(r.accounting_balances());
}

/// Killing a whole chip mid-run loses capacity, not requests: the
/// scheduler re-places replicas on survivors and
/// `offered == completed + shed + fault_dropped` holds fleet-wide,
/// per tenant, and per chip.
#[test]
fn chip_loss_preserves_the_accounting_invariant() {
    let topo = FleetTopology::homogeneous(1, 4, &ChipConfig::dtu20()).unwrap();
    let mut tenant = FleetTenant::new(toy_model(), 2000.0);
    tenant.replicas = 2;
    let cache = SessionCache::memory_only();
    let cfg = FleetConfig {
        duration_ms: 3000.0,
        epoch_ms: 1000.0,
        kill: Some(ChipKill {
            chip: 0,
            at_ms: 1400.0,
        }),
        ..tiny_cfg(7)
    };
    let r = run_fleet(&topo, &[tenant], &cfg, &cache, 2).unwrap();
    assert_eq!(r.chips_lost, 1);
    assert!(r.chips_detail[0].dead);
    assert_eq!(
        r.chips_detail[0].groups_lost,
        ChipConfig::dtu20().total_groups() as u64
    );
    assert_eq!(r.replica_moves, 1, "the lost replica moved to a survivor");
    assert!(r.accounting_balances(), "accounting leaked after chip loss");
    assert!(r.completed > 0, "survivors kept serving");
}

/// The compile-sharing audit: one model on K identical chips compiles
/// each (graph, batch, placement) artifact exactly once fleet-wide —
/// every other replica hits the shared content-addressed cache. Run
/// with one worker so no two chips race to compile the same artifact
/// (cache counters are schedule-dependent under concurrency).
#[test]
fn identical_chips_share_compiled_sessions_fleet_wide() {
    let chip = ChipConfig::dtu20();
    let cfg = tiny_cfg(3);

    // Baseline: the artifacts one chip alone compiles at this rate.
    let solo_cache = SessionCache::memory_only();
    let solo_topo = FleetTopology::homogeneous(1, 1, &chip).unwrap();
    let tenants = vec![FleetTenant::new(toy_model(), 500.0)];
    let solo = run_fleet(&solo_topo, &tenants, &cfg, &solo_cache, 1).unwrap();
    assert!(solo.cache.misses > 0, "the solo run compiles something");

    // K chips at K x the load dispatch the same batch buckets, yet the
    // fleet compiles no more artifacts than the single chip did.
    let k = 4;
    let fleet_cache = SessionCache::memory_only();
    let fleet_topo = FleetTopology::homogeneous(1, k, &chip).unwrap();
    let tenants = vec![FleetTenant::new(toy_model(), 500.0 * k as f64)];
    let fleet = run_fleet(&fleet_topo, &tenants, &cfg, &fleet_cache, 1).unwrap();
    assert_eq!(
        fleet.cache.misses, solo.cache.misses,
        "K identical chips must compile each artifact exactly once"
    );
    assert!(
        fleet.cache.memory_hits > solo.cache.memory_hits,
        "the other K-1 replicas hit the shared cache"
    );
}

/// A rolling deploy swaps every chip to the new version and reports
/// per-tenant availability over the epochs the roll was in flight.
#[test]
fn rolling_deploy_reports_availability_during_the_roll() {
    let topo = FleetTopology::homogeneous(1, 4, &ChipConfig::dtu20()).unwrap();
    let tenants = vec![FleetTenant::new(toy_model(), 2000.0)];
    let cache = SessionCache::memory_only();
    let cfg = FleetConfig {
        duration_ms: 5000.0,
        epoch_ms: 1000.0,
        roll: Some(RollPlan::new(1000.0, 1)),
        ..tiny_cfg(5)
    };
    let r = run_fleet(&topo, &tenants, &cfg, &cache, 2).unwrap();
    assert_eq!(r.chips_rolled, 4);
    assert!(r.chips_detail.iter().all(|c| c.version == "v2"));
    let avail = r.tenants[0]
        .roll_availability
        .expect("traffic arrived during the roll");
    assert!(avail > 0.0 && avail <= 1.0);
    assert!(r.accounting_balances());
}

/// Four DTU 2.0 chips whose configs differ only by name. The name is
/// part of every session fingerprint, so no two chips share a cache
/// entry: after a cold run the cache's entry count is an independent
/// tally of the distinct (chip, tenant, batch, placement) sessions the
/// run looked up.
fn named_chips() -> FleetTopology {
    let chips = (0..4)
        .map(|i| {
            let mut config = ChipConfig::dtu20();
            config.name = format!("{} #{i}", config.name);
            FleetChip {
                card: 0,
                slot: i,
                config,
            }
        })
        .collect();
    FleetTopology::from_chips(chips).unwrap()
}

/// Two tenants on twenty 500 ms epochs with a one-chip-per-epoch roll.
fn memo_cfg() -> FleetConfig {
    FleetConfig {
        duration_ms: 10_000.0,
        epoch_ms: 500.0,
        roll: Some(RollPlan::new(1000.0, 1)),
        ..tiny_cfg(13)
    }
}

fn two_tenants() -> Vec<FleetTenant<'static>> {
    vec![
        FleetTenant::new(toy_model(), 1600.0),
        FleetTenant::new(wide_model(), 900.0),
    ]
}

/// The run-scoped latency memo prices each (chip, tenant, batch,
/// placement) once per run: later epochs on the same chip never go back
/// to the session cache. So the run makes fewer cache lookups than it
/// runs chip-epochs (each of which used to look up every session it
/// dispatched), and exactly one lookup per distinct session.
#[test]
fn latency_memo_looks_up_each_session_once_per_run() {
    let topo = named_chips();
    let cfg = memo_cfg();
    let cache = SessionCache::memory_only();
    let (report, mut fm) = run_fleet_monitored(&topo, &two_tenants(), &cfg, &cache, 1).unwrap();
    assert!(report.accounting_balances());
    assert_eq!(report.epochs, 20);
    assert_eq!(report.chips_rolled, 4);

    // Chip-epochs with traffic, read back from the routing markers
    // ("route e<epoch> <tenant>-><chip> ...") a flight dump carries.
    fm.snapshot_chip(0, "memo audit");
    let dump = fm.dumps().last().expect("snapshot dumps");
    let served: BTreeSet<(String, String)> = dump
        .spans
        .iter()
        .filter_map(|s| {
            let rest = s.label.strip_prefix("route e")?;
            let (epoch, rest) = rest.split_once(' ')?;
            let chip = rest.split_once("->")?.1.split_once(' ')?.0;
            Some((epoch.to_string(), chip.to_string()))
        })
        .collect();
    assert!(
        served.len() >= 60,
        "most chip-epochs carry traffic: {served:?}"
    );

    let lookups = report.cache.lookups();
    assert!(
        lookups < served.len() as u64,
        "{lookups} lookups for {} chip-epochs with traffic",
        served.len()
    );
    assert_eq!(
        lookups,
        cache.memory_entries() as u64,
        "one lookup per distinct (chip, tenant, batch, placement) session"
    );
    assert_eq!(
        report.cache.misses, lookups,
        "a cold cache misses each once"
    );
}

/// A mid-epoch chip kill re-runs the epoch truncated, reusing the
/// chip's memo; the report stays byte-identical across worker counts.
#[test]
fn latency_memo_keeps_kill_runs_identical_across_jobs() {
    let topo = FleetTopology::homogeneous(1, 4, &ChipConfig::dtu20()).unwrap();
    let cfg = FleetConfig {
        kill: Some(ChipKill {
            chip: 1,
            at_ms: 5250.0,
        }),
        ..memo_cfg()
    };
    let j1 = run_fleet(&topo, &two_tenants(), &cfg, &SessionCache::memory_only(), 1).unwrap();
    let j4 = run_fleet(&topo, &two_tenants(), &cfg, &SessionCache::memory_only(), 4).unwrap();
    assert_eq!(j1.chips_lost, 1);
    assert!(j1.chips_detail[1].dead);
    assert!(
        j1.chips_detail[1].offered > 0,
        "the chip served before dying"
    );
    assert!(j1.accounting_balances());
    assert_eq!(j1.to_json(), j4.to_json());
}
