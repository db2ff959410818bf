//! Workload inputs: every spec of every workload, derived from one seed.
//!
//! The seed picks simulation seeds and mild parameter jitter only, so the
//! amount of work — and therefore the wall time the benchmark measures —
//! stays nearly the same from seed to seed.

use ltds_fleet::{
    BurstProfile, FleetCampaign, FleetConfig, FleetScenario, FleetTopology, RepairBandwidth,
};
use ltds_sim::campaign::{Campaign, SweepAxis, SweepSpec};
use ltds_sim::config::{DetectionModel, SimConfig};
use ltds_stochastic::SimRng;
use std::path::Path;

/// Hours in a year, as the fleet engine counts them.
const YEAR: f64 = 8_766.0;

/// Trials per point of the sweep study: each fresh point's cache record
/// carries every loss time, about 370 KB at this size.
pub const SWEEP_TRIALS: u64 = 20_000;

/// Points per sweep of the sweep study; the study cache holds the first
/// [`SWEEP_STUDY_POINTS`] of every sweep.
pub const SWEEP_POINTS: usize = 4;
/// Points per sweep already in the sweep study's cache.
pub const SWEEP_STUDY_POINTS: usize = 1;
/// Sweeps in the sweep study.
pub const SWEEPS: usize = 8;

/// Tenants submitted per round of `tenants_tcp`.
pub const TENANTS: usize = 100;
/// Sweep points per tenant; the first [`TENANT_SHARED`] are in the study
/// cache, computed by an earlier submission of the same tenant.
pub const TENANT_POINTS: usize = 4;
/// Points of each tenant the study cache answers.
pub const TENANT_SHARED: usize = 2;
/// Trials per tenant point: cheap enough that compute is negligible.
pub const TENANT_TRIALS: u64 = 200;

/// Groups in the paper-scale enterprise fleet.
pub const ENTERPRISE_GROUPS: usize = 1_000_000;
/// Groups in each event-dense fleet.
pub const DENSE_GROUPS: usize = 2_000;
/// Event-dense fleets in the fleet study.
pub const DENSE_FLEETS: usize = 2;

/// Jitter of fleet failure rates. A fleet's event count scales with its
/// rates, so wider jitter would make the fleet study's work, and its
/// throughput, depend on the seed.
const FLEET_JITTER: f64 = 0.01;

/// Uniform jitter in `[1 - spread, 1 + spread]`.
fn jitter(rng: &mut SimRng, spread: f64) -> f64 {
    rng.uniform_range(1.0 - spread, 1.0 + spread)
}

/// A seed for a simulation, kept well inside `u32` so derived seeds
/// (`seed + grid index`) never wrap.
fn sim_seed(rng: &mut SimRng) -> u64 {
    1 + rng.index(1 << 30) as u64
}

/// The paper-scale enterprise fleet: 1 000 drives (5 sites × 5 racks × 5
/// nodes × 8 drives) carrying a million triplicated groups for a decade,
/// under the disaster scenario's rack, node and drive bursts and a wide
/// repair pipeline.
///
/// Site disasters are left out. One strikes a fifth of the fleet, and a
/// decade holds a Poisson(1) count of them, so with them the fleet's work
/// varied by 15 % (sd) from seed to seed against 5 % without.
pub fn enterprise_fleet(rng: &mut SimRng) -> FleetConfig {
    let topology = FleetTopology::new(5, 5, 5, 8).expect("valid topology");
    let group = SimConfig::new(
        3,
        1,
        1.4e6 * jitter(rng, FLEET_JITTER),
        2.8e5 * jitter(rng, FLEET_JITTER),
        12.0,
        12.0,
        DetectionModel::PeriodicScrub { period_hours: 2_920.0 },
        1.0,
    )
    .expect("valid group");
    FleetConfig::new(topology, ENTERPRISE_GROUPS, group)
        .expect("valid fleet")
        .with_horizon_hours(10.0 * YEAR)
        .with_bursts(BurstProfile { site_mtbf_hours: None, ..BurstProfile::disaster_scenario() })
        .with_repair_bandwidth(RepairBandwidth::PerSiteBytesPerHour(1e12), 1e12)
}

/// The per-group configuration of an event-dense fleet: a fragile scrubbed
/// mirror whose groups lose data many times a year.
pub fn dense_group(rng: &mut SimRng) -> SimConfig {
    let scale = jitter(rng, FLEET_JITTER);
    SimConfig::mirrored_disks(200.0 * scale, 1_000.0 * scale, 2.0, 2.0, Some(50.0), 1.0)
        .expect("valid group")
}

/// An event-dense fleet: 2 000 fragile mirrored groups on 64 drives, no
/// bursts, unlimited repair bandwidth — so each group behaves exactly as
/// the per-group simulator's trials do, and the fleet's MTTDL can be
/// checked against a per-group Monte Carlo.
pub fn dense_fleet(group: SimConfig) -> FleetConfig {
    let topology = FleetTopology::new(2, 2, 2, 8).expect("valid topology");
    FleetConfig::new(topology, DENSE_GROUPS, group)
        .expect("valid fleet")
        .with_horizon_hours(10.0 * YEAR)
}

/// The base of every sweep-study sweep: a scrubbed mirror in the regime
/// where the closed forms hold (windows short against the MTTFs).
fn sweep_base(rng: &mut SimRng) -> SimConfig {
    SimConfig::mirrored_disks(
        2_000.0 * jitter(rng, 0.05),
        2_000.0 * jitter(rng, 0.05),
        2.0,
        2.0,
        Some(20.0),
        1.0,
    )
    .expect("valid base")
}

/// Every input of every workload for one seed.
pub struct Inputs {
    /// `fleet_study`: the earlier study (one enterprise scenario).
    pub fleet_study: FleetCampaign,
    /// `fleet_study`: the extension the benchmark runs.
    pub fleet_extend: FleetCampaign,
    /// `sweep_study`: the earlier, coarser study.
    pub sweep_study: FleetCampaign,
    /// `sweep_study`: the refinement the benchmark runs.
    pub sweep_refine: FleetCampaign,
    /// `tenants_tcp`: what earlier submissions of the tenants computed.
    pub tenants_study: FleetCampaign,
    /// `tenants_tcp`: the tenants submitted each round, in order.
    pub tenants: Vec<FleetCampaign>,
}

/// Builds the inputs of every workload from `seed`. Each workload draws
/// from its own fork of the seed's stream, so changing one workload's
/// make-up leaves the others' inputs alone.
pub fn generate(seed: u64) -> Inputs {
    let master = SimRng::seed_from(seed);

    let mut rng = master.fork(1);
    let prior = FleetScenario {
        name: "enterprise_prior".to_string(),
        fleet: enterprise_fleet(&mut rng),
        seed: sim_seed(&mut rng),
    };
    let fresh = FleetScenario {
        name: "enterprise_decade".to_string(),
        fleet: enterprise_fleet(&mut rng),
        seed: sim_seed(&mut rng),
    };
    let mut scenarios = vec![prior.clone(), fresh];
    for i in 0..DENSE_FLEETS {
        scenarios.push(FleetScenario {
            name: format!("dense_{i}"),
            fleet: dense_fleet(dense_group(&mut rng)),
            seed: sim_seed(&mut rng),
        });
    }
    let fleet_study =
        Campaign { name: "fleet_study".to_string(), sweeps: Vec::new(), scenarios: vec![prior] };
    let fleet_extend = Campaign { name: "fleet_study".to_string(), sweeps: Vec::new(), scenarios };

    let mut rng = master.fork(2);
    let mut refine = Vec::new();
    for s in 0..SWEEPS {
        let base = sweep_base(&mut rng);
        let seed = sim_seed(&mut rng);
        let axis = match s % 3 {
            0 => SweepAxis::ScrubPeriod {
                periods_hours: (0..SWEEP_POINTS)
                    .map(|i| 10.0 * (i + 1) as f64 * jitter(&mut rng, 0.05))
                    .collect(),
            },
            1 => SweepAxis::Alpha {
                alphas: (0..SWEEP_POINTS).map(|i| 1.0 - 0.1 * i as f64).collect(),
            },
            _ => SweepAxis::Replication {
                replica_counts: (0..SWEEP_POINTS).map(|i| 2 + i % 2).collect(),
                alpha: 1.0,
            },
        };
        // Replica-count sweeps run on a fragile base: three-way loss on the
        // study's base would cost ~60x a mirrored point, and one point would
        // dominate the run.
        let base = match axis {
            SweepAxis::Replication { .. } => SimConfig::mirrored_disks(
                200.0 * jitter(&mut rng, 0.05),
                200.0 * jitter(&mut rng, 0.05),
                2.0,
                2.0,
                Some(20.0),
                1.0,
            )
            .expect("valid base"),
            _ => base,
        };
        refine.push(SweepSpec {
            name: format!("sweep_{s}"),
            base,
            axis,
            trials: SWEEP_TRIALS,
            seed,
        });
    }
    let study = refine
        .iter()
        .map(|spec| SweepSpec { axis: prefix(&spec.axis, SWEEP_STUDY_POINTS), ..spec.clone() })
        .collect();
    let sweep_study =
        Campaign { name: "sweep_study".to_string(), sweeps: study, scenarios: Vec::new() };
    let sweep_refine =
        Campaign { name: "sweep_study".to_string(), sweeps: refine, scenarios: Vec::new() };

    let mut rng = master.fork(3);
    let mut tenants = Vec::new();
    let mut shared = Vec::new();
    for t in 0..TENANTS {
        let base = SimConfig::mirrored_disks(
            1_000.0 * jitter(&mut rng, 0.05),
            5_000.0 * jitter(&mut rng, 0.05),
            10.0,
            10.0,
            Some(100.0),
            1.0,
        )
        .expect("valid tenant base");
        let sweep = SweepSpec {
            name: "scrub".to_string(),
            base,
            axis: SweepAxis::ScrubPeriod {
                periods_hours: (0..TENANT_POINTS).map(|i| 25.0 * (1 << i) as f64).collect(),
            },
            trials: TENANT_TRIALS,
            seed: sim_seed(&mut rng),
        };
        shared.push(SweepSpec {
            name: format!("tenant_{t:03}"),
            axis: prefix(&sweep.axis, TENANT_SHARED),
            ..sweep.clone()
        });
        tenants.push(Campaign {
            name: format!("tenant_{t:03}"),
            sweeps: vec![sweep],
            scenarios: Vec::new(),
        });
    }
    let tenants_study =
        Campaign { name: "tenants_study".to_string(), sweeps: shared, scenarios: Vec::new() };

    Inputs { fleet_study, fleet_extend, sweep_study, sweep_refine, tenants_study, tenants }
}

/// The first `n` points of an axis: the same grid indices, and therefore
/// the same derived seeds and cache keys, as the full axis.
fn prefix(axis: &SweepAxis, n: usize) -> SweepAxis {
    match axis {
        SweepAxis::ScrubPeriod { periods_hours } => {
            SweepAxis::ScrubPeriod { periods_hours: periods_hours[..n].to_vec() }
        }
        SweepAxis::Alpha { alphas } => SweepAxis::Alpha { alphas: alphas[..n].to_vec() },
        SweepAxis::Replication { replica_counts, alpha } => {
            SweepAxis::Replication { replica_counts: replica_counts[..n].to_vec(), alpha: *alpha }
        }
        SweepAxis::Policy { policies } => SweepAxis::Policy { policies: policies[..n].to_vec() },
    }
}

/// Work units of a campaign: one per sweep point and one per fleet shard.
fn units(campaign: &FleetCampaign) -> usize {
    campaign.sweeps.iter().map(|s| s.axis.len()).sum::<usize>()
        + campaign.scenarios.iter().map(|s| s.fleet.shards).sum::<usize>()
}

/// Writes every spec of `inputs` under `dir`, one JSON file per campaign,
/// plus `manifest.json`: the units each run of a spec computes and how
/// many of them its study cache answers.
pub fn write(inputs: &Inputs, dir: &Path) -> std::io::Result<()> {
    let put = |sub: &str, name: &str, campaign: &FleetCampaign| -> std::io::Result<()> {
        let dir = dir.join(sub);
        std::fs::create_dir_all(&dir)?;
        let json = serde_json::to_string(campaign).expect("campaign serializes");
        std::fs::write(dir.join(name), json + "\n")
    };
    put("fleet_study", "study.json", &inputs.fleet_study)?;
    put("fleet_study", "spec.json", &inputs.fleet_extend)?;
    put("sweep_study", "study.json", &inputs.sweep_study)?;
    put("sweep_study", "spec.json", &inputs.sweep_refine)?;
    put("tenants_tcp", "study.json", &inputs.tenants_study)?;
    for (t, tenant) in inputs.tenants.iter().enumerate() {
        put("tenants_tcp", &format!("tenant-{t:03}.json"), tenant)?;
    }
    let tenant_units: Vec<usize> = inputs.tenants.iter().map(units).collect();
    let manifest = format!(
        "{{\"fleet_study\":{{\"units\":{},\"hits\":{}}},\
         \"sweep_study\":{{\"units\":{},\"hits\":{}}},\
         \"tenants_tcp\":{{\"tenants\":{},\"units\":{},\"hits\":{}}}}}\n",
        units(&inputs.fleet_extend),
        units(&inputs.fleet_study),
        units(&inputs.sweep_refine),
        units(&inputs.sweep_study),
        inputs.tenants.len(),
        tenant_units.iter().sum::<usize>(),
        units(&inputs.tenants_study),
    );
    std::fs::write(dir.join("manifest.json"), manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every file `write` produces for `seed`, by name.
    fn files(seed: u64, dir: &Path) -> Vec<(String, Vec<u8>)> {
        let _ = std::fs::remove_dir_all(dir);
        write(&generate(seed), dir).expect("inputs write");
        let mut files = Vec::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(at) = stack.pop() {
            for entry in std::fs::read_dir(&at).expect("readable").map(|e| e.expect("entry")) {
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    let name = path.strip_prefix(dir).expect("under dir").display().to_string();
                    files.push((name, std::fs::read(&path).expect("readable")));
                }
            }
        }
        std::fs::remove_dir_all(dir).expect("removable");
        files.sort();
        files
    }

    #[test]
    fn the_same_seed_writes_byte_identical_inputs() {
        let dir = std::env::temp_dir().join(format!("e2ebench-gen-{}", std::process::id()));
        let first = files(7, &dir);
        assert_eq!(first.len(), 6 + TENANTS, "five study/spec files, the manifest, every tenant");
        assert_eq!(first, files(7, &dir), "same seed, same bytes");
        let other = files(8, &dir);
        assert_eq!(first.len(), other.len());
        for ((name, a), (_, b)) in first.iter().zip(&other) {
            if name != "manifest.json" {
                assert_ne!(a, b, "{name} must depend on the seed");
            }
        }
    }

    #[test]
    fn studies_share_their_points_with_the_runs() {
        let inputs = generate(7);
        assert_eq!(units(&inputs.sweep_refine), SWEEPS * SWEEP_POINTS);
        assert_eq!(4 * units(&inputs.sweep_study), units(&inputs.sweep_refine));
        for (study, run) in inputs.sweep_study.sweeps.iter().zip(&inputs.sweep_refine.sweeps) {
            assert_eq!((study.seed, study.trials), (run.seed, run.trials));
            assert_eq!(prefix(&run.axis, SWEEP_STUDY_POINTS), study.axis);
        }
        let prior = &inputs.fleet_study.scenarios[0];
        assert_eq!(prior.seed, inputs.fleet_extend.scenarios[0].seed);
        assert_eq!(prior.fleet, inputs.fleet_extend.scenarios[0].fleet);
        for (tenant, shared) in inputs.tenants.iter().zip(&inputs.tenants_study.sweeps) {
            assert_eq!(tenant.sweeps[0].seed, shared.seed);
            assert_eq!(prefix(&tenant.sweeps[0].axis, TENANT_SHARED), shared.axis);
        }
    }
}
