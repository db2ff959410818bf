//! Output checks. Every check compares the program's report against a
//! computation made here, separately from the program's run, or against a
//! property the method must have — never against a stored copy of output.

use crate::spec;
use ltds_fleet::{FleetCampaign, FleetScenario, FleetSim, RepairBandwidth, ShardOutcome};
use ltds_sim::campaign::{RecordKind, StreamRecord, SweepAxis, SweepSpec};
use ltds_sim::config::{DetectionModel, RareEventStrategy, SimConfig};
use ltds_sim::monte_carlo::MonteCarlo;
use ltds_sim::sweep::SweepPoint;
use ltds_sim::validate::analytic_predictions;
use ltds_sim::Scenario;
use serde::{Deserialize, Serialize};

/// Largest `window / (α · MTTF)` at which a mirrored point is held to the
/// closed form. E09 validates the closed forms at ratios up to ~0.02; the
/// bias grows with the ratio (about 3.5 % at 0.011).
const CLOSED_FORM_MAX_WINDOW_RATIO: f64 = 0.015;

/// Trials of the per-group Monte Carlo a dense fleet is checked against.
const DENSE_MC_TRIALS: u64 = 16_000;

/// How many combined 95 % half-widths a dense fleet's MTTDL may sit from
/// the per-group Monte Carlo's. Twice the 95 % widths is about the 99.99 %
/// combined interval: over 80 probe fleets the gap reached 1.14 widths, a
/// false alarm is below 1e-5 per fleet, and a 5 % kernel bias still fails.
const DENSE_CI_SCALE: f64 = 2.0;

/// Parses a streamed report (one JSON record per line).
pub fn read_report(path: &str) -> Result<Vec<StreamRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .map(|line| serde_json::from_str(line).map_err(|e| format!("bad record in {path}: {e}")))
        .collect()
}

/// Reads a campaign spec.
pub fn read_spec(path: &str) -> Result<FleetCampaign, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// The configuration of grid point `i` of `spec`, built from the public
/// constructors with the semantics the campaign documents for each axis.
pub fn point_config(spec: &SweepSpec, i: usize) -> SimConfig {
    let b = spec.base;
    let config = match &spec.axis {
        SweepAxis::ScrubPeriod { periods_hours } => {
            let p = periods_hours[i];
            SimConfig::mirrored_disks(
                b.mttf_visible_hours,
                b.mttf_latent_hours,
                b.repair_visible_hours,
                b.repair_latent_hours,
                p.is_finite().then_some(p),
                b.alpha,
            )
        }
        SweepAxis::Alpha { alphas } => SimConfig::new(
            b.replicas,
            b.min_intact,
            b.mttf_visible_hours,
            b.mttf_latent_hours,
            b.repair_visible_hours,
            b.repair_latent_hours,
            b.detection,
            alphas[i],
        ),
        SweepAxis::Replication { replica_counts, alpha } => SimConfig::new(
            replica_counts[i],
            1,
            b.mttf_visible_hours,
            b.mttf_latent_hours,
            b.repair_visible_hours,
            b.repair_latent_hours,
            b.detection,
            *alpha,
        ),
        SweepAxis::Policy { policies } => Ok(b.with_policy(policies[i])),
    }
    .expect("generated points are valid");
    config.with_max_hours(b.max_hours).with_draw(b.draw).with_strategy(b.strategy)
}

/// The swept value of grid point `i`.
fn point_x(axis: &SweepAxis, i: usize) -> f64 {
    match axis {
        SweepAxis::ScrubPeriod { periods_hours } => periods_hours[i],
        SweepAxis::Alpha { alphas } => alphas[i],
        SweepAxis::Replication { replica_counts, .. } => replica_counts[i] as f64,
        SweepAxis::Policy { policies } => policies[i].storage_overhead(),
    }
}

/// E09's tolerance for a point where the closed form applies, or `None`
/// where it does not (long windows, more replicas, accelerated sampling).
fn closed_form_tolerance(config: &SimConfig) -> Option<f64> {
    let DetectionModel::PeriodicScrub { period_hours } = config.detection else { return None };
    if config.replicas != 2
        || config.min_intact != 1
        || config.strategy != RareEventStrategy::Vanilla
    {
        return None;
    }
    let window = config.repair_visible_hours.max(config.repair_latent_hours + period_hours / 2.0);
    let mttf = config.mttf_visible_hours.min(config.mttf_latent_hours);
    if window / (config.alpha * mttf) > CLOSED_FORM_MAX_WINDOW_RATIO {
        return None;
    }
    Some(if config.alpha < 1.0 { 0.12 } else { 0.10 })
}

/// One grid point as the report must carry it.
struct ExpectedPoint<'a> {
    sweep: &'a SweepSpec,
    index: usize,
}

fn expected_points(campaign: &FleetCampaign) -> Vec<ExpectedPoint<'_>> {
    campaign
        .sweeps
        .iter()
        .flat_map(|sweep| (0..sweep.axis.len()).map(move |index| ExpectedPoint { sweep, index }))
        .collect()
}

/// Checks a sweep report: every point present in unit order with its
/// seed and swept value, agreement with the closed form where it applies,
/// and — for the points the study cache answered — bit identity with a
/// direct `MonteCarlo::run` of the same config, trials and seed.
pub fn check_sweep(
    spec: &FleetCampaign,
    study: &FleetCampaign,
    report: &[StreamRecord],
) -> Result<String, String> {
    let expected = expected_points(spec);
    if report.len() != expected.len() {
        return Err(format!("{} records for {} points", report.len(), expected.len()));
    }
    let mut analytic = 0;
    let mut cached = 0;
    for (record, want) in report.iter().zip(&expected) {
        let at = format!("{}[{}]", want.sweep.name, want.index);
        if record.kind != RecordKind::SweepPoint
            || record.task != want.sweep.name
            || record.unit != want.index as u64
            || record.key.seed != want.sweep.seed + want.index as u64
        {
            return Err(format!("{at}: record out of place"));
        }
        let point = SweepPoint::from_value(&record.payload).map_err(|e| format!("{at}: {e}"))?;
        let x = point_x(&want.sweep.axis, want.index);
        if point.x.to_bits() != x.to_bits() {
            return Err(format!("{at}: x {} != {x}", point.x));
        }
        let config = point_config(want.sweep, want.index);
        if let Some(tolerance) = closed_form_tolerance(&config) {
            let (physical, _) = analytic_predictions(&config);
            let ratio = point.mttdl_hours / physical;
            if (ratio - 1.0).abs() > tolerance {
                return Err(format!("{at}: MTTDL {ratio:.4}x the closed form (tol {tolerance})"));
            }
            analytic += 1;
        }
        let in_study =
            study.sweeps.iter().any(|s| s.name == want.sweep.name && want.index < s.axis.len());
        if in_study {
            let est = MonteCarlo::new(config)
                .trials(want.sweep.trials)
                .seed(record.key.seed)
                .threads(1)
                .run();
            let direct = serde_json::to_string(&SweepPoint::from_estimate(x, &est).to_value())
                .expect("point serializes");
            let streamed = serde_json::to_string(&record.payload).expect("payload serializes");
            if direct != streamed {
                return Err(format!("{at}: cached point differs from a direct run"));
            }
            cached += 1;
        }
    }
    if analytic == 0 || cached == 0 {
        return Err(format!("only {analytic} analytic and {cached} cached points checked"));
    }
    Ok(format!(
        "{} points: {analytic} within the closed form, {cached} cached bit-identical",
        expected.len()
    ))
}

/// Whether a fleet is the per-group simulator in disguise: no bursts, no
/// shared repair pipeline, no fleet scrub tour, uniform policy.
fn is_degenerate(scenario: &FleetScenario) -> bool {
    let fleet = &scenario.fleet;
    !fleet.bursts.is_active()
        && fleet.scrub.is_none()
        && fleet.repair_bandwidth == RepairBandwidth::Unlimited
        && fleet.group_policies.is_empty()
}

/// Checks a fleet report: every shard of every scenario present in order;
/// the shards, merged with `PreparedFleet::report`, equal a separate
/// `FleetSim::run` of the same config and seed; and every degenerate
/// (dense) fleet's MTTDL agrees with the per-group Monte Carlo of its
/// group config within the combined confidence interval.
pub fn check_fleet(spec: &FleetCampaign, report: &[StreamRecord]) -> Result<String, String> {
    let mut at = 0usize;
    let mut dense = 0;
    for (s, scenario) in spec.scenarios.iter().enumerate() {
        let shards = scenario.fleet.shards;
        let records = report.get(at..at + shards).ok_or("report ends early")?;
        at += shards;
        let mut outcomes = Vec::with_capacity(shards);
        for (shard, record) in records.iter().enumerate() {
            if record.kind != RecordKind::FleetShard
                || record.task != scenario.name
                || record.unit != shard as u64
            {
                return Err(format!("{}[{shard}]: record out of place", scenario.name));
            }
            outcomes.push(
                ShardOutcome::from_value(&record.payload)
                    .map_err(|e| format!("{}[{shard}]: {e}", scenario.name))?,
            );
        }
        let prepared = scenario.prepare().map_err(|e| e.to_string())?;
        let merged = prepared.report(&outcomes);
        let direct = FleetSim::new(scenario.fleet)
            .seed(scenario.seed)
            .threads(2)
            .run()
            .map_err(|e| e.to_string())?;
        if serde_json::to_string(&merged).ok() != serde_json::to_string(&direct).ok() {
            return Err(format!("{}: merged shards differ from FleetSim::run", scenario.name));
        }
        if is_degenerate(scenario) {
            let mc = MonteCarlo::new(scenario.fleet.group)
                .trials(DENSE_MC_TRIALS)
                .seed(scenario.seed ^ ((s as u64 + 1) << 32))
                .run();
            // The exposure estimator (group-hours per loss) counts the
            // censored tail of every group's last interval, which the mean
            // of completed intervals drops: at a 10-year horizon that
            // biases the interval mean ~3 % low. Its width is the interval
            // estimate's relative width.
            let fleet = merged.mttdl_exposure_hours();
            let fleet_hw = fleet * merged.mttdl_interval().relative_half_width();
            let mc_hw = mc.mttdl_hours.half_width();
            let gap = (fleet - mc.mttdl_hours.estimate).abs();
            if gap.is_nan() || gap > DENSE_CI_SCALE * (fleet_hw + mc_hw) {
                return Err(format!(
                    "{}: fleet MTTDL {fleet:.1} ± {fleet_hw:.1} vs per-group {:.1} ± {mc_hw:.1}",
                    scenario.name, mc.mttdl_hours.estimate,
                ));
            }
            dense += 1;
        }
    }
    if at != report.len() {
        return Err(format!("{} records beyond the last shard", report.len() - at));
    }
    if dense != spec::DENSE_FLEETS {
        return Err(format!("{dense} degenerate fleets checked, expected {}", spec::DENSE_FLEETS));
    }
    Ok(format!(
        "{} scenarios equal FleetSim::run, {dense} dense fleets agree with Monte Carlo",
        spec.scenarios.len()
    ))
}
