//! The traced run: replays a seed's workload inputs through each layer's
//! public functions, timing every call with an in-memory span.
//!
//! A span records its name, start, end, parent and request id (the unit
//! or tenant it serves). When the replay ends the spans are written as
//! JSON together with each layer's self time (span time less the time of
//! its child spans), and the per-layer metrics are printed as one JSON
//! object on stdout.

use crate::check::{point_config, read_report, read_spec};
use crate::spec;
use ltds_core::record::{encode_framed, FrameDecoder};
use ltds_fleet::{FleetCampaign, PlacementIndex, ShardCache, ShardOutcome};
use ltds_sim::campaign::{CampaignDriver, JsonlSink, MemorySink, ReportSink, StreamRecord};
use ltds_sim::campaign::{PreparedScenario, Scenario};
use ltds_sim::monte_carlo::{MonteCarlo, MttdlEstimate};
use ltds_sim::net::NetWorkerMsg;
use ltds_sim::{ServiceHarness, SweepCache};
use ltds_stochastic::{distribution::ZigguratExp, SimRng};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Worker threads of every parallel replay, as the benchmark's
/// `campaign --threads 2` runs.
const THREADS: usize = 2;

/// Untraced and traced replays behind `trace.wall_ratio`.
const OVERHEAD_PAIRS: usize = 3;

/// Exponential draws timed for `stochastic.zig_ns_per_draw`.
const ZIG_DRAWS: usize = 1 << 24;

/// One timed call.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// An in-memory span recorder shared by the replay's threads. One made
/// with [`Tracer::off`] only times: it records no span, so a replay under
/// it is the same work untraced.
struct Tracer {
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    fn new() -> Self {
        Self { epoch: Instant::now(), spans: Some(Mutex::new(Vec::new())) }
    }

    fn off() -> Self {
        Self { epoch: Instant::now(), spans: None }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (layer first: `fleet.shard`),
    /// passing it the span's id so nested calls can name their parent.
    /// Returns `f`'s value and the span's length in seconds.
    fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce(usize) -> T,
    ) -> (T, f64) {
        let start_ns = self.now_ns();
        let Some(spans) = &self.spans else {
            let value = f(0);
            return (value, (self.now_ns() - start_ns) as f64 * 1e-9);
        };
        let id = {
            let mut spans = spans.lock().expect("span lock");
            spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
            spans.len() - 1
        };
        let value = f(id);
        let end_ns = self.now_ns();
        spans.lock().expect("span lock")[id].end_ns = end_ns;
        (value, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// The spans and each layer's self time, as JSON.
    fn to_json(&self) -> String {
        let spans = self.spans.as_ref().expect("a recording tracer").lock().expect("span lock");
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut self_ms: BTreeMap<String, f64> = BTreeMap::new();
        let mut list = Vec::with_capacity(spans.len());
        for (id, span) in spans.iter().enumerate() {
            let layer = span.name.split('.').next().unwrap_or(span.name).to_string();
            let own = (span.end_ns - span.start_ns).saturating_sub(child_ns[id]);
            *self_ms.entry(layer).or_default() += own as f64 * 1e-6;
            list.push(Value::Object(vec![
                ("id".to_string(), (id as u64).to_value()),
                ("name".to_string(), span.name.to_string().to_value()),
                ("start_ns".to_string(), span.start_ns.to_value()),
                ("end_ns".to_string(), span.end_ns.to_value()),
                ("parent".to_string(), span.parent.map(|p| p as u64).to_value()),
                ("request".to_string(), span.request.to_value()),
            ]));
        }
        let self_ms = Value::Object(self_ms.into_iter().map(|(k, v)| (k, v.to_value())).collect());
        let doc = Value::Object(vec![
            ("self_ms".to_string(), self_ms),
            ("spans".to_string(), Value::Array(list)),
        ]);
        serde_json::to_string(&doc).expect("trace serializes")
    }
}

/// Median of `values` (upper median for even counts).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Runs `work(i)` for `i in 0..n` on [`THREADS`] threads pulling from a
/// shared counter, as the campaign driver's pool pulls units. Results come
/// back in index order.
fn pool<T: Send>(n: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = work(i);
                results.lock().expect("pool lock")[i] = Some(value);
            });
        }
    });
    results.into_inner().expect("pool lock").into_iter().map(|r| r.expect("ran")).collect()
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .map(|e| {
                    let path = e.path();
                    if path.is_dir() {
                        dir_bytes(&path)
                    } else {
                        e.metadata().map_or(0, |m| m.len())
                    }
                })
                .sum()
        })
        .unwrap_or(0)
}

type Metrics = Vec<(&'static str, f64)>;

/// Fleet layer on `fleet_study`: scenario preparation, placement, the
/// shards the run computes (those not in the study cache), and the merge.
fn trace_fleet(
    tracer: &Tracer,
    root: Option<usize>,
    inputs: &Path,
    out: &mut Metrics,
) -> Result<(), String> {
    let spec = read_spec(&inputs.join("fleet_study/spec.json").to_string_lossy())?;
    let study = read_spec(&inputs.join("fleet_study/study.json").to_string_lossy())?;
    let (mut prepare_s, mut placement_s, mut merge_s) = (0.0, 0.0, 0.0);
    let (mut events, mut record_bytes) = (0u64, 0u64);
    let (mut enterprise_ms, mut dense_ms) = (Vec::new(), Vec::new());
    let (mut enterprise_ns, mut dense_ns, mut enterprise_groups, mut dense_events) =
        (0.0, 0.0, 0u64, 0u64);
    let mut first_unit = 0u64; // the request id of a shard is its unit ordinal
    for (s, scenario) in spec.scenarios.iter().enumerate() {
        let base = first_unit;
        first_unit += scenario.fleet.shards as u64;
        let (prepared, dt) = tracer.span("fleet.prepare", root, s as u64, |_| {
            let prepared = scenario.prepare().expect("generated fleets are valid");
            // `report` builds the lazy burst timeline and placement index,
            // which every shard shares; default outcomes merge for free.
            prepared.report(&vec![ShardOutcome::default(); scenario.fleet.shards]);
            prepared
        });
        prepare_s += dt;
        let (_, dt) = tracer.span("fleet.placement", root, s as u64, |_| {
            PlacementIndex::build(&scenario.fleet, scenario.fleet.bursts.is_active())
        });
        placement_s += dt;
        if study.scenarios.iter().any(|earlier| earlier.name == scenario.name) {
            continue; // answered by the study cache in the end-to-end run
        }
        let shards = pool(prepared.shards() as usize, |shard| {
            tracer.span("fleet.shard", root, base + shard as u64, |_| {
                prepared.run_shard(shard as u32)
            })
        });
        let ms: Vec<f64> = shards.iter().map(|(_, dt)| dt * 1e3).collect();
        let ns: f64 = ms.iter().sum::<f64>() * 1e6;
        let outcomes: Vec<ShardOutcome> = shards.into_iter().map(|(o, _)| o).collect();
        let scenario_events: u64 = outcomes.iter().map(|o| o.events).sum();
        events += scenario_events;
        record_bytes += outcomes
            .iter()
            .map(|o| serde_json::to_string(o).expect("outcome serializes").len() as u64)
            .sum::<u64>();
        let (_, dt) = tracer.span("fleet.merge", root, s as u64, |_| prepared.report(&outcomes));
        merge_s += dt;
        if scenario.name.starts_with("enterprise") {
            enterprise_ms.extend(ms);
            enterprise_ns += ns;
            enterprise_groups += scenario.fleet.groups as u64;
        } else {
            dense_ms.extend(ms);
            dense_ns += ns;
            dense_events += scenario_events;
        }
    }
    if enterprise_ms.is_empty() || dense_ms.is_empty() {
        return Err("fleet study computes no enterprise or no dense shard".to_string());
    }
    out.extend([
        ("fleet.prepare_ms", prepare_s * 1e3),
        ("fleet.placement_ms", placement_s * 1e3),
        ("fleet.enterprise_shard_ms_p50", median(&enterprise_ms)),
        ("fleet.enterprise_shard_ms_max", max(&enterprise_ms)),
        ("fleet.enterprise_ns_per_group", enterprise_ns / enterprise_groups as f64),
        ("fleet.dense_shard_ms_p50", median(&dense_ms)),
        ("fleet.dense_shard_ms_max", max(&dense_ms)),
        ("fleet.dense_ns_per_event", dense_ns / dense_events as f64),
        ("fleet.merge_ms", merge_s * 1e3),
        ("fleet.events", events as f64),
        ("fleet.shard_record_bytes", record_bytes as f64),
    ]);
    let mean = spec.scenarios.last().expect("dense fleet").fleet.group.mttf_visible_hours;
    let zig = ZigguratExp::with_mean(mean);
    let mut rng = SimRng::seed_from(mean.to_bits());
    let mut buffer = vec![0.0f64; 4096];
    let (_, dt) = tracer.span("stochastic.zig", root, 0, |_| {
        for _ in 0..ZIG_DRAWS / buffer.len() {
            zig.sample_batch(&mut rng, &mut buffer);
            std::hint::black_box(&buffer);
        }
    });
    out.push(("stochastic.zig_ns_per_draw", dt * 1e9 / ZIG_DRAWS as f64));
    Ok(())
}

/// Monte-Carlo and cache-insert layers on `sweep_study`: the points the
/// study cache does not hold, one thread per point as the campaign driver
/// runs them, then inserted through an armed write-through cache.
fn trace_sweep(
    tracer: &Tracer,
    root: Option<usize>,
    inputs: &Path,
    scratch: &Path,
    out: &mut Metrics,
) -> Result<(), String> {
    let spec = read_spec(&inputs.join("sweep_study/spec.json").to_string_lossy())?;
    let study = read_spec(&inputs.join("sweep_study/study.json").to_string_lossy())?;
    let report = read_report(&inputs.join("sweep_study/report.jsonl").to_string_lossy())?;
    let mut fresh: Vec<(usize, &ltds_sim::campaign::SweepSpec, usize)> = Vec::new();
    let mut ordinal = 0;
    for sweep in &spec.sweeps {
        let cached = study.sweeps.iter().find(|s| s.name == sweep.name).map_or(0, |s| s.axis.len());
        for index in 0..sweep.axis.len() {
            if index >= cached {
                fresh.push((ordinal, sweep, index));
            }
            ordinal += 1;
        }
    }
    let points = pool(fresh.len(), |i| {
        let (ordinal, sweep, index) = fresh[i];
        tracer.span("mc.point", root, ordinal as u64, |_| {
            MonteCarlo::new(point_config(sweep, index))
                .trials(sweep.trials)
                .seed(sweep.seed + index as u64)
                .threads(1)
                .run()
        })
    });
    let ms: Vec<f64> = points.iter().map(|(_, dt)| dt * 1e3).collect();
    let trials: u64 = fresh.iter().map(|(_, sweep, _)| sweep.trials).sum();
    let bytes: u64 = points
        .iter()
        .map(|(est, _)| serde_json::to_string(est).expect("estimate serializes").len() as u64)
        .sum();
    let dir = scratch.join("insert");
    let _ = std::fs::remove_dir_all(&dir);
    let cache: SweepCache<MttdlEstimate> = SweepCache::new();
    cache.write_through(&dir).map_err(|e| format!("cannot arm write-through: {e}"))?;
    let mut insert_ms = Vec::new();
    for ((ordinal, _, _), (est, _)) in fresh.iter().zip(points) {
        let key = report.get(*ordinal).ok_or("sweep report ends early")?.key;
        let (_, dt) =
            tracer.span("cache.insert", root, *ordinal as u64, |_| cache.insert(key, est));
        insert_ms.push(dt * 1e3);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out.extend([
        ("mc.point_ms_p50", median(&ms)),
        ("mc.point_ms_max", max(&ms)),
        ("mc.ns_per_trial", ms.iter().sum::<f64>() * 1e6 / trials as f64),
        ("mc.trials", trials as f64),
        ("mc.estimate_bytes", bytes as f64 / fresh.len() as f64),
        ("cache.insert_ms_p50", median(&insert_ms)),
    ]);
    Ok(())
}

/// A report sink that serializes like the `campaign` binary's and times
/// each record.
struct TimedSink {
    inner: JsonlSink<Vec<u8>>,
    seconds: f64,
    records: u64,
}

impl ReportSink for TimedSink {
    fn record(&mut self, record: &StreamRecord) -> std::io::Result<()> {
        let started = Instant::now();
        let result = self.inner.record(record);
        self.seconds += started.elapsed().as_secs_f64();
        self.records += 1;
        result
    }
}

fn load_points(dir: &Path) -> Result<SweepCache<MttdlEstimate>, String> {
    let cache = SweepCache::new();
    cache
        .load_dir(dir.join("points"))
        .map_err(|e| format!("cannot load {}: {e}", dir.display()))?;
    Ok(cache)
}

/// Driver, service and framing layers on `tenants_tcp`: every tenant
/// through the in-process driver over a shared cache (as the server
/// shares one), through the sim-clock service harness, and every stream
/// line and worker completion through the record framing.
fn trace_tenants(
    tracer: &Tracer,
    root: Option<usize>,
    inputs: &Path,
    out: &mut Metrics,
) -> Result<(), String> {
    let dir = inputs.join("tenants_tcp");
    let tenants: Vec<FleetCampaign> = (0..spec::TENANTS)
        .map(|t| read_spec(&dir.join(format!("tenant-{t:03}.json")).to_string_lossy()))
        .collect::<Result<_, _>>()?;
    let shared = load_points(&dir.join("cache"))?;
    let mut sink = TimedSink { inner: JsonlSink::new(Vec::new()), seconds: 0.0, records: 0 };
    let mut driver_ms = Vec::new();
    for (t, tenant) in tenants.iter().enumerate() {
        let (result, dt) = tracer.span("campaign.tenant", root, t as u64, |_| {
            CampaignDriver::new(tenant).threads(THREADS).point_cache(&shared).run(&mut sink)
        });
        result.map_err(|e| format!("tenant {t}: {e}"))?;
        driver_ms.push(dt * 1e3);
    }
    let harness_cache = load_points(&dir.join("cache"))?;
    let mut harness_ms = Vec::new();
    for (t, tenant) in tenants.iter().enumerate() {
        let (result, dt) = tracer.span("service.harness", root, t as u64, |_| {
            ServiceHarness::new(tenant, THREADS)
                .point_cache(&harness_cache)
                .run(&mut MemorySink::new())
        });
        result.map_err(|e| format!("tenant {t} harness: {e}"))?;
        harness_ms.push(dt * 1e3);
    }
    // The frames of a round: every report line streamed to a subscriber,
    // and every worker completion carrying a fresh point's estimate.
    let lines = String::from_utf8(sink.inner.into_inner()).expect("report is UTF-8");
    let mut payloads: Vec<String> = lines.lines().map(str::to_string).collect();
    let mut done_bytes = Vec::new();
    for (t, tenant) in tenants.iter().enumerate() {
        let sweep = &tenant.sweeps[0];
        for index in spec::TENANT_SHARED..sweep.axis.len() {
            let result = MonteCarlo::new(point_config(sweep, index))
                .trials(sweep.trials)
                .seed(sweep.seed + index as u64)
                .threads(1)
                .run()
                .to_value();
            let done =
                NetWorkerMsg::Done { tenant: t as u64, unit: index as u64, lease: 1, result };
            let payload = serde_json::to_string(&done).expect("message serializes");
            done_bytes.push(encode_framed(&payload).map_err(|e| e.to_string())?.len() as f64 + 1.0);
            payloads.push(payload);
        }
    }
    let mut wire = Vec::new();
    let ((), encode_s) = tracer.span("record.encode", root, 0, |_| {
        for payload in &payloads {
            wire.extend_from_slice(encode_framed(payload).expect("frames").as_bytes());
            wire.push(b'\n');
        }
    });
    let (decoded, decode_s) = tracer.span("record.decode", root, 0, |_| {
        let mut decoder = FrameDecoder::new();
        wire.chunks(8192).map(|chunk| decoder.feed(chunk).len()).sum::<usize>()
    });
    if decoded != payloads.len() {
        return Err(format!("{decoded} of {} frames decoded", payloads.len()));
    }
    let mb = wire.len() as f64 / 1e6;
    out.extend([
        ("campaign.tenant_driver_ms_p50", median(&driver_ms)),
        ("campaign.record_us", sink.seconds * 1e6 / sink.records as f64),
        ("service.harness_ms_p50", median(&harness_ms)),
        ("record.encode_mb_per_s", mb / encode_s),
        ("record.decode_mb_per_s", mb / decode_s),
        ("record.done_frame_bytes", done_bytes.iter().sum::<f64>() / done_bytes.len() as f64),
    ]);
    Ok(())
}

/// Cache-load layer on `workload`: its study cache, loaded as `campaign`
/// loads it at start.
fn trace_load(
    tracer: &Tracer,
    root: Option<usize>,
    dir: &Path,
    out: &mut Metrics,
) -> Result<(), String> {
    let bytes = dir_bytes(dir);
    let points: SweepCache<MttdlEstimate> = SweepCache::new();
    let shards = ShardCache::new();
    let (loaded, dt) = tracer.span("cache.load", root, 0, |_| {
        let p = points.load_dir(dir.join("points"))?;
        let s = shards.load_dir(dir.join("shards"))?;
        Ok::<usize, std::io::Error>(p.loaded + s.loaded)
    });
    let loaded = loaded.map_err(|e| format!("cannot load {}: {e}", dir.display()))?;
    out.extend([
        ("cache.load_s", dt),
        ("cache.load_mb_per_s", bytes as f64 / 1e6 / dt),
        ("cache.records_loaded", loaded as f64),
    ]);
    Ok(())
}

/// Replays `workload`'s inputs under one root span; returns its length in
/// seconds.
fn replay(
    tracer: &Tracer,
    workload: &str,
    inputs: &Path,
    scratch: &Path,
    out: &mut Metrics,
) -> Result<f64, String> {
    let (result, seconds) = match workload {
        "fleet_study" => tracer.span("replay.fleet_study", None, 0, |root| {
            trace_fleet(tracer, Some(root), inputs, out)
        }),
        "sweep_study" => tracer.span("replay.sweep_study", None, 0, |root| {
            trace_sweep(tracer, Some(root), inputs, scratch, out)
        }),
        "tenants_tcp" => tracer.span("replay.tenants_tcp", None, 0, |root| {
            trace_tenants(tracer, Some(root), inputs, out)
        }),
        other => return Err(format!("unknown workload {other}")),
    };
    result.map(|()| seconds)
}

/// Replays every workload's inputs under `inputs` (as written by `gen`,
/// with each study cache built into `<workload>/cache` and the sweep
/// study's report in `sweep_study/report.jsonl`), writes the spans to
/// `spans_out` and returns the per-layer metrics as a JSON object. The
/// cache-load metrics are taken on `workload`.
///
/// `trace.wall_ratio` is the overhead of recording spans: after the traced
/// replay, `workload`'s replay runs [`OVERHEAD_PAIRS`] more times untraced
/// and as often traced, alternating, and the ratio is the median traced
/// time over the median untraced time. The first replay is left out of it,
/// as it also warms the process (page faults, allocator, caches).
pub fn run(inputs: &Path, workload: &str, spans_out: &Path) -> Result<String, String> {
    let scratch = spans_out.parent().unwrap_or(Path::new("."));
    let tracer = Tracer::new();
    let mut metrics: Metrics = Vec::new();
    for name in ["fleet_study", "sweep_study", "tenants_tcp"] {
        replay(&tracer, name, inputs, scratch, &mut metrics)?;
    }
    let (result, _) = tracer.span("replay.load", None, 0, |root| {
        trace_load(&tracer, Some(root), &inputs.join(workload).join("cache"), &mut metrics)
    });
    result?;
    std::fs::write(spans_out, tracer.to_json() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", spans_out.display()))?;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_PAIRS {
        untraced.push(replay(&Tracer::off(), workload, inputs, scratch, &mut Vec::new())?);
        traced.push(replay(&Tracer::new(), workload, inputs, scratch, &mut Vec::new())?);
    }
    metrics.push(("trace.wall_ratio", median(&traced) / median(&untraced)));
    let object =
        Value::Object(metrics.into_iter().map(|(k, v)| (k.to_string(), v.to_value())).collect());
    Ok(serde_json::to_string(&object).expect("metrics serialize"))
}
