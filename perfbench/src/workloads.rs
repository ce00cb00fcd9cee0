//! The three workloads.
//!
//! Each has a main phase, timed for the requested seconds in whole
//! rounds, which defines `setup_s`, `run_s` and the metrics its row in
//! the README names. The benchmark's single metric list asks every
//! workload for all nine end-to-end metrics, so after the timed window
//! each workload also runs a short epilogue for the daemon
//! metrics its main phase does not exercise.

use std::time::{Duration, Instant};

use hs_landscape::pipeline::Pipeline;
use hs_landscape::{ExecMode, RunOptions, StageId, Study, StudyConfig};
use hs_serve::{Client, DaemonConfig, DaemonHandle};

use crate::checks::{self, Checks};
use crate::client::{self, EpochLog, EpochStats, Live, Ops, ReadStats, ServeSpans};
use crate::layers;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::Metric;

/// Setup builds timed per `study-half` run (one is ~0.1 s).
const STUDY_SETUP_BUILDS: usize = 7;
/// Wave threads of the batch study (the container's core count).
const STUDY_THREADS: usize = 2;
/// Requests per connection in one read-mix round.
const READ_PER_CONN: usize = 250;
/// Tick-and-refresh cycles in one `daemon-epochs` round.
const EPOCH_CYCLES: usize = 2;
/// Seconds of read-mix rounds in an epilogue.
const EPILOGUE_READ_SECONDS: f64 = 4.0;
/// Seconds of tick-and-refresh rounds on the companion daemon.
const COMPANION_SECONDS: f64 = 6.0;

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub ops: Ops,
    /// Output checks.
    pub checks: Checks,
    /// End-to-end metrics (untraced runs).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Metric>,
    /// Peak resident set read when the main phase ended, before the
    /// companion daemon started; `None` reads it at exit.
    pub peak_rss_mib: Option<f64>,
}

impl Outcome {
    fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push((name.to_owned(), value, unit));
    }
}

/// The `landscape --scale 0.5` configuration: 700 relays, ~19.9k
/// services, 250 traffic clients, tracking off, exact popularity path.
fn study_half(seed: u64) -> StudyConfig {
    let scale = 0.5;
    StudyConfig {
        seed,
        scale,
        relays: ((1_400.0 * scale) as usize).clamp(150, 1_400),
        harvest: hs_landscape::hs_harvest::HarvestConfig {
            fleet: hs_landscape::hs_harvest::FleetConfig {
                ips: ((58.0 * scale) as u32).max(8),
                relays_per_ip: 24,
                bandwidth: 400,
            },
            warmup_hours: 26,
            rotation_hours: 2,
        },
        scan_days: 7,
        traffic_clients: ((500.0 * scale) as usize).max(60),
        run_tracking: false,
        ..StudyConfig::default()
    }
}

/// The daemon's study at `scale`, as `landscaped serve --scale` sets it.
fn daemon_study(scale: f64, seed: u64) -> StudyConfig {
    StudyConfig {
        seed,
        scale,
        ..StudyConfig::test_scale()
    }
}

/// `daemon-read`: scale 0.1, default daemon settings (2 wave threads,
/// 4 workers).
fn read_daemon(seed: u64) -> DaemonConfig {
    DaemonConfig {
        study: daemon_study(0.1, seed),
        ..DaemonConfig::default()
    }
}

/// `daemon-epochs` (and the batch workload's companion daemon): scale
/// 0.02, 1 wave thread, 2 workers.
fn epochs_daemon(seed: u64) -> DaemonConfig {
    DaemonConfig {
        study: daemon_study(0.02, seed),
        wave_threads: 1,
        workers: 2,
        ..DaemonConfig::default()
    }
}

/// Runs `round` until `seconds` have passed, at least once.
fn timed_rounds(seconds: f64, mut round: impl FnMut()) {
    let started = Instant::now();
    loop {
        round();
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

fn read_metrics(stats: &ReadStats, out: &mut Outcome) {
    let q = &stats.lat_ms[0];
    out.e2e("query_p50_ms", median(q), "ms");
    out.e2e("query_p90_ms", quantile(q, 0.9), "ms");
    out.e2e("render_p50_ms", median(&stats.lat_ms[1]), "ms");
}

fn epoch_metrics(stats: &EpochStats, out: &mut Outcome) {
    out.e2e("tick_ms", median(&stats.tick_ms), "ms");
    out.e2e("refresh_s", median(&stats.refresh_s), "s");
    out.e2e("read_p50_ms", median(&stats.read_ms), "ms");
}

/// `GET … FULL` bodies seen at epoch 0 must equal the batch renders
/// of a study run in-process on the same configuration.
fn compare_with_batch(study: &StudyConfig, stats: &ReadStats, checks: &mut Checks) {
    let run = Pipeline::new(study.clone()).run(
        &[StageId::Popularity, StageId::Crawl, StageId::PortScan],
        ExecMode::parallel().with_wave_threads(STUDY_THREADS),
    );
    let batch = checks::batch_renders(&run);
    for (i, want) in batch.iter().enumerate() {
        let got = stats.bodies[i + 1].as_ref();
        checks.expect(got == Some(want), || {
            format!("`{}` differs from the batch render", client::MIX[i + 1])
        });
    }
}

/// Every epoch's world hash and sim clock must equal an in-process
/// replay: the benchmark's own Setup, then one hour per tick.
fn replay_epochs(study: &StudyConfig, epochs: &EpochLog, checks: &mut Checks) {
    let run = Pipeline::new(study.clone()).run(&[StageId::Setup], ExecMode::sequential());
    let mut net = run.artifacts.net_setup().clone();
    for (epoch, (world, &sim_time)) in epochs.worlds.iter().zip(&epochs.sim_times).enumerate() {
        if epoch > 0 {
            net.advance_hours(1);
        }
        let want = format!("{:016x}", net.state_hash());
        checks.expect(*world == want && net.time().unix() == sim_time, || {
            format!(
                "epoch {epoch}: daemon world {world} @ {sim_time}, replay {want} @ {}",
                net.time().unix()
            )
        });
    }
}

/// The warming connection (the writer, where there is one) and a
/// second connection.
fn two_clients(live: Live) -> Result<(DaemonHandle, EpochLog, [Client; 2]), String> {
    let second = client::connect(&live.handle)?;
    Ok((live.handle, live.epochs, [live.warm, second]))
}

/// Layer figures read from the daemon's own telemetry.
fn serve_layers(
    spans: &ServeSpans,
    warm_tracking: &ServeSpans,
    client: &mut Client,
    ops: &mut Ops,
    q: &[f64],
) -> Vec<Metric> {
    let mut out: Vec<Metric> = Vec::new();
    // Mean, not median: the flight recorder stamps whole microseconds.
    let names = ["serve.run_us", "serve.stages_us", "serve.render_us"];
    for (name, v) in names.iter().zip(&spans.warm_us) {
        out.push((
            (*name).to_owned(),
            v.iter().sum::<f64>() / v.len().max(1) as f64,
            "us",
        ));
    }
    out.push((
        "core.tracking_s".into(),
        median(&warm_tracking.tracking_us) / 1e6,
        "s",
    ));
    match client::scrape_prom(client, ops) {
        Ok(expo) => {
            let wait =
                client::prom_mean(&expo, "landscaped_pool_queue_wait_us").unwrap_or(f64::NAN);
            out.push(("serve.pool_queue_wait_us".into(), wait, "us"));
            let evictions = expo
                .value("landscaped_cache_evictions_total", &[])
                .unwrap_or(f64::NAN);
            out.push(("core.cache_evictions".into(), evictions, "count"));
            let resident = expo
                .value("landscaped_cache_resident_bytes", &[])
                .unwrap_or(f64::NAN);
            out.push((
                "core.cache_resident_mib".into(),
                resident / (1u64 << 20) as f64,
                "MiB",
            ));
        }
        Err(e) => eprintln!("METRICS PROM unreadable: {e}"),
    }
    eprintln!("  serve.query_p99_ms over {} warm RUN_UNTIL all", q.len());
    out.push(("serve.query_p99_ms".into(), quantile(q, 0.99), "ms"));
    out
}

/// The companion daemon measures the daemon metrics a workload's main
/// phase sends no request for. It runs the `daemon-epochs`
/// configuration: with `reads`, first the read mix at epoch 0
/// (checked against the batch renders), then tick-and-refresh cycles
/// beside the reader. A traced run also reads the serve layers from it.
fn companion(seed: u64, reads: bool, out: &mut Outcome, tracer: &Tracer) -> Result<(), String> {
    let daemon = epochs_daemon(seed);
    let study = daemon.study.clone();
    let live = client::start(daemon, &mut out.ops, &mut out.checks)?;
    let warm = if tracer.on() {
        scrape_first(&live, &mut out.ops)?
    } else {
        ServeSpans::default()
    };
    let (handle, mut log, mut clients) = two_clients(live)?;
    if reads {
        let mut stats = ReadStats::default();
        timed_rounds(EPILOGUE_READ_SECONDS, || {
            client::read_round(
                &mut clients,
                READ_PER_CONN,
                &log,
                &mut stats,
                &mut out.ops,
                &mut out.checks,
                tracer,
            )
        });
        compare_with_batch(&study, &stats, &mut out.checks);
        read_metrics(&stats, out);
        if tracer.on() {
            let spans = client::scrape_trace(&mut clients[0], &mut out.ops)?;
            let serve = serve_layers(
                &spans,
                &warm,
                &mut clients[0],
                &mut out.ops,
                &stats.lat_ms[0],
            );
            out.layers.extend(serve);
        }
    }
    let mut epochs = EpochStats::default();
    let [a, b] = &mut clients;
    timed_rounds(COMPANION_SECONDS, || {
        client::epoch_round(
            a,
            b,
            EPOCH_CYCLES,
            &mut log,
            &mut epochs,
            &mut out.ops,
            &mut out.checks,
            tracer,
        )
    });
    replay_epochs(&study, &log, &mut out.checks);
    epoch_metrics(&epochs, out);
    drop(clients);
    drop(handle);
    Ok(())
}

/// `study-half`: the batch study at scale 0.5.
pub fn study(seed: u64, seconds: f64, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cfg = study_half(seed);
    let mode = ExecMode::parallel().with_wave_threads(STUDY_THREADS);
    let planned = StageId::closure(&layers::study_targets(&cfg)).len();

    let setup_s: Vec<f64> = (0..STUDY_SETUP_BUILDS)
        .map(|_| {
            let started = Instant::now();
            let run = Pipeline::new(cfg.clone()).run(&[StageId::Setup], mode);
            let took = started.elapsed().as_secs_f64();
            out.ops.op(run.timings.degraded.is_empty());
            took
        })
        .collect();

    let mut run_s: Vec<f64> = Vec::new();
    let mut last_timings = None;
    // A traced run makes exactly one untraced study.
    let rounds = if tracer.on() { 0.0 } else { seconds };
    timed_rounds(rounds, || {
        let started = Instant::now();
        let report = Study::new(cfg.clone()).run_mode(mode, RunOptions::default());
        let total = started.elapsed();
        let setup = report
            .stages
            .stage(StageId::Setup)
            .map_or(Duration::ZERO, |t| t.wall);
        run_s.push((total - setup).as_secs_f64());
        let failed = report.stages.degraded.len() + report.stages.halted.len();
        out.ops.attempted += planned as u64;
        out.ops.failed += failed as u64;
        checks::study(&report, &mut out.checks);
        last_timings = Some(report.stages);
    });
    out.e2e("setup_s", median(&setup_s), "s");
    out.e2e("run_s", median(&run_s), "s");
    out.peak_rss_mib = crate::procstat::peak_rss_mib();
    companion(seed, true, &mut out, tracer)?;
    if tracer.on() {
        // The traced run's one untraced study above, against the
        // traced per-stage decomposition of the same study.
        let (metrics, traced) = layers::profile(
            &cfg,
            STUDY_THREADS,
            last_timings,
            tracer,
            &mut out.ops,
            &mut out.checks,
        );
        out.layers.extend(metrics);
        out.layers.push((
            "obs.trace_overhead_s".into(),
            traced.as_secs_f64() - median(&run_s),
            "s",
        ));
    }
    Ok(out)
}

/// The daemon's `TRACE DUMP` right after warming: the cold query's
/// stage spans, including tracking.
fn scrape_first(live: &Live, ops: &mut Ops) -> Result<ServeSpans, String> {
    let mut client = client::connect(&live.handle)?;
    client::scrape_trace(&mut client, ops)
}

/// `daemon-read`: cache-hit reads at scale 0.1 on a fixed epoch.
pub fn daemon_read(seed: u64, seconds: f64, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let daemon = read_daemon(seed);
    let study = daemon.study.clone();
    let live = client::start(daemon, &mut out.ops, &mut out.checks)?;
    let warm = if tracer.on() {
        scrape_first(&live, &mut out.ops)?
    } else {
        ServeSpans::default()
    };
    out.e2e("setup_s", live.setup.as_secs_f64(), "s");
    let (handle, log, mut clients) = two_clients(live)?;

    // Traced runs time half the window untraced, half traced.
    let off = Tracer::new(false);
    let mut reads = ReadStats::default();
    let window = if tracer.on() { seconds / 2.0 } else { seconds };
    timed_rounds(window, || {
        client::read_round(
            &mut clients,
            READ_PER_CONN,
            &log,
            &mut reads,
            &mut out.ops,
            &mut out.checks,
            &off,
        )
    });
    let untraced_run = median(&reads.round_s);
    if tracer.on() {
        let mut traced = ReadStats::default();
        timed_rounds(window, || {
            client::read_round(
                &mut clients,
                READ_PER_CONN,
                &log,
                &mut traced,
                &mut out.ops,
                &mut out.checks,
                tracer,
            )
        });
        let spans = client::scrape_trace(&mut clients[0], &mut out.ops)?;
        out.layers = serve_layers(
            &spans,
            &warm,
            &mut clients[0],
            &mut out.ops,
            &reads.lat_ms[0],
        );
        out.layers.push((
            "obs.trace_overhead_s".into(),
            median(&traced.round_s) - untraced_run,
            "s",
        ));
    }
    out.e2e("run_s", untraced_run, "s");
    read_metrics(&reads, &mut out);
    drop(clients);
    drop(handle);
    compare_with_batch(&study, &reads, &mut out.checks);
    out.peak_rss_mib = crate::procstat::peak_rss_mib();
    companion(seed, false, &mut out, tracer)?;
    if tracer.on() {
        let (metrics, _) = layers::profile(
            &study,
            STUDY_THREADS,
            None,
            tracer,
            &mut out.ops,
            &mut out.checks,
        );
        out.layers.extend(metrics);
    }
    Ok(out)
}

/// `daemon-epochs`: ticks and cold refreshes at scale 0.02 beside a
/// closed-loop reader.
pub fn daemon_epochs(seed: u64, seconds: f64, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let daemon = epochs_daemon(seed);
    let study = daemon.study.clone();
    let live = client::start(daemon, &mut out.ops, &mut out.checks)?;
    let warm = if tracer.on() {
        scrape_first(&live, &mut out.ops)?
    } else {
        ServeSpans::default()
    };
    out.e2e("setup_s", live.setup.as_secs_f64(), "s");
    let (handle, mut log, mut clients) = two_clients(live)?;

    let off = Tracer::new(false);
    let mut epochs = EpochStats::default();
    let window = if tracer.on() { seconds / 2.0 } else { seconds };
    {
        let [a, b] = &mut clients;
        timed_rounds(window, || {
            client::epoch_round(
                a,
                b,
                EPOCH_CYCLES,
                &mut log,
                &mut epochs,
                &mut out.ops,
                &mut out.checks,
                &off,
            )
        });
    }
    let untraced_run = median(&epochs.round_s);
    let mut overhead = None;
    if tracer.on() {
        let mut traced = EpochStats::default();
        let [a, b] = &mut clients;
        timed_rounds(window, || {
            client::epoch_round(
                a,
                b,
                EPOCH_CYCLES,
                &mut log,
                &mut traced,
                &mut out.ops,
                &mut out.checks,
                tracer,
            )
        });
        overhead = Some(median(&traced.round_s) - untraced_run);
    }
    out.e2e("run_s", untraced_run, "s");
    epoch_metrics(&epochs, &mut out);
    replay_epochs(&study, &log, &mut out.checks);

    // Epilogue: the read mix on the last epoch. One query first
    // rebuilds whatever the ticks evicted, so every read is a hit.
    let rewarm = clients[0]
        .request("RUN_UNTIL all")
        .map_err(|e| format!("rewarm: {e}"))?;
    out.ops
        .op(rewarm.len() == 2 && rewarm[1].starts_with("OK RUN "));
    let mut reads = ReadStats::default();
    timed_rounds(EPILOGUE_READ_SECONDS, || {
        client::read_round(
            &mut clients,
            READ_PER_CONN,
            &log,
            &mut reads,
            &mut out.ops,
            &mut out.checks,
            tracer,
        )
    });
    read_metrics(&reads, &mut out);
    if tracer.on() {
        let spans = client::scrape_trace(&mut clients[0], &mut out.ops)?;
        out.layers = serve_layers(
            &spans,
            &warm,
            &mut clients[0],
            &mut out.ops,
            &reads.lat_ms[0],
        );
        out.layers.push((
            "obs.trace_overhead_s".into(),
            overhead.unwrap_or(f64::NAN),
            "s",
        ));
    }
    drop(clients);
    drop(handle);
    if tracer.on() {
        let (metrics, _) = layers::profile(
            &study,
            STUDY_THREADS,
            None,
            tracer,
            &mut out.ops,
            &mut out.checks,
        );
        out.layers.extend(metrics);
    }
    Ok(out)
}
