//! The traced run's per-layer profile of one study configuration.
//!
//! Every figure is measured from outside, around a public call into
//! the layer it is named after, with a span recorded around that call.
//! The stage walls come from one `Pipeline::run_controlled` call per
//! stage over a shared `MemoryCache`, so each call computes exactly one
//! stage and installs its upstream artifacts from the cache; the
//! install time is recorded as child spans and excluded from the
//! stage's self time. The remaining layers are timed on the artifacts
//! those calls leave in the cache.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hs_landscape::hs_content::html::strip_tags;
use hs_landscape::hs_content::langdetect::LanguageDetector;
use hs_landscape::hs_content::topics::TopicClassifier;
use hs_landscape::hs_popularity::{Ranking, Resolver};
use hs_landscape::hs_world::{World, WorldConfig};
use hs_landscape::onion_crypto::descriptor::{DescriptorId, Replica, TimePeriod};
use hs_landscape::onion_crypto::sha1::Sha1;
use hs_landscape::pipeline::{derive_keys, stage_seed, Pipeline, SeedDomain};
use hs_landscape::tor_sim::clock::SimTime;
use hs_landscape::tor_sim::network::WaveEffects;
use hs_landscape::tor_sim::relay::RelayId;
use hs_landscape::wave::WavePool;
use hs_landscape::{
    report, ExecMode, MemoryCache, PipelineTimings, RunControl, RunOptions, StageCache, StageId,
    StagePayload, StudyConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checks::Checks;
use crate::client::Ops;
use crate::stats::{median, ms};
use crate::trace::Tracer;
use crate::Metric;

/// Iterations of the per-call micro timings.
const MICRO: usize = 20_000;
/// Repeats of the millisecond-scale timings (clone, hash, round).
const REPEATS: usize = 5;

/// Nanoseconds per call of `n` calls that took `total`.
fn ns_per_call(total: Duration, n: usize) -> f64 {
    total.as_secs_f64() * 1e9 / n.max(1) as f64
}

/// The stages a full batch study plans for `cfg`.
pub fn study_targets(cfg: &StudyConfig) -> Vec<StageId> {
    let mut targets = vec![
        StageId::Geomap,
        StageId::Certs,
        StageId::Crawl,
        StageId::Popularity,
    ];
    if cfg.run_tracking {
        targets.push(StageId::Tracking);
    }
    targets
}

/// Profiles `cfg` at `threads` wave threads. `two_thread` is an
/// untraced full run at `threads` made earlier in this process, if
/// there is one; otherwise one is made here. Returns the layer
/// metrics and the traced run's wall time after `Setup`.
pub fn profile(
    cfg: &StudyConfig,
    threads: usize,
    two_thread: Option<PipelineTimings>,
    tracer: &Tracer,
    ops: &mut Ops,
    checks: &mut Checks,
) -> (Vec<Metric>, Duration) {
    let mut out: Vec<Metric> = Vec::new();
    let targets = study_targets(cfg);
    let mode = ExecMode::parallel().with_wave_threads(threads);
    let pipeline = Pipeline::new(cfg.clone());
    let cache = Arc::new(MemoryCache::new(64));
    let ctl = RunControl {
        cache: Some(cache.clone() as Arc<dyn StageCache>),
        ..RunControl::default()
    };

    // One controlled call per stage, in plan order.
    let mut counters = PipelineTimings::default();
    let mut traced_run = Duration::ZERO;
    for (i, stage) in StageId::closure(&targets).into_iter().enumerate() {
        let name = format!("core.{}", stage.name());
        let req = i as u64 + 1;
        let (run, took) = tracer.timed(&name, None, req, |span| {
            let started = Instant::now();
            let run = pipeline.run_controlled(&[stage], mode, RunOptions::default(), &ctl);
            // Lay the cache installs out as child spans, in order.
            let mut cursor = started;
            for t in &run.timings.executed {
                if t.counter("stage_cache_hit").is_some() {
                    let end = cursor + t.wall;
                    tracer.record(
                        &format!("cache.install:{}", t.stage.name()),
                        cursor,
                        end,
                        span,
                        req,
                    );
                    cursor = end;
                }
            }
            (run, span)
        });
        let (run, span) = run;
        let failed = run.timings.degraded.len() + run.timings.halted.len();
        ops.op(failed == 0);
        checks.expect(failed == 0, || {
            format!("profile stage {stage} did not complete")
        });
        let own = span.map_or(took, |id| tracer.self_time(id));
        if stage != StageId::Setup {
            traced_run += took;
            out.push((format!("core.{}_s", stage.name()), own.as_secs_f64(), "s"));
        }
        counters.executed.extend(
            run.timings
                .executed
                .into_iter()
                .filter(|t| t.stage == stage),
        );
    }

    // A fully cached run: what a warm query costs inside the engine.
    let cached: Vec<f64> = (0..REPEATS)
        .map(|i| {
            let (run, took) = tracer.timed("core.cached_run", None, 100 + i as u64, |_| {
                pipeline.run_controlled(&targets, mode, RunOptions::default(), &ctl)
            });
            checks.expect(
                run.timings
                    .executed
                    .iter()
                    .all(|t| t.counter("stage_cache_hit").is_some()),
                || "warm cached run recomputed a stage".to_owned(),
            );
            took.as_secs_f64() * 1e6
        })
        .collect();
    out.push(("core.cached_run_us".into(), median(&cached), "us"));

    let keys = derive_keys(cfg.seed, cfg.fingerprint(), 0);
    let payload = |s: StageId| cache.fetch_uncounted(keys[s as usize]);
    let (
        Some(StagePayload::Setup(setup)),
        Some(StagePayload::Harvest(harvest)),
        Some(StagePayload::Popularity(popularity)),
        Some(StagePayload::Crawl(crawl)),
    ) = (
        payload(StageId::Setup),
        payload(StageId::Harvest),
        payload(StageId::Popularity),
        payload(StageId::Crawl),
    )
    else {
        checks.expect(false, || "profile cache lacks a stage payload".to_owned());
        return (out, traced_run);
    };
    let req = 200;

    // tor-sim: snapshot clone, state hash, one consensus round.
    let clone_ms: Vec<f64> = (0..REPEATS)
        .map(|_| {
            ms(tracer
                .timed("tor-sim.clone", None, req, |_| black_box(setup.net.clone()))
                .1)
        })
        .collect();
    let hash_ms: Vec<f64> = (0..REPEATS)
        .map(|_| {
            ms(tracer
                .timed("tor-sim.state_hash", None, req, |_| {
                    black_box(setup.net.state_hash())
                })
                .1)
        })
        .collect();
    let mut net = setup.net.clone();
    let round_ms: Vec<f64> = (0..REPEATS)
        .map(|_| {
            ms(tracer
                .timed("tor-sim.round", None, req, |_| net.advance_hours(1))
                .1)
        })
        .collect();
    out.push(("tor-sim.round_ms".into(), median(&round_ms), "ms"));
    out.push(("tor-sim.clone_ms".into(), median(&clone_ms), "ms"));
    out.push(("tor-sim.state_hash_ms".into(), median(&hash_ms), "ms"));

    // tor-sim: the client fetch path on the post-harvest network.
    let mut net = harvest.net.clone();
    net.prepare_wave();
    let clients = harvest.traffic.clients();
    let onions = &harvest.harvest.onions;
    let (_, fetch) = tracer.timed("tor-sim.fetch", None, req, |_| {
        for i in 0..MICRO {
            let mut rng = StdRng::seed_from_u64(i as u64);
            let mut fx = WaveEffects::new(i as u64);
            black_box(net.client_fetch_readonly(
                clients[i % clients.len()],
                onions[i % onions.len()],
                &mut rng,
                &mut fx,
            ));
        }
    });
    let mut rng = StdRng::seed_from_u64(7);
    let (_, pick) = tracer.timed("tor-sim.guard_pick", None, req, |_| {
        for i in 0..MICRO {
            let client = net.client(clients[i % clients.len()]);
            black_box(client.guards.pick(net.consensus(), &mut rng));
        }
    });
    let now = net.time().unix();
    let ids: Vec<DescriptorId> = onions
        .iter()
        .take(4_096)
        .flat_map(|&o| DescriptorId::pair_at(o, now))
        .collect();
    let mut slots = [RelayId(0); 3];
    let (_, lookup) = tracer.timed("tor-sim.hsdir_lookup", None, req, |_| {
        for i in 0..MICRO {
            black_box(
                net.consensus()
                    .responsible_hsdirs_into(ids[i % ids.len()], &mut slots),
            );
        }
    });
    out.push((
        "tor-sim.fetch_us".into(),
        ns_per_call(fetch, MICRO) / 1e3,
        "us",
    ));
    out.push((
        "tor-sim.guard_pick_ns".into(),
        ns_per_call(pick, MICRO),
        "ns",
    ));
    out.push((
        "tor-sim.hsdir_lookup_ns".into(),
        ns_per_call(lookup, MICRO),
        "ns",
    ));
    let hits = counters.counter_total("desc_cache_hits") as f64;
    let misses = counters.counter_total("desc_cache_misses") as f64;
    out.push((
        "tor-sim.fetches".into(),
        counters.counter_total("fetches") as f64,
        "count",
    ));
    out.push((
        "tor-sim.sha1_digests".into(),
        counters.counter_total("sha1_digests") as f64,
        "count",
    ));
    out.push((
        "tor-sim.desc_cache_hit_ratio".into(),
        hits / (hits + misses).max(1.0),
        "ratio",
    ));

    // onion-crypto: one digest, one descriptor ID.
    let (_, sha) = tracer.timed("onion-crypto.sha1", None, req, |_| {
        let mut buf = [0u8; 30];
        for i in 0..MICRO {
            buf[..8].copy_from_slice(&(i as u64).to_le_bytes());
            black_box(Sha1::digest(black_box(&buf)));
        }
    });
    let id = onions[0].permanent_id();
    let (_, desc) = tracer.timed("onion-crypto.desc_id", None, req, |_| {
        for i in 0..MICRO {
            black_box(DescriptorId::compute(
                id,
                TimePeriod(i as u64),
                Replica::new((i % 2) as u8),
            ));
        }
    });
    out.push(("onion-crypto.sha1_ns".into(), ns_per_call(sha, MICRO), "ns"));
    out.push((
        "onion-crypto.desc_id_ns".into(),
        ns_per_call(desc, MICRO),
        "ns",
    ));

    // wave: the fixed cost of one fork/join at two threads.
    let pool = WavePool::new(2);
    let items = [1u64, 2];
    let (fork_us, _) = tracer.timed("wave.fork_join", None, req, |_| {
        (0..500)
            .map(|_| {
                let started = Instant::now();
                black_box(pool.map(&items, |_, &x| x + 1));
                started.elapsed().as_secs_f64() * 1e6
            })
            .collect::<Vec<f64>>()
    });
    out.push(("wave.fork_join_us".into(), median(&fork_us), "us"));

    // hs-world: world generation alone.
    let world_cfg = WorldConfig::default()
        .with_seed(stage_seed(cfg.seed, SeedDomain::World))
        .with_scale(cfg.scale);
    let gen_s: Vec<f64> = (0..3)
        .map(|_| {
            tracer
                .timed("hs-world.generate", None, req, |_| {
                    black_box(World::generate(world_cfg))
                })
                .1
                .as_secs_f64()
        })
        .collect();
    out.push(("hs-world.generate_s".into(), median(&gen_s), "s"));

    // hs-popularity: resolution per logged request, and the ranking.
    let resolver = Resolver::build(
        onions,
        SimTime::from_ymd(2013, 1, 28),
        SimTime::from_ymd(2013, 2, 8),
    );
    let requests = &harvest.harvest.requests;
    let (resolution, resolve) = tracer.timed("hs-popularity.resolve_log", None, req, |_| {
        resolver.resolve_log(requests)
    });
    let (_, rank) = tracer.timed("hs-popularity.rank", None, req, |_| {
        black_box(Ranking::build_normalized(
            &resolution,
            &setup.world,
            &harvest.harvest.slot_hours,
        ))
    });
    out.push((
        "hs-popularity.resolve_ns".into(),
        ns_per_call(resolve, requests.len()),
        "ns",
    ));
    out.push(("hs-popularity.rank_ms".into(), ms(rank), "ms"));

    // hs-content: language detection plus topic classification per page.
    let detector = LanguageDetector::train_default();
    let classifier = TopicClassifier::train_default();
    let texts: Vec<String> = crawl
        .classified
        .iter()
        .filter_map(|p| setup.world.get(p.onion)?.render_page(p.port))
        .map(|page| strip_tags(&page.body))
        .collect();
    let (_, classify) = tracer.timed("hs-content.classify", None, req, |_| {
        for text in &texts {
            black_box(detector.detect(text));
            black_box(classifier.classify(text));
        }
    });
    out.push((
        "hs-content.classify_us".into(),
        ns_per_call(classify, texts.len()) / 1e3,
        "us",
    ));

    // Work counters of the sim stages.
    let stage_counter =
        |s: StageId, n: &str| counters.stage(s).and_then(|t| t.counter(n)).unwrap_or(0);
    out.push((
        "hs-harvest.descriptors".into(),
        stage_counter(StageId::Harvest, "descriptors") as f64,
        "count",
    ));
    out.push((
        "hs-portscan.probes".into(),
        stage_counter(StageId::PortScan, "probes_scheduled") as f64,
        "count",
    ));

    // The protocol parser on the read mix's request lines.
    let (_, parse) = tracer.timed("serve.parse", None, req, |_| {
        for i in 0..MICRO {
            black_box(hs_serve::parse_request(black_box(
                crate::client::MIX[i % crate::client::MIX.len()],
            )))
            .ok();
        }
    });
    out.push((
        "serve.parse_us".into(),
        ns_per_call(parse, MICRO) / 1e3,
        "us",
    ));

    // The Table II and Sec. V renders behind `GET popularity FULL`.
    let render_us: Vec<f64> = (0..200)
        .map(|_| {
            let (_, took) = tracer.timed("serve.render_table2", None, req, |_| {
                black_box(report::render_table2(&popularity.ranking, 30));
                black_box(report::render_sec5(
                    &popularity.resolution,
                    popularity.requested_published_share,
                ));
            });
            took.as_secs_f64() * 1e6
        })
        .collect();
    out.push(("serve.render_table2_us".into(), median(&render_us), "us"));

    // Thread scaling: the same study at one thread, whose counters must
    // equal the multi-threaded run's.
    let two = two_thread.unwrap_or_else(|| pipeline.run(&targets, mode).timings);
    let (one, _) = tracer.timed("study.one_thread", None, 300, |_| {
        pipeline
            .run(&targets, ExecMode::parallel().with_wave_threads(1))
            .timings
    });
    let mut stages: Vec<StageId> = one.executed.iter().map(|t| t.stage).collect();
    stages.sort();
    for stage in stages {
        let a = one.stage(stage).map(|t| &t.counters);
        let b = two.stage(stage).map(|t| &t.counters);
        checks.expect(a == b, || {
            format!("stage {stage} counters differ between 1 and {threads} threads")
        });
    }
    for t in &one.executed {
        let at_two = two.stage(t.stage).map_or(f64::NAN, |x| ms(x.wall));
        eprintln!(
            "  speedup {:<14} {:>9.1} ms → {:>9.1} ms",
            t.stage.name(),
            ms(t.wall),
            at_two
        );
    }
    let speedup = one.total_wall().as_secs_f64() / two.total_wall().as_secs_f64();
    out.push(("wave.speedup".into(), speedup, "x"));
    (out, traced_run)
}
