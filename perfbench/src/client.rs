//! Protocol clients of an in-process `landscaped` daemon: the
//! read mix, the tick-and-refresh cycle with a concurrent reader, and
//! the telemetry scrapes the traced run reads layer figures from.
//!
//! Every request is one operation. An `ERR`, `BUSY`, `NOT_BUILT` or
//! `PARTIAL` reply, or a dropped connection, counts it failed; a reply
//! that arrives but says the wrong thing fails a check instead.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hs_landscape::obs::{self, prom::Exposition};
use hs_serve::{Client, Daemon, DaemonConfig, DaemonHandle};

use crate::checks::Checks;
use crate::trace::Tracer;

/// Operation tally of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Ops {
    /// Counts one operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A daemon serving on a background thread, warmed by one cold
/// `RUN_UNTIL all`.
#[derive(Debug)]
pub struct Live {
    /// Stops and joins the daemon on drop.
    pub handle: DaemonHandle,
    /// `Daemon::bind` through the warming reply.
    pub setup: Duration,
    /// The published epochs seen so far.
    pub epochs: EpochLog,
    /// The connection that sent the warming query. Its worker thread
    /// computed the tracking stage; reusing it for the writes keeps
    /// every large recompute on one worker, so the process's peak
    /// resident set does not depend on which worker picks a connection.
    pub warm: Client,
}

/// Binds a daemon, serves it, and runs the warming `RUN_UNTIL all`.
pub fn start(cfg: DaemonConfig, ops: &mut Ops, checks: &mut Checks) -> Result<Live, String> {
    let started = Instant::now();
    let daemon = Daemon::bind(cfg).map_err(|e| format!("bind: {e}"))?;
    let handle = daemon.spawn().map_err(|e| format!("spawn: {e}"))?;
    let mut client = connect(&handle)?;
    let reply = client
        .request("RUN_UNTIL all")
        .map_err(|e| format!("warm: {e}"))?;
    let setup = started.elapsed();
    let ok = run_ok(&reply);
    ops.op(ok);
    checks.expect(ok && field(last(&reply), "ran") == Some("9"), || {
        format!("warming RUN_UNTIL all: {reply:?}")
    });
    let status = client
        .request("STATUS")
        .map_err(|e| format!("status: {e}"))?;
    ops.op(status.first().map(String::as_str) == Some("OK STATUS"));
    let line = |key: &str| {
        status
            .iter()
            .find_map(|l| l.strip_prefix(key))
            .unwrap_or_default()
            .to_owned()
    };
    let epochs = EpochLog {
        worlds: vec![line("world=")],
        sim_times: vec![line("sim_time=").parse().unwrap_or(0)],
    };
    checks.expect(
        field(last(&reply), "world") == Some(epochs.worlds[0].as_str()),
        || format!("warming reply world differs from STATUS: {reply:?}"),
    );
    Ok(Live {
        handle,
        setup,
        epochs,
        warm: client,
    })
}

/// Opens one protocol connection to `live`.
pub fn connect(handle: &DaemonHandle) -> Result<Client, String> {
    Client::connect_retry(handle.addr(), Duration::from_secs(5))
        .map_err(|e| format!("connect: {e}"))
}

fn last(reply: &[String]) -> &str {
    reply.last().map(String::as_str).unwrap_or_default()
}

/// The value of ` key=value` in a reply line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|w| w.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
}

fn run_ok(reply: &[String]) -> bool {
    reply.len() == 2 && reply[0].starts_with("RUNNING id=") && reply[1].starts_with("OK RUN ")
}

/// World hash and sim clock of every epoch published so far, indexed
/// by epoch id.
#[derive(Clone, Debug, Default)]
pub struct EpochLog {
    /// `world=` hash per epoch.
    pub worlds: Vec<String>,
    /// `sim_time=` per epoch.
    pub sim_times: Vec<u64>,
}

impl EpochLog {
    /// The current epoch id.
    pub fn current(&self) -> u64 {
        self.worlds.len() as u64 - 1
    }
}

/// The read mix, in round-robin order. Each connection starts at its
/// own offset, so both connections send every class.
pub const MIX: [&str; 5] = [
    "RUN_UNTIL all",
    "GET popularity FULL",
    "GET crawl FULL",
    "GET port_scan",
    "STATUS",
];
const MIX_SPANS: [&str; 5] = [
    "client.run_until_all",
    "client.get_popularity_full",
    "client.get_crawl_full",
    "client.get_port_scan",
    "client.status",
];

/// Latencies of the read mix, per request class, in milliseconds.
#[derive(Debug, Default)]
pub struct ReadStats {
    /// One vector per [`MIX`] entry.
    pub lat_ms: [Vec<f64>; 5],
    /// Wall seconds of each round.
    pub round_s: Vec<f64>,
    /// The first reply body of each `GET` class (index 1..=3).
    pub bodies: [Option<Vec<String>>; 5],
}

/// One round of the read mix: every connection sends `per_conn`
/// requests in a closed loop, concurrently.
pub fn read_round(
    clients: &mut [Client],
    per_conn: usize,
    epochs: &EpochLog,
    stats: &mut ReadStats,
    ops: &mut Ops,
    checks: &mut Checks,
    tracer: &Tracer,
) {
    let epoch = epochs.current();
    let world = epochs.worlds[epoch as usize].as_str();
    let started = Instant::now();
    let results: Vec<ConnReads> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                s.spawn(move || read_conn(client, i, per_conn, epoch, world, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("read-mix client thread panicked"))
            .collect()
    });
    stats.round_s.push(started.elapsed().as_secs_f64());
    for r in results {
        ops.add(r.ops);
        for msg in r.wrong {
            checks.expect(false, || msg);
        }
        for (class, lat) in r.lat_ms.into_iter().enumerate() {
            stats.lat_ms[class].extend(lat);
        }
        for (class, body) in r.bodies.into_iter().enumerate() {
            let Some(body) = body else { continue };
            match &stats.bodies[class] {
                None => stats.bodies[class] = Some(body),
                Some(first) => checks.expect(*first == body, || {
                    format!("`{}` replies differ between requests", MIX[class])
                }),
            }
        }
    }
}

#[derive(Default)]
struct ConnReads {
    ops: Ops,
    lat_ms: [Vec<f64>; 5],
    bodies: [Option<Vec<String>>; 5],
    wrong: Vec<String>,
}

fn read_conn(
    client: &mut Client,
    offset: usize,
    per_conn: usize,
    epoch: u64,
    world: &str,
    tracer: &Tracer,
) -> ConnReads {
    let mut out = ConnReads::default();
    let tail = format!("epoch={epoch} world={world}");
    for k in 0..per_conn {
        let class = (k + offset) % MIX.len();
        let req = (offset * per_conn + k) as u64 + 1;
        let (reply, took) =
            tracer.timed(MIX_SPANS[class], None, req, |_| client.request(MIX[class]));
        let Ok(reply) = reply else {
            // A dropped connection fails this request and the rest of
            // the round on this connection.
            out.ops.attempted += (per_conn - k) as u64;
            out.ops.failed += (per_conn - k) as u64;
            out.wrong.push(format!("connection {offset} dropped"));
            return out;
        };
        let head = reply.first().map(String::as_str).unwrap_or_default();
        let ok = match class {
            0 => run_ok(&reply),
            4 => head == "OK STATUS",
            _ => head.starts_with("OK GET ") && last(&reply) == ".",
        };
        out.ops.op(ok);
        if !ok {
            out.wrong
                .push(format!("`{}` failed: {reply:?}", MIX[class]));
            continue;
        }
        out.lat_ms[class].push(crate::stats::ms(took));
        match class {
            0 => {
                let line = last(&reply);
                if !(line.contains(" ran=9 cached=9 ") && line.ends_with(&tail)) {
                    out.wrong.push(format!("warm RUN_UNTIL all: {line}"));
                }
            }
            4 => {
                let has = |want: &str| reply.iter().any(|l| l == want);
                if !(has(&format!("epoch={epoch}")) && has(&format!("world={world}"))) {
                    out.wrong.push(format!("STATUS: {reply:?}"));
                }
            }
            _ => {
                let body = reply[1..reply.len() - 1].to_vec();
                match &out.bodies[class] {
                    None => out.bodies[class] = Some(body),
                    Some(first) => {
                        if *first != body {
                            out.wrong.push(format!("`{}` replies differ", MIX[class]));
                        }
                    }
                }
            }
        }
    }
    out
}

/// Latencies of the tick-and-refresh cycle and of the concurrent
/// reader.
#[derive(Debug, Default)]
pub struct EpochStats {
    /// `TICK 1` latency, ms.
    pub tick_ms: Vec<f64>,
    /// Cold `RUN_UNTIL all` after each tick, s.
    pub refresh_s: Vec<f64>,
    /// The reader's `GET setup` latency, ms.
    pub read_ms: Vec<f64>,
    /// Wall seconds of each round.
    pub round_s: Vec<f64>,
}

/// One round of `cycles` × (`TICK 1`, cold `RUN_UNTIL all`) on
/// `writer`, while `reader` sends `GET setup` in a closed loop until
/// the writer finishes. Appends each new epoch to `epochs`.
#[allow(clippy::too_many_arguments)]
pub fn epoch_round(
    writer: &mut Client,
    reader: &mut Client,
    cycles: usize,
    epochs: &mut EpochLog,
    stats: &mut EpochStats,
    ops: &mut Ops,
    checks: &mut Checks,
    tracer: &Tracer,
) {
    let done = AtomicBool::new(false);
    let started = Instant::now();
    let log: &mut EpochLog = epochs;
    let (w, r) = std::thread::scope(|s| {
        let done = &done;
        let writer_thread = s.spawn(move || {
            let out = write_cycles(writer, cycles, log, tracer);
            done.store(true, Ordering::Release);
            out
        });
        let reader_thread = s.spawn(move || read_setup(reader, done, tracer));
        (
            writer_thread.join().expect("writer thread panicked"),
            reader_thread.join().expect("reader thread panicked"),
        )
    });
    stats.round_s.push(started.elapsed().as_secs_f64());
    ops.add(w.ops);
    ops.add(r.ops);
    for msg in w.wrong.into_iter().chain(r.wrong) {
        checks.expect(false, || msg);
    }
    stats.tick_ms.extend(w.tick_ms);
    stats.refresh_s.extend(w.refresh_s);
    stats.read_ms.extend(r.read_ms);
    // The reader must see published epochs only, in publication order.
    let index: HashMap<&str, usize> = epochs
        .worlds
        .iter()
        .enumerate()
        .map(|(i, w)| (w.as_str(), i))
        .collect();
    let mut prev = 0usize;
    let mut in_order = true;
    for world in &r.worlds {
        match index.get(world.as_str()) {
            Some(&i) if i >= prev => prev = i,
            _ => in_order = false,
        }
    }
    checks.expect(in_order && !r.worlds.is_empty(), || {
        "reader saw world hashes out of tick order".to_owned()
    });
}

#[derive(Default)]
struct WriterOut {
    ops: Ops,
    tick_ms: Vec<f64>,
    refresh_s: Vec<f64>,
    wrong: Vec<String>,
}

fn write_cycles(
    client: &mut Client,
    cycles: usize,
    log: &mut EpochLog,
    tracer: &Tracer,
) -> WriterOut {
    let mut out = WriterOut::default();
    let planned = 2 * cycles;
    let mut sent = 0usize;
    let dropped = |out: &mut WriterOut, sent: usize| {
        let left = (planned - sent) as u64;
        out.ops.attempted += left;
        out.ops.failed += left;
        out.wrong.push("writer connection dropped".to_owned());
    };
    for _ in 0..cycles {
        let req = 1_000_000 + log.worlds.len() as u64;
        let (tick, took) = tracer.timed("client.tick", None, req, |_| client.request("TICK 1"));
        let Ok(tick) = tick else {
            dropped(&mut out, sent);
            return out;
        };
        sent += 1;
        let line = last(&tick);
        let ok = line.starts_with("OK TICK ");
        out.ops.op(ok);
        if !ok {
            out.wrong.push(format!("TICK 1 failed: {line}"));
        } else {
            out.tick_ms.push(crate::stats::ms(took));
        }
        let epoch = log.worlds.len() as u64;
        let sim_time = log.sim_times.last().copied().unwrap_or(0) + 3_600;
        let world = field(line, "world").unwrap_or_default().to_owned();
        if field(line, "epoch") != Some(epoch.to_string().as_str())
            || field(line, "sim_time") != Some(sim_time.to_string().as_str())
        {
            out.wrong
                .push(format!("TICK 1 moved the epoch wrongly: {line}"));
        }
        log.worlds.push(world.clone());
        log.sim_times.push(sim_time);

        let (run, took) = tracer.timed("client.refresh", None, req, |_| {
            client.request("RUN_UNTIL all")
        });
        let Ok(run) = run else {
            dropped(&mut out, sent);
            return out;
        };
        sent += 1;
        let ok = run_ok(&run);
        out.ops.op(ok);
        if !ok {
            out.wrong.push(format!("refresh failed: {run:?}"));
            continue;
        }
        out.refresh_s.push(took.as_secs_f64());
        let line = last(&run);
        if !(line.contains(" ran=9 ") && line.ends_with(&format!("epoch={epoch} world={world}"))) {
            out.wrong
                .push(format!("refresh does not report the new epoch: {line}"));
        }
    }
    out
}

#[derive(Default)]
struct ReaderOut {
    ops: Ops,
    read_ms: Vec<f64>,
    worlds: Vec<String>,
    wrong: Vec<String>,
}

fn read_setup(client: &mut Client, done: &AtomicBool, tracer: &Tracer) -> ReaderOut {
    let mut out = ReaderOut::default();
    let mut req = 2_000_000u64;
    while !done.load(Ordering::Acquire) {
        req += 1;
        let (reply, took) = tracer.timed("client.get_setup", None, req, |_| {
            client.request("GET setup")
        });
        let Ok(reply) = reply else {
            out.ops.op(false);
            out.wrong.push("reader connection dropped".to_owned());
            return out;
        };
        let ok = reply.first().map(String::as_str) == Some("OK GET setup") && last(&reply) == ".";
        out.ops.op(ok);
        if !ok {
            out.wrong.push(format!("GET setup failed: {reply:?}"));
            continue;
        }
        out.read_ms.push(crate::stats::ms(took));
        match reply.iter().find_map(|l| l.strip_prefix("world=")) {
            Some(world) => out.worlds.push(world.to_owned()),
            None => out
                .wrong
                .push(format!("GET setup without world: {reply:?}")),
        }
    }
    out
}

/// Scrapes `METRICS PROM` and parses it.
pub fn scrape_prom(client: &mut Client, ops: &mut Ops) -> Result<Exposition, String> {
    let reply = client.request("METRICS PROM").map_err(|e| e.to_string())?;
    ops.op(reply.first().map(String::as_str) == Some("OK METRICS"));
    let body = reply[1..reply.len().saturating_sub(1)].join("\n");
    obs::prom::parse_exposition(&body)
}

/// The mean of a Prometheus histogram series (`None` when it has no
/// samples).
pub fn prom_mean(expo: &Exposition, name: &str) -> Option<f64> {
    let sum = expo.value(&format!("{name}_sum"), &[])?;
    let count = expo.value(&format!("{name}_count"), &[])?;
    (count > 0.0).then(|| sum / count)
}

/// Self times of the daemon's own `RUN_UNTIL` span trees, read from
/// `TRACE DUMP`: per query, `render` has no children and `run`
/// contains the `stage:*` spans. (`parse` and `admission` take less
/// than the recorder's one-microsecond resolution.)
#[derive(Debug, Default)]
pub struct ServeSpans {
    /// µs per warm query, by layer: run (self), stages, render.
    pub warm_us: [Vec<f64>; 3],
    /// Wall µs of the `stage:tracking` span of each cold query.
    pub tracking_us: Vec<f64>,
}

/// Fetches `TRACE DUMP`, checks it is valid Chrome trace JSON, and
/// splits each query's span tree into layer self times. A query is
/// warm when every one of its stage spans was a cache hit.
pub fn scrape_trace(client: &mut Client, ops: &mut Ops) -> Result<ServeSpans, String> {
    let reply = client.request("TRACE DUMP").map_err(|e| e.to_string())?;
    ops.op(reply.first().map(String::as_str) == Some("OK TRACE"));
    let body = reply[1..reply.len().saturating_sub(1)].join("\n");
    obs::validate_json(&body)?;
    struct Ev {
        name: String,
        dur: f64,
        cached: bool,
    }
    let mut by_query: HashMap<u64, Vec<Ev>> = HashMap::new();
    for line in body.lines().filter(|l| l.contains("\"ph\": \"X\"")) {
        let num = |key: &str| -> Option<f64> {
            let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
            let digits: String = line[at..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().ok()
        };
        let name = line
            .split("\"name\": \"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_default()
            .to_owned();
        let (Some(tid), Some(dur)) = (num("tid"), num("dur")) else {
            continue;
        };
        by_query.entry(tid as u64).or_default().push(Ev {
            name,
            dur,
            cached: line.contains("\"cached\": 1"),
        });
    }
    let mut out = ServeSpans::default();
    for evs in by_query.values() {
        let stages: Vec<&Ev> = evs
            .iter()
            .filter(|e| e.name.starts_with("stage:"))
            .collect();
        let dur = |n: &str| evs.iter().find(|e| e.name == n).map(|e| e.dur);
        if stages.is_empty() || stages.iter().any(|e| !e.cached) {
            out.tracking_us.extend(
                stages
                    .iter()
                    .filter(|e| e.name == "stage:tracking" && !e.cached)
                    .map(|e| e.dur),
            );
            continue;
        }
        let staged: f64 = stages.iter().map(|e| e.dur).sum();
        let (Some(run), Some(render)) = (dur("run"), dur("render")) else {
            continue;
        };
        for (slot, v) in [(run - staged).max(0.0), staged, render]
            .into_iter()
            .enumerate()
        {
            out.warm_us[slot].push(v);
        }
    }
    Ok(out)
}
