//! Output checks. Each recomputes a figure apart from the code under
//! test, or checks a property the paper's method must have; none
//! compares against a stored copy of an earlier output.

use std::collections::HashMap;

use hs_landscape::hs_content::CrawlReport;
use hs_landscape::hs_harvest::HarvestOutcome;
use hs_landscape::hs_popularity::{Ranking, ResolutionReport};
use hs_landscape::hs_portscan::ScanReport;
use hs_landscape::hs_world::service::SKYNET_PORT;
use hs_landscape::hs_world::{Role, World};
use hs_landscape::onion_crypto::descriptor::{DescriptorId, Replica, TimePeriod, REPLICAS};
use hs_landscape::onion_crypto::onion::OnionAddress;
use hs_landscape::pipeline::PipelineRun;
use hs_landscape::report;
use hs_landscape::tor_sim::clock::{SimTime, DAY};
use hs_landscape::StudyReport;

/// Collects failed checks; a run is correct when none failed.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records a failure unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.failures.push(msg);
        }
    }

    /// Whether every check so far passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Every check on one full study report.
pub fn study(report: &StudyReport, checks: &mut Checks) {
    let (Some(world), Some(harvest), Some(scan), Some(crawl), Some(resolution), Some(ranking)) = (
        &report.world,
        &report.harvest,
        &report.scan,
        &report.crawl,
        &report.resolution,
        &report.ranking,
    ) else {
        checks.expect(false, || "study report is missing a section".to_owned());
        return;
    };
    let observed = recount_table2(harvest, resolution, checks);
    table2_order(ranking, harvest, &observed, checks);
    botnet_majority(ranking, world, checks);
    fig1_ground_truth(scan, world, checks);
    crawl_funnel(crawl, checks);
}

/// Table II recount: resolves every logged request with the
/// benchmark's own descriptor-ID → onion map over the resolution
/// window's time periods (28 Jan – 8 Feb, both replicas), and compares
/// per-onion counts and totals with the resolution report. Returns the
/// recounted per-onion requests.
fn recount_table2(
    harvest: &HarvestOutcome,
    resolution: &ResolutionReport,
    checks: &mut Checks,
) -> HashMap<OnionAddress, u64> {
    let first = SimTime::from_ymd(2013, 1, 28).unix();
    // One period past 8 Feb's: clients whose clocks run fast ask for it.
    let last = SimTime::from_ymd(2013, 2, 8).unix() + DAY;
    let mut map: HashMap<DescriptorId, OnionAddress> = HashMap::new();
    for &onion in &harvest.onions {
        let id = onion.permanent_id();
        for period in TimePeriod::at(first, id).0..=TimePeriod::at(last, id).0 {
            for replica in 0..REPLICAS {
                let desc = DescriptorId::compute(id, TimePeriod(period), Replica::new(replica));
                map.insert(desc, onion);
            }
        }
    }
    let mut per_onion: HashMap<OnionAddress, u64> = HashMap::new();
    let mut unresolved = 0u64;
    for req in &harvest.requests {
        match map.get(&req.record.descriptor_id) {
            Some(&onion) => *per_onion.entry(onion).or_insert(0) += 1,
            None => unresolved += 1,
        }
    }
    let total = harvest.requests.len() as u64;
    let resolved: u64 = per_onion.values().sum();
    checks.expect(total > 0, || "harvest logged no requests".to_owned());
    checks.expect(resolution.total_requests == total, || {
        format!(
            "Table II: report total {} != log length {total}",
            resolution.total_requests
        )
    });
    checks.expect(resolution.unresolved_requests == unresolved, || {
        format!(
            "Table II: report unresolved {} != recount {unresolved}",
            resolution.unresolved_requests
        )
    });
    checks.expect(resolution.requests_per_onion == per_onion, || {
        "Table II: per-onion request counts differ from the recount".to_owned()
    });
    let reported: u64 = resolution.requests_per_onion.values().sum();
    checks.expect(
        reported + resolution.unresolved_requests == resolution.total_requests,
        || {
            format!(
                "Table II: resolved {reported} + unresolved {} != total {}",
                resolution.unresolved_requests, resolution.total_requests
            )
        },
    );
    checks.expect(resolved + unresolved == total, || {
        "recount lost requests".to_owned()
    });
    per_onion
}

/// Every Table II estimate is `round(observed × 12 / slot_hours)` with
/// the observed count from the recount, and the rows descend.
fn table2_order(
    ranking: &Ranking,
    harvest: &HarvestOutcome,
    observed: &HashMap<OnionAddress, u64>,
    checks: &mut Checks,
) {
    let rows = ranking.rows();
    checks.expect(rows.len() >= 10, || {
        format!("Table II has only {} rows", rows.len())
    });
    let slots: HashMap<OnionAddress, u64> = harvest.slot_hours.iter().copied().collect();
    let mut bad = 0usize;
    for row in rows {
        let seen = observed.get(&row.onion).copied().unwrap_or(0);
        // A service with no slot-hour window keeps its raw count.
        let want = match slots.get(&row.onion) {
            Some(&s) if s > 0 => ((seen as f64) * 12.0 / (s as f64)).round() as u64,
            _ => seen,
        };
        if row.requests != want {
            bad += 1;
        }
    }
    checks.expect(bad == 0, || {
        format!("Table II: {bad} estimates differ from observed×12/slot_hours")
    });
    let descending = rows.windows(2).all(|w| w[0].requests >= w[1].requests);
    checks.expect(descending, || {
        "Table II rows are not in descending order".to_owned()
    });
}

/// The paper's headline: most of the ten most requested services are
/// botnet command-and-control (Goldnet, Skynet, its bitcoin pool).
fn botnet_majority(ranking: &Ranking, world: &World, checks: &mut Checks) {
    let botnet = ranking
        .top(10)
        .iter()
        .filter(|row| {
            world.get(row.onion).is_some_and(|s| {
                matches!(
                    s.role,
                    Role::GoldnetCc { .. } | Role::SkynetCc | Role::SkynetBot
                )
            })
        })
        .count();
    checks.expect(botnet > 5, || {
        format!("only {botnet} of the Table II top 10 are botnet services")
    });
}

/// Fig. 1: every open port counted is open for that service in the
/// world's ground truth, and the per-port totals add up. Like the
/// paper, Fig. 1 also counts port 55080 on Skynet-infected machines,
/// which answer it with an abnormal close.
fn fig1_ground_truth(scan: &ScanReport, world: &World, checks: &mut Checks) {
    let mut wrong = 0usize;
    let mut counted = 0u64;
    for (&onion, ports) in &scan.open_by_onion {
        let Some(service) = world.get(onion) else {
            wrong += ports.len();
            continue;
        };
        let truth = service.open_ports();
        let bot = service.is_skynet_bot();
        wrong += ports
            .iter()
            .filter(|&&p| !(truth.contains(&p) || (bot && p == SKYNET_PORT)))
            .count();
        counted += ports.len() as u64;
    }
    checks.expect(wrong == 0, || {
        format!("Fig. 1: {wrong} open ports are closed in ground truth")
    });
    let by_port: u64 = scan.open_by_port.values().map(|&n| u64::from(n)).sum();
    checks.expect(counted > 0 && counted == by_port, || {
        format!("Fig. 1: {counted} open ports by onion vs {by_port} by port")
    });
}

/// Sec. IV: the crawl funnel only narrows.
fn crawl_funnel(crawl: &CrawlReport, checks: &mut Checks) {
    let classified = crawl.classified.len();
    let excluded = crawl.excluded_errors + crawl.excluded_short + crawl.excluded_mirrors;
    let monotone = crawl.attempted >= crawl.still_open
        && crawl.still_open >= crawl.connected
        && crawl.connected >= excluded + classified
        && classified > 0;
    checks.expect(monotone, || {
        format!(
            "crawl funnel not monotone: attempted {} still_open {} connected {} excluded {excluded} classified {classified}",
            crawl.attempted, crawl.still_open, crawl.connected
        )
    });
}

/// The batch CLI's renders for the three artifacts the read mix
/// fetches, as the daemon's reply bodies should carry them:
/// `GET popularity FULL`, `GET crawl FULL`, `GET port_scan`.
pub fn batch_renders(run: &PipelineRun) -> [Vec<String>; 3] {
    let lines = |blocks: &[String]| -> Vec<String> {
        blocks
            .iter()
            .flat_map(|b| b.lines().map(str::to_owned))
            .collect()
    };
    let p = run.artifacts.popularity();
    let popularity = lines(&[
        report::render_table2(&p.ranking, 30),
        report::render_sec5(&p.resolution, p.requested_published_share),
    ]);
    let c = run.artifacts.crawl();
    let crawl = lines(&[
        report::render_table1(c),
        report::render_funnel_and_languages(c),
        report::render_fig2(c),
    ]);
    let s = run.artifacts.scan();
    let open: u64 = s.open_by_port.values().map(|&n| u64::from(n)).sum();
    let scan = vec![
        format!("targets={}", s.targets),
        format!("with_descriptors={}", s.with_descriptors),
        format!("open_ports={open}"),
    ];
    [popularity, crawl, scan]
}
