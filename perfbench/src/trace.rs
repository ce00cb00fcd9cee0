//! The benchmark's own span recorder for traced runs.
//!
//! Spans are recorded from the benchmark's side of each layer call:
//! name, start, end, parent span and the id of the request (or stage
//! call) they belong to. They stay in memory and are written once, at
//! exit, as a Chrome `trace_event` array through the `obs` exporter.
//! An untraced run carries a disabled tracer that records nothing.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use hs_landscape::obs::{self, SpanRecorder, Trace, TraceClock};

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Clone, Debug)]
struct SpanRec {
    name: String,
    start_us: u64,
    end_us: u64,
    parent: Option<SpanId>,
    req: u64,
}

/// In-memory span store; cheap no-op when disabled.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn us(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_micros()).unwrap_or(u64::MAX)
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, Vec<SpanRec>> {
        self.spans
            .lock()
            .expect("tracer lock poisoned by a panicking span")
    }

    /// Records a finished interval after the fact.
    pub fn record(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        req: u64,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let rec = SpanRec {
            name: name.to_owned(),
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            req,
        };
        let mut spans = self.locked();
        spans.push(rec);
        Some(spans.len() - 1)
    }

    /// Runs `f` inside a span and returns its result with the wall
    /// time it took. `f` receives the span's id, for child spans.
    pub fn timed<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let id = self.record(name, start, start, parent, req);
        let out = f(id);
        let end = Instant::now();
        if let Some(id) = id {
            let end_us = self.us(end);
            self.locked()[id].end_us = end_us;
        }
        (out, end - start)
    }

    /// Self time of one span: its duration minus the part of it that
    /// its child spans cover.
    pub fn self_time(&self, id: SpanId) -> Duration {
        let spans = self.locked();
        let kids: Vec<SpanId> = (0..spans.len())
            .filter(|&k| spans[k].parent == Some(id))
            .collect();
        Duration::from_micros(self_us(&spans, id, &kids))
    }

    /// Per span name: count, summed self time and median self time,
    /// all in microseconds, sorted by name.
    pub fn self_profile(&self) -> BTreeMap<String, (usize, u64, f64)> {
        let spans = self.locked();
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); spans.len()];
        for (id, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(id);
            }
        }
        let mut by_name: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for (id, s) in spans.iter().enumerate() {
            by_name
                .entry(s.name.clone())
                .or_default()
                .push(self_us(&spans, id, &children[id]));
        }
        by_name
            .into_iter()
            .map(|(name, v)| {
                let f: Vec<f64> = v.iter().map(|&x| x as f64).collect();
                (name, (v.len(), v.iter().sum(), crate::stats::median(&f)))
            })
            .collect()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.locked().len()
    }

    /// The recorded spans as a Chrome `trace_event` JSON array, one
    /// lane per request id. Each event's args carry its span index,
    /// its parent's index plus one (0 for a root) and the request id.
    pub fn to_chrome_json(&self) -> String {
        let spans = self.locked();
        let mut lanes: BTreeMap<u64, SpanRecorder> = BTreeMap::new();
        for (id, s) in spans.iter().enumerate() {
            lanes.entry(s.req).or_default().span(obs::Span {
                name: s.name.clone(),
                cat: "bench",
                sim_start: 0,
                sim_end: 0,
                wall_us: Some((s.start_us, s.end_us.max(s.start_us))),
                args: vec![
                    ("span", id as u64),
                    ("parent", s.parent.map_or(0, |p| p as u64 + 1)),
                    ("req", s.req),
                ],
            });
        }
        let mut trace = Trace::new();
        for (req, rec) in lanes {
            trace.push_lane(req as u32, &format!("request {req}"), rec);
        }
        trace.to_chrome_json(TraceClock::Wall)
    }
}

fn self_us(spans: &[SpanRec], id: SpanId, children: &[SpanId]) -> u64 {
    let (lo, hi) = (spans[id].start_us, spans[id].end_us.max(spans[id].start_us));
    let mut kids: Vec<(u64, u64)> = children
        .iter()
        .map(|&k| {
            (
                spans[k].start_us.clamp(lo, hi),
                spans[k].end_us.clamp(lo, hi),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for (s, e) in kids {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (hi - lo).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new(true);
        let o = t.origin;
        let at = |us| o + Duration::from_micros(us);
        let root = t.record("root", at(0), at(100), None, 1);
        t.record("a", at(10), at(40), root, 1);
        t.record("b", at(30), at(50), root, 1);
        t.record("c", at(90), at(150), root, 1);
        // Children cover 10..50 and 90..100: 50 µs of the root's 100.
        assert_eq!(t.self_time(root.unwrap()), Duration::from_micros(50));
        let json = t.to_chrome_json();
        obs::validate_json(&json).unwrap();
        assert_eq!(t.self_profile()["root"], (1, 50, 50.0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let (v, _) = t.timed("x", None, 0, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert_eq!(t.len(), 0);
    }
}
