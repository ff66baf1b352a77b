//! Benchmark-owned tracing: spans recorded *around* calls into the repo's
//! crates, never inside them.
//!
//! A span is `{name, layer, track, start, end, parent, run_id}`; `layer` is
//! the crate the time is charged to, `run_id` the timed repeat it belongs
//! to. Spans live in memory until the run ends. Three sources feed one
//! list: the driver's own [`Recorder::scope`] calls, events the repo's
//! public `*_observed` entry points emit ([`Recorder::import_obs`]), and
//! span files written by `perf-proc-worker` processes
//! ([`Recorder::adopt`]).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Instant;

use dtrain_obs::{Event, EventKind, Track};

use crate::host::epoch_ns;
use crate::json::J;

pub type SpanId = usize;

/// Track of the single-threaded driver; worker `w` records on `w + 1`.
pub const DRIVER_TRACK: u32 = 0;

/// Layer name for the harness's own bookkeeping between calls.
pub const HARNESS: &str = "perf";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host nanoseconds since the Unix epoch.
    Host,
    /// Simulated nanoseconds; kept for the trace file, never summed with
    /// host time.
    Virtual,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: Cow<'static, str>,
    pub layer: Cow<'static, str>,
    pub track: u32,
    pub clock: Clock,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub run_id: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Epoch nanoseconds on a monotonic base: one wall-clock read when the
/// clock is made, `Instant` after that. `Copy`, so a recorder and the
/// [`crate::timed_backend::TimedBackend`] it later merges share one.
#[derive(Clone, Copy, Debug)]
pub struct SpanClock {
    /// Epoch nanoseconds at `anchor`.
    pub anchor_epoch: u64,
    pub anchor: Instant,
}

impl SpanClock {
    pub fn start() -> Self {
        SpanClock {
            anchor_epoch: epoch_ns(),
            anchor: Instant::now(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.anchor_epoch + self.anchor.elapsed().as_nanos() as u64
    }
}

pub struct Recorder {
    spans: Vec<Span>,
    open: Vec<SpanId>,
    run_id: u32,
    track: u32,
    clock: SpanClock,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder for the driver's own track.
    pub fn new() -> Self {
        Self::on_track(DRIVER_TRACK)
    }

    /// A recorder whose scopes land on `track` (a worker process records
    /// on `rank + 1`).
    pub fn on_track(track: u32) -> Self {
        Recorder {
            spans: Vec::new(),
            open: Vec::new(),
            run_id: 0,
            track,
            clock: SpanClock::start(),
        }
    }

    pub fn clock(&self) -> SpanClock {
        self.clock
    }

    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Spans opened from now on belong to repeat `run_id`.
    pub fn set_run(&mut self, run_id: u32) {
        self.run_id = run_id;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Innermost span currently open on the driver track.
    pub fn current(&self) -> Option<SpanId> {
        self.open.last().copied()
    }

    pub fn open(&mut self, name: impl Into<Cow<'static, str>>, layer: &'static str) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            layer: Cow::Borrowed(layer),
            track: self.track,
            clock: Clock::Host,
            start_ns: now,
            end_ns: now,
            parent: self.current(),
            run_id: self.run_id,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: SpanId) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record `f` as one span charged to `layer`.
    pub fn scope<R>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        layer: &'static str,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> (SpanId, R) {
        let id = self.open(name, layer);
        let out = f(self);
        self.close(id);
        (id, out)
    }

    /// Append spans recorded elsewhere (a worker process) under `parent`.
    /// Their own parent links are indices into `foreign` and are rebased;
    /// roots hang off `parent`.
    pub fn adopt(&mut self, foreign: Vec<Span>, parent: Option<SpanId>) {
        let base = self.spans.len();
        let run_id = self.run_id;
        self.spans.extend(foreign.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s.run_id = run_id;
            s
        }));
    }

    /// Convert the worker-track events of one `*_observed` call into child
    /// spans of `parent`: `Enter`/`Exit` pairs and complete `Span` events
    /// become spans on track `worker + 1`, nested by containment.
    /// `base_ns` maps the sink's clock (nanoseconds since the run started)
    /// onto this recorder's; `layer_of` charges each event name to a crate.
    pub fn import_obs(
        &mut self,
        events: &[Event],
        parent: SpanId,
        clock: Clock,
        base_ns: u64,
        layer_of: impl Fn(&str) -> &'static str,
    ) {
        let limit = match clock {
            Clock::Host => self.spans[parent].end_ns,
            Clock::Virtual => u64::MAX,
        };
        let at = |ts: u64| (base_ns + ts).min(limit);
        // Open `Enter`s per worker track, innermost last.
        let mut stacks: BTreeMap<u16, Vec<SpanId>> = BTreeMap::new();
        for e in events {
            let Track::Worker(w) = e.track else { continue };
            let stack = stacks.entry(w).or_default();
            let child = |name: &'static str, start, end, under: Option<&SpanId>| Span {
                name: Cow::Borrowed(name),
                layer: Cow::Borrowed(layer_of(name)),
                track: u32::from(w) + 1,
                clock,
                start_ns: start,
                end_ns: end,
                parent: Some(under.copied().unwrap_or(parent)),
                run_id: self.run_id,
            };
            match e.kind {
                EventKind::Enter { name, .. } => {
                    self.spans
                        .push(child(name, at(e.ts), at(e.ts), stack.last()));
                    stack.push(self.spans.len() - 1);
                }
                EventKind::Exit { name } => {
                    if let Some(pos) = stack.iter().rposition(|&id| self.spans[id].name == name) {
                        let id = stack.remove(pos);
                        self.spans[id].end_ns = at(e.ts);
                    }
                }
                EventKind::Span { name, dur, .. } => {
                    self.spans
                        .push(child(name, at(e.ts), at(e.ts + dur), stack.last()));
                }
                EventKind::Counter { .. } | EventKind::Instant { .. } => {}
            }
        }
    }

    /// Add externally timed calls (a [`crate::timed_backend::TimedBackend`]
    /// log) as spans on this recorder's track, each under the child of
    /// `under` on that track whose interval contains it — the `iter` span
    /// it ran in — or under `under` itself when none does.
    pub fn insert_by_containment(
        &mut self,
        calls: &[(&'static str, u64, u64)],
        layer: &'static str,
        under: SpanId,
    ) {
        let mut hosts: Vec<(u64, u64, SpanId)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(under) && s.track == self.track)
            .map(|(id, s)| (s.start_ns, s.end_ns, id))
            .collect();
        hosts.sort_unstable();
        for &(name, start, end) in calls {
            let before = hosts.partition_point(|&(s, _, _)| s <= start);
            let parent = before
                .checked_sub(1)
                .map(|i| hosts[i])
                .filter(|&(_, e, _)| end <= e)
                .map_or(under, |(_, _, id)| id);
            self.spans.push(Span {
                name: Cow::Borrowed(name),
                layer: Cow::Borrowed(layer),
                track: self.track,
                clock: Clock::Host,
                start_ns: start,
                end_ns: end,
                parent: Some(parent),
                run_id: self.run_id,
            });
        }
    }
}

/// The layer rule every import uses: a `compute` span is `nn::train_batch`,
/// anything else on a worker track belongs to the crate that drives the
/// loop (`other`).
pub fn compute_is_nn(other: &'static str) -> impl Fn(&str) -> &'static str {
    move |name| if name == "compute" { "nn" } else { other }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap each other (two worker
/// tracks under one call) and are clipped to the parent; virtual-clock
/// spans only ever subtract from virtual-clock parents.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if spans[p].clock == s.clock {
                let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
                let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
                if b > a {
                    kids[p].push((a, b));
                }
            }
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, iv)| {
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut edge = 0u64;
            for &(a, b) in iv.iter() {
                let a = a.max(edge);
                if b > a {
                    covered += b - a;
                    edge = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Where one repeat's wall time went, along its blocking path.
#[derive(Clone, Debug, PartialEq)]
pub struct Breakdown {
    /// Wall time of the root spans (one per repeat), summed.
    pub wall_ns: u64,
    /// Self time per layer on the blocking path, largest first.
    pub layers: Vec<(String, u64)>,
    /// The same self time split by `(layer, span name)`, largest first.
    pub names: Vec<(String, String, u64)>,
    /// The worker track taken as the blocking one (largest busy time).
    pub critical_track: Option<u32>,
}

impl Breakdown {
    /// Host time on the blocking path that a span accounts for.
    pub fn accounted_ns(&self) -> u64 {
        self.layers.iter().map(|(_, ns)| ns).sum()
    }

    /// What no span on the blocking path covers: intervals where only a
    /// non-critical worker was inside a span.
    pub fn gap_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.accounted_ns())
    }

    pub fn layer_ns(&self, layer: &str) -> u64 {
        self.layers
            .iter()
            .find(|(l, _)| l == layer)
            .map_or(0, |&(_, ns)| ns)
    }

    /// Share of wall time charged to a repo crate (not to the harness,
    /// not to the gap).
    pub fn accounted_share(&self) -> f64 {
        let repo = self.accounted_ns() - self.layer_ns(HARNESS);
        repo as f64 / self.wall_ns.max(1) as f64
    }
}

/// Sum self time per layer over the driver track plus the one worker track
/// with the most self time: parallel workers overlap in time, so charging
/// every track would count the same wall interval once per worker.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let selfs = self_times(spans);
    let host = |s: &Span| s.clock == Clock::Host;
    let mut busy: BTreeMap<u32, u64> = BTreeMap::new();
    for (s, &t) in spans.iter().zip(&selfs) {
        if host(s) && s.track != DRIVER_TRACK {
            *busy.entry(s.track).or_default() += t;
        }
    }
    let critical_track = busy
        .iter()
        .max_by_key(|&(&t, &ns)| (ns, t))
        .map(|(&t, _)| t);
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    let mut names: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    let mut wall_ns = 0;
    for (s, &t) in spans.iter().zip(&selfs) {
        if !host(s) {
            continue;
        }
        if s.parent.is_none() {
            wall_ns += s.dur_ns();
        }
        if s.track == DRIVER_TRACK || Some(s.track) == critical_track {
            *layers.entry(&s.layer).or_default() += t;
            *names.entry((&s.layer, &s.name)).or_default() += t;
        }
    }
    let mut names: Vec<(String, String, u64)> = names
        .into_iter()
        .map(|((l, n), ns)| (l.to_string(), n.to_string(), ns))
        .collect();
    names.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| (&a.0, &a.1).cmp(&(&b.0, &b.1))));
    let mut layers: Vec<(String, u64)> = layers
        .into_iter()
        .map(|(l, ns)| (l.to_string(), ns))
        .collect();
    layers.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    Breakdown {
        wall_ns,
        layers,
        names,
        critical_track,
    }
}

/// Durations in microseconds of every host-clock span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.clock == Clock::Host && s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Perfetto / Chrome `trace_event` document: host-clock spans under
/// process 1, virtual-clock spans under process 2, one thread per track.
pub fn perfetto(spans: &[Span]) -> J {
    let origin = |clock| {
        spans
            .iter()
            .filter(|s| s.clock == clock)
            .map(|s| s.start_ns)
            .min()
            .unwrap_or(0)
    };
    let (host0, virt0) = (origin(Clock::Host), origin(Clock::Virtual));
    let mut events = vec![
        process_name(1, "host time"),
        process_name(2, "virtual (simulated) time"),
    ];
    for (id, s) in spans.iter().enumerate() {
        let (pid, t0) = match s.clock {
            Clock::Host => (1, host0),
            Clock::Virtual => (2, virt0),
        };
        events.push(J::obj([
            ("name", J::str(&*s.name)),
            ("cat", J::str(&*s.layer)),
            ("ph", J::str("X")),
            ("ts", J::Num((s.start_ns - t0) as f64 / 1e3)),
            ("dur", J::Num(s.dur_ns() as f64 / 1e3)),
            ("pid", J::Int(pid)),
            ("tid", J::Int(i64::from(s.track))),
            (
                "args",
                J::obj([
                    ("id", J::Int(id as i64)),
                    ("parent", s.parent.map_or(J::Null, |p| J::Int(p as i64))),
                    ("run_id", J::Int(i64::from(s.run_id))),
                ]),
            ),
        ]));
    }
    J::obj([
        ("displayTimeUnit", J::str("ns")),
        ("traceEvents", J::Arr(events)),
    ])
}

fn process_name(pid: i64, name: &str) -> J {
    J::obj([
        ("name", J::str("process_name")),
        ("ph", J::str("M")),
        ("pid", J::Int(pid)),
        ("args", J::obj([("name", J::str(name))])),
    ])
}

/// Compact interchange form for span files a worker process leaves for
/// the driver: one array per span.
pub fn to_rows(spans: &[Span]) -> J {
    J::Arr(
        spans
            .iter()
            .map(|s| {
                J::Arr(vec![
                    J::str(&*s.name),
                    J::str(&*s.layer),
                    J::Int(i64::from(s.track)),
                    J::Int(s.start_ns as i64),
                    J::Int(s.end_ns as i64),
                    s.parent.map_or(J::Null, |p| J::Int(p as i64)),
                ])
            })
            .collect(),
    )
}

/// Inverse of [`to_rows`]; `None` on any malformed row.
pub fn from_rows(doc: &serde_json::Value) -> Option<Vec<Span>> {
    doc.as_array()?
        .iter()
        .map(|row| {
            Some(Span {
                name: Cow::Owned(row[0].as_str()?.to_string()),
                layer: Cow::Owned(row[1].as_str()?.to_string()),
                track: u32::try_from(row[2].as_u64()?).ok()?,
                clock: Clock::Host,
                start_ns: row[3].as_u64()?,
                end_ns: row[4].as_u64()?,
                parent: match &row[5] {
                    v if v.is_null() => None,
                    v => Some(usize::try_from(v.as_u64()?).ok()?),
                },
                run_id: 0,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        layer: &'static str,
        track: u32,
        start: u64,
        end: u64,
        parent: Option<SpanId>,
    ) -> Span {
        Span {
            name: name.into(),
            layer: layer.into(),
            track,
            clock: Clock::Host,
            start_ns: start,
            end_ns: end,
            parent,
            run_id: 0,
        }
    }

    #[test]
    fn self_time_with_nested_children() {
        // repeat [0,100] > call [10,90] > iter [20,60] > compute [25,55]
        let spans = vec![
            span("repeat", HARNESS, 0, 0, 100, None),
            span("call", "runtime", 0, 10, 90, Some(0)),
            span("iter", "runtime", 1, 20, 60, Some(1)),
            span("compute", "nn", 1, 25, 55, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 10, 30]);
    }

    #[test]
    fn self_time_with_overlapping_and_escaping_children() {
        // Two worker tracks overlap on [30,50]; one child pokes past the
        // parent's end and is clipped; one lies entirely outside.
        let spans = vec![
            span("call", "runtime", 0, 0, 100, None),
            span("iter", "runtime", 1, 10, 50, Some(0)),
            span("iter", "runtime", 2, 30, 70, Some(0)),
            span("iter", "runtime", 1, 90, 120, Some(0)),
            span("iter", "runtime", 2, 130, 140, Some(0)),
        ];
        // union = [10,70] + [90,100] = 70 → self 30
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn virtual_children_do_not_subtract_from_host_parents() {
        let mut v = span("iter", "algos", 1, 0, 1_000_000, Some(0));
        v.clock = Clock::Virtual;
        let spans = vec![span("call", "algos", 0, 0, 100, None), v];
        assert_eq!(self_times(&spans), vec![100, 1_000_000]);
        let b = breakdown(&spans);
        assert_eq!((b.wall_ns, b.critical_track), (100, None));
        assert_eq!(b.layers, vec![("algos".to_string(), 100)]);
    }

    #[test]
    fn breakdown_follows_the_busiest_worker_track() {
        // Worker 2 (track 2) is the slower one; its spans are charged, the
        // other worker's are not, and the time only worker 1 covers
        // ([10,20]) is the gap.
        let spans = vec![
            span("repeat", HARNESS, 0, 0, 100, None),
            span("call", "runtime", 0, 0, 100, Some(0)),
            span("iter", "runtime", 1, 10, 60, Some(1)),
            span("compute", "nn", 1, 10, 40, Some(2)),
            span("iter", "runtime", 2, 20, 95, Some(1)),
            span("compute", "nn", 2, 20, 80, Some(4)),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.critical_track, Some(2));
        assert_eq!(b.wall_ns, 100);
        assert_eq!(b.layer_ns("nn"), 60);
        // call self = 100 − |[10,95]| = 15; iter self on track 2 = 15
        assert_eq!(b.layer_ns("runtime"), 30);
        assert_eq!(b.layer_ns(HARNESS), 0);
        assert_eq!(b.names[0], ("nn".to_string(), "compute".to_string(), 60));
        assert_eq!(b.gap_ns(), 10);
        assert!((b.accounted_share() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_scopes_and_tags_runs() {
        let mut rec = Recorder::new();
        rec.set_run(3);
        let (outer, inner) = rec.scope("repeat", HARNESS, |r| r.scope("call", "proc", |_| ()).0);
        let spans = rec.spans();
        assert_eq!(spans[inner].parent, Some(outer));
        assert_eq!(spans[outer].parent, None);
        assert_eq!(spans[inner].run_id, 3);
        assert!(spans[outer].start_ns <= spans[inner].start_ns);
        assert!(spans[inner].end_ns <= spans[outer].end_ns);
    }

    #[test]
    fn obs_events_become_nested_child_spans() {
        let sink = dtrain_obs::ObsSink::enabled();
        let w0 = sink.track(Track::Worker(0));
        let rt = sink.track(Track::Runtime(0));
        w0.enter(100, "iter", 0);
        w0.span(110, 50, "compute", 0);
        w0.counter(170, "logical.bytes", 4);
        w0.exit(200, "iter");
        rt.instant(120, "ckpt.save", 1);
        let mut rec = Recorder::new();
        let call = rec.open("call", "runtime");
        std::thread::sleep(std::time::Duration::from_millis(1));
        rec.close(call);
        let base = rec.spans()[call].start_ns;
        rec.import_obs(
            &sink.snapshot(),
            call,
            Clock::Host,
            base,
            compute_is_nn("runtime"),
        );
        let spans = rec.spans();
        assert_eq!(
            spans.len(),
            3,
            "runtime-track and counter events are skipped"
        );
        let iter = &spans[1];
        let compute = &spans[2];
        assert_eq!(
            (iter.name.as_ref(), iter.track, iter.parent),
            ("iter", 1, Some(call))
        );
        assert_eq!((iter.start_ns - base, iter.end_ns - base), (100, 200));
        assert_eq!((compute.layer.as_ref(), compute.parent), ("nn", Some(1)));
        assert_eq!(compute.dur_ns(), 50);
        assert_eq!(durations_us(spans, "iter"), vec![0.1]);
    }

    #[test]
    fn timed_calls_nest_under_the_iteration_that_contains_them() {
        let mut rec = Recorder::on_track(2);
        let body = rec.open("worker_body", "runtime");
        rec.close(body);
        for (start, end) in [(100, 200), (200, 300)] {
            let mut s = span("iter", "runtime", 2, start, end, Some(body));
            s.run_id = 0;
            rec.spans.push(s);
        }
        rec.insert_by_containment(
            &[
                ("bsp_exchange", 150, 190),
                ("iter_end", 290, 300),
                ("startup", 10, 20),
            ],
            "proc",
            body,
        );
        let parents: Vec<_> = rec.spans()[3..].iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![Some(1), Some(2), Some(body)]);
        assert!(rec.spans()[3..]
            .iter()
            .all(|s| s.track == 2 && s.layer == "proc"));
    }

    #[test]
    fn span_rows_round_trip_and_adopt_rebases_parents() {
        let foreign = vec![
            span("worker", "proc", 2, 5, 50, None),
            span("bsp_exchange", "proc", 2, 10, 20, Some(0)),
        ];
        let text = to_rows(&foreign).compact();
        let back = from_rows(&serde_json::from_str(&text).expect("valid json")).expect("rows");
        assert_eq!(back, foreign);
        assert_eq!(
            from_rows(&serde_json::from_str("[[1]]").expect("json")),
            None
        );

        let mut rec = Recorder::new();
        rec.set_run(7);
        let call = rec.open("train_proc", "proc");
        rec.close(call);
        rec.adopt(back, Some(call));
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(call));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].run_id, 7);
    }

    #[test]
    fn perfetto_document_has_one_complete_event_per_span() {
        let spans = vec![
            span("repeat", HARNESS, 0, 1_000, 3_000, None),
            span("call", "desim", 0, 1_500, 2_500, Some(0)),
        ];
        let doc = serde_json::from_str(&perfetto(&spans).compact()).expect("valid json");
        let events = doc["traceEvents"].as_array().expect("array");
        let complete: Vec<_> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        assert_eq!(complete[1]["cat"].as_str(), Some("desim"));
        assert_eq!(complete[1]["ts"].as_f64(), Some(0.5));
        assert_eq!(complete[1]["dur"].as_f64(), Some(1.0));
        assert_eq!(complete[1]["args"]["parent"].as_i64(), Some(0));
    }
}
