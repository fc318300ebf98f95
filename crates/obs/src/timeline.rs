//! Deterministic per-window telemetry timelines.
//!
//! A [`TimelineRecorder`] turns selected counters, gauges and histogram
//! deltas into **per-window time series** on the observer clock: window
//! `i` covers `[i*window_ns, (i+1)*window_ns)`. Each series accumulates
//! one [`SeriesPoint`] per window (count / sum / min / max of the
//! observed values), ring-bounded to [`TimelineConfig::max_windows`]
//! windows, so always-on timelines have fixed memory. The serve layer's
//! SLO verdicts are two such series (`slo.good`, `slo.breached`), served
//! per shard and merged by `/debug/timeline` like every other series.
//!
//! A writer resolves each name once ([`TimelineRecorder::series`]), then
//! folds any number of observations by [`SeriesId`] under one lock with
//! no name lookup ([`TimelineRecorder::record`]). A series resolved but
//! never observed is left out of every rendering.
//!
//! Because both the window index and the aggregates are pure functions
//! of `(value, now_ns)` read from the injected [`crate::ObsClock`], a
//! scripted virtual-clock run produces bit-identical timelines at any
//! worker count, and [`merge_timelines`] folds per-shard views into one
//! by per-window addition.
//!
//! The NDJSON format has one owner: [`config_line`] and [`point_line`]
//! write it, and [`TimelineDump::parse`] reads it back.
//!
//! Two series kinds exist and are tagged in every rendering:
//!
//! * [`SeriesKind::Delta`] — additive contributions (admissions,
//!   completions, per-stage latency). Merged across shards, a delta
//!   series counts every contribution exactly once, so request-scoped
//!   delta series are invariant under re-sharding.
//! * [`SeriesKind::Sample`] — point-in-time observations (queue depth,
//!   batch size). How often these are sampled legitimately depends on
//!   batch formation, so they are *not* shard-count invariant.
//!
//! # Examples
//!
//! ```
//! use canti_obs::timeline::{SeriesKind, TimelineConfig, TimelineRecorder};
//!
//! let tl = TimelineRecorder::new(TimelineConfig {
//!     window_ns: 1_000,
//!     max_windows: 8,
//! });
//! tl.record_delta("serve.admitted", 1, 100);
//! tl.record_delta("serve.admitted", 1, 1_500);
//! tl.sample("serve.queue_depth", 3, 100);
//! let admitted = tl.series("serve.admitted", SeriesKind::Delta);
//! let _never_observed = tl.series("serve.shed", SeriesKind::Delta);
//! tl.record(&[(admitted, 1, 1_600)]);
//! let snap = tl.snapshot();
//! assert_eq!(snap.len(), 2, "a series never observed is not listed");
//! assert_eq!(snap[0].name, "serve.admitted");
//! assert_eq!(snap[0].points.len(), 2);
//! assert_eq!((snap[0].points[0].index, snap[0].points[0].count), (0, 1));
//! assert_eq!(snap[0].points[1].count, 2);
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, PoisonError};

use crate::ndjson::{self, JsonValue};
use crate::parse::{parse_ndjson, Json};

/// Windowing policy for a [`TimelineRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineConfig {
    /// Fixed window width on the observer clock, ns. Clamped to ≥ 1.
    pub window_ns: u64,
    /// Windows retained per series (oldest evicted first). Clamped ≥ 1.
    pub max_windows: usize,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        Self {
            window_ns: 1_000_000_000, // 1 s
            max_windows: 64,
        }
    }
}

impl TimelineConfig {
    /// The effective window width (configured value, at least 1 ns).
    #[must_use]
    pub fn width(&self) -> u64 {
        self.window_ns.max(1)
    }

    /// The window index `t_ns` falls into.
    #[must_use]
    pub fn window_index(&self, t_ns: u64) -> u64 {
        t_ns / self.width()
    }
}

/// How a series aggregates — see the module docs for the shard-merge
/// semantics of each kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Additive contributions; merged views are re-shard invariant for
    /// request-scoped series.
    Delta,
    /// Point-in-time observations; sampling cadence is shard-dependent.
    Sample,
}

impl SeriesKind {
    /// The fixed label used in renderings and NDJSON.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Delta => "delta",
            Self::Sample => "sample",
        }
    }
}

/// Aggregates over one series in one fixed window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesPoint {
    /// Window index: the window covers `[index*w, (index+1)*w)` ns.
    pub index: u64,
    /// Observations that landed in this window.
    pub count: u64,
    /// Sum of the observed values (saturating).
    pub sum: u64,
    /// Smallest observed value.
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
}

impl SeriesPoint {
    fn new_at(index: u64) -> Self {
        Self {
            index,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn observe(&mut self, value: u64) {
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn fold(&mut self, other: &SeriesPoint) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean observed value (0.0 when the window is empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `min`, mapped to 0 for empty windows (where it is the `u64::MAX`
    /// sentinel), so renderings never leak the sentinel.
    #[must_use]
    pub fn min_or_zero(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }
}

/// One series' retained windows, oldest first — the snapshot unit
/// [`TimelineRecorder::snapshot`] returns and [`merge_timelines`] folds.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesWindows {
    /// Series name (dotted, like metric names).
    pub name: String,
    /// Aggregation kind.
    pub kind: SeriesKind,
    /// Retained per-window aggregates, sorted by window index.
    pub points: Vec<SeriesPoint>,
}

#[derive(Debug)]
struct Series {
    kind: SeriesKind,
    points: VecDeque<SeriesPoint>,
}

impl Series {
    /// Folds `value` into window `index`, keeping at most `max_windows`
    /// windows.
    fn observe(&mut self, index: u64, value: u64, max_windows: usize) {
        window_slot(&mut self.points, index).observe(value);
        while self.points.len() > max_windows {
            self.points.pop_front();
        }
    }
}

/// The slot for window `index` in `windows`, which is sorted by index
/// with no repeats; a missing window is inserted empty, in order.
/// Observations arrive in clock order, so the search starts at the
/// newest window and usually stops there, while a late observation for
/// an older window still lands in its own slot.
fn window_slot(windows: &mut VecDeque<SeriesPoint>, index: u64) -> &mut SeriesPoint {
    let at = match windows.iter().rposition(|w| w.index <= index) {
        Some(i) if windows[i].index == index => return &mut windows[i],
        Some(i) => i + 1,
        None => 0,
    };
    windows.insert(at, SeriesPoint::new_at(index));
    &mut windows[at]
}

/// A series resolved by [`TimelineRecorder::series`]. It is valid only
/// on the recorder that issued it: another recorder may hold a
/// different series, or none, under the same id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(usize);

/// The recorder's state: one window ring per id, and the names sorted.
#[derive(Debug, Default)]
struct Registry {
    rings: Vec<Series>,
    names: BTreeMap<String, SeriesId>,
}

/// A deterministic per-window timeline aggregator (see the module docs).
#[derive(Debug)]
pub struct TimelineRecorder {
    config: TimelineConfig,
    registry: Mutex<Registry>,
}

impl TimelineRecorder {
    /// A recorder over `config` with no series yet.
    #[must_use]
    pub fn new(config: TimelineConfig) -> Self {
        Self {
            config,
            registry: Mutex::new(Registry::default()),
        }
    }

    /// The configured windowing policy.
    #[must_use]
    pub fn config(&self) -> TimelineConfig {
        self.config
    }

    /// The id of series `name`, registered as `kind` on first use, which
    /// fixes its kind: later calls return the same id and keep it (mixing
    /// kinds on one name is a caller bug, tolerated deterministically
    /// rather than panicking in telemetry).
    pub fn series(&self, name: &str, kind: SeriesKind) -> SeriesId {
        let mut registry = self.registry.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = registry.names.get(name) {
            return id;
        }
        let id = SeriesId(registry.rings.len());
        registry.rings.push(Series {
            kind,
            points: VecDeque::new(),
        });
        registry.names.insert(name.to_owned(), id);
        id
    }

    /// Folds each `(series, value, t_ns)` observation into the window
    /// its own `t_ns` names, all under one lock.
    ///
    /// # Panics
    ///
    /// On a [`SeriesId`] from another recorder that is beyond this one's
    /// series (an id within them records into the series holding it).
    pub fn record(&self, observations: &[(SeriesId, u64, u64)]) {
        let max_windows = self.config.max_windows.max(1);
        let mut registry = self.registry.lock().unwrap_or_else(PoisonError::into_inner);
        for &(SeriesId(id), value, t_ns) in observations {
            registry.rings[id].observe(self.config.window_index(t_ns), value, max_windows);
        }
    }

    /// Records an additive contribution of `value` to `series` at clock
    /// time `now_ns` (which names the window).
    pub fn record_delta(&self, series: &str, value: u64, now_ns: u64) {
        self.record(&[(self.series(series, SeriesKind::Delta), value, now_ns)]);
    }

    /// Records a point-in-time observation of `value` on `series` at
    /// clock time `now_ns`.
    pub fn sample(&self, series: &str, value: u64, now_ns: u64) {
        self.record(&[(self.series(series, SeriesKind::Sample), value, now_ns)]);
    }

    /// The observed series, sorted by name, each with its windows oldest
    /// first. A series resolved but never observed is left out.
    #[must_use]
    pub fn snapshot(&self) -> Vec<SeriesWindows> {
        let registry = self.registry.lock().unwrap_or_else(PoisonError::into_inner);
        registry
            .names
            .iter()
            .map(|(name, &SeriesId(id))| (name, &registry.rings[id]))
            .filter(|(_, s)| !s.points.is_empty())
            .map(|(name, s)| SeriesWindows {
                name: name.clone(),
                kind: s.kind,
                points: s.points.iter().copied().collect(),
            })
            .collect()
    }

    /// Renders the whole timeline as NDJSON: one `timeline_config` line
    /// followed by one fixed-field `timeline` line per (series, window).
    #[must_use]
    pub fn to_ndjson(&self) -> String {
        let mut out = config_line(self.config);
        out.push('\n');
        for series in self.snapshot() {
            for p in &series.points {
                out.push_str(&point_line(
                    None,
                    &series.name,
                    series.kind,
                    self.config.width(),
                    p,
                ));
                out.push('\n');
            }
        }
        out
    }
}

/// The `timeline_config` NDJSON header line (no trailing newline).
#[must_use]
pub fn config_line(config: TimelineConfig) -> String {
    ndjson::object(&[
        ("record", JsonValue::from("timeline_config")),
        ("window_ns", JsonValue::U64(config.width())),
        (
            "max_windows",
            JsonValue::U64(config.max_windows.max(1) as u64),
        ),
    ])
}

/// One fixed-field `timeline` NDJSON line (no trailing newline). The
/// field order is part of the format: `record`, optional `shard`,
/// `series`, `kind`, `window`, `t_ns`, `count`, `sum`, `min`, `max`.
#[must_use]
pub fn point_line(
    shard: Option<&str>,
    series: &str,
    kind: SeriesKind,
    width_ns: u64,
    p: &SeriesPoint,
) -> String {
    let mut fields: Vec<(&str, JsonValue)> = Vec::with_capacity(10);
    fields.push(("record", JsonValue::from("timeline")));
    if let Some(label) = shard {
        fields.push(("shard", JsonValue::from(label.to_owned())));
    }
    fields.push(("series", JsonValue::from(series.to_owned())));
    fields.push(("kind", JsonValue::from(kind.as_str())));
    fields.push(("window", JsonValue::U64(p.index)));
    fields.push(("t_ns", JsonValue::U64(p.index.saturating_mul(width_ns))));
    fields.push(("count", JsonValue::U64(p.count)));
    fields.push(("sum", JsonValue::U64(p.sum)));
    fields.push(("min", JsonValue::U64(p.min_or_zero())));
    fields.push(("max", JsonValue::U64(p.max)));
    ndjson::object(&fields)
}

/// A timeline NDJSON dump read back: the inverse of [`config_line`] and
/// [`point_line`], for a [`TimelineRecorder::to_ndjson`] dump or a
/// `/debug/timeline` body.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineDump {
    /// The window policy of the first `timeline_config` record, with
    /// `max_windows` clamped to ≥ 1.
    pub config: TimelineConfig,
    /// Every `(shard label, series)` section in order of first
    /// appearance, points sorted by window. A point without a `shard`
    /// field (a bare recorder dump) lands under shard `"0"`.
    pub sections: Vec<(String, SeriesWindows)>,
}

impl TimelineDump {
    /// Parses a dump. The first `timeline_config` record wins, and lines
    /// of other record types are skipped, so a combined artifact still
    /// loads.
    ///
    /// # Errors
    ///
    /// The reason, when `text` is not NDJSON, a `timeline_config` record
    /// is malformed or absent, a `timeline` record is missing a field or
    /// names an unknown kind, or there is no `timeline` record. A line
    /// number counts non-empty lines.
    pub fn parse(text: &str) -> Result<Self, String> {
        let docs = parse_ndjson(text).map_err(|e| e.to_string())?;
        let mut config = None;
        let mut sections: Vec<(String, SeriesWindows)> = Vec::new();
        for (i, doc) in docs.iter().enumerate() {
            let line = i + 1;
            match doc.get("record").and_then(Json::as_str) {
                Some("timeline_config") if config.is_none() => {
                    let field = |key| doc.get(key).and_then(Json::as_u64);
                    let (Some(window_ns @ 1..), Some(max_windows)) =
                        (field("window_ns"), field("max_windows"))
                    else {
                        return Err(format!("line {line}: malformed timeline_config record"));
                    };
                    config = Some(TimelineConfig {
                        window_ns,
                        max_windows: usize::try_from(max_windows.max(1)).unwrap_or(usize::MAX),
                    });
                }
                Some("timeline") => {
                    let missing =
                        |key: &str| format!("line {line}: timeline record is missing {key:?}");
                    let field = |key: &str| {
                        doc.get(key)
                            .and_then(Json::as_u64)
                            .ok_or_else(|| missing(key))
                    };
                    let name = doc
                        .get("series")
                        .and_then(Json::as_str)
                        .ok_or_else(|| missing("series"))?;
                    let kind = match doc.get("kind").and_then(Json::as_str) {
                        None | Some("delta") => SeriesKind::Delta,
                        Some("sample") => SeriesKind::Sample,
                        Some(other) => {
                            return Err(format!(
                                "line {line}: timeline record has unknown kind {other:?}"
                            ))
                        }
                    };
                    let shard = doc.get("shard").and_then(Json::as_str).unwrap_or("0");
                    let point = SeriesPoint {
                        index: field("window")?,
                        count: field("count")?,
                        sum: field("sum")?,
                        min: field("min")?,
                        max: field("max")?,
                    };
                    match sections
                        .iter_mut()
                        .find(|(label, s)| label == shard && s.name == name)
                    {
                        Some((_, series)) => series.points.push(point),
                        None => sections.push((
                            shard.to_owned(),
                            SeriesWindows {
                                name: name.to_owned(),
                                kind,
                                points: vec![point],
                            },
                        )),
                    }
                }
                _ => {}
            }
        }
        let config = config.ok_or_else(|| {
            "no timeline_config record (is this a /debug/timeline artifact?)".to_owned()
        })?;
        if sections.is_empty() {
            return Err("no timeline records".to_owned());
        }
        for (_, series) in &mut sections {
            series.points.sort_by_key(|p| p.index);
        }
        Ok(Self { config, sections })
    }

    /// The section for `(shard, name)`, if the dump carries it.
    #[must_use]
    pub fn section(&self, shard: &str, name: &str) -> Option<&SeriesWindows> {
        self.sections
            .iter()
            .find(|(label, s)| label == shard && s.name == name)
            .map(|(_, s)| s)
    }
}

/// Merges per-shard timeline snapshots into one: same-name series fold
/// window by window (counts and sums add saturating, min/max widen), and
/// the result is sorted by series name. All recorders are expected to
/// share one [`TimelineConfig`] (the serve layer clones one per shard);
/// a series' kind comes from the first shard that carries it.
#[must_use]
pub fn merge_timelines(per_shard: &[Vec<SeriesWindows>]) -> Vec<SeriesWindows> {
    let mut merged: BTreeMap<String, (SeriesKind, BTreeMap<u64, SeriesPoint>)> = BTreeMap::new();
    for shard in per_shard {
        for series in shard {
            let (_, windows) = merged
                .entry(series.name.clone())
                .or_insert_with(|| (series.kind, BTreeMap::new()));
            for p in &series.points {
                windows
                    .entry(p.index)
                    .or_insert_with(|| SeriesPoint::new_at(p.index))
                    .fold(p);
            }
        }
    }
    merged
        .into_iter()
        .map(|(name, (kind, windows))| SeriesWindows {
            name,
            kind,
            points: windows.into_values().collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(window_ns: u64, max_windows: usize) -> TimelineConfig {
        TimelineConfig {
            window_ns,
            max_windows,
        }
    }

    #[test]
    fn observations_land_in_fixed_width_windows() {
        let tl = TimelineRecorder::new(config(100, 8));
        tl.record_delta("s", 5, 0);
        tl.record_delta("s", 7, 99);
        tl.record_delta("s", 1, 100);
        tl.record_delta("s", 9, 250);
        let snap = tl.snapshot();
        assert_eq!(snap.len(), 1);
        let points = &snap[0].points;
        assert_eq!(points.len(), 3);
        assert_eq!(
            (points[0].index, points[0].count, points[0].sum),
            (0, 2, 12)
        );
        assert_eq!((points[0].min, points[0].max), (5, 7));
        assert_eq!((points[1].index, points[1].count), (1, 1));
        assert_eq!((points[2].index, points[2].sum), (2, 9));
    }

    #[test]
    fn retention_evicts_oldest_windows_per_series() {
        let tl = TimelineRecorder::new(config(10, 2));
        for t in [0u64, 10, 20, 30] {
            tl.record_delta("a", 1, t);
        }
        tl.record_delta("b", 1, 0); // other series keep their own ring
        let snap = tl.snapshot();
        assert_eq!(snap[0].name, "a");
        let idx: Vec<u64> = snap[0].points.iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![2, 3]);
        assert_eq!(snap[1].points[0].index, 0);
    }

    #[test]
    fn out_of_order_observations_land_in_their_window() {
        let tl = TimelineRecorder::new(config(100, 8));
        tl.record_delta("s", 1, 250);
        tl.record_delta("s", 2, 50); // older window observed late
        tl.record_delta("s", 3, 260);
        let idx: Vec<(u64, u64)> = tl.snapshot()[0]
            .points
            .iter()
            .map(|p| (p.index, p.count))
            .collect();
        assert_eq!(idx, vec![(0, 1), (2, 2)]);
    }

    #[test]
    fn kinds_are_tagged_and_sticky() {
        let tl = TimelineRecorder::new(config(100, 8));
        tl.sample("depth", 3, 0);
        tl.record_delta("depth", 1, 10); // kind fixed by first observation
        tl.record_delta("adds", 1, 0);
        let snap = tl.snapshot();
        assert_eq!(snap[0].name, "adds");
        assert_eq!(snap[0].kind, SeriesKind::Delta);
        assert_eq!(snap[1].kind, SeriesKind::Sample);
        assert_eq!(snap[1].points[0].count, 2);
    }

    #[test]
    fn merged_view_folds_same_index_windows() {
        let a = TimelineRecorder::new(config(100, 8));
        a.record_delta("s", 10, 0);
        a.record_delta("s", 2, 250);
        let b = TimelineRecorder::new(config(100, 8));
        b.record_delta("s", 4, 50);
        b.sample("q", 7, 0);
        let merged = merge_timelines(&[a.snapshot(), b.snapshot()]);
        assert_eq!(merged.len(), 2);
        let q = &merged[0];
        assert_eq!((q.name.as_str(), q.kind), ("q", SeriesKind::Sample));
        let s = &merged[1];
        assert_eq!(s.points.len(), 2);
        assert_eq!((s.points[0].count, s.points[0].sum), (2, 14));
        assert_eq!((s.points[0].min, s.points[0].max), (4, 10));
        assert_eq!((s.points[1].index, s.points[1].sum), (2, 2));
    }

    #[test]
    fn merge_handles_empty_inputs() {
        assert!(merge_timelines(&[]).is_empty());
        assert!(merge_timelines(&[Vec::new(), Vec::new()]).is_empty());
        let a = TimelineRecorder::new(config(100, 8));
        a.record_delta("s", 1, 0);
        let merged = merge_timelines(&[Vec::new(), a.snapshot()]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].points[0].count, 1);
    }

    #[test]
    fn ndjson_lines_have_fixed_fields() {
        let tl = TimelineRecorder::new(config(1_000, 8));
        tl.record_delta("serve.admitted", 1, 100);
        tl.record_delta("serve.admitted", 1, 150);
        let nd = tl.to_ndjson();
        let lines: Vec<&str> = nd.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"record\":\"timeline_config\",\"window_ns\":1000,\"max_windows\":8}"
        );
        assert_eq!(
            lines[1],
            "{\"record\":\"timeline\",\"series\":\"serve.admitted\",\"kind\":\"delta\",\
             \"window\":0,\"t_ns\":0,\"count\":2,\"sum\":2,\"min\":1,\"max\":1}"
        );
        let labelled = point_line(
            Some("3"),
            "s",
            SeriesKind::Sample,
            1_000,
            &tl.snapshot()[0].points[0],
        );
        assert!(labelled.contains("\"shard\":\"3\""), "{labelled}");
    }

    #[test]
    fn a_dump_parses_back_to_its_config_and_snapshot() {
        let tl = TimelineRecorder::new(config(100, 3));
        tl.record_delta("s", 5, 0);
        tl.record_delta("s", u64::MAX, 250);
        tl.sample("q", 2, 120);
        tl.record_delta("s", 1, 10);
        let dump = TimelineDump::parse(&tl.to_ndjson()).unwrap();
        assert_eq!(dump.config, tl.config());
        assert!(dump.sections.iter().all(|(shard, _)| shard == "0"));
        let sections: Vec<SeriesWindows> = dump.sections.into_iter().map(|(_, s)| s).collect();
        assert_eq!(sections, tl.snapshot());

        let head = "{\"record\":\"timeline_config\",\"window_ns\":100,\"max_windows\":3}\n";
        let point = "{\"record\":\"timeline\",\"series\":\"s\",\"kind\":\"delta\",\
                     \"window\":0,\"count\":1,\"sum\":5,\"min\":5,\"max\":5}";
        for (text, reason) in [
            (
                point.to_owned(),
                "no timeline_config record (is this a /debug/timeline artifact?)".to_owned(),
            ),
            (head.to_owned(), "no timeline records".to_owned()),
            (
                head.replace("100", "0"),
                "line 1: malformed timeline_config record".to_owned(),
            ),
            (
                format!("{head}{}", point.replace(",\"sum\":5", "")),
                "line 2: timeline record is missing \"sum\"".to_owned(),
            ),
            (
                format!("{head}{}", point.replace("delta", "gauge")),
                "line 2: timeline record has unknown kind \"gauge\"".to_owned(),
            ),
        ] {
            assert_eq!(TimelineDump::parse(&text), Err(reason), "{text}");
        }
    }

    #[test]
    fn degenerate_config_is_clamped() {
        let cfg = config(0, 0);
        assert_eq!(cfg.width(), 1);
        assert_eq!(cfg.window_index(7), 7);
        let tl = TimelineRecorder::new(cfg);
        tl.record_delta("s", 1, 0);
        tl.record_delta("s", 1, 1);
        assert_eq!(tl.snapshot()[0].points.len(), 1, "max_windows clamps to 1");
    }

    #[test]
    fn saturating_aggregates_do_not_wrap() {
        let tl = TimelineRecorder::new(config(100, 4));
        tl.record_delta("s", u64::MAX, 0);
        tl.record_delta("s", u64::MAX, 1);
        let p = tl.snapshot()[0].points[0];
        assert_eq!(p.sum, u64::MAX);
        assert_eq!(p.count, 2);
        // merging saturated shards saturates too, instead of wrapping
        let merged = merge_timelines(&[tl.snapshot(), tl.snapshot()]);
        assert_eq!(merged[0].points[0].sum, u64::MAX);
        assert_eq!(merged[0].points[0].count, 4);
    }
}
