//! Counter/histogram metrics reconstructed from the event stream.
//!
//! The busy, waste, end and tardiness figures are kept in ticks at
//! [`pfair_numeric::GRID`] while the stream stays on that grid, and in
//! exact rationals from the first time it leaves it (a
//! [`pfair_numeric::Tiered`]); the accessors return the same `Rat`s either
//! way.

use core::cmp::Ordering;

use crate::{InversionKind, Observer, SchedEvent};
use pfair_numeric::{on_tier, on_tier_or_exact, Exact, Lift, Rat, Ticks, Tier, Tiered, Time, GRID};
use pfair_taskmodel::{SubtaskId, TaskId};

/// Default number of tardiness-histogram buckets (bucket 0 is "on time";
/// the rest split `(0, 1]` quanta evenly, with the last bucket open-ended).
pub const DEFAULT_BUCKETS: usize = 8;

/// Streaming counters and histograms: tardiness statistics, blocking counts
/// by kind, per-processor busy/idle/waste time, and context switches.
///
/// The tardiness fields replicate `pfair-analysis::tardiness_stats` exactly
/// (rational arithmetic, same worst-subtask tie-break: the smallest
/// [`SubtaskId`] attaining the maximum), and the histogram replicates
/// `tardiness_histogram` bucket for bucket; `tests/observer_equivalence.rs`
/// holds both to rational equality against the post-hoc analyses.
///
/// Blocking counts are populated from [`SchedEvent::Blocked`] events, which
/// only [`crate::BlockingObserver`] generates — wrap this observer inside one
/// to light them up.
#[derive(Clone, Debug)]
pub struct MetricsObserver {
    buckets: usize,
    ticks: u64,
    started: u64,
    completed: u64,
    hits: u64,
    misses: u64,
    worst: Option<SubtaskId>,
    histogram: Vec<u64>,
    switches: Vec<u64>,
    last_task: Vec<Option<TaskId>>,
    eligibility_blocking: u64,
    predecessor_blocking: u64,
    times: Tiered<Times<Ticks>>,
}

/// The time-valued metrics, in tier `K`.
#[derive(Clone, Debug)]
struct Times<K: Tier> {
    tier: K,
    total_tardiness: K::Sum,
    max_tardiness: K::T,
    /// Per-processor busy time.
    busy: Vec<K::Sum>,
    /// Per-processor waste.
    waste: Vec<K::Sum>,
    /// The latest hold or completion instant.
    end: K::T,
}

impl<K: Tier> Times<K> {
    fn new(tier: K, m: usize) -> Times<K> {
        let zero = tier.int(0).expect("time zero is representable");
        Times {
            total_tardiness: tier.sum(zero),
            max_tardiness: zero,
            busy: vec![tier.sum(zero); m],
            waste: vec![tier.sum(zero); m],
            end: zero,
            tier,
        }
    }

    /// A quantum of `cost` starts on processor `k`, holding it until
    /// `holds_until`; `None` (and no change) off the tier.
    fn on_start(&mut self, k: usize, cost: Rat, holds_until: Time) -> Option<()> {
        let cost = self.tier.from_rat(cost)?;
        let holds_until = self.tier.from_rat(holds_until)?;
        self.busy[k] = self.busy[k] + self.tier.sum(cost);
        self.end = self.end.max(holds_until);
        Some(())
    }

    /// A quantum on processor `k` completes at `completion`, wasting
    /// `waste`.
    fn on_end(&mut self, k: usize, completion: Time, waste: Rat) -> Option<()> {
        let waste = self.tier.from_rat(waste)?;
        let completion = self.tier.from_rat(completion)?;
        self.waste[k] = self.waste[k] + self.tier.sum(waste);
        self.end = self.end.max(completion);
        Some(())
    }

    /// A deadline miss by `tardiness`: how it compares with the largest
    /// before it, and its histogram bin, `⌈tardiness · (buckets − 1)⌉`
    /// capped at the last bin.
    fn on_miss(&mut self, tardiness: Rat, buckets: usize) -> Option<(Ordering, usize)> {
        let t = self.tier.from_rat(tardiness)?;
        self.total_tardiness = self.total_tardiness + self.tier.sum(t);
        let vs_max = t.cmp(&self.max_tardiness);
        self.max_tardiness = self.max_tardiness.max(t);
        let last = buckets - 1;
        let scaled = self.tier.times(
            i64::try_from(last).expect("bucket count fits i64"),
            self.tier.sum(t),
        );
        // Beyond-scale tardiness (including an out-of-usize ceiling)
        // lands in the last bin.
        let bin = self
            .tier
            .ceil(scaled)
            .and_then(|b| usize::try_from(b).ok())
            .map_or(last, |b| b.min(last));
        Some((vs_max, bin))
    }

    /// The exact values of per-processor sums.
    fn rats(&self, sums: &[K::Sum]) -> Vec<Rat> {
        sums.iter().map(|&s| self.tier.sum_rat(s)).collect()
    }
}

impl<K: Tier> Lift for Times<K> {
    type Exact = Times<Exact>;

    fn to_exact(&self) -> Times<Exact> {
        let tier = &self.tier;
        Times {
            tier: Exact,
            total_tardiness: tier.sum_rat(self.total_tardiness),
            max_tardiness: tier.to_rat(self.max_tardiness),
            busy: self.rats(&self.busy),
            waste: self.rats(&self.waste),
            end: tier.to_rat(self.end),
        }
    }
}

impl MetricsObserver {
    /// A metrics collector for an `m`-processor run, with
    /// [`DEFAULT_BUCKETS`] tardiness buckets.
    #[must_use]
    pub fn new(m: u32) -> Self {
        Self::with_buckets(m, DEFAULT_BUCKETS)
    }

    /// A metrics collector with an explicit tardiness-histogram resolution
    /// (same convention as `pfair-analysis::tardiness_histogram`).
    ///
    /// # Panics
    /// If `buckets < 2`.
    #[must_use]
    pub fn with_buckets(m: u32, buckets: usize) -> Self {
        assert!(buckets >= 2, "need at least an on-time and a late bucket");
        let m = m as usize;
        MetricsObserver {
            buckets,
            ticks: 0,
            started: 0,
            completed: 0,
            hits: 0,
            misses: 0,
            worst: None,
            histogram: vec![0; buckets],
            switches: vec![0; m],
            last_task: vec![None; m],
            eligibility_blocking: 0,
            predecessor_blocking: 0,
            times: Tiered::Ticks(Times::new(GRID, m)),
        }
    }

    /// Quanta dispatched so far.
    #[must_use]
    pub fn started(&self) -> u64 {
        self.started
    }

    /// Quanta completed so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Subtasks that completed by their deadline.
    #[must_use]
    pub fn deadline_hits(&self) -> u64 {
        self.hits
    }

    /// Subtasks that completed after their deadline.
    #[must_use]
    pub fn deadline_misses(&self) -> u64 {
        self.misses
    }

    /// Sum of all positive tardiness values.
    #[must_use]
    pub fn total_tardiness(&self) -> Rat {
        on_tier!(&self.times, |s| s.tier.sum_rat(s.total_tardiness))
    }

    /// The largest tardiness seen (zero if no miss).
    #[must_use]
    pub fn max_tardiness(&self) -> Rat {
        on_tier!(&self.times, |s| s.tier.to_rat(s.max_tardiness))
    }

    /// The smallest [`SubtaskId`] attaining [`Self::max_tardiness`] — the
    /// same subtask `tardiness_stats` reports as `worst`.
    #[must_use]
    pub fn worst(&self) -> Option<SubtaskId> {
        self.worst
    }

    /// Tardiness histogram: bucket 0 counts on-time completions, later
    /// buckets split `(0, 1]` evenly with the last bucket open-ended.
    #[must_use]
    pub fn histogram(&self) -> &[u64] {
        &self.histogram
    }

    /// Blocking events seen, as `(eligibility, predecessor)` counts.
    #[must_use]
    pub fn blocking_counts(&self) -> (u64, u64) {
        (self.eligibility_blocking, self.predecessor_blocking)
    }

    /// Per-processor busy time (sum of actual costs).
    #[must_use]
    pub fn busy(&self) -> Vec<Rat> {
        on_tier!(&self.times, |s| s.rats(&s.busy))
    }

    /// Per-processor wasted time (held past the cost by the quantum model).
    #[must_use]
    pub fn waste(&self) -> Vec<Rat> {
        on_tier!(&self.times, |s| s.rats(&s.waste))
    }

    /// Per-processor context switches (task changes between consecutive
    /// quanta on the same processor; the first quantum is not a switch).
    #[must_use]
    pub fn switches(&self) -> &[u64] {
        &self.switches
    }

    /// Per-processor idle time over `[0, end]`, where `end` is the latest
    /// hold/completion instant seen: whatever is neither busy nor waste.
    #[must_use]
    pub fn idle(&self) -> Vec<Rat> {
        on_tier!(&self.times, |s| s
            .busy
            .iter()
            .zip(&s.waste)
            .map(|(&b, &w)| s.tier.sum_rat(s.tier.sum(s.end) - b - w))
            .collect())
    }

    /// The latest instant any processor was held to.
    #[must_use]
    pub fn end(&self) -> Time {
        on_tier!(&self.times, |s| s.tier.to_rat(s.end))
    }

    /// A deterministic multi-line summary, used by `pfairsim run --metrics`
    /// and diffed against a checked-in snapshot in CI.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "quanta: {} started, {} completed over {} ticks (end {})",
            self.started,
            self.completed,
            self.ticks,
            self.end()
        );
        let _ = writeln!(
            out,
            "deadlines: {} hit, {} missed (total tardiness {}, max {}{})",
            self.hits,
            self.misses,
            self.total_tardiness(),
            self.max_tardiness(),
            match self.worst {
                Some(id) => format!(" at {id:?}"),
                None => String::new(),
            }
        );
        let _ = writeln!(
            out,
            "blocking: {} eligibility, {} predecessor",
            self.eligibility_blocking, self.predecessor_blocking
        );
        let _ = writeln!(
            out,
            "histogram: {:?} (bucket 0 = on time, width 1/{})",
            self.histogram,
            self.buckets - 1
        );
        let (busy, waste, idle) = (self.busy(), self.waste(), self.idle());
        for (k, ((&b, &w), (&sw, &id))) in busy
            .iter()
            .zip(&waste)
            .zip(self.switches.iter().zip(&idle))
            .enumerate()
        {
            let _ = writeln!(
                out,
                "proc {k}: busy {b}, idle {id}, waste {w}, {sw} switches"
            );
        }
        out
    }
}

impl Observer for MetricsObserver {
    fn on_event(&mut self, ev: &SchedEvent) {
        match ev {
            SchedEvent::Tick { .. } => self.ticks += 1,
            SchedEvent::Released { .. } | SchedEvent::Ready { .. } | SchedEvent::Idle { .. } => {}
            SchedEvent::QuantumStart {
                id,
                proc,
                cost,
                holds_until,
                ..
            } => {
                self.started += 1;
                let k = *proc as usize;
                on_tier_or_exact!(self.times, |s| s.on_start(k, *cost, *holds_until));
                if let Some(prev) = self.last_task[k] {
                    if prev != id.task {
                        self.switches[k] += 1;
                    }
                }
                self.last_task[k] = Some(id.task);
            }
            SchedEvent::QuantumEnd {
                proc,
                completion,
                waste,
                ..
            } => {
                self.completed += 1;
                let k = *proc as usize;
                on_tier_or_exact!(self.times, |s| s.on_end(k, *completion, *waste));
            }
            SchedEvent::DeadlineHit { .. } => {
                self.hits += 1;
                self.histogram[0] += 1;
            }
            SchedEvent::DeadlineMiss { id, tardiness, .. } => {
                self.misses += 1;
                let buckets = self.buckets;
                let (vs_max, bin) =
                    on_tier_or_exact!(self.times, |s| s.on_miss(*tardiness, buckets));
                // Replicates tardiness_stats' strict-> update over task-major
                // iteration: the reported worst subtask is the smallest id
                // attaining the maximum.
                match vs_max {
                    Ordering::Greater => self.worst = Some(*id),
                    Ordering::Equal if self.worst.is_some_and(|w| *id < w) => {
                        self.worst = Some(*id);
                    }
                    _ => {}
                }
                self.histogram[bin] += 1;
            }
            SchedEvent::Blocked { kind, .. } => match kind {
                InversionKind::Eligibility => self.eligibility_blocking += 1,
                InversionKind::Predecessor => self.predecessor_blocking += 1,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{dvq_stream, grid_cost};
    use pfair_taskmodel::{release, TaskSystem};

    /// `events` through a fresh collector, on exact rationals from the
    /// start with `exact`.
    fn run(events: &[SchedEvent], exact: bool) -> MetricsObserver {
        let mut metrics = MetricsObserver::new(2);
        if exact {
            metrics.times.go_exact();
        }
        for ev in events {
            metrics.on_event(ev);
        }
        metrics
    }

    fn heavy() -> TaskSystem {
        release::periodic(
            &[(1, 2), (2, 3), (1, 3), (3, 4), (1, 6), (5, 6), (1, 2)],
            24,
        )
    }

    fn assert_same(a: &MetricsObserver, b: &MetricsObserver) {
        assert_eq!(a.summary(), b.summary());
        assert_eq!(
            (a.total_tardiness(), a.max_tardiness(), a.worst()),
            (b.total_tardiness(), b.max_tardiness(), b.worst())
        );
        assert_eq!(
            (a.busy(), a.waste(), a.end()),
            (b.busy(), b.waste(), b.end())
        );
    }

    #[test]
    fn grid_streams_stay_on_ticks() {
        let sys = heavy();
        let events = dvq_stream(&sys, 2, grid_cost(usize::MAX));
        let (ticks, exact) = (run(&events, false), run(&events, true));
        assert!(ticks.times.on_ticks(), "a GRID stream left the ticks");
        assert_same(&ticks, &exact);
        // Demand about 3/4 of utilization 15/4 on two processors:
        // deadlines are missed.
        assert!(ticks.deadline_misses() > 0);
    }

    #[test]
    fn leaving_the_grid_mid_run_moves_to_exact() {
        let sys = heavy();
        let events = dvq_stream(&sys, 2, grid_cost(20));
        let (moved, exact) = (run(&events, false), run(&events, true));
        assert!(!moved.times.on_ticks());
        assert_same(&moved, &exact);
        assert!(moved.deadline_misses() > 0);
    }

    /// Tardiness `t` lands in bin `⌈7t⌉` of 8, and past one quantum in the
    /// last, on either tier.
    #[test]
    fn histogram_bins_are_integer_ceilings() {
        for exact in [false, true] {
            let mut metrics = MetricsObserver::new(1);
            if exact {
                metrics.times.go_exact();
            }
            for (n, d) in [(1, 7), (1, 720_720), (3, 2), (6, 7), (2, 7)] {
                metrics.on_event(&SchedEvent::DeadlineMiss {
                    id: SubtaskId {
                        task: TaskId(0),
                        index: 1,
                    },
                    completion: Rat::int(9),
                    deadline: 8,
                    tardiness: Rat::new(n, d),
                });
            }
            assert_eq!(metrics.histogram(), [0, 2, 1, 0, 0, 0, 1, 1]);
            assert_eq!(metrics.max_tardiness(), Rat::new(3, 2));
        }
    }
}
