//! Bench: cost of the streaming observability layer.
//!
//! The observers are statically dispatched (`Observer::ENABLED` is a
//! `const`, every emission site is gated on it), so a run with
//! [`NoopObserver`] must compile down to the unobserved simulators —
//! within noise of `simulate_sfq`/`simulate_dvq` on the same n = 1000
//! workload `keyed_vs_comparator` uses. The live observers then price the
//! layer: counters ([`MetricsObserver`]), online inversion detection
//! ([`BlockingObserver`]), exact per-slot lag ([`LagObserver`]) and full
//! event capture ([`JsonlObserver`]). `posthoc_blocking` prices
//! `detect_blocking` on the same DVQ schedule, so the post-hoc and
//! streaming inversion searches sit side by side; `schedule_report`
//! prices every post-hoc analysis of that schedule together (one tick
//! grid, inversions counted rather than listed). The `*_count` rows run
//! each fixed-quantum simulator and DVQ with an enabled observer that only
//! counts events, so next to the `*_noop` rows they price emission itself
//! per simulator.
//!
//! Run with `cargo bench -p pfair-bench --bench observability`; numbers
//! are recorded in `BENCH_observability.json` at the repo root.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pfair::prelude::*;
use pfair::workload::cycle_system;

/// An enabled observer that only counts what it receives.
#[derive(Default)]
struct CountingObserver(u64);

impl Observer for CountingObserver {
    fn on_event(&mut self, _ev: &SchedEvent) {
        self.0 += 1;
    }
}

/// PD²-DVQ under the bench's `UniformCost(1/2)` δ-yields, `obs` listening.
fn dvq<O: Observer>(sys: &TaskSystem, m: u32, obs: &mut O) -> Schedule {
    let mut cost = UniformCost::new(Rat::new(1, 2), 7);
    simulate_dvq_observed(black_box(sys), m, &Pd2, &mut cost, obs)
}

/// PD²-SFQ at full quanta, `obs` listening. Exact per-slot lag needs
/// integral event times to keep the rational arithmetic representable at
/// this scale; full quanta provide that.
fn sfq<O: Observer>(sys: &TaskSystem, m: u32, obs: &mut O) -> Schedule {
    simulate_sfq_observed(black_box(sys), m, &Pd2, &mut FullQuantum, obs)
}

/// PD² staggered quanta under the DVQ rows' δ-yields, `obs` listening.
fn staggered<O: Observer>(sys: &TaskSystem, m: u32, obs: &mut O) -> Schedule {
    let mut cost = UniformCost::new(Rat::new(1, 2), 7);
    simulate_staggered_observed(black_box(sys), m, &Pd2, &mut cost, obs)
}

/// Runs `engine` with a fresh [`CountingObserver`]; returns the schedule
/// and the event count.
fn counted(engine: impl FnOnce(&mut CountingObserver) -> Schedule) -> (Schedule, u64) {
    let mut obs = CountingObserver::default();
    let sched = engine(&mut obs);
    (sched, obs.0)
}

fn bench_observability(c: &mut Criterion) {
    let mut g = c.benchmark_group("observability");
    g.sample_size(15);
    // The `keyed_vs_comparator` n = 1000 workload: the acceptance bar is
    // "NoopObserver within 5% of those recorded numbers".
    let (sys, m) = cycle_system(1000);
    g.throughput(Throughput::Elements(sys.num_subtasks() as u64));

    g.bench_function("dvq_unobserved", |b| {
        b.iter(|| {
            let mut cost = UniformCost::new(Rat::new(1, 2), 7);
            simulate_dvq(black_box(&sys), m, &Pd2, &mut cost)
        })
    });
    g.bench_function("dvq_noop", |b| b.iter(|| dvq(&sys, m, &mut NoopObserver)));
    g.bench_function("dvq_count", |b| b.iter(|| counted(|obs| dvq(&sys, m, obs))));
    g.bench_function("dvq_metrics", |b| {
        b.iter(|| dvq(&sys, m, &mut MetricsObserver::new(m)))
    });
    g.bench_function("dvq_blocking", |b| {
        b.iter(|| dvq(&sys, m, &mut BlockingObserver::new(&sys, &Pd2)))
    });
    let dvq_sched = simulate_dvq(&sys, m, &Pd2, &mut UniformCost::new(Rat::new(1, 2), 7));
    g.bench_function("posthoc_blocking", |b| {
        b.iter(|| detect_blocking(&sys, black_box(&dvq_sched), &Pd2))
    });
    g.bench_function("schedule_report", |b| {
        b.iter(|| schedule_report(&sys, black_box(&dvq_sched), &Pd2))
    });
    g.bench_function("dvq_jsonl", |b| {
        b.iter(|| dvq(&sys, m, &mut JsonlObserver::new()))
    });

    g.bench_function("sfq_unobserved", |b| {
        b.iter(|| simulate_sfq(black_box(&sys), m, &Pd2, &mut FullQuantum))
    });
    g.bench_function("sfq_noop", |b| b.iter(|| sfq(&sys, m, &mut NoopObserver)));
    g.bench_function("sfq_count", |b| b.iter(|| counted(|obs| sfq(&sys, m, obs))));
    g.bench_function("sfq_metrics", |b| {
        b.iter(|| sfq(&sys, m, &mut MetricsObserver::new(m)))
    });
    g.bench_function("sfq_lag", |b| {
        b.iter(|| {
            let mut obs = LagObserver::new(&sys);
            let sched = sfq(&sys, m, &mut obs);
            obs.finish(sys.horizon());
            sched
        })
    });

    g.bench_function("staggered_noop", |b| {
        b.iter(|| staggered(&sys, m, &mut NoopObserver))
    });
    g.bench_function("staggered_count", |b| {
        b.iter(|| counted(|obs| staggered(&sys, m, obs)))
    });
    g.finish();
}

criterion_group!(benches, bench_observability);
criterion_main!(benches);
