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
//! grid, inversions counted rather than listed).
//!
//! Run with `cargo bench -p pfair-bench --bench observability`; numbers
//! are recorded in `BENCH_observability.json` at the repo root.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pfair::prelude::*;
use pfair::workload::releasegen;

/// The `keyed_vs_comparator` n = 1000 workload, verbatim: the acceptance
/// bar is "NoopObserver within 5% of those recorded numbers".
fn system_1000() -> (TaskSystem, u32) {
    let base = [
        (1i64, 2i64),
        (1, 3),
        (2, 5),
        (3, 8),
        (1, 6),
        (5, 12),
        (1, 4),
        (7, 24),
        (2, 3),
        (1, 8),
    ];
    let weights: Vec<Weight> = (0..1000)
        .map(|i| {
            let (e, p) = base[i % base.len()];
            Weight::new(e, p)
        })
        .collect();
    let util: Rat = weights.iter().map(|w| w.as_rat()).sum();
    let m = util.ceil() as u32;
    let sys = releasegen::generate(&weights, &ReleaseConfig::periodic(24), 46);
    (sys, m)
}

fn bench_observability(c: &mut Criterion) {
    let mut g = c.benchmark_group("observability");
    g.sample_size(15);
    let (sys, m) = system_1000();
    g.throughput(Throughput::Elements(sys.num_subtasks() as u64));

    g.bench_function("dvq_unobserved", |b| {
        b.iter(|| {
            let mut cost = UniformCost::new(Rat::new(1, 2), 7);
            simulate_dvq(std::hint::black_box(&sys), m, &Pd2, &mut cost)
        })
    });
    g.bench_function("dvq_noop", |b| {
        b.iter(|| {
            let mut cost = UniformCost::new(Rat::new(1, 2), 7);
            simulate_dvq_observed(
                std::hint::black_box(&sys),
                m,
                &Pd2,
                &mut cost,
                &mut NoopObserver,
            )
        })
    });
    g.bench_function("dvq_metrics", |b| {
        b.iter(|| {
            let mut cost = UniformCost::new(Rat::new(1, 2), 7);
            let mut obs = MetricsObserver::new(m);
            simulate_dvq_observed(std::hint::black_box(&sys), m, &Pd2, &mut cost, &mut obs)
        })
    });
    g.bench_function("dvq_blocking", |b| {
        b.iter(|| {
            let mut cost = UniformCost::new(Rat::new(1, 2), 7);
            let mut obs = BlockingObserver::new(&sys, &Pd2);
            simulate_dvq_observed(std::hint::black_box(&sys), m, &Pd2, &mut cost, &mut obs)
        })
    });
    let dvq = simulate_dvq(&sys, m, &Pd2, &mut UniformCost::new(Rat::new(1, 2), 7));
    g.bench_function("posthoc_blocking", |b| {
        b.iter(|| detect_blocking(&sys, std::hint::black_box(&dvq), &Pd2))
    });
    g.bench_function("schedule_report", |b| {
        b.iter(|| schedule_report(&sys, std::hint::black_box(&dvq), &Pd2))
    });
    g.bench_function("dvq_jsonl", |b| {
        b.iter(|| {
            let mut cost = UniformCost::new(Rat::new(1, 2), 7);
            let mut obs = JsonlObserver::new();
            simulate_dvq_observed(std::hint::black_box(&sys), m, &Pd2, &mut cost, &mut obs)
        })
    });

    g.bench_function("sfq_unobserved", |b| {
        b.iter(|| simulate_sfq(std::hint::black_box(&sys), m, &Pd2, &mut FullQuantum))
    });
    g.bench_function("sfq_noop", |b| {
        b.iter(|| {
            simulate_sfq_observed(
                std::hint::black_box(&sys),
                m,
                &Pd2,
                &mut FullQuantum,
                &mut NoopObserver,
            )
        })
    });
    g.bench_function("sfq_metrics", |b| {
        b.iter(|| {
            let mut obs = MetricsObserver::new(m);
            simulate_sfq_observed(
                std::hint::black_box(&sys),
                m,
                &Pd2,
                &mut FullQuantum,
                &mut obs,
            )
        })
    });
    // Exact per-slot lag needs integral event times to keep the rational
    // arithmetic representable at this scale; full quanta provide that.
    g.bench_function("sfq_lag", |b| {
        b.iter(|| {
            let mut obs = LagObserver::new(&sys);
            let sched = simulate_sfq_observed(
                std::hint::black_box(&sys),
                m,
                &Pd2,
                &mut FullQuantum,
                &mut obs,
            );
            obs.finish(sys.horizon());
            sched
        })
    });
    g.finish();
}

criterion_group!(benches, bench_observability);
criterion_main!(benches);
