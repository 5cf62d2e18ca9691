//! Bench E7: scheduler cost — the practicality dimension of §1. Measures
//! simulated subtasks per second for each algorithm (EPDF, PD², PF, PD,
//! PD^B), each quantum model (SFQ, DVQ, staggered) and the competing
//! optimal families (BF, maxflow), scaling the task count and the
//! processor count.
//!
//! Run with `cargo bench -p pfair-bench --bench throughput`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pfair::core::Algorithm;
use pfair::prelude::*;
use pfair::workload::{cycle_system, random_weights, releasegen};

/// A deterministic full-utilization system with roughly `n` tasks on `m`
/// processors (generated with max_period scaled so the task count lands
/// near `n`).
fn system(m: u32, max_period: i64, horizon: i64, seed: u64) -> TaskSystem {
    let weights = random_weights(&TaskGenConfig::full(m, max_period), seed);
    releasegen::generate(&weights, &ReleaseConfig::periodic(horizon), seed)
}

fn bench_algorithms(c: &mut Criterion) {
    let mut g = c.benchmark_group("algorithms_sfq");
    let sys = system(8, 16, 48, 42);
    let n = sys.num_subtasks() as u64;
    println!(
        "algorithm benchmark system: {} tasks, {} subtasks, m=8",
        sys.num_tasks(),
        n
    );
    g.throughput(Throughput::Elements(n));
    for alg in Algorithm::all() {
        g.bench_with_input(BenchmarkId::new("sfq", alg.to_string()), &sys, |b, sys| {
            b.iter(|| simulate_sfq(std::hint::black_box(sys), 8, alg.order(), &mut FullQuantum))
        });
    }
    g.bench_with_input(BenchmarkId::new("sfq", "PD^B"), &sys, |b, sys| {
        b.iter(|| simulate_sfq_pdb(std::hint::black_box(sys), 8, &mut FullQuantum))
    });
    g.finish();
}

fn bench_models(c: &mut Criterion) {
    let mut g = c.benchmark_group("models_pd2");
    let sys = system(8, 16, 48, 43);
    let n = sys.num_subtasks() as u64;
    g.throughput(Throughput::Elements(n));
    g.bench_function("sfq", |b| {
        b.iter(|| simulate_sfq(std::hint::black_box(&sys), 8, &Pd2, &mut FullQuantum))
    });
    g.bench_function("dvq_full_costs", |b| {
        b.iter(|| simulate_dvq(std::hint::black_box(&sys), 8, &Pd2, &mut FullQuantum))
    });
    g.bench_function("dvq_uniform_costs", |b| {
        b.iter(|| {
            let mut cost = UniformCost::new(Rat::new(1, 2), 7);
            simulate_dvq(std::hint::black_box(&sys), 8, &Pd2, &mut cost)
        })
    });
    g.bench_function("staggered", |b| {
        b.iter(|| simulate_staggered(std::hint::black_box(&sys), 8, &Pd2, &mut FullQuantum))
    });
    // The competing optimal families: BF decides only at period
    // boundaries (so it should dominate this group), maxflow pays for a
    // Dinic solve over the PF-window network.
    g.bench_function("bf", |b| {
        b.iter(|| simulate_bf(std::hint::black_box(&sys), 8, &mut FullQuantum))
    });
    g.bench_function("flow", |b| {
        b.iter(|| simulate_flow(std::hint::black_box(&sys), 8, &mut FullQuantum))
    });
    g.finish();
}

fn bench_scaling_tasks(c: &mut Criterion) {
    let mut g = c.benchmark_group("scaling_tasks");
    g.sample_size(15);
    for max_period in [8i64, 16, 32, 64] {
        let sys = system(8, max_period, 2 * max_period, 44);
        let n = sys.num_subtasks() as u64;
        g.throughput(Throughput::Elements(n));
        g.bench_with_input(
            BenchmarkId::new("dvq_pd2_tasks", sys.num_tasks()),
            &sys,
            |b, sys| {
                b.iter(|| {
                    let mut cost = UniformCost::new(Rat::new(1, 2), 7);
                    simulate_dvq(std::hint::black_box(sys), 8, &Pd2, &mut cost)
                })
            },
        );
    }
    g.finish();
}

fn bench_scaling_processors(c: &mut Criterion) {
    let mut g = c.benchmark_group("scaling_processors");
    g.sample_size(15);
    for m in [2u32, 4, 8, 16, 32] {
        let sys = system(m, 16, 32, 45);
        let n = sys.num_subtasks() as u64;
        g.throughput(Throughput::Elements(n));
        g.bench_with_input(BenchmarkId::new("dvq_pd2_m", m), &sys, |b, sys| {
            b.iter(|| {
                let mut cost = UniformCost::new(Rat::new(1, 2), 7);
                simulate_dvq(std::hint::black_box(sys), m, &Pd2, &mut cost)
            })
        });
    }
    g.finish();
}

fn bench_keyed_vs_comparator(c: &mut Criterion) {
    // The tentpole of the precomputed-key layer: the same PD² order run
    // through the keyed fast path (default) and through the comparator
    // fallback (`ComparatorOnly`), at n ∈ {10, 100, 1000} tasks. The
    // throughput element count is the number of scheduling decisions
    // (= placements = subtasks), so `elem/s` reads as decisions/sec.
    let mut g = c.benchmark_group("keyed_vs_comparator");
    g.sample_size(15);
    for n in [10usize, 100, 1000] {
        let (sys, m) = cycle_system(n);
        let decisions = sys.num_subtasks() as u64;
        g.throughput(Throughput::Elements(decisions));
        for (engine, keyed) in [("dvq", true), ("dvq", false), ("sfq", true), ("sfq", false)] {
            let id = BenchmarkId::new(
                format!("{engine}_{}", if keyed { "keyed" } else { "comparator" }),
                n,
            );
            g.bench_with_input(id, &sys, |b, sys| {
                let comparator = ComparatorOnly(&Pd2);
                let order: &dyn PriorityOrder = if keyed { &Pd2 } else { &comparator };
                match engine {
                    "dvq" => b.iter(|| {
                        let mut cost = UniformCost::new(Rat::new(1, 2), 7);
                        simulate_dvq(std::hint::black_box(sys), m, order, &mut cost)
                    }),
                    _ => b.iter(|| {
                        simulate_sfq(std::hint::black_box(sys), m, order, &mut FullQuantum)
                    }),
                }
            });
        }
    }
    g.finish();
}

fn bench_large_scale(c: &mut Criterion) {
    // The bucketed ready queue + integer-tick fast path at scale: keyed
    // PD² only, n ∈ {10⁴, 10⁵} tasks. The comparator fallback is omitted —
    // at these sizes its quadratic ready-scan makes a single iteration
    // take minutes.
    let mut g = c.benchmark_group("large_scale");
    g.sample_size(10);
    for n in [10_000usize, 100_000] {
        let (sys, m) = cycle_system(n);
        let decisions = sys.num_subtasks() as u64;
        g.throughput(Throughput::Elements(decisions));
        g.bench_with_input(BenchmarkId::new("dvq_keyed", n), &sys, |b, sys| {
            b.iter(|| {
                let mut cost = UniformCost::new(Rat::new(1, 2), 7);
                simulate_dvq(std::hint::black_box(sys), m, &Pd2, &mut cost)
            })
        });
        g.bench_with_input(BenchmarkId::new("sfq_keyed", n), &sys, |b, sys| {
            b.iter(|| simulate_sfq(std::hint::black_box(sys), m, &Pd2, &mut FullQuantum))
        });
    }
    g.finish();
}

fn bench_online_vs_offline(c: &mut Criterion) {
    // The online scheduler's heap dispatch vs the offline simulator's
    // ready-vector scan, on identical periodic workloads.
    let mut g = c.benchmark_group("online_vs_offline");
    g.sample_size(15);
    // max_period stays ≤ 36: exact utilization sums over distinct periods
    // need a common denominator of lcm(2..=max_period), and lcm(2..=48)
    // overflows the i64-backed Rat (which panics loudly rather than wrap).
    for (m, max_period) in [(8u32, 16i64), (16, 32), (32, 36)] {
        // fill_exact would append a remainder weight whose reduced period
        // is lcm-scale, exploding the per-job subtask count; the online
        // comparison wants realistic weights instead.
        let weights = pfair::workload::random_weights(
            &TaskGenConfig {
                target_util: Rat::int(i64::from(m)),
                max_period,
                dist: WeightDist::Uniform,
                fill_exact: false,
            },
            77,
        );
        let jobs = 4u64;
        // Offline system with the same job count.
        let mut b = pfair::taskmodel::TaskSystemBuilder::new();
        for &w in &weights {
            let t = b.add_task(w);
            for i in 1..=jobs * w.e() as u64 {
                b.push(t, i, 0, None).unwrap();
            }
        }
        let sys = b.build();
        let n = sys.num_subtasks() as u64;
        g.throughput(Throughput::Elements(n));
        g.bench_with_input(BenchmarkId::new("offline_scan", n), &sys, |bch, sys| {
            bch.iter(|| simulate_dvq(std::hint::black_box(sys), m, &Pd2, &mut FullQuantum))
        });
        g.bench_with_input(
            BenchmarkId::new("online_heap", n),
            &weights,
            |bch, weights| {
                bch.iter(|| {
                    let mut s = OnlineDvq::new(m);
                    let ids: Vec<TaskId> = weights.iter().map(|&w| s.add_task(w)).collect();
                    for (&t, &w) in ids.iter().zip(weights.iter()) {
                        for j in 0..jobs {
                            s.submit_job(t, j as i64 * w.p()).unwrap();
                        }
                    }
                    s.run_until_idle(&mut |_, _| Rat::ONE)
                })
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_algorithms,
    bench_models,
    bench_scaling_tasks,
    bench_scaling_processors,
    bench_keyed_vs_comparator,
    bench_large_scale,
    bench_online_vs_offline
);
criterion_main!(benches);
