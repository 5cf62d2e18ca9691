//! Randomized release processes: periodic, IS (late releases), GIS
//! (dropped subtasks), early-released variants.
//!
//! Builds a validated [`TaskSystem`] from a weight set by walking each
//! task's subtask stream up to a horizon, randomly injecting the
//! perturbations the respective model allows:
//!
//! * **IS delays** — with probability `delay_percent`, bump the running
//!   offset `θ` by `1 + Geometric(1/2)` slots (monotone, satisfying
//!   Eq. (5));
//! * **GIS drops** — with probability `drop_percent`, skip the subtask
//!   index entirely;
//! * **early release** — make each subtask eligible up to `early` slots
//!   before its release (clamped to Eq. (6)).
//!
//! Because the builder enforces every constraint, a generated system is a
//! certified GIS system by construction.

use pfair_taskmodel::{TaskSystem, TaskSystemBuilder, Weight};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which recurrence model to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReleaseKind {
    /// Synchronous periodic: `θ = 0` throughout.
    Periodic,
    /// Sporadic: jobs may be released late — delays are injected only at
    /// job boundaries (subtask indices `≡ 1 (mod e)`), shifting whole
    /// jobs.
    Sporadic,
    /// Intra-sporadic: random per-subtask release delays, no drops.
    IntraSporadic,
    /// Generalized intra-sporadic: delays and drops.
    Gis,
}

/// Configuration for [`generate`].
#[derive(Clone, Copy, Debug)]
pub struct ReleaseConfig {
    /// Recurrence model.
    pub kind: ReleaseKind,
    /// Generate subtasks while `r(T_i) < horizon`.
    pub horizon: i64,
    /// Probability (percent) of an IS delay before a subtask.
    pub delay_percent: u8,
    /// Probability (percent) of dropping a subtask (GIS only).
    pub drop_percent: u8,
    /// Early-release allowance in slots (0 = plain IS eligibility).
    pub early: i64,
    /// Tasks join at a random time in `[0, max_join]` (initial θ; 0 =
    /// everyone synchronous). Dynamic joins are plain IS behaviour: the
    /// first subtask simply carries a positive offset.
    pub max_join: i64,
}

impl ReleaseConfig {
    /// Plain periodic generation to `horizon`.
    #[must_use]
    pub fn periodic(horizon: i64) -> ReleaseConfig {
        ReleaseConfig {
            kind: ReleaseKind::Periodic,
            horizon,
            delay_percent: 0,
            drop_percent: 0,
            early: 0,
            max_join: 0,
        }
    }

    /// A moderately perturbed GIS config.
    #[must_use]
    pub fn gis(horizon: i64) -> ReleaseConfig {
        ReleaseConfig {
            kind: ReleaseKind::Gis,
            horizon,
            delay_percent: 10,
            drop_percent: 5,
            early: 0,
            max_join: 0,
        }
    }
}

/// Generates a task system from `weights` under `cfg`. Deterministic in
/// `seed`.
#[must_use]
pub fn generate(weights: &[Weight], cfg: &ReleaseConfig, seed: u64) -> TaskSystem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = TaskSystemBuilder::new();
    for &w in weights {
        let task = b.add_task(w);
        let mut theta = if cfg.max_join > 0 {
            rng.gen_range(0..=cfg.max_join)
        } else {
            0
        };
        let mut prev_eligible = 0i64;
        let mut i = 1u64;
        let e = w.e() as u64;
        loop {
            let job_start = (i - 1).is_multiple_of(e);
            let may_delay = match cfg.kind {
                ReleaseKind::Periodic => false,
                ReleaseKind::Sporadic => job_start,
                ReleaseKind::IntraSporadic | ReleaseKind::Gis => true,
            };
            if may_delay && percent(&mut rng, cfg.delay_percent) {
                theta += 1 + geometric_half(&mut rng);
            }
            let r = theta + pfair_taskmodel::window::release(w, i);
            if r >= cfg.horizon {
                break;
            }
            let dropped = cfg.kind == ReleaseKind::Gis && percent(&mut rng, cfg.drop_percent);
            if !dropped {
                let eligible = (r - cfg.early).max(prev_eligible).max(0).min(r);
                b.push(task, i, theta, Some(eligible))
                    .expect("generator respects model constraints by construction");
                prev_eligible = eligible;
            }
            i += 1;
        }
    }
    b.build()
}

/// The perf benches' `n`-task system: the ten weights 1/2, 1/3, 2/5, 3/8,
/// 1/6, 5/12, 1/4, 7/24, 2/3, 1/8 repeated to `n` tasks, released
/// periodically below horizon 24 with seed 46, and the `m = ⌈U⌉`
/// processors it needs. At `n = 1000` it is the `pfairsim perf` ratchet's
/// system (8 500 subtasks).
#[must_use]
pub fn cycle_system(n: usize) -> (TaskSystem, u32) {
    const CYCLE: [(i64, i64); 10] = [
        (1, 2),
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
    let weights: Vec<Weight> = (0..n)
        .map(|i| {
            let (e, p) = CYCLE[i % CYCLE.len()];
            Weight::new(e, p)
        })
        .collect();
    let sys = generate(&weights, &ReleaseConfig::periodic(24), 46);
    let m = u32::try_from(sys.utilization().ceil()).expect("cycle utilization fits u32");
    (sys, m)
}

fn percent(rng: &mut StdRng, pct: u8) -> bool {
    pct > 0 && rng.gen_range(0u8..100) < pct
}

/// Geometric(1/2) on {0, 1, 2, …}, capped at 8 to keep horizons modest.
fn geometric_half(rng: &mut StdRng) -> i64 {
    let mut n = 0;
    while n < 8 && rng.gen_bool(0.5) {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_numeric::Rat;

    #[test]
    fn the_thousand_task_cycle_releases_8500_subtasks() {
        let (sys, m) = cycle_system(1000);
        assert_eq!(sys.num_tasks(), 1000);
        assert_eq!(sys.num_subtasks(), 8_500);
        assert_eq!(i64::from(m), sys.utilization().ceil());
    }

    fn weights() -> Vec<Weight> {
        vec![
            Weight::new(1, 2),
            Weight::new(3, 4),
            Weight::new(1, 6),
            Weight::new(2, 5),
        ]
    }

    #[test]
    fn periodic_matches_deterministic_generator() {
        let ws = weights();
        let sys = generate(&ws, &ReleaseConfig::periodic(20), 99);
        let expected = pfair_taskmodel::release::periodic(
            &ws.iter().map(|w| (w.e(), w.p())).collect::<Vec<_>>(),
            20,
        );
        assert_eq!(sys.num_subtasks(), expected.num_subtasks());
        for (a, b) in sys.subtasks().iter().zip(expected.subtasks()) {
            assert_eq!((a.release, a.deadline), (b.release, b.deadline));
        }
    }

    #[test]
    fn is_delays_preserve_model_constraints() {
        let cfg = ReleaseConfig {
            kind: ReleaseKind::IntraSporadic,
            horizon: 50,
            delay_percent: 30,
            drop_percent: 0,
            early: 0,
            max_join: 0,
        };
        for seed in 0..20 {
            let sys = generate(&weights(), &cfg, seed);
            // Builder validated everything; spot-check monotone offsets.
            for task in sys.tasks() {
                let sts = sys.task_subtasks(task.id);
                for w in sts.windows(2) {
                    assert!(w[0].theta <= w[1].theta);
                    assert!(w[0].eligible <= w[1].eligible);
                }
            }
        }
    }

    #[test]
    fn sporadic_delays_only_whole_jobs() {
        let cfg = ReleaseConfig {
            kind: ReleaseKind::Sporadic,
            horizon: 60,
            delay_percent: 40,
            drop_percent: 0,
            early: 0,
            max_join: 0,
        };
        for seed in 0..10 {
            let sys = generate(&weights(), &cfg, seed);
            for task in sys.tasks() {
                let e = task.weight.e() as u64;
                for w in sys.task_subtasks(task.id).windows(2) {
                    // θ may only change at job boundaries.
                    if (w[1].id.index - 1) % e != 0 {
                        assert_eq!(w[0].theta, w[1].theta, "mid-job delay");
                    }
                }
            }
        }
    }

    #[test]
    fn gis_drops_subtask_indices() {
        let cfg = ReleaseConfig {
            kind: ReleaseKind::Gis,
            horizon: 200,
            delay_percent: 0,
            drop_percent: 30,
            early: 0,
            max_join: 0,
        };
        let sys = generate(&weights(), &cfg, 3);
        // With 30% drops over a long horizon some index gap must exist.
        let has_gap = sys.tasks().iter().any(|t| {
            sys.task_subtasks(t.id)
                .windows(2)
                .any(|w| w[1].id.index > w[0].id.index + 1)
        });
        assert!(has_gap);
    }

    #[test]
    fn early_release_respected() {
        let cfg = ReleaseConfig {
            kind: ReleaseKind::Periodic,
            horizon: 20,
            delay_percent: 0,
            drop_percent: 0,
            early: 2,
            max_join: 0,
        };
        let sys = generate(&weights(), &cfg, 1);
        for s in sys.subtasks() {
            assert!(s.eligible <= s.release);
            assert!(s.release - s.eligible <= 2);
        }
    }

    #[test]
    fn utilization_unchanged_by_release_process() {
        let ws = weights();
        let util: Rat = ws.iter().map(|w| w.as_rat()).sum();
        let sys = generate(&ws, &ReleaseConfig::gis(30), 5);
        assert_eq!(sys.utilization(), util);
    }

    #[test]
    fn joins_produce_initial_offsets() {
        let cfg = ReleaseConfig {
            kind: ReleaseKind::Periodic,
            horizon: 40,
            delay_percent: 0,
            drop_percent: 0,
            early: 0,
            max_join: 10,
        };
        let sys = generate(&weights(), &cfg, 12);
        // Some task joined late...
        assert!(sys
            .tasks()
            .iter()
            .any(|t| sys.task_subtasks(t.id)[0].theta > 0));
        // ...and every first subtask's offset is within the join window.
        for t in sys.tasks() {
            let th = sys.task_subtasks(t.id)[0].theta;
            assert!((0..=10).contains(&th));
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = ReleaseConfig::gis(40);
        let a = generate(&weights(), &cfg, 11);
        let b = generate(&weights(), &cfg, 11);
        assert_eq!(a, b);
    }
}
