//! Threaded, deterministic fuzzing campaigns.
//!
//! A campaign checks trials `base_seed + 0 … base_seed + trials − 1`
//! against the invariant bank, sharded across worker threads with the same
//! discipline as `experiment::run_sweep`: a shared atomic counter hands
//! out trial indices, each worker derives its case purely from
//! `base_seed + index`, and results land in per-trial slots — so the set
//! of violations found by a completed campaign is a function of the seed
//! alone, not of the thread count.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::case::{Case, CaseSpec};
use crate::engines::Engines;
use crate::gen::{generate_case, GenConfig};
use crate::invariant::check_case;
use crate::shrink::shrink;

/// Configuration of one campaign.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Number of trials (seeds `base_seed..base_seed + trials`).
    pub trials: usize,
    /// First seed.
    pub base_seed: u64,
    /// Worker threads (0 or 1 = run on the calling thread).
    pub threads: usize,
    /// Case-generation knobs.
    pub gen: GenConfig,
    /// Optional wall-clock budget; trials not started in time are skipped.
    pub time_limit: Option<Duration>,
    /// Shrink each violation's case to a minimal repro.
    pub shrink: bool,
    /// Stop handing out trials once a violation is found.
    pub stop_on_first: bool,
}

impl CampaignConfig {
    /// A serial, shrinking, stop-on-first campaign over `trials` seeds.
    #[must_use]
    pub fn quick(trials: usize, base_seed: u64) -> CampaignConfig {
        CampaignConfig {
            trials,
            base_seed,
            threads: 1,
            gen: GenConfig::default(),
            time_limit: None,
            shrink: true,
            stop_on_first: true,
        }
    }
}

/// One detected invariant violation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Violation {
    /// The seed whose generated case violated the invariant (replay with
    /// `pfairsim fuzz --seed <seed> --trials 1`).
    pub seed: u64,
    /// Name of the violated invariant.
    pub invariant: String,
    /// Human-readable violation report.
    pub detail: String,
    /// The generated case.
    pub original: CaseSpec,
    /// The delta-debugged minimal case (when shrinking was enabled).
    pub shrunk: Option<CaseSpec>,
}

/// What a campaign found.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CampaignOutcome {
    /// Trials actually executed (< `trials` only under `stop_on_first` or
    /// a time limit).
    pub trials_run: usize,
    /// Violations in trial order.
    pub violations: Vec<Violation>,
}

impl CampaignOutcome {
    /// `true` iff no invariant was violated.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks the single case derived from `seed`.
///
/// # Errors
/// The violation, unshrunk, if any invariant fails (a generator-produced
/// spec that does not rebuild is reported under the pseudo-invariant
/// `"case-build"`; it cannot happen unless the generator itself is broken).
/// The violation is boxed: it carries the whole generated spec.
pub fn check_seed(gen: &GenConfig, seed: u64, engines: &Engines) -> Result<(), Box<Violation>> {
    let violation = |invariant: &str, detail: String, original: CaseSpec| {
        Box::new(Violation {
            seed,
            invariant: invariant.to_owned(),
            detail,
            original,
            shrunk: None,
        })
    };
    let case = match Case::build(generate_case(gen, seed)) {
        Ok(case) => case,
        // The build consumed the spec; generation is deterministic, so
        // the rare report regenerates it.
        Err(e) => {
            return Err(violation(
                "case-build",
                format!("generated spec does not rebuild: {e:?}"),
                generate_case(gen, seed),
            ))
        }
    };
    if !case.is_feasible() {
        return Err(violation(
            "case-build",
            "generated case is infeasible".to_owned(),
            case.spec,
        ));
    }
    check_case(&case, engines).map_err(|f| violation(f.invariant, f.detail, case.spec))
}

/// Runs a campaign against `engines`.
#[must_use]
pub fn run_campaign(cfg: &CampaignConfig, engines: &Engines) -> CampaignOutcome {
    // pfair-lint: allow(no-nondeterminism): wall-clock reads bound the campaign's CPU budget only; which seeds run is deterministic, and every violation replays from its seed.
    let deadline = cfg.time_limit.map(|d| Instant::now() + d);
    let threads = cfg.threads.max(1);
    // Outer Option: trial not started. Inner: the trial's violation.
    let mut results: Vec<Option<Option<Box<Violation>>>> = vec![None; cfg.trials];
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    {
        let slots = parking_lot::Mutex::new(&mut results);
        // pfair-lint: allow(no-nondeterminism): trial k always checks seed base+k whatever thread claims it; threading changes the wall-clock, never which violations exist.
        crossbeam::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|_| loop {
                    // pfair-lint: allow(no-nondeterminism): budget check only — a timed-out campaign reports fewer trials, never different results for a given seed.
                    if stop.load(Ordering::Relaxed) || deadline.is_some_and(|d| Instant::now() >= d)
                    {
                        break;
                    }
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= cfg.trials {
                        break;
                    }
                    let outcome = check_seed(&cfg.gen, cfg.base_seed + k as u64, engines).err();
                    if outcome.is_some() && cfg.stop_on_first {
                        stop.store(true, Ordering::Relaxed);
                    }
                    slots.lock()[k] = Some(outcome);
                });
            }
        })
        .expect("campaign worker panicked");
    }

    let trials_run = results.iter().flatten().count();
    let mut violations: Vec<Violation> = results
        .into_iter()
        .flatten()
        .flatten()
        .map(|b| *b)
        .collect();
    if cfg.shrink {
        for v in &mut violations {
            if v.invariant != "case-build" {
                v.shrunk = Some(shrink(&v.original, &v.invariant, engines));
            }
        }
    }
    CampaignOutcome {
        trials_run,
        violations,
    }
}
