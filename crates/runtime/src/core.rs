//! The deterministic dispatch core behind the delegation lock.
//!
//! [`DispatchCore`] is the single-threaded heart of the runtime: whichever
//! worker currently holds the combiner role drains the request slots and
//! drives this state machine. It is the second driver of
//! [`pfair_sim::kernel::DvqKernel`], the DVQ event loop that
//! [`pfair_online::OnlineDvq`] and `simulate_dvq` also drive: chain
//! arming, the tick/exact clock, the PD² ready heap, deadline verdicts and
//! the ascending-processor dispatch pass all live there. What stays here is
//! what belongs to the runtime:
//!
//! * every submission is checked against the core's own [`TaskSystem`],
//!   and each subtask's key is served from its `KeyCache`;
//! * a quantum's logical completion may only be *processed* once the
//!   worker that executed it has physically reported done;
//! * the two in-core mutants: [`FaultPlan::StaleKeyCacheRead`] is the key
//!   this driver hands the kernel, [`FaultPlan::TornDispatchBatch`] wraps
//!   the recording observer around a dispatch pass.
//!
//! The completion gate is what makes the two execution modes work:
//!
//! * **[`Mode::Deterministic`]** lets the kernel queue completions eagerly,
//!   as `OnlineDvq` does, and simply *stalls* ([`Status::Stalled`]) when
//!   the next logical event is a completion whose worker has not reported
//!   yet. Events are therefore processed in precisely the order `OnlineDvq`
//!   processes them, whatever the thread interleaving — the logical-time
//!   barrier — and the resulting schedule is bit-identical to the
//!   single-threaded reference (proof obligation (a)).
//! * **[`Mode::FreeRunning`]** trusts physical arrival instead: completions
//!   are applied in the order workers deliver them
//!   ([`DispatchCore::complete_unordered`]), logical time advancing
//!   monotonically to `max(now, completion)`. The schedule then genuinely
//!   depends on the interleaving, and correctness is established per run by
//!   replaying the recorded event stream through the conformance bank
//!   (proof obligation (b)).
//!
//! This module is the *deterministic half* of the crate: it must contain no
//! wall-clock, thread, or entropy use at all (`pfair-lint`'s
//! `no-nondeterminism` rule covers `crates/runtime` with no allows in this
//! file). Everything nondeterministic lives in [`crate::exec`] behind
//! justified allows.

use pfair_core::key::{KeyCache, Pd2Key};
use pfair_numeric::Time;
use pfair_obs::{Observer, RecordingObserver, SchedEvent};
use pfair_online::OnlineAssignment;
use pfair_sim::kernel::{DvqKernel, Event};
use pfair_taskmodel::{SubtaskId, SubtaskRef, TaskId, TaskSystem};

use crate::jitter::{quantum_cost, JitterRegime};

/// Which completion-ordering discipline the core runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Logical-time barrier: completions are processed in exact logical
    /// order, stalling on workers as needed. Bit-identical to `OnlineDvq`.
    Deterministic,
    /// Completions are processed as workers deliver them; the schedule
    /// depends on real thread timing and is checked by replay.
    FreeRunning,
}

/// A planted concurrency fault, for proving the replay harness is
/// load-bearing. `FaultPlan::None` is the production configuration; the
/// other variants are the mutants `crates/conformance` catalogues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPlan {
    /// No fault: correct runtime.
    None,
    /// The dispatch batch is published torn: every entry after the first
    /// in a multi-assignment batch is recorded with the *previous* entry's
    /// processor, as a racing reader of a non-atomic batch would see it.
    /// Execution itself stays correct — only the event stream tears.
    TornDispatchBatch,
    /// The combiner loses the first completion request it drains: the
    /// classic lost-wakeup, leaving the dispatch core waiting forever for
    /// a quantum that already finished.
    LostWakeupCombiner,
    /// Ready subtasks are keyed from the previous subtask's KeyCache slot
    /// (a stale read), silently reordering PD² dispatch.
    StaleKeyCacheRead,
}

/// A request published into a delegation-lock slot.
#[derive(Clone, Copy, Debug)]
pub enum Request {
    /// A job arrival: release the next job of `task` at time `at`.
    Submit {
        /// The task.
        task: TaskId,
        /// The (integral) release time.
        at: i64,
    },
    /// All arrivals are in; event processing may begin.
    Begin,
    /// Worker `proc` finished executing its current quantum (a completion
    /// when the full quantum was used, a δ-yield when it finished early).
    Done {
        /// The reporting processor.
        proc: u32,
    },
}

/// What [`DispatchCore::advance`] ran out of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Every released subtask has been dispatched and logically completed.
    Done,
    /// Deterministic mode: the next logical event is a completion whose
    /// worker has not physically reported yet.
    Stalled,
    /// Free-running mode: nothing to do until a worker reports done.
    Idle,
}

/// The runtime's own copy of the workload: the system every submission
/// is checked against, and the `KeyCache` its keys are served from.
#[derive(Debug)]
struct SystemKeys {
    sys: TaskSystem,
    cache: KeyCache<Pd2Key>,
    fault: FaultPlan,
}

impl SystemKeys {
    /// The key of subtask `id` of a job with offset `theta`, after checking
    /// the submission against the system so the KeyCache slot is the
    /// right one: same offset, hence the same windows, and eligible at its
    /// release as the kernel's chain assumes.
    fn checked_key(&self, id: SubtaskId, theta: i64) -> Pd2Key {
        let st = self.sys.find(id).unwrap_or_else(|| {
            panic!(
                "T{}_{} submitted but not in the system",
                id.task.0, id.index
            )
        });
        let s = self.sys.subtask(st);
        assert!(
            s.theta == theta && s.eligible == s.release,
            "system subtask T{}_{} disagrees with the submission plan \
             (theta {} vs {theta}): the KeyCache would serve a wrong key",
            id.task.0,
            id.index,
            s.theta
        );
        self.key_for(st)
    }

    /// The KeyCache read backing the dispatch pass. The
    /// [`FaultPlan::StaleKeyCacheRead`] mutant serves the *previous*
    /// subtask's slot — the value a racing reader would see before the
    /// cache line for this subtask lands.
    fn key_for(&self, st: SubtaskRef) -> Pd2Key {
        if self.fault == FaultPlan::StaleKeyCacheRead {
            if let Some(pred) = self.sys.subtask(st).pred {
                return self.cache.key(pred);
            }
        }
        self.cache.key(st)
    }
}

/// [`FaultPlan::TornDispatchBatch`]: around one dispatch pass, records
/// every `QuantumStart` after the first with the previous entry's
/// processor, as a racing reader of a non-atomic batch would see it.
/// Execution itself (mailboxes, log) stays correct — only the event
/// stream tears.
struct TornBatch<'a> {
    inner: &'a mut RecordingObserver,
    prev_proc: Option<u32>,
}

impl Observer for TornBatch<'_> {
    fn on_event(&mut self, ev: &SchedEvent) {
        let mut ev = ev.clone();
        if let SchedEvent::QuantumStart { proc, .. } = &mut ev {
            let actual = *proc;
            *proc = self.prev_proc.unwrap_or(actual);
            self.prev_proc = Some(actual);
        }
        self.inner.on_event(&ev);
    }
}

/// The dispatch state machine the combiner drives.
#[derive(Debug)]
pub struct DispatchCore {
    keys: SystemKeys,
    kernel: DvqKernel,
    mode: Mode,
    seed: u64,
    regime: JitterRegime,
    started: bool,
    /// Whether the batch at the kernel's current instant is still open
    /// (its dispatch pass not yet run).
    batch_open: bool,
    /// Deterministic mode: has the worker physically reported the quantum
    /// dispatched to this processor?
    phys_done: Vec<bool>,
    log: Vec<OnlineAssignment>,
    /// How much of `log` [`Self::take_assignments`] has handed out: the
    /// combiner delivers the rest to worker mailboxes.
    handed: usize,
    obs: RecordingObserver,
}

impl DispatchCore {
    /// A core over `m ≥ 1` virtual processors for `sys`, whose subtasks
    /// must cover exactly the jobs later submitted. Costs are drawn from
    /// [`quantum_cost`] with `(seed, regime)`.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    #[must_use]
    pub fn new(
        sys: TaskSystem,
        m: u32,
        seed: u64,
        regime: JitterRegime,
        mode: Mode,
        fault: FaultPlan,
    ) -> DispatchCore {
        let mut kernel = DvqKernel::new(m, mode == Mode::Deterministic);
        for t in sys.tasks() {
            kernel.add_task(t.weight);
        }
        DispatchCore {
            keys: SystemKeys {
                cache: KeyCache::build(&sys),
                sys,
                fault,
            },
            kernel,
            mode,
            seed,
            regime,
            started: false,
            batch_open: false,
            phys_done: vec![false; m as usize],
            log: Vec::new(),
            handed: 0,
            obs: RecordingObserver::new(),
        }
    }

    /// The execution mode.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The number of virtual processors.
    #[must_use]
    pub fn num_procs(&self) -> u32 {
        self.kernel.num_processors()
    }

    /// Submits the next job of `task`, released at `at` — the `Submit`
    /// request handler. The kernel's submission, with each subtask
    /// cross-checked against the owned [`TaskSystem`] so the KeyCache
    /// lookups are guaranteed fresh.
    ///
    /// # Panics
    /// The driver controls submissions, so violations (sporadic separation,
    /// submission after [`Self::begin`], a job the system never released)
    /// are bugs and panic with the broken invariant.
    pub fn submit(&mut self, task: TaskId, at: i64) {
        assert!(
            !self.started,
            "all arrivals must be published before Begin (T{} at {at})",
            task.0
        );
        let keys = &self.keys;
        self.kernel
            .submit_job(
                task,
                at,
                |_, id, theta| keys.checked_key(id, theta),
                &mut self.obs,
            )
            .unwrap_or_else(|e| panic!("T{} at {at}: {e}", task.0));
    }

    /// The `Begin` request handler: arrivals are complete, event
    /// processing may start. Before this, [`Self::advance`] refuses to run
    /// so that partially-published arrival batches can never dispatch —
    /// the same "all submissions precede the run" contract `OnlineDvq`
    /// callers follow.
    pub fn begin(&mut self) {
        self.started = true;
    }

    /// Deterministic mode: worker `proc` physically finished its quantum.
    pub fn mark_done(&mut self, proc: u32) {
        assert!(
            self.mode == Mode::Deterministic,
            "mark_done is the deterministic-mode completion path"
        );
        assert!(
            self.kernel.completion_of(proc).is_some(),
            "processor {proc} reported done while idle"
        );
        self.phys_done[proc as usize] = true;
    }

    /// The logical completion time of the quantum in flight on `proc` —
    /// the combiner sorts a batch of `Done`s by this before applying them
    /// in free-running mode, so physical timing only reorders across
    /// batches, never within one.
    #[must_use]
    pub fn completion_of(&self, proc: u32) -> Time {
        self.kernel
            .completion_of(proc)
            .expect("queried completion of an idle processor")
    }

    /// Free-running mode: apply worker `proc`'s completion now, at logical
    /// time `max(now, completion)`. Activations that logically precede the
    /// completion are processed first; if the report arrives late (another
    /// processor's later completion already advanced `now`), the freed
    /// processor simply idled the gap — visible in the replayed schedule
    /// as capacity loss, never as an invalid placement.
    pub fn complete_unordered(&mut self, proc: u32) {
        assert!(
            self.mode == Mode::FreeRunning,
            "complete_unordered is the free-running completion path"
        );
        let completion = self
            .kernel
            .completion_of(proc)
            .expect("processor reported done while idle");
        // Logically-earlier activations come first.
        while let Some((at, _)) = self.kernel.peek() {
            let eff = self.kernel.now().max(at);
            if eff >= completion {
                break;
            }
            if self.batch_open && eff > self.kernel.now() {
                self.close_batch();
                continue;
            }
            self.enter_batch(eff);
            self.kernel.apply_at(at, &mut self.obs);
        }
        self.enter_batch(self.kernel.now().max(completion));
        self.kernel.free(proc, &mut self.obs);
    }

    /// Processes logical events until input is needed: a physical
    /// completion (both modes) or, deterministic mode, the specific worker
    /// the next completion waits on. Dispatch decisions land in the
    /// pending-assignment buffer ([`Self::take_assignments`]).
    pub fn advance(&mut self) -> Status {
        if !self.started {
            return Status::Idle;
        }
        loop {
            let Some((at, ev)) = self.kernel.peek() else {
                self.close_batch();
                return if self.kernel.is_drained() {
                    Status::Done
                } else {
                    Status::Idle
                };
            };
            let eff = self.kernel.now().max(at);
            if self.batch_open && eff > self.kernel.now() {
                self.close_batch();
                continue;
            }
            match self.mode {
                Mode::Deterministic => {
                    if let Event::Free(proc) = ev {
                        if !self.phys_done[proc as usize] {
                            // Mid-batch stalls keep the batch open: the
                            // instant is not fully drained, so dispatching
                            // now would diverge from `OnlineDvq`.
                            return Status::Stalled;
                        }
                        self.phys_done[proc as usize] = false;
                    }
                }
                Mode::FreeRunning => {
                    if self.kernel.min_completion().is_some_and(|c| eff >= c) {
                        // An in-flight quantum logically completes first;
                        // wait for its worker.
                        return Status::Idle;
                    }
                }
            }
            self.enter_batch(eff);
            let applied = self.kernel.apply_at(at, &mut self.obs);
            assert!(applied, "the peeked event is still queued");
        }
    }

    /// Assignments dispatched since the last call, in dispatch order; the
    /// combiner delivers them to worker mailboxes.
    pub fn take_assignments(&mut self) -> Vec<OnlineAssignment> {
        let fresh = self.log[self.handed..].to_vec();
        self.handed = self.log.len();
        fresh
    }

    /// Consumes the core: the full dispatch log and the recorded event
    /// stream.
    #[must_use]
    pub fn into_parts(self) -> (Vec<OnlineAssignment>, Vec<SchedEvent>) {
        (self.log, self.obs.into_events())
    }

    /// Makes `eff` the open batch's instant: a no-op if it already is,
    /// otherwise any open batch is closed first and a new one opened.
    fn enter_batch(&mut self, eff: Time) {
        if self.batch_open {
            if eff == self.kernel.now() {
                return;
            }
            self.close_batch();
        }
        self.batch_open = true;
        self.kernel.open(eff, &mut self.obs);
    }

    /// Closes the open batch, if any: the kernel's dispatch pass over the
    /// drained instant, costed by the seeded jitter draw.
    fn close_batch(&mut self) {
        if !std::mem::take(&mut self.batch_open) {
            return;
        }
        let (seed, regime) = (self.seed, self.regime);
        let cost = |task, index| quantum_cost(seed, regime, task, index);
        if self.keys.fault == FaultPlan::TornDispatchBatch {
            let mut torn = TornBatch {
                inner: &mut self.obs,
                prev_proc: None,
            };
            self.kernel.dispatch(cost, &mut self.log, &mut torn);
        } else {
            self.kernel.dispatch(cost, &mut self.log, &mut self.obs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_online::OnlineDvq;
    use pfair_taskmodel::{TaskSystemBuilder, Weight};

    /// A periodic system plus its submission plan: every task releases
    /// `jobs` back-to-back jobs from time 0.
    fn periodic(weights: &[(i64, i64)], jobs: u64) -> (TaskSystem, Vec<(TaskId, i64)>) {
        let mut b = TaskSystemBuilder::new();
        let ids: Vec<TaskId> = weights
            .iter()
            .map(|&(e, p)| b.add_task(Weight::new(e, p)))
            .collect();
        let mut plan = Vec::new();
        for (t, &(e, p)) in ids.iter().zip(weights) {
            for j in 0..jobs {
                let ji = i64::try_from(j).expect("job count");
                plan.push((*t, ji * p));
                for index in j * u64::try_from(e).expect("e > 0") + 1
                    ..=(j + 1) * u64::try_from(e).expect("e > 0")
                {
                    b.push(*t, index, 0, None).expect("valid periodic release");
                }
            }
        }
        plan.sort_by_key(|&(t, at)| (at, t));
        (b.build(), plan)
    }

    /// Drives the core synchronously: whenever it stalls or idles, the
    /// earliest-completing in-flight quantum reports done.
    fn drive(core: &mut DispatchCore) -> (Vec<OnlineAssignment>, Vec<SchedEvent>) {
        core.begin();
        loop {
            match core.advance() {
                Status::Done => break,
                Status::Stalled | Status::Idle => {
                    let proc = (0..core.num_procs())
                        .filter(|&p| core.kernel.completion_of(p).is_some())
                        .min_by_key(|&p| (core.completion_of(p), p))
                        .expect("a stalled core has in-flight work");
                    match core.mode {
                        Mode::Deterministic => core.mark_done(proc),
                        Mode::FreeRunning => core.complete_unordered(proc),
                    }
                }
            }
            core.take_assignments();
        }
        let taken = std::mem::take(&mut core.log);
        let events = std::mem::take(&mut core.obs).into_events();
        (taken, events)
    }

    fn reference(
        sys: &TaskSystem,
        plan: &[(TaskId, i64)],
        m: u32,
        seed: u64,
        regime: JitterRegime,
    ) -> (Vec<OnlineAssignment>, Vec<SchedEvent>) {
        let mut obs = RecordingObserver::new();
        let mut s = OnlineDvq::new(m);
        for t in sys.tasks() {
            s.add_task(t.weight);
        }
        for &(t, at) in plan {
            s.submit_job_observed(t, at, &mut obs).expect("valid plan");
        }
        let log = s.run_until_idle_observed(
            &mut |task, index| quantum_cost(seed, regime, task, index),
            &mut obs,
        );
        (log, obs.into_events())
    }

    #[test]
    fn deterministic_mode_is_bit_identical_to_online_dvq() {
        for seed in 0..8u64 {
            let (sys, plan) = periodic(&[(1, 2), (1, 3), (2, 5), (1, 6)], 3);
            let mut core = DispatchCore::new(
                sys.clone(),
                2,
                seed,
                JitterRegime::Adversarial,
                Mode::Deterministic,
                FaultPlan::None,
            );
            for &(t, at) in &plan {
                core.submit(t, at);
            }
            let (log, events) = drive(&mut core);
            let (ref_log, ref_events) = reference(&sys, &plan, 2, seed, JitterRegime::Adversarial);
            assert_eq!(log, ref_log, "schedule diverged at seed {seed}");
            assert_eq!(events, ref_events, "event stream diverged at seed {seed}");
        }
    }

    #[test]
    fn free_running_in_logical_order_matches_the_reference_schedule() {
        // When completions are applied in logical order (as `drive` does),
        // free-running mode reduces to the deterministic schedule.
        let (sys, plan) = periodic(&[(1, 2), (1, 3), (1, 6)], 2);
        let mut core = DispatchCore::new(
            sys.clone(),
            2,
            11,
            JitterRegime::Mild,
            Mode::FreeRunning,
            FaultPlan::None,
        );
        for &(t, at) in &plan {
            core.submit(t, at);
        }
        let (log, _) = drive(&mut core);
        let (ref_log, _) = reference(&sys, &plan, 2, 11, JitterRegime::Mild);
        assert_eq!(log, ref_log);
    }

    #[test]
    fn free_running_tolerates_late_completion_reports() {
        // Two quanta in flight; the one that logically completes *second*
        // reports first. The late processor idles the gap; both quanta and
        // all successors still dispatch, and time never goes backwards.
        let (sys, plan) = periodic(&[(1, 2), (1, 2)], 2);
        let mut core = DispatchCore::new(
            sys,
            2,
            3,
            JitterRegime::Adversarial,
            Mode::FreeRunning,
            FaultPlan::None,
        );
        for &(t, at) in &plan {
            core.submit(t, at);
        }
        core.begin();
        assert_eq!(core.advance(), Status::Idle);
        core.take_assignments();
        let (a, b) = (core.completion_of(0), core.completion_of(1));
        let (late, early) = if a >= b { (0u32, 1u32) } else { (1, 0) };
        core.complete_unordered(late); // out of logical order
        core.complete_unordered(early);
        loop {
            match core.advance() {
                Status::Done => break,
                _ => {
                    let proc = (0..2)
                        .filter(|&p| core.kernel.completion_of(p).is_some())
                        .min_by_key(|&p| (core.completion_of(p), p))
                        .expect("in-flight work");
                    core.complete_unordered(proc);
                }
            }
            core.take_assignments();
        }
        assert_eq!(core.log.len(), 4, "both jobs of both tasks dispatched");
        for w in core.log.windows(2) {
            assert!(w[0].start <= w[1].start, "dispatch log left time order");
        }
    }

    #[test]
    fn stale_keycache_fault_serves_the_predecessors_slot() {
        let (sys, _) = periodic(&[(2, 5)], 1);
        let a1 = sys
            .find(SubtaskId {
                task: TaskId(0),
                index: 1,
            })
            .expect("T0_1 exists");
        let a2 = sys
            .find(SubtaskId {
                task: TaskId(0),
                index: 2,
            })
            .expect("T0_2 exists");
        let clean = DispatchCore::new(
            sys.clone(),
            1,
            0,
            JitterRegime::None,
            Mode::Deterministic,
            FaultPlan::None,
        );
        let stale = DispatchCore::new(
            sys,
            1,
            0,
            JitterRegime::None,
            Mode::Deterministic,
            FaultPlan::StaleKeyCacheRead,
        );
        assert_eq!(clean.keys.key_for(a2), clean.keys.cache.key(a2));
        assert_eq!(
            stale.keys.key_for(a2),
            stale.keys.cache.key(a1),
            "the stale read serves the predecessor's cache slot"
        );
        assert_ne!(
            stale.keys.key_for(a2),
            stale.keys.cache.key(a2),
            "weight 2/5 gives T0_1 and T0_2 distinct keys, so the tear is visible"
        );
        // Chain heads have no predecessor: the stale read is invisible there.
        assert_eq!(stale.keys.key_for(a1), stale.keys.cache.key(a1));
    }

    #[test]
    fn torn_batch_fault_tears_the_event_stream_but_not_the_log() {
        // Three tasks ready at once on three processors: a multi-entry
        // dispatch batch, so the tear has something to tear.
        let (sys, plan) = periodic(&[(1, 2), (1, 2), (1, 2)], 1);
        let run = |fault| {
            let mut core = DispatchCore::new(
                sys.clone(),
                3,
                0,
                JitterRegime::None,
                Mode::Deterministic,
                fault,
            );
            for &(t, at) in &plan {
                core.submit(t, at);
            }
            drive(&mut core)
        };
        let (clean_log, clean_events) = run(FaultPlan::None);
        let (torn_log, torn_events) = run(FaultPlan::TornDispatchBatch);
        assert_eq!(clean_log, torn_log, "execution itself stays correct");
        assert_ne!(clean_events, torn_events, "the recorded stream tears");
        let procs = |events: &[SchedEvent]| -> Vec<u32> {
            events
                .iter()
                .filter_map(|e| match e {
                    SchedEvent::QuantumStart { proc, .. } => Some(*proc),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(procs(&clean_events), vec![0, 1, 2]);
        assert_eq!(procs(&torn_events), vec![0, 0, 1], "torn publication");
    }

    #[test]
    fn advance_refuses_to_run_before_begin() {
        let (sys, plan) = periodic(&[(1, 2)], 1);
        let mut core = DispatchCore::new(
            sys,
            1,
            0,
            JitterRegime::None,
            Mode::Deterministic,
            FaultPlan::None,
        );
        for &(t, at) in &plan {
            core.submit(t, at);
        }
        assert_eq!(core.advance(), Status::Idle);
        assert!(core.take_assignments().is_empty());
    }
}
