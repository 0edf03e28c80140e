//! The training pool: devices' local epochs computed beside the slot loop.
//!
//! Every device of the paper's system trains on its own between download and
//! upload. A local epoch is a pure function of what it was handed (see the
//! [`client`](crate::client) module docs), so the thread that simulates the
//! fleet does not have to compute it at the slot the epoch completes: it
//! [`submit`](Pool::submit)s the epoch when the device downloads its model,
//! and [`claim`](Ticket::claim)s the result when the simulated epoch is over.
//! In between, helper threads work through the queue, oldest first.
//!
//! A claimant never sleeps while there is work: if its own epoch has not been
//! started it runs it on the spot, and if a helper is in the middle of it, it
//! runs other queued epochs until the helper is done. With no helpers at all —
//! one CPU — every epoch therefore runs on the claiming thread at claim
//! time, which is the serial order; there is no separate serial path. Results
//! never depend on the helper count, because a job's output depends on the
//! job alone.
//!
//! Dropping a [`Ticket`] discards its epoch: one still queued is never run,
//! and the result of one in flight is thrown away. The threads live here and
//! nowhere else in the simulator: [`Pool::global`] starts
//! `available_parallelism() − 1` of them the first time a simulation trains a
//! real model, and every simulation of the process shares them, so a sweep's
//! workers do not multiply threads.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, JoinHandle};

use crate::client::EpochTask;

/// A unit of work whose output depends on nothing but itself.
pub trait Job: Send + 'static {
    /// What the job produces.
    type Output: Send + 'static;
    /// Does the work, on whichever thread gets to it.
    fn run(self) -> Self::Output;
}

/// The pool every simulation of the process trains its devices on.
pub type TrainingPool = Pool<EpochTask>;

/// A job's output, or the panic that ended it.
type Finished<J> = thread::Result<<J as Job>::Output>;

struct State<J: Job> {
    next_id: u64,
    /// Submitted and not started, oldest first.
    queued: VecDeque<(u64, J)>,
    /// Run by someone other than the ticket holder and not yet claimed.
    finished: BTreeMap<u64, Finished<J>>,
    /// In flight when their ticket was dropped: the result is not kept.
    abandoned: BTreeSet<u64>,
    shutdown: bool,
}

struct Shared<J: Job> {
    state: Mutex<State<J>>,
    /// Signalled when a job is queued and at shutdown; helpers wait here.
    work: Condvar,
    /// Signalled when a result is filed; blocked claimants wait here.
    done: Condvar,
}

impl<J: Job> Shared<J> {
    /// Jobs run outside the lock and under `catch_unwind`; inside it runs one
    /// container operation at a time. A poisoned lock therefore still guards
    /// a valid state, and `Ticket::drop` must not panic over it.
    fn lock(&self) -> MutexGuard<'_, State<J>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, on: &Condvar, guard: MutexGuard<'a, State<J>>) -> MutexGuard<'a, State<J>> {
        on.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs a job that is not the caller's own and files its result for the
    /// ticket holder, unless the ticket was dropped meanwhile.
    fn run_for_its_owner(&self, id: u64, job: J) -> MutexGuard<'_, State<J>> {
        let result = run_caught(job);
        let mut state = self.lock();
        if !state.abandoned.remove(&id) {
            state.finished.insert(id, result);
            self.done.notify_all();
        }
        state
    }

    fn helper_loop(&self) {
        let mut state = self.lock();
        while !state.shutdown {
            state = match state.queued.pop_front() {
                Some((id, job)) => {
                    drop(state);
                    self.run_for_its_owner(id, job)
                }
                None => self.wait(&self.work, state),
            };
        }
    }
}

fn run_caught<J: Job>(job: J) -> Finished<J> {
    // A job owns everything it touches, so a panic leaves nothing broken
    // behind: it is the claimant's to see, not the executing thread's.
    catch_unwind(AssertUnwindSafe(|| job.run()))
}

/// A fixed set of helper threads and the queue they share with the threads
/// that submit to it.
pub struct Pool<J: Job> {
    shared: Arc<Shared<J>>,
    helpers: Vec<JoinHandle<()>>,
}

impl<J: Job> Pool<J> {
    /// A pool of its own with exactly `helpers` helper threads. Tests pin a
    /// helper count with it; simulations share [`Pool::global`].
    pub fn with_helpers(helpers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                next_id: 0,
                queued: VecDeque::new(),
                finished: BTreeMap::new(),
                abandoned: BTreeSet::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let helpers = (0..helpers)
            .filter_map(|i| {
                let shared = shared.clone();
                // A thread the system refuses is a helper the pool does
                // without: claimants do the work themselves.
                thread::Builder::new()
                    .name(format!("fedco-train-{i}"))
                    .spawn(move || shared.helper_loop())
                    .ok()
            })
            .collect();
        Pool { shared, helpers }
    }

    /// Queues a job and returns the ticket that claims, or discards, it.
    pub fn submit(&self, job: J) -> Ticket<J> {
        let mut state = self.shared.lock();
        let id = state.next_id;
        state.next_id += 1;
        state.queued.push_back((id, job));
        drop(state);
        if !self.helpers.is_empty() {
            self.shared.work.notify_one();
        }
        Ticket {
            id,
            shared: self.shared.clone(),
            claimed: false,
        }
    }
}

impl Pool<EpochTask> {
    /// The process-wide training pool, started on first use with one helper
    /// per CPU beyond the caller's own.
    pub fn global() -> Arc<Self> {
        static GLOBAL: OnceLock<Arc<TrainingPool>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| {
                let cpus = thread::available_parallelism().map_or(1, |n| n.get());
                Arc::new(Pool::with_helpers(cpus - 1))
            })
            .clone()
    }
}

impl<J: Job> Drop for Pool<J> {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        for helper in self.helpers.drain(..) {
            // Jobs are caught, so a helper has nothing to report.
            let _ = helper.join();
        }
    }
}

impl<J: Job> std::fmt::Debug for Pool<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("helpers", &self.helpers.len())
            .finish_non_exhaustive()
    }
}

/// The claim on one submitted job. Dropping it discards the job.
pub struct Ticket<J: Job> {
    id: u64,
    shared: Arc<Shared<J>>,
    claimed: bool,
}

impl<J: Job> Ticket<J> {
    /// The job's output, computed by now or right here.
    ///
    /// Blocks only while a helper is in the middle of this very job and
    /// nothing else is queued. A job that panicked resumes its panic here,
    /// whichever thread it ran on.
    pub fn claim(mut self) -> J::Output {
        self.claimed = true;
        let shared = &*self.shared;
        let result = {
            let mut state = shared.lock();
            loop {
                if let Some(result) = state.finished.remove(&self.id) {
                    break result;
                }
                let own = state.queued.iter().position(|(id, _)| *id == self.id);
                let next = match own {
                    Some(at) => state.queued.remove(at),
                    None => state.queued.pop_front(),
                };
                state = match next {
                    Some((id, job)) if id == self.id => {
                        drop(state);
                        break run_caught(job);
                    }
                    Some((id, job)) => {
                        drop(state);
                        shared.run_for_its_owner(id, job)
                    }
                    None => shared.wait(&shared.done, state),
                };
            }
        };
        result.unwrap_or_else(|panic| resume_unwind(panic))
    }
}

impl<J: Job> std::fmt::Debug for Ticket<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").field("id", &self.id).finish()
    }
}

impl<J: Job> Drop for Ticket<J> {
    fn drop(&mut self) {
        if self.claimed {
            return;
        }
        let mut state = self.shared.lock();
        if let Some(at) = state.queued.iter().position(|(id, _)| *id == self.id) {
            state.queued.remove(at);
        } else if state.finished.remove(&self.id).is_none() {
            state.abandoned.insert(self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientConfig, FlClient};
    use fedco_neural::data::{Dataset, SyntheticCifarConfig};
    use fedco_neural::lenet::LeNetConfig;
    use fedco_neural::tensor::{Tensor, TensorError};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::thread::ThreadId;

    /// Jobs whose interleaving the tests decide: a gate tells the test it
    /// has started and then waits to be released.
    enum TestJob {
        Value(u32),
        Gate {
            started: Sender<()>,
            release: Receiver<()>,
            value: u32,
        },
        /// Releases a gate from inside the job.
        Release(Sender<()>),
        Flag(Arc<AtomicBool>),
        Panic(Sender<()>),
    }

    impl Job for TestJob {
        type Output = (u32, ThreadId);

        fn run(self) -> Self::Output {
            let value = match self {
                TestJob::Value(value) => value,
                TestJob::Gate {
                    started,
                    release,
                    value,
                } => {
                    started.send(()).unwrap();
                    release.recv().unwrap();
                    value
                }
                TestJob::Release(gate) => {
                    gate.send(()).unwrap();
                    0
                }
                TestJob::Flag(flag) => {
                    flag.store(true, Ordering::SeqCst);
                    0
                }
                TestJob::Panic(started) => {
                    started.send(()).unwrap();
                    panic!("the epoch blew up");
                }
            };
            (value, thread::current().id())
        }
    }

    /// A gate job plus the test's ends of its two channels.
    fn gate(value: u32) -> (TestJob, Receiver<()>, Sender<()>) {
        let (started, has_started) = channel();
        let (let_go, release) = channel();
        let job = TestJob::Gate {
            started,
            release,
            value,
        };
        (job, has_started, let_go)
    }

    #[test]
    fn outputs_do_not_depend_on_the_helper_count_or_the_claim_order() {
        for helpers in [0, 1, 4] {
            let pool = Pool::with_helpers(helpers);
            assert_eq!(pool.helpers.len(), helpers);
            let mut tickets: Vec<_> = (0..40).map(|v| pool.submit(TestJob::Value(v))).collect();
            // Claim the odd ones backwards, then the rest forwards.
            let mut got = vec![None; 40];
            for v in (0..40).rev().filter(|v| v % 2 == 1) {
                got[v] = Some(tickets.remove(v).claim().0);
            }
            for (v, ticket) in (0..40).step_by(2).zip(tickets) {
                got[v] = Some(ticket.claim().0);
            }
            assert_eq!(got, (0..40).map(Some).collect::<Vec<_>>());
        }
    }

    #[test]
    fn without_helpers_every_job_runs_on_its_claimant_at_claim_time() {
        let pool = Pool::with_helpers(0);
        let ran = Arc::new(AtomicBool::new(false));
        let flagged = pool.submit(TestJob::Flag(ran.clone()));
        let discarded = Arc::new(AtomicBool::new(false));
        drop(pool.submit(TestJob::Flag(discarded.clone())));
        assert!(!ran.load(Ordering::SeqCst), "nothing runs before its claim");
        assert_eq!(flagged.claim().1, thread::current().id());
        assert!(ran.load(Ordering::SeqCst));
        assert!(!discarded.load(Ordering::SeqCst));
        assert!(pool.shared.lock().queued.is_empty());
    }

    #[test]
    fn a_claimant_whose_job_is_in_flight_works_through_the_queue() {
        let pool = Pool::with_helpers(1);
        let (job, has_started, let_go) = gate(7);
        let in_flight = pool.submit(job);
        has_started.recv().unwrap();
        // The helper is inside the gate, so this one stays queued until the
        // claimant of the gate runs it — which is what opens the gate.
        let queued = pool.submit(TestJob::Release(let_go));
        let (value, ran_on) = in_flight.claim();
        assert_eq!(value, 7);
        assert_ne!(ran_on, thread::current().id());
        assert_eq!(queued.claim().1, thread::current().id());
    }

    #[test]
    fn a_panic_on_a_helper_resumes_at_the_claim_and_the_helper_lives_on() {
        let pool = Pool::with_helpers(1);
        let (started, has_started) = channel();
        let doomed = pool.submit(TestJob::Panic(started));
        // Nobody has claimed it, so only the helper can have started it.
        has_started.recv().unwrap();
        let panic = catch_unwind(AssertUnwindSafe(|| doomed.claim())).unwrap_err();
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"the epoch blew up"));
        // The same helper takes the next job.
        let (job, has_started, let_go) = gate(3);
        let next = pool.submit(job);
        has_started.recv().unwrap();
        let_go.send(()).unwrap();
        assert_eq!(next.claim().0, 3);
        // And a panic in a job the claimant runs itself is the same panic.
        let inline = Pool::with_helpers(0).submit(TestJob::Panic(channel().0));
        assert!(catch_unwind(AssertUnwindSafe(|| inline.claim())).is_err());
    }

    #[test]
    fn dropped_tickets_discard_queued_and_in_flight_jobs() {
        let pool = Pool::with_helpers(1);
        let (job, has_started, let_go) = gate(1);
        let in_flight = pool.submit(job);
        has_started.recv().unwrap();
        let never_ran = Arc::new(AtomicBool::new(false));
        let queued = pool.submit(TestJob::Flag(never_ran.clone()));
        let kept = pool.submit(TestJob::Value(9));
        // Neither drop waits for the helper, which is still inside the gate
        // (it is released only afterwards).
        drop(in_flight);
        drop(queued);
        let_go.send(()).unwrap();
        assert_eq!(kept.claim().0, 9);
        // The helper is unharmed: it takes the next job, and by then it has
        // thrown the abandoned result away.
        let (job, has_started, let_go) = gate(2);
        let next = pool.submit(job);
        has_started.recv().unwrap();
        {
            let state = pool.shared.lock();
            assert!(state.finished.is_empty() && state.abandoned.is_empty());
            assert!(state.queued.is_empty());
        }
        let_go.send(()).unwrap();
        assert_eq!(next.claim().0, 2);
        assert!(!never_ran.load(Ordering::SeqCst));
    }

    #[test]
    fn tickets_outlive_their_pool() {
        let pool = Pool::with_helpers(1);
        let (job, has_started, let_go) = gate(4);
        let in_flight = pool.submit(job);
        has_started.recv().unwrap();
        let queued = pool.submit(TestJob::Value(5));
        let_go.send(()).unwrap();
        // Joins the helper, which finishes the gate first; whatever it has
        // not started by then is left to its claimant.
        drop(pool);
        assert_eq!(in_flight.claim().0, 4);
        assert_eq!(queued.claim().0, 5);
    }

    fn shard(malformed: bool) -> Dataset {
        let arch = LeNetConfig::tiny();
        let data = SyntheticCifarConfig {
            image_size: arch.image_size,
            channels: arch.channels,
            classes: arch.classes,
            examples: 24,
            noise_std: 0.3,
            seed: 11,
        }
        .generate();
        let mut examples = data.examples().to_vec();
        if malformed {
            examples[13].image = Tensor::zeros(&[1, 5, 5]);
        }
        Dataset::new(examples, data.classes())
    }

    #[test]
    fn an_epoch_is_the_same_epoch_wherever_it_runs() {
        let config = ClientConfig {
            batch_size: 8,
            ..ClientConfig::default()
        };
        let mut inline = FlClient::new(1, LeNetConfig::tiny(), shard(false), config);
        let want = inline.local_epoch().unwrap();
        for helpers in [0, 1, 4] {
            let pool = TrainingPool::with_helpers(helpers);
            let mut client = FlClient::new(1, LeNetConfig::tiny(), shard(false), config);
            // More epochs than helpers, all of the same client state: the
            // discarded ones change nothing, whoever ran them.
            let mut tickets: Vec<_> = (0..6).map(|_| pool.submit(client.epoch_task())).collect();
            let outcome = tickets.pop().unwrap().claim().unwrap();
            drop(tickets);
            assert_eq!(client.commit(outcome), want);
            assert_eq!(client.epochs_completed(), 1);
            // A shard that cannot be batched fails at the claim, like the
            // `local_epoch` it replaces, on whichever thread it ran.
            let broken = FlClient::new(2, LeNetConfig::tiny(), shard(true), config);
            let tickets: Vec<_> = (0..3).map(|_| pool.submit(broken.epoch_task())).collect();
            for ticket in tickets {
                assert!(matches!(
                    ticket.claim(),
                    Err(TensorError::ShapeMismatch {
                        op: "dataset_batch",
                        ..
                    })
                ));
            }
        }
    }
}
