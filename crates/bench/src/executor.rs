//! The one executor every front end runs grid cells on.
//!
//! `rvp-grid` hands it its prewarm tasks and cells, the `rvp-serve`
//! daemon its cache misses; it owns the scheduling policy both share:
//!
//! * **named worker threads**, spawned here and nowhere else;
//! * **one priority queue ordered by estimated cost**, longest first
//!   and FIFO among equal costs: on a pool the makespan is set by
//!   whatever still runs at the end, so the expensive cells start
//!   first, and a sweep with no timing history runs in submission order;
//! * **one root [`CancelToken`]**: every flight's token is its child,
//!   so firing the root squashes everything queued or running;
//! * **one single-flight table** keyed by the cell fingerprint. A submit
//!   for a key already in flight subscribes to that flight instead of
//!   queueing its work again. When the last subscriber detaches, the
//!   flight's token fires and the flight leaves the table at once, so a
//!   later submit of the key starts fresh work rather than riding the
//!   squashed one.
//!
//! The work is a closure, so tests substitute a fake. Its outcome, with
//! the subscribers its flight still has, goes to the one completion
//! handler the front end installed, on the worker that ran it:
//! persistence (the grid's exported cell files, the daemon's job slots
//! and journal, and what each puts in its cell store) stays with the
//! front end. The [`CostModel`]
//! the front ends estimate costs with lives here too.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use rvp_core::{log, CancelToken};

/// Per-label cell cost, learned as seconds per committed instruction of
/// the cell's budget, so one label's timing scales to any budget.
#[derive(Debug, Default)]
pub struct CostModel {
    rates: Mutex<HashMap<String, f64>>,
}

impl CostModel {
    /// Folds one measured run of `label` at `budget` instructions into
    /// its rate, an EWMA whose first observation is taken as is.
    pub fn observe(&self, label: &str, budget: u64, seconds: f64) {
        let rate = seconds / budget.max(1) as f64;
        let mut rates = self.rates.lock().expect("cost model lock poisoned");
        let ewma = rates.entry(label.to_owned()).or_insert(rate);
        *ewma = 0.5 * *ewma + 0.5 * rate;
    }

    /// Estimated seconds for `label` at `budget` instructions: its own
    /// rate, else the mean observed rate, times the budget; uniform
    /// when nothing has been observed.
    pub fn estimate(&self, label: &str, budget: u64) -> f64 {
        let rates = self.rates.lock().expect("cost model lock poisoned");
        let rate = match rates.get(label) {
            Some(&rate) => rate,
            None if rates.is_empty() => return 1.0,
            None => rates.values().sum::<f64>() / rates.len() as f64,
        };
        rate * budget as f64
    }

    /// Whether `label` has been observed.
    pub fn knows(&self, label: &str) -> bool {
        self.rates.lock().expect("cost model lock poisoned").contains_key(label)
    }
}

type Work<T> = Box<dyn FnOnce(&CancelToken) -> T + Send>;

struct Task<T> {
    cost: f64,
    key: u64,
    /// The flight's token, which also identifies the flight: a key's
    /// table entry may by now be a later flight.
    token: CancelToken,
    work: Work<T>,
}

struct Flight<S> {
    token: CancelToken,
    subscribers: Vec<S>,
}

struct State<T, S> {
    /// Ascending cost; among equal costs the latest submission sits
    /// first. Workers pop the back.
    queue: Vec<Task<T>>,
    flights: HashMap<u64, Flight<S>>,
    running: usize,
    stop: bool,
}

struct Shared<T, S> {
    state: Mutex<State<T, S>>,
    /// Wakes idle workers (new work, stop) and [`Executor::wait_idle`]
    /// (the pool went idle).
    cv: Condvar,
    root: CancelToken,
    costs: CostModel,
    on_done: Box<dyn Fn(T, Vec<S>) + Send + Sync>,
}

impl<T, S> Shared<T, S> {
    fn lock(&self) -> MutexGuard<'_, State<T, S>> {
        self.state.lock().expect("executor lock poisoned")
    }
}

/// A longest-job-first worker pool with single-flight, generic over the
/// work's outcome `T` and the subscriber type `S`.
pub struct Executor<T, S> {
    shared: Arc<Shared<T, S>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<T: 'static, S: Send + 'static> Executor<T, S> {
    /// Spawns `workers` (at least one) threads named `<name>-<i>`, with
    /// `costs`, empty or seeded, as the executor's cost model. Each
    /// finished task's outcome goes to `on_done` with the subscribers
    /// its flight still had (none when they all detached), on the
    /// worker that ran it.
    pub fn new(
        name: &str,
        workers: usize,
        costs: CostModel,
        on_done: impl Fn(T, Vec<S>) + Send + Sync + 'static,
    ) -> Executor<T, S> {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: Vec::new(),
                flights: HashMap::new(),
                running: 0,
                stop: false,
            }),
            cv: Condvar::new(),
            root: CancelToken::new(),
            costs,
            on_done: Box::new(on_done),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || work_loop(&shared))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor { shared, workers: Mutex::new(workers) }
    }
}

impl<T, S> Executor<T, S> {
    /// The token every flight's token is a child of.
    pub fn root(&self) -> &CancelToken {
        &self.shared.root
    }

    /// The cost model task costs are estimated with.
    pub fn costs(&self) -> &CostModel {
        &self.shared.costs
    }

    /// Submits `(key, cost, subscriber, work)` tasks as one batch, so no
    /// worker starts one before the costlier ones behind it are queued.
    /// Each subscriber joins the flight for its key, which queues its
    /// `work` at `cost` if no flight is in the table (otherwise the work
    /// is dropped unrun). Returns, per task, the flight's token and
    /// whether this submit started the flight.
    pub fn submit<W>(
        &self,
        tasks: impl IntoIterator<Item = (u64, f64, S, W)>,
    ) -> Vec<(CancelToken, bool)>
    where
        W: FnOnce(&CancelToken) -> T + Send + 'static,
    {
        let mut state = self.shared.lock();
        let joined = tasks
            .into_iter()
            .map(|(key, cost, subscriber, work)| {
                if let Some(flight) = state.flights.get_mut(&key) {
                    flight.subscribers.push(subscriber);
                    return (flight.token.clone(), false);
                }
                let token = self.shared.root.child();
                let flight = Flight { token: token.clone(), subscribers: vec![subscriber] };
                state.flights.insert(key, flight);
                let at = state.queue.partition_point(|t| t.cost.total_cmp(&cost).is_lt());
                let task = Task { cost, key, token: token.clone(), work: Box::new(work) };
                state.queue.insert(at, task);
                (token, true)
            })
            .collect();
        drop(state);
        self.shared.cv.notify_all();
        joined
    }

    /// Removes the subscribers of `key`'s flight that `unsubscribe`
    /// picks. If none remain, the flight's token fires with `why` and
    /// the flight leaves the table: its work squashes and reports to no
    /// one, and the next submit of `key` starts afresh.
    pub fn detach(&self, key: u64, why: &str, mut unsubscribe: impl FnMut(&S) -> bool) {
        let mut state = self.shared.lock();
        let Some(flight) = state.flights.get_mut(&key) else { return };
        flight.subscribers.retain(|s| !unsubscribe(s));
        if flight.subscribers.is_empty() {
            flight.token.cancel(why);
            state.flights.remove(&key);
        }
    }

    /// Blocks until nothing is queued or running (never returns if the
    /// executor stopped with work still queued).
    pub fn wait_idle(&self) {
        let mut state = self.shared.lock();
        while !state.queue.is_empty() || state.running > 0 {
            state = self.shared.cv.wait(state).expect("executor lock poisoned");
        }
    }

    /// Tells the workers to exit once their current task is done;
    /// queued tasks are not started. Does not wait.
    pub fn stop(&self) {
        self.shared.lock().stop = true;
        self.shared.cv.notify_all();
    }

    /// [`Executor::stop`], then joins every worker thread and drops the
    /// tasks left in the queue. Idempotent.
    pub fn shutdown(&self) {
        self.stop();
        let workers = std::mem::take(&mut *self.workers.lock().expect("worker list poisoned"));
        for worker in workers {
            let _ = worker.join();
        }
        drop(std::mem::take(&mut self.shared.lock().queue));
    }
}

impl<T, S> Drop for Executor<T, S> {
    /// Stops the workers without joining them: the last owner may be
    /// one of them, inside a completion.
    fn drop(&mut self) {
        if let Ok(mut state) = self.shared.state.lock() {
            state.stop = true;
        }
        self.shared.cv.notify_all();
    }
}

fn work_loop<T, S>(shared: &Shared<T, S>) {
    loop {
        let task = {
            let mut state = shared.lock();
            loop {
                if state.stop {
                    return;
                }
                if let Some(task) = state.queue.pop() {
                    state.running += 1;
                    break task;
                }
                state = shared.cv.wait(state).expect("executor lock poisoned");
            }
        };
        let Task { key, token, work, .. } = task;
        // Front ends contain their own failures; a panic that escapes
        // them must still free the key and not wedge `wait_idle`.
        let outcome = catch_unwind(AssertUnwindSafe(|| work(&token)));
        let mut state = shared.lock();
        let ours = state.flights.get(&key).is_some_and(|f| f.token.same_token(&token));
        let subscribers = if ours { state.flights.remove(&key) } else { None };
        drop(state);
        let subscribers = subscribers.map(|f| f.subscribers).unwrap_or_default();
        let done = outcome
            .and_then(|o| catch_unwind(AssertUnwindSafe(|| (shared.on_done)(o, subscribers))));
        if done.is_err() {
            log::warn("executor", "task panicked outside its containment", &[("key", key.into())]);
        }
        let mut state = shared.lock();
        state.running -= 1;
        if state.running == 0 && state.queue.is_empty() {
            shared.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// Where a test executor's completions land, as
    /// `(outcome, subscribers)`.
    type Completions<S> = mpsc::Receiver<(u64, Vec<S>)>;

    /// An executor of fake work whose completions land on a channel.
    fn executor<S: Send + 'static>(
        name: &str,
        workers: usize,
    ) -> (Executor<u64, S>, Completions<S>) {
        let (tx, rx) = mpsc::channel();
        let tx = Mutex::new(tx);
        let exec =
            Executor::new(name, workers, CostModel::default(), move |outcome, subscribers| {
                let _ = tx.lock().unwrap().send((outcome, subscribers));
            });
        (exec, rx)
    }

    fn recv<T>(rx: &mpsc::Receiver<T>) -> T {
        rx.recv_timeout(Duration::from_secs(10)).expect("a completion within 10s")
    }

    const GATE: u64 = u64::MAX;

    /// Occupies a worker with fake work under key [`GATE`] until the
    /// returned sender fires; it reports [`GATE`].
    fn block_worker<S: Send + 'static>(exec: &Executor<u64, S>, subscriber: S) -> mpsc::Sender<()> {
        let (open, gate) = mpsc::channel();
        let (started, running) = mpsc::channel();
        exec.submit([(GATE, f64::MAX, subscriber, move |_: &CancelToken| {
            started.send(()).unwrap();
            let _ = gate.recv();
            GATE
        })]);
        recv(&running);
        open
    }

    /// Fake work that counts its runs and reports whether its token had
    /// fired (1) or not (0).
    fn squashable(runs: &Arc<AtomicUsize>) -> impl FnOnce(&CancelToken) -> u64 + Send + 'static {
        let runs = Arc::clone(runs);
        move |token| {
            runs.fetch_add(1, Ordering::SeqCst);
            u64::from(token.is_cancelled())
        }
    }

    #[test]
    fn costliest_first_with_fifo_ties() {
        let (exec, rx) = executor("xt-order", 1);
        let open = block_worker(&exec, ());
        exec.submit(
            [(1, 1.0), (2, 3.0), (3, 2.0), (4, 3.0)]
                .map(|(key, cost)| (key, cost, (), move |_: &CancelToken| key)),
        );
        open.send(()).unwrap();
        let order: Vec<u64> = (0..5).map(|_| recv(&rx).0).collect();
        assert_eq!(order, [GATE, 2, 4, 3, 1], "costs 3, 3, 2, 1 with ties in submit order");
        exec.shutdown();
    }

    #[test]
    fn subscribers_to_one_key_share_one_run() {
        let (exec, rx) = executor("xt-share", 1);
        let open = block_worker(&exec, "gate");
        let runs = Arc::new(AtomicUsize::new(0));
        let first = exec.submit([(9, 1.0, "a", squashable(&runs))]);
        let second = exec.submit([(9, 1.0, "b", squashable(&runs))]);
        assert!(first[0].1, "the first submit starts the flight");
        assert!(!second[0].1, "a second submit of the key joins it");
        assert!(first[0].0.same_token(&second[0].0));
        open.send(()).unwrap();
        assert_eq!(recv(&rx), (GATE, vec!["gate"]));
        assert_eq!(recv(&rx), (0, vec!["a", "b"]), "both subscribers get the one outcome");
        exec.wait_idle();
        assert_eq!(runs.load(Ordering::SeqCst), 1, "the work ran once");
        exec.shutdown();
    }

    #[test]
    fn last_detach_fires_the_token_and_frees_the_key() {
        let (exec, rx) = executor("xt-detach", 1);
        let open = block_worker(&exec, 0);
        let runs = Arc::new(AtomicUsize::new(0));
        let token = exec.submit([(5, 1.0, 1, squashable(&runs))]).remove(0).0;
        exec.submit([(5, 1.0, 2, squashable(&runs))]);

        exec.detach(5, "one sharer left", |&s| s == 1);
        assert!(!token.is_cancelled(), "a remaining subscriber keeps the flight alive");
        exec.detach(5, "last sharer left", |&s| s == 2);
        assert!(token.is_cancelled(), "the last detach fires the flight's token");
        assert_eq!(token.detail().as_deref(), Some("last sharer left"));

        let (fresh_token, fresh) = exec.submit([(5, 1.0, 3, squashable(&runs))]).remove(0);
        assert!(fresh, "a submit after the last detach starts a new flight");
        assert!(!fresh_token.is_cancelled());

        open.send(()).unwrap();
        assert_eq!(recv(&rx), (GATE, vec![0]));
        assert_eq!(recv(&rx), (1, vec![]), "the squashed flight runs squashed, for no one");
        assert_eq!(recv(&rx), (0, vec![3]), "the fresh flight runs unsquashed for its subscriber");
        exec.shutdown();
    }

    /// Names of this process's threads (`/proc/self/task/*/comm`);
    /// `None` where the proc filesystem is unavailable.
    fn thread_names() -> Option<Vec<String>> {
        let tasks = std::fs::read_dir("/proc/self/task").ok()?;
        Some(
            tasks
                .filter_map(Result::ok)
                .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
                .map(|name| name.trim().to_owned())
                .collect(),
        )
    }

    #[test]
    fn firing_the_root_squashes_everything_and_shutdown_joins() {
        let (exec, rx) = executor("xt-root", 2);
        let (started, running) = mpsc::channel();
        exec.submit((0..4).map(|key| {
            let started = started.clone();
            (key, 1.0, (), move |token: &CancelToken| {
                let _ = started.send(());
                while !token.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                1
            })
        }));
        recv(&running);
        recv(&running);
        exec.root().cancel("test over");
        for _ in 0..4 {
            assert_eq!(recv(&rx).0, 1, "running and queued tasks both see the fired root");
        }
        let workers = |names: &[String]| names.iter().filter(|n| n.starts_with("xt-root")).count();
        if let Some(names) = thread_names() {
            assert_eq!(workers(&names), 2, "{names:?}");
        }
        exec.shutdown();
        if let Some(names) = thread_names() {
            assert_eq!(workers(&names), 0, "worker threads outlived shutdown: {names:?}");
        }
    }

    #[test]
    fn cost_estimates_scale_with_the_budget() {
        let costs = CostModel::default();
        assert_eq!(costs.estimate("li/no_predict", 4_000), 1.0, "uniform with no history");
        costs.observe("li/no_predict", 20_000_000, 2.0);
        let per_inst = 2.0 / 20_000_000.0;
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs().max(1.0);
        assert!(close(costs.estimate("li/no_predict", 4_000), per_inst * 4_000.0));
        assert!(close(costs.estimate("li/no_predict", 20_000_000), 2.0));
        costs.observe("go/lvp", 1_000, 3e-3);
        let mean = (per_inst + 3e-6) / 2.0;
        assert!(
            close(costs.estimate("m88ksim/drvp", 10_000), mean * 10_000.0),
            "unknown: mean rate"
        );
        assert!(costs.knows("go/lvp") && !costs.knows("m88ksim/drvp"));
    }
}
