//! Deterministic work-stealing scheduler: the selection DP's engine for
//! [`crate::SelectOptions::threads`] > 1 (one worker runs the plain
//! recursion in `crate::dp` instead).
//!
//! A wPST is rarely balanced — one hot function, one deep `ctrl-flow` chain
//! can hold most of the model calls — so the thread budget chases the work
//! as tasks rather than following the tree's shape:
//!
//! 1. **Plan** (caller thread): walk the unpruned wPST once and flatten it
//!    into a task graph. Every `bb` leaf and every `ctrl-flow` vertex's own
//!    `accel(v, R)` call — the model invocations, which dominate the run —
//!    becomes an independent task. Every internal vertex becomes an
//!    [`Inner`] with one *pre-allocated result slot per child* (plus one for
//!    its own `accel` result when it is `ctrl-flow`) and a pending counter.
//!    Pruned children are pre-filled at plan time.
//! 2. **Execute**: tasks are dealt round-robin onto per-worker
//!    `Mutex<VecDeque>` deques. Workers pop from the front of their own
//!    deque and steal from the back of a neighbour's when theirs drains;
//!    since the plan seeds every task up front and execution never enqueues
//!    new ones, a worker can exit as soon as all deques are empty.
//! 3. **Combine**: delivering a result into the last empty slot of an
//!    `Inner` makes its owner run `Engine::fold` — the one child-order
//!    fold the sequential DP also runs — over the slots, and cascade the
//!    folded front into the parent's slot, iteratively up the tree (no
//!    recursion, so deep `ctrl-flow` chains cannot overflow the stack).
//!
//! Determinism does not depend on the steal interleaving: each slot value is
//! a pure function of its subtree, the fold consumes slots in child order,
//! and `visited`/`pruned` are counted once during the single-threaded plan.
//! The resulting Pareto front is therefore bit-identical to the sequential
//! run for every thread count — the float summation order inside `combine`
//! never changes.

use crate::dp::Engine;
use crate::pareto::{filter, pareto, Solution};
use crate::stats::{thread_cpu_nanos, AtomicStats};
use cayman_analysis::wpst::WpstNodeId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The engine that runs the DP when [`crate::SelectOptions::threads`] > 1.
/// Work stealing is the only one; the type is retained for callers that
/// name it in [`crate::SelectOptions::sched`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedKind {
    /// Work-stealing task scheduler (this module): model calls become tasks
    /// on per-worker deques, idle workers steal, results land in
    /// child-order slots.
    #[default]
    WorkSteal,
}

impl SchedKind {
    /// Stable label for stats and bench output.
    pub fn label(self) -> &'static str {
        match self {
            SchedKind::WorkSteal => "steal",
        }
    }
}

/// Destination of a task result: an [`Inner`] index and a slot within it.
type Dest = (u32, u32);

/// An internal (non-`bb`, unpruned) wPST vertex awaiting its inputs.
struct Inner {
    /// Where this vertex's folded front goes; `None` for the root.
    parent: Option<Dest>,
    /// `ctrl-flow` vertices carry one extra trailing slot for their own
    /// `accel(v, R)` result, handed to `Engine::fold` as its `own` designs.
    ctrl: bool,
    /// One result per child, in child order (plus the `ctrl` slot). Pruned
    /// children are pre-filled at plan time.
    slots: Mutex<Vec<Option<Vec<Solution>>>>,
    /// Undelivered slots. The worker that delivers the last one folds.
    pending: AtomicUsize,
}

/// A unit of schedulable work. All tasks are seeded before workers start;
/// running a task never enqueues another (folds cascade inline), which is
/// what makes "exit when every deque is empty" a sound termination rule.
enum Task {
    /// A `bb` leaf: `F[v] = filter(pareto(accel(v, R)))` into `dest`.
    Bb { v: WpstNodeId, dest: Dest },
    /// A `ctrl-flow` vertex's own `accel(v, R)`, delivered raw into its
    /// trailing slot (the fold applies `pareto`/`filter` after extending).
    Accel { v: WpstNodeId, dest: Dest },
    /// An internal vertex whose slots were all pre-filled at plan time
    /// (every child pruned, or no children): just run its fold.
    Ready { inner: u32 },
}

impl Task {
    /// Trace span name for executing this task.
    fn trace_name(&self) -> &'static str {
        match self {
            Task::Bb { .. } => "select.task.bb",
            Task::Accel { .. } => "select.task.accel",
            Task::Ready { .. } => "select.task.fold",
        }
    }
}

/// Runs the DP over the whole wPST on `threads` work-stealing workers.
/// Called with `threads >= 2`; the sequential path stays in `Engine::dp`.
pub(crate) fn run_work_stealing(engine: &Engine<'_>, threads: usize) -> Vec<Solution> {
    let root = engine.wpst.root();
    // A pruned root, or (on an arbitrary tree) a bb root, needs no tasks.
    if let Some(f) = engine.leaf_front(root) {
        return f;
    }
    let (inners, tasks) = plan(engine, root);

    let workers = threads.min(tasks.len()).max(1);
    let queues: Vec<Mutex<VecDeque<Task>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, task) in tasks.into_iter().enumerate() {
        queues[i % workers]
            .lock()
            .expect("sched queue poisoned")
            .push_back(task);
    }

    let sched = Sched {
        engine,
        inners,
        queues,
        result: Mutex::new(None),
    };
    std::thread::scope(|scope| {
        for w in 0..workers {
            let sched = &sched;
            scope.spawn(move || sched.worker(w));
        }
    });
    sched
        .result
        .into_inner()
        .expect("sched result poisoned")
        .expect("root fold completed")
}

/// Flattens the unpruned wPST below an internal `root` (already counted as
/// visited) into the task graph. Single-threaded, so the `visited`/`pruned`
/// counts it records are identical to the sequential run's regardless of
/// how execution later interleaves.
fn plan(engine: &Engine<'_>, root: WpstNodeId) -> (Vec<Inner>, Vec<Task>) {
    let mut inners: Vec<Inner> = Vec::new();
    let mut tasks: Vec<Task> = Vec::new();
    // (vertex, destination of its folded front); vertices on the stack are
    // unpruned internal vertices, already counted as visited.
    let mut stack: Vec<(WpstNodeId, Option<Dest>)> = vec![(root, None)];
    while let Some((v, parent)) = stack.pop() {
        let idx = inners.len() as u32;
        let children = &engine.wpst.node(v).children;
        let ctrl = engine.wpst.is_ctrl_flow(v);
        let mut slots: Vec<Option<Vec<Solution>>> = vec![None; children.len() + usize::from(ctrl)];
        let mut pending = 0usize;
        for (i, &u) in children.iter().enumerate() {
            let dest = (idx, i as u32);
            if engine.profile.share(u) < engine.opts.prune_share {
                AtomicStats::add_usize(&engine.stats.pruned, 1);
                slots[i] = Some(vec![Solution::empty()]);
            } else if engine.wpst.is_bb(u) {
                AtomicStats::add_usize(&engine.stats.visited, 1);
                tasks.push(Task::Bb { v: u, dest });
                pending += 1;
            } else {
                AtomicStats::add_usize(&engine.stats.visited, 1);
                stack.push((u, Some(dest)));
                pending += 1;
            }
        }
        if ctrl {
            tasks.push(Task::Accel {
                v,
                dest: (idx, children.len() as u32),
            });
            pending += 1;
        }
        if pending == 0 {
            tasks.push(Task::Ready { inner: idx });
        }
        inners.push(Inner {
            parent,
            ctrl,
            slots: Mutex::new(slots),
            pending: AtomicUsize::new(pending),
        });
    }
    (inners, tasks)
}

struct Sched<'e, 'a> {
    engine: &'e Engine<'a>,
    inners: Vec<Inner>,
    queues: Vec<Mutex<VecDeque<Task>>>,
    result: Mutex<Option<Vec<Solution>>>,
}

impl Sched<'_, '_> {
    fn worker(&self, w: usize) {
        // Name this thread's trace lane so every worker shows up as its own
        // row in chrome://tracing.
        cayman_obs::lane(|| format!("select.worker.{w}"));
        let cpu0 = thread_cpu_nanos();
        let mut t0 = cpu0;
        while let Some(task) = self.pop(w) {
            let span = cayman_obs::span!(task.trace_name());
            self.run_task(task);
            drop(span);
            // Per-task CPU time (including any fold cascade the task
            // triggered): the indivisible-work floor of the makespan model.
            let t1 = thread_cpu_nanos();
            self.engine.stats.record_task_nanos(t1.saturating_sub(t0));
            t0 = t1;
        }
        self.engine
            .stats
            .record_worker_busy(thread_cpu_nanos().saturating_sub(cpu0));
    }

    /// Pops from the front of the worker's own deque, or steals from the
    /// back of the first non-empty neighbour. `None` means every deque is
    /// empty — terminal, because execution never enqueues tasks.
    fn pop(&self, w: usize) -> Option<Task> {
        if let Some(task) = self.queues[w]
            .lock()
            .expect("sched queue poisoned")
            .pop_front()
        {
            return Some(task);
        }
        let n = self.queues.len();
        for k in 1..n {
            let victim = (w + k) % n;
            if let Some(task) = self.queues[victim]
                .lock()
                .expect("sched queue poisoned")
                .pop_back()
            {
                cayman_obs::instant_with("select.steal", || {
                    vec![("victim", cayman_obs::ArgValue::from(victim))]
                });
                return Some(task);
            }
        }
        None
    }

    fn run_task(&self, task: Task) {
        match task {
            Task::Bb { v, dest } => {
                let front = filter(pareto(self.engine.accel(v)), self.engine.opts.alpha);
                self.deliver(dest, front);
            }
            Task::Accel { v, dest } => {
                let designs = self.engine.accel(v);
                self.deliver(dest, designs);
            }
            Task::Ready { inner } => self.finish(inner),
        }
    }

    /// Writes a task result into its slot; the worker that fills the last
    /// slot of an [`Inner`] owns its fold.
    fn deliver(&self, (inner, slot): Dest, front: Vec<Solution>) {
        let node = &self.inners[inner as usize];
        node.slots.lock().expect("sched slots poisoned")[slot as usize] = Some(front);
        if node.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.finish(inner);
        }
    }

    /// Folds a completed vertex and cascades the result upward: each fold
    /// that completes its parent continues with the parent, iteratively, so
    /// a deep chain of `ctrl-flow` vertices folds in one loop instead of a
    /// recursion as deep as the tree.
    fn finish(&self, mut inner: u32) {
        loop {
            let node = &self.inners[inner as usize];
            let front = self.fold(node);
            match node.parent {
                None => {
                    *self.result.lock().expect("sched result poisoned") = Some(front);
                    return;
                }
                Some((p, slot)) => {
                    let parent = &self.inners[p as usize];
                    parent.slots.lock().expect("sched slots poisoned")[slot as usize] = Some(front);
                    if parent.pending.fetch_sub(1, Ordering::AcqRel) != 1 {
                        return;
                    }
                    inner = p;
                }
            }
        }
    }

    /// Runs `Engine::fold` over a completed vertex's slots: the child
    /// fronts in child order, then the trailing `accel` slot of a
    /// `ctrl-flow` vertex as its own designs.
    fn fold(&self, node: &Inner) -> Vec<Solution> {
        let mut slots = std::mem::take(&mut *node.slots.lock().expect("sched slots poisoned"));
        let own = if node.ctrl {
            Some(slots.pop().flatten().expect("accel slot delivered"))
        } else {
            None
        };
        self.engine.fold(
            slots
                .iter()
                .map(|fu| fu.as_deref().expect("child front delivered")),
            own,
        )
    }
}
