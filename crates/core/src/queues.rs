//! Queue dynamics of the Lyapunov formulation.
//!
//! Two queues drive the online controller:
//!
//! * the *task queue* `Q(t)` (Definition 3, Eq. 15) — the number of users
//!   waiting to be scheduled; arrivals are users becoming ready to train,
//!   services are users whose training is scheduled;
//! * the *virtual queue* `H(t)` (Eq. 16) — the accumulated excess of the sum
//!   of gradient gaps over the staleness bound `L_b`, which turns the
//!   time-averaged constraint (14) into a queue-stability requirement.

/// The task queue `Q(t)` of Definition 3.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TaskQueue {
    backlog: f64,
}

impl TaskQueue {
    /// Creates an empty queue (`Q(0) = 0`).
    pub fn new() -> Self {
        TaskQueue { backlog: 0.0 }
    }

    /// Current backlog `Q(t)`.
    pub fn backlog(&self) -> f64 {
        self.backlog
    }

    /// Applies one slot of dynamics (Eq. 15):
    /// `Q(t+1) = max(Q(t) − b(t), 0) + A(t)` where `A(t)` users arrived and
    /// `b(t)` users were scheduled this slot. Returns the new backlog.
    pub fn step(&mut self, arrivals: f64, services: f64) -> f64 {
        let arrivals = arrivals.max(0.0);
        let services = services.max(0.0);
        self.backlog = (self.backlog - services).max(0.0) + arrivals;
        self.backlog
    }
}

/// The virtual staleness queue `H(t)` of Eq. (16).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VirtualQueue {
    backlog: f64,
}

impl VirtualQueue {
    /// Creates an empty queue (`H(0) = 0`).
    pub fn new() -> Self {
        VirtualQueue { backlog: 0.0 }
    }

    /// Current backlog `H(t)`.
    pub fn backlog(&self) -> f64 {
        self.backlog
    }

    /// Applies one slot of dynamics (Eq. 16):
    /// `H(t+1) = max(H(t) + Σ_i g_i(t, t+τ) − L_b, 0)`.
    /// Returns the new backlog.
    pub fn step(&mut self, gap_sum: f64, staleness_bound: f64) -> f64 {
        self.backlog = (self.backlog + gap_sum.max(0.0) - staleness_bound.max(0.0)).max(0.0);
        self.backlog
    }
}

/// The concatenated queue state `Θ(t) = [Q(t), H(t)]` with its Lyapunov
/// function `L(Θ) = ½(Q² + H²)` (Eq. 17).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueueState {
    /// The task queue.
    pub task: TaskQueue,
    /// The virtual staleness queue.
    pub staleness: VirtualQueue,
}

impl QueueState {
    /// Creates empty queues.
    pub fn new() -> Self {
        QueueState {
            task: TaskQueue::new(),
            staleness: VirtualQueue::new(),
        }
    }

    /// The Lyapunov function `L(Θ(t)) = ½(Q(t)² + H(t)²)`.
    pub fn lyapunov(&self) -> f64 {
        0.5 * (self.task.backlog().powi(2) + self.staleness.backlog().powi(2))
    }

    /// Advances both queues one slot and returns the new `(Q, H)`.
    pub fn step(
        &mut self,
        arrivals: f64,
        services: f64,
        gap_sum: f64,
        staleness_bound: f64,
    ) -> (f64, f64) {
        (
            self.task.step(arrivals, services),
            self.staleness.step(gap_sum, staleness_bound),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_queue_follows_eq_15() {
        let mut q = TaskQueue::new();
        assert_eq!(q.backlog(), 0.0);
        q.step(3.0, 0.0);
        assert_eq!(q.backlog(), 3.0);
        q.step(1.0, 2.0);
        assert_eq!(q.backlog(), 2.0);
        // Service in excess of backlog clamps at zero before arrivals.
        q.step(5.0, 100.0);
        assert_eq!(q.backlog(), 5.0);
    }

    #[test]
    fn task_queue_never_negative() {
        let mut q = TaskQueue::new();
        for i in 0..100 {
            q.step((i % 3) as f64, ((i + 1) % 4) as f64);
            assert!(q.backlog() >= 0.0);
        }
        // Negative inputs are treated as zero.
        q.step(-5.0, -5.0);
        assert!(q.backlog() >= 0.0);
    }

    #[test]
    fn virtual_queue_follows_eq_16() {
        let mut h = VirtualQueue::new();
        h.step(150.0, 100.0);
        assert_eq!(h.backlog(), 50.0);
        h.step(40.0, 100.0);
        assert_eq!(h.backlog(), 0.0);
        h.step(500.0, 100.0);
        assert_eq!(h.backlog(), 400.0);
    }

    #[test]
    fn virtual_queue_stays_zero_while_gap_below_bound() {
        let mut h = VirtualQueue::new();
        for _ in 0..100 {
            h.step(50.0, 100.0);
            assert_eq!(h.backlog(), 0.0);
        }
    }

    #[test]
    fn lyapunov_function() {
        let mut s = QueueState::new();
        assert_eq!(s.lyapunov(), 0.0);
        s.step(3.0, 0.0, 200.0, 100.0);
        // Q = 3, H = 100 -> L = 0.5*(9 + 10000)
        assert!((s.lyapunov() - 0.5 * (9.0 + 10_000.0)).abs() < 1e-9);
    }
}
