//! Reverse-mode automatic differentiation on a dynamically built tape.
//!
//! A [`Tensor`] is a shared node of a computation DAG. Operations (see the
//! `ops` module) create new nodes holding the forward value, the parent
//! edges, and a backward closure with the analytically derived adjoint.
//! Calling [`Tensor::backward`] on a scalar loss topologically sorts the
//! reachable subgraph and accumulates gradients into every node that
//! requires them.
//!
//! Design notes:
//! * The graph only ever points from an op's output to its inputs, so it is
//!   acyclic by construction and reference counting frees the tape as soon
//!   as the loss tensor is dropped.
//! * Nodes whose inputs all have `needs_grad == false` are folded into
//!   constants at construction time, so inference with
//!   [`no_grad`] builds no tape at all.
//!
//! ## Locking discipline: immutable values, one mutable cell
//!
//! A node is split into two halves with very different mutability:
//!
//! * **Forward value** — an immutable `Arc<Matrix>` fixed at construction
//!   for every op output and constant. Reading it ([`Tensor::value_ref`])
//!   is a plain pointer dereference: no lock, no atomic, no guard. This is
//!   the entire hot path of [`no_grad`] inference, so meta-test workers
//!   and serving threads sharing one trained model pay zero
//!   synchronisation per op. Leaf parameters are the one exception: the
//!   optimiser must update them through shared handles, so their live
//!   value sits in a swappable slot (`RwLock<Arc<Matrix>>`) that readers
//!   lock only long enough to clone the inner `Arc` out — the guard never
//!   outlives `value_ref` itself, and the handful of parameter reads per
//!   layer are the only locked reads in a forward pass.
//! * **Tape cell** — gradient state and tape metadata (the grad
//!   accumulator behind a `Mutex`, plus the immutable parent edges and
//!   backward closure) live in a separate `Arc<TapeNode>` that only
//!   `backward` and the optimiser touch. Constants carry no cell at all:
//!   `needs_grad` is simply "does a cell exist", checked without any
//!   synchronisation.
//!
//! `Tensor` is `Send + Sync`: training mutates leaf slots from a single
//! thread while parallel inference under [`no_grad`] reads immutable
//! values, so the remaining locks are uncontended in practice and never
//! held across kernels.

use std::collections::HashSet;
use std::ops::Deref;
use std::sync::{Arc, Mutex, RwLock};

use crate::matrix::Matrix;

thread_local! {
    static GRAD_ENABLED: std::cell::Cell<bool> = const { std::cell::Cell::new(true) };
}

/// Runs `f` with tape construction disabled: any op executed inside produces
/// constant tensors, which makes pure inference allocation-light.
pub fn no_grad<R>(f: impl FnOnce() -> R) -> R {
    with_grad_enabled(false, f)
}

/// Runs `f` with tape construction switched on or off **on this thread**.
/// The flag is thread-local, so work handed to another thread does not
/// inherit it — and the thread that picks a pool job up may be anyone's:
/// a worker, or the owner of an unrelated parallel section helping out
/// from inside its own [`no_grad`]. A fan-out whose jobs build tensors
/// therefore runs each under the setting its spawner had
/// ([`grad_enabled`]), either way (`cgnp_core::par::par_map` does).
///
/// The previous state is restored even if `f` panics: pool worker threads
/// outlive caught job panics, so a leaked flag would silently switch tape
/// recording for every later job on that worker.
pub fn with_grad_enabled<R>(enabled: bool, f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            GRAD_ENABLED.with(|g| g.set(self.0));
        }
    }
    let _restore = Restore(GRAD_ENABLED.with(|g| g.replace(enabled)));
    f()
}

/// True when ops currently record backward closures.
pub fn grad_enabled() -> bool {
    GRAD_ENABLED.with(|g| g.get())
}

pub(crate) type BackwardFn = Box<dyn Fn(&Matrix, &[Tensor]) + Send + Sync>;

/// Where a tensor's forward value lives.
#[derive(Clone)]
enum Storage {
    /// Immutable value fixed at construction (constants and op outputs).
    /// Reads are a plain dereference.
    Fixed(Arc<Matrix>),
    /// Swappable slot of a leaf parameter: optimisers replace the inner
    /// `Arc` through shared handles. The lock is held only to clone the
    /// `Arc` in or out, never across a kernel.
    Leaf(Arc<RwLock<Arc<Matrix>>>),
}

/// Tape half of a node: present exactly when gradients flow through it.
/// Parent edges and the backward closure are immutable after construction
/// (the tape topology never changes); only the gradient accumulator
/// mutates, behind its own mutex.
struct TapeNode {
    /// Leaf parameters that the optimiser updates.
    requires_grad: bool,
    parents: Vec<Tensor>,
    backward: Option<BackwardFn>,
    grad: Mutex<Option<Matrix>>,
}

/// A node in the autodiff graph. Cloning is cheap (reference-counted),
/// and clones may cross threads: see the module docs for the value/tape
/// split that keeps forward reads lock-free.
#[derive(Clone)]
pub struct Tensor {
    storage: Storage,
    tape: Option<Arc<TapeNode>>,
}

/// Shared borrow of a tensor's forward value. For constants and op
/// outputs this is a plain borrow; for leaf parameters it owns a cheap
/// `Arc` snapshot of the current value (no lock is held after
/// [`Tensor::value_ref`] returns, so it can never deadlock or block
/// writers while alive).
pub struct ValueRef<'a> {
    inner: ValueRefInner<'a>,
}

enum ValueRefInner<'a> {
    Borrowed(&'a Matrix),
    Owned(Arc<Matrix>),
}

impl Deref for ValueRef<'_> {
    type Target = Matrix;

    fn deref(&self) -> &Matrix {
        match &self.inner {
            ValueRefInner::Borrowed(m) => m,
            ValueRefInner::Owned(a) => a,
        }
    }
}

impl Tensor {
    fn constant_shared(value: Arc<Matrix>) -> Self {
        Self {
            storage: Storage::Fixed(value),
            tape: None,
        }
    }

    /// A constant tensor; gradients never flow into it.
    pub fn constant(value: Matrix) -> Self {
        Self::constant_shared(Arc::new(value))
    }

    /// A scalar constant.
    pub fn scalar(v: f32) -> Self {
        Self::constant(Matrix::scalar(v))
    }

    /// A trainable leaf parameter. This is the constructor checkpoint
    /// restoration and every layer go through: leaves are the only nodes
    /// whose value can change after construction.
    pub fn parameter(value: Matrix) -> Self {
        Self {
            storage: Storage::Leaf(Arc::new(RwLock::new(Arc::new(value)))),
            tape: Some(Arc::new(TapeNode {
                requires_grad: true,
                parents: Vec::new(),
                backward: None,
                grad: Mutex::new(None),
            })),
        }
    }

    /// Builds an op node. If no parent needs gradients (or the tape is
    /// disabled via [`no_grad`]), the node degenerates into a constant.
    pub(crate) fn from_op(value: Matrix, parents: Vec<Tensor>, backward: BackwardFn) -> Self {
        Self::from_op_shared(Arc::new(value), parents, backward)
    }

    /// [`Tensor::from_op`] for ops whose backward closure captures the
    /// output value (sigmoid, tanh, softmax, …): the node and the closure
    /// share one `Arc` instead of copying the matrix.
    pub(crate) fn from_op_shared(
        value: Arc<Matrix>,
        parents: Vec<Tensor>,
        backward: BackwardFn,
    ) -> Self {
        if Self::records(&parents) {
            Self {
                storage: Storage::Fixed(value),
                tape: Some(Arc::new(TapeNode {
                    requires_grad: false,
                    parents,
                    backward: Some(backward),
                    grad: Mutex::new(None),
                })),
            }
        } else {
            Self::constant_shared(value)
        }
    }

    /// Whether an op over `parents` records a tape node: the tape is on
    /// and some parent carries gradients.
    pub(crate) fn records(parents: &[Tensor]) -> bool {
        grad_enabled() && parents.iter().any(Tensor::needs_grad)
    }

    /// Node identity: unique among live tape-carrying nodes (leaves and
    /// recorded ops); constants are interchangeable and all report 0.
    pub fn id(&self) -> u64 {
        self.tape.as_ref().map_or(0, |t| Arc::as_ptr(t) as u64)
    }

    /// `(rows, cols)` of the stored value.
    pub fn shape(&self) -> (usize, usize) {
        self.value_ref().shape()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.value_ref().rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.value_ref().cols()
    }

    /// Borrow of the forward value: guard-free for constants and op
    /// outputs, an `Arc` snapshot for leaf parameters.
    pub fn value_ref(&self) -> ValueRef<'_> {
        match &self.storage {
            Storage::Fixed(m) => ValueRef {
                inner: ValueRefInner::Borrowed(m),
            },
            Storage::Leaf(slot) => ValueRef {
                inner: ValueRefInner::Owned(Arc::clone(
                    &slot.read().expect("tensor value lock poisoned"),
                )),
            },
        }
    }

    /// Shared handle on the forward value (no matrix copy).
    pub fn value_arc(&self) -> Arc<Matrix> {
        match &self.storage {
            Storage::Fixed(m) => Arc::clone(m),
            Storage::Leaf(slot) => Arc::clone(&slot.read().expect("tensor value lock poisoned")),
        }
    }

    /// Clone of the forward value.
    pub fn value(&self) -> Matrix {
        (*self.value_arc()).clone()
    }

    /// Scalar value of a `1×1` tensor.
    pub fn item(&self) -> f32 {
        self.value_ref().item()
    }

    /// Clone of the accumulated gradient, if any.
    pub fn grad(&self) -> Option<Matrix> {
        self.tape
            .as_ref()
            .and_then(|t| t.grad.lock().expect("tensor grad lock poisoned").clone())
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        if let Some(t) = &self.tape {
            *t.grad.lock().expect("tensor grad lock poisoned") = None;
        }
    }

    /// True for leaf parameters.
    pub fn requires_grad(&self) -> bool {
        self.tape.as_ref().is_some_and(|t| t.requires_grad)
    }

    /// True when gradients flow through this node.
    pub fn needs_grad(&self) -> bool {
        self.tape.is_some()
    }

    /// The swappable value slot of a leaf parameter.
    ///
    /// # Panics
    /// Panics for op outputs and constants: their values are immutable by
    /// construction (that immutability is what makes forward reads
    /// lock-free), so only leaves built by [`Tensor::parameter`] mutate.
    fn leaf_slot(&self, op: &str) -> &RwLock<Arc<Matrix>> {
        match &self.storage {
            Storage::Leaf(slot) => slot,
            Storage::Fixed(_) => {
                panic!("{op} requires a leaf parameter; op outputs and constants are immutable")
            }
        }
    }

    /// Replaces the stored value (used by optimisers and meta-learners).
    ///
    /// # Panics
    /// Panics if the shape changes or the tensor is not a leaf parameter.
    pub fn set_value(&self, value: Matrix) {
        let slot = self.leaf_slot("set_value");
        let mut cur = slot.write().expect("tensor value lock poisoned");
        assert_eq!(cur.shape(), value.shape(), "set_value must preserve shape");
        *cur = Arc::new(value);
    }

    /// In-place mutation of the stored value (leaf parameters only; see
    /// [`Tensor::set_value`]). Mutates without copying when no value
    /// snapshot is outstanding, which is the steady state between steps.
    pub fn update_value(&self, f: impl FnOnce(&mut Matrix)) {
        let slot = self.leaf_slot("update_value");
        let mut cur = slot.write().expect("tensor value lock poisoned");
        f(Arc::make_mut(&mut cur));
    }

    /// A constant tensor sharing this tensor's current value (no copy:
    /// forward values are immutable, so the snapshot can be aliased).
    pub fn detach(&self) -> Tensor {
        Tensor::constant_shared(self.value_arc())
    }

    /// A tape boundary sharing this tensor's value (no copy): ops built on
    /// the cut back-propagate into it and stop there, so [`Tensor::grad`]
    /// of the cut is afterwards exactly the gradient this tensor would
    /// have received — the seed for `self.backward_with(..)`. That splits
    /// one tape into pieces that can be walked apart (see
    /// `cgnp_core::train`). The cut is an interior node, not a leaf: an
    /// installed [`crate::GradSink`] leaves its gradient in place. A
    /// constant has nothing to cut and is returned as is.
    pub fn cut(&self) -> Tensor {
        if !self.needs_grad() {
            return self.clone();
        }
        Tensor {
            storage: Storage::Fixed(self.value_arc()),
            tape: Some(Arc::new(TapeNode {
                requires_grad: false,
                parents: Vec::new(),
                backward: None,
                grad: Mutex::new(None),
            })),
        }
    }

    /// Adds `delta` into the gradient buffer (no-op for constants). When
    /// a [`crate::GradSink`] is installed on this thread, leaf gradients
    /// are diverted into it instead of the shared accumulator, so
    /// concurrent backward passes over one model stay race-free and
    /// deterministic (see the `grad_sink` module docs).
    pub fn accum_grad(&self, delta: &Matrix) {
        let Some(tape) = &self.tape else { return };
        debug_assert_eq!(self.shape(), delta.shape(), "gradient shape mismatch");
        if tape.requires_grad && crate::grad_sink::route_leaf_grad(self.id(), delta, None) {
            return;
        }
        let mut grad = tape.grad.lock().expect("tensor grad lock poisoned");
        match &mut *grad {
            Some(g) => g.add_assign(delta),
            slot @ None => *slot = Some(delta.clone()),
        }
    }

    /// Adds `c * delta` into the gradient buffer without materialising the
    /// scaled matrix (no-op for constants). Leaf gradients divert into an
    /// installed [`crate::GradSink`], exactly like [`Tensor::accum_grad`].
    pub fn accum_grad_scaled(&self, delta: &Matrix, c: f32) {
        let Some(tape) = &self.tape else { return };
        debug_assert_eq!(self.shape(), delta.shape(), "gradient shape mismatch");
        if tape.requires_grad && crate::grad_sink::route_leaf_grad(self.id(), delta, Some(c)) {
            return;
        }
        let mut grad = tape.grad.lock().expect("tensor grad lock poisoned");
        match &mut *grad {
            Some(g) => g.add_scaled_assign(delta, c),
            slot @ None => {
                let mut g = delta.clone();
                g.scale_assign(c);
                *slot = Some(g);
            }
        }
    }

    /// [`Tensor::accum_grad`] taking ownership: an empty gradient slot is
    /// filled by **moving** `delta` in (no copy), a non-empty one by
    /// adding — the same bits as cloning into the slot. Every backward
    /// closure hands over the adjoints it computed this way, and it is
    /// what folds per-view [`crate::GradSink`]s into a leaf: the first
    /// captured gradient becomes the accumulator, the rest fold in.
    /// Routes through an installed sink like the borrowing variant, and
    /// moves into an empty sink entry too.
    pub fn accum_grad_owned(&self, delta: Matrix) {
        let Some(tape) = &self.tape else { return };
        debug_assert_eq!(self.shape(), delta.shape(), "gradient shape mismatch");
        let delta = if tape.requires_grad {
            match crate::grad_sink::route_leaf_grad_owned(self.id(), delta) {
                Some(delta) => delta,
                None => return,
            }
        } else {
            delta
        };
        let mut grad = tape.grad.lock().expect("tensor grad lock poisoned");
        match &mut *grad {
            Some(g) => g.add_assign(&delta),
            slot @ None => *slot = Some(delta),
        }
    }

    /// Back-propagates from a scalar loss, seeding `d(loss)/d(loss) = 1`.
    ///
    /// # Panics
    /// Panics if the tensor is not `1×1`.
    pub fn backward(&self) {
        assert_eq!(
            self.shape(),
            (1, 1),
            "backward() requires a scalar; use backward_with for general seeds"
        );
        self.backward_with(&Matrix::scalar(1.0));
    }

    /// Back-propagates with an explicit seed gradient of this tensor's shape.
    pub fn backward_with(&self, seed: &Matrix) {
        if !self.needs_grad() {
            return;
        }
        self.accum_grad(seed);
        let order = self.topo_order();
        // Reverse topological order: each node's full gradient is known
        // before its backward closure distributes it to the parents.
        for node in order.iter().rev() {
            let tape = node.tape.as_ref().expect("topo nodes carry a tape cell");
            let Some(bw) = tape.backward.as_ref() else {
                continue;
            };
            let grad = tape.grad.lock().expect("tensor grad lock poisoned").clone();
            let Some(grad) = grad else {
                continue;
            };
            bw(&grad, &tape.parents);
        }
    }

    /// Post-order over the needs-grad subgraph (parents appear before the
    /// nodes consuming them), computed iteratively to avoid stack overflow
    /// on deep tapes. Traversal touches only the immutable tape half, so
    /// it takes no locks; the `Tensor` clones held in the result keep
    /// every visited cell alive, which keeps the pointer-derived ids
    /// stable for the duration.
    fn topo_order(&self) -> Vec<Tensor> {
        let mut order = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        let mut stack: Vec<(Tensor, usize)> = Vec::new();
        visited.insert(self.id());
        stack.push((self.clone(), 0));
        while let Some((node, idx)) = stack.pop() {
            let next_parent = node.tape.as_ref().and_then(|t| t.parents.get(idx)).cloned();
            match next_parent {
                Some(parent) => {
                    stack.push((node, idx + 1));
                    if parent.needs_grad() && visited.insert(parent.id()) {
                        stack.push((parent, 0));
                    }
                }
                None => order.push(node),
            }
        }
        order
    }

    /// Number of nodes that would participate in a backward pass from here.
    pub fn tape_len(&self) -> usize {
        if !self.needs_grad() {
            return 0;
        }
        self.topo_order().len()
    }
}

// The tape's parent edges and backward closure are immutable after
// construction and every mutable half (grad, leaf slot) sits behind a
// poisoning lock, so observing a tensor after a caught panic cannot see
// broken invariants. The previous `Arc<RwLock<Inner>>` layout had these
// impls derived; keep them so `catch_unwind` callers are unaffected.
impl std::panic::RefUnwindSafe for Tensor {}
impl std::panic::UnwindSafe for Tensor {}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tensor")
            .field("id", &self.id())
            .field("shape", &self.shape())
            .field("requires_grad", &self.requires_grad())
            .field("needs_grad", &self.needs_grad())
            .field(
                "n_parents",
                &self.tape.as_ref().map_or(0, |t| t.parents.len()),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_crosses_threads() {
        // Compile-time: the parallel meta-test path shares tensors (model
        // weights, prepared operators) across pool workers by reference.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();

        // Runtime: a value written on one thread reads back on another.
        let x = Tensor::parameter(Matrix::scalar(4.0));
        let doubled = std::thread::scope(|s| {
            let x = &x;
            s.spawn(move || x.value().item() * 2.0).join().unwrap()
        });
        assert_eq!(doubled, 8.0);
    }

    #[test]
    fn constants_carry_no_tape() {
        let a = Tensor::constant(Matrix::scalar(2.0));
        let b = Tensor::constant(Matrix::scalar(3.0));
        let c = a.add(&b);
        assert!(!c.needs_grad());
        assert_eq!(c.tape_len(), 0);
        assert_eq!(c.item(), 5.0);
    }

    #[test]
    fn constant_reads_share_storage() {
        // The value of a constant is one immutable allocation: clones and
        // detached views alias it instead of copying the matrix.
        let a = Tensor::constant(Matrix::full(16, 16, 1.5));
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.value_arc(), &b.value_arc()));
        let d = a.detach();
        assert!(Arc::ptr_eq(&a.value_arc(), &d.value_arc()));
    }

    #[test]
    fn leaf_updates_are_visible_through_clones() {
        // The optimiser holds clones of the model's parameter handles;
        // its writes must be visible through every handle.
        let model_handle = Tensor::parameter(Matrix::scalar(1.0));
        let optimiser_handle = model_handle.clone();
        optimiser_handle.update_value(|m| m.scale_assign(3.0));
        assert_eq!(model_handle.item(), 3.0);
        optimiser_handle.set_value(Matrix::scalar(-2.0));
        assert_eq!(model_handle.item(), -2.0);
    }

    #[test]
    fn value_snapshot_survives_leaf_update() {
        // A `ValueRef`/`value_arc` taken before an update keeps observing
        // the old value (copy-on-write), so readers never see a torn
        // in-place mutation.
        let p = Tensor::parameter(Matrix::scalar(1.0));
        let before = p.value_arc();
        p.update_value(|m| m.scale_assign(10.0));
        assert_eq!(before.item(), 1.0);
        assert_eq!(p.item(), 10.0);
    }

    #[test]
    fn non_leaf_values_are_immutable() {
        let c = Tensor::constant(Matrix::scalar(1.0));
        let r = std::panic::catch_unwind(|| c.set_value(Matrix::scalar(2.0)));
        assert!(r.is_err(), "set_value on a constant must panic");
        let x = Tensor::parameter(Matrix::scalar(1.0));
        let y = x.scale(2.0);
        let r = std::panic::catch_unwind(|| y.update_value(|m| m.scale_assign(0.0)));
        assert!(r.is_err(), "update_value on an op output must panic");
    }

    #[test]
    fn ids_distinguish_tape_nodes_only() {
        let p = Tensor::parameter(Matrix::scalar(1.0));
        let q = Tensor::parameter(Matrix::scalar(1.0));
        assert_ne!(p.id(), q.id(), "live leaves have distinct ids");
        assert_eq!(p.id(), p.clone().id(), "clones share identity");
        let c = Tensor::constant(Matrix::scalar(1.0));
        assert_eq!(c.id(), 0, "constants are interchangeable");
    }

    #[test]
    fn parameter_grad_accumulates_through_diamond() {
        // loss = (x + x) summed; dl/dx = 2 * ones.
        let x = Tensor::parameter(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let y = x.add(&x);
        let loss = y.sum_all();
        loss.backward();
        let g = x.grad().expect("grad");
        assert!(g.approx_eq(&Matrix::from_vec(1, 2, vec![2.0, 2.0]), 1e-6));
    }

    #[test]
    fn shared_subexpression_backward_is_correct() {
        // z = x*x (hadamard with aliased parents); loss = sum(z); dz/dx = 2x.
        let x = Tensor::parameter(Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]));
        let z = x.mul(&x);
        let loss = z.sum_all();
        loss.backward();
        let g = x.grad().expect("grad");
        assert!(g.approx_eq(&Matrix::from_vec(1, 3, vec![2.0, -4.0, 6.0]), 1e-5));
    }

    #[test]
    fn no_grad_suppresses_tape() {
        let x = Tensor::parameter(Matrix::scalar(2.0));
        let y = no_grad(|| x.scale(3.0));
        assert!(!y.needs_grad());
        assert_eq!(y.item(), 6.0);
        // Tape recording resumes afterwards.
        let z = x.scale(3.0);
        assert!(z.needs_grad());
    }

    #[test]
    fn no_grad_restores_recording_after_panic() {
        // Pool workers catch job panics and keep running; a panic inside
        // a no_grad region must not leave the thread stuck tape-less.
        let result = std::panic::catch_unwind(|| no_grad(|| panic!("mid-inference failure")));
        assert!(result.is_err());
        assert!(grad_enabled(), "grad recording must survive the panic");
        let x = Tensor::parameter(Matrix::scalar(1.0));
        assert!(x.scale(2.0).needs_grad());
    }

    #[test]
    fn grad_flag_can_be_forced_on_inside_no_grad_and_is_restored() {
        // What a pool job does when it lands on a thread that is helping
        // out from inside its own `no_grad`.
        let x = Tensor::parameter(Matrix::scalar(1.0));
        no_grad(|| {
            assert!(with_grad_enabled(true, || x.scale(2.0)).needs_grad());
            assert!(!grad_enabled(), "the outer region is back in force");
            let r = std::panic::catch_unwind(|| with_grad_enabled(true, || panic!("job failed")));
            assert!(r.is_err());
            assert!(!grad_enabled(), "restored on unwind too");
        });
        assert!(grad_enabled());
    }

    #[test]
    fn backward_requires_scalar() {
        let result = std::panic::catch_unwind(|| {
            let x = Tensor::parameter(Matrix::zeros(2, 2));
            let y = x.scale(1.0);
            y.backward();
        });
        assert!(result.is_err());
    }

    #[test]
    fn owned_accumulation_moves_then_adds() {
        let x = Tensor::parameter(Matrix::scalar(0.0));
        x.accum_grad_owned(Matrix::scalar(3.0)); // moves into the empty slot
        x.accum_grad_owned(Matrix::scalar(4.0)); // adds
        assert_eq!(x.grad().unwrap().item(), 7.0);
        // Constants ignore it, like the borrowing variant.
        let c = Tensor::constant(Matrix::scalar(1.0));
        c.accum_grad_owned(Matrix::scalar(1.0));
        assert!(c.grad().is_none());
    }

    #[test]
    fn zero_grad_resets() {
        let x = Tensor::parameter(Matrix::scalar(1.0));
        let loss = x.scale(2.0);
        loss.backward();
        assert_eq!(x.grad().unwrap().item(), 2.0);
        x.zero_grad();
        assert!(x.grad().is_none());
    }

    #[test]
    fn repeated_backward_accumulates() {
        let x = Tensor::parameter(Matrix::scalar(1.0));
        let l1 = x.scale(2.0);
        l1.backward();
        let l2 = x.scale(3.0);
        l2.backward();
        assert_eq!(x.grad().unwrap().item(), 5.0);
    }

    #[test]
    fn detach_blocks_gradients() {
        let x = Tensor::parameter(Matrix::scalar(2.0));
        let d = x.detach();
        let loss = d.scale(10.0);
        assert!(!loss.needs_grad());
        loss.backward_with(&Matrix::scalar(1.0));
        assert!(x.grad().is_none());
    }

    #[test]
    fn cut_collects_the_gradient_and_passes_nothing_upstream() {
        let x = Tensor::parameter(Matrix::from_vec(1, 2, vec![1.0, -2.0]));
        let y = x.scale(3.0);
        let c = y.cut();
        assert!(Arc::ptr_eq(&y.value_arc(), &c.value_arc()), "no copy");
        assert!(c.needs_grad() && !c.requires_grad());
        assert_eq!(c.tape_len(), 1, "the cut has no parents");
        // Two consumers: the cut sums what arrives, in arrival order.
        c.scale(2.0).add(&c).sum_all().backward();
        assert_eq!(c.grad().unwrap().as_slice(), &[3.0, 3.0]);
        assert!(y.grad().is_none() && x.grad().is_none());
        // Seeding the original with the cut's gradient finishes the walk.
        y.backward_with(&c.grad().unwrap());
        assert_eq!(x.grad().unwrap().as_slice(), &[9.0, 9.0]);
    }

    #[test]
    fn cut_is_not_a_leaf_to_a_grad_sink_and_constants_cut_to_themselves() {
        let x = Tensor::parameter(Matrix::scalar(2.0));
        let c = x.scale(1.0).cut();
        let ((), sink) = crate::GradSink::capture(|| c.scale(5.0).backward());
        assert!(sink.is_empty(), "a sink diverts leaves only");
        assert_eq!(c.grad().unwrap().item(), 5.0);

        let k = Tensor::constant(Matrix::scalar(1.0));
        let kc = k.cut();
        assert!(!kc.needs_grad());
        assert!(Arc::ptr_eq(&k.value_arc(), &kc.value_arc()));
        // Under `no_grad` every op output is such a constant.
        let frozen = no_grad(|| x.scale(2.0)).cut();
        assert!(!frozen.needs_grad());
    }

    #[test]
    fn deep_chain_backward_is_iterative() {
        // Depth far beyond any model in this workspace (3-layer GNNs build
        // tapes of depth < 100); guards against a recursive backward pass.
        let x = Tensor::parameter(Matrix::scalar(1.0));
        let mut y = x.clone();
        for _ in 0..2_000 {
            y = y.scale(1.0);
        }
        let loss = y.sum_all();
        loss.backward();
        assert_eq!(x.grad().unwrap().item(), 1.0);
    }
}
