//! Per-view gradient sinks for concurrent backward passes.
//!
//! A meta-training step fans out the support views of one task: each
//! view's forward builds its own sub-tape, but every sub-tape bottoms out
//! in the **same** leaf parameters, so two backward walks running on
//! different pool workers would interleave their `accum_grad` calls on
//! the shared leaf accumulators. The mutex makes that memory-safe but not
//! *deterministic*: float addition is not associative, so the summation
//! order — and therefore the bits of the step's gradient — would depend
//! on thread scheduling.
//!
//! A [`GradSink`] fixes this by giving each in-flight walk a private
//! destination for leaf gradients. While a sink is installed on the
//! current thread (via [`GradSink::capture`]), every gradient that would
//! land in a `requires_grad` leaf is routed into the sink instead, keyed
//! by the leaf's [`Tensor::id`]. Gradients of interior tape nodes are
//! untouched — they live in walk-local tape cells and `backward` reads
//! them mid-traversal.
//!
//! The training step then folds the collected sinks into the real leaf
//! accumulators **in fixed view order** on one thread, which makes the
//! gradient bitwise independent of how many workers ran the walks.
//!
//! The sink is thread-local state, exactly like the [`crate::no_grad`]
//! flag, and is restored on unwind for the same reason: pool workers
//! outlive caught job panics, and a leaked sink would silently swallow
//! every later gradient on that worker.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::matrix::Matrix;
use crate::tensor::Tensor;

thread_local! {
    static ACTIVE_SINK: RefCell<Option<GradSink>> = const { RefCell::new(None) };
}

/// Accumulated leaf gradients of one backward walk, keyed by leaf
/// identity ([`Tensor::id`] — stable while the parameter is alive, which
/// the model's ownership guarantees for the whole training run).
#[derive(Default)]
pub struct GradSink {
    grads: HashMap<u64, Matrix>,
}

impl GradSink {
    /// Runs `f` with a fresh sink installed on this thread and returns the
    /// result together with the captured leaf gradients. Within `f`,
    /// every `accum_grad` on a `requires_grad` leaf lands in the sink; the
    /// shared leaf accumulators are never touched, so `f` may run
    /// concurrently with other captures against the same parameters.
    ///
    /// Nested captures shadow the outer sink; the previous sink (or none)
    /// is restored on exit, including on panic.
    pub fn capture<R>(f: impl FnOnce() -> R) -> (R, GradSink) {
        struct Restore(Option<GradSink>);
        impl Drop for Restore {
            fn drop(&mut self) {
                ACTIVE_SINK.with(|s| *s.borrow_mut() = self.0.take());
            }
        }
        let prev = ACTIVE_SINK.with(|s| s.borrow_mut().replace(GradSink::default()));
        let restore = Restore(prev);
        let result = f();
        let sink = ACTIVE_SINK.with(|s| {
            s.borrow_mut()
                .take()
                .expect("active sink removed during capture")
        });
        drop(restore);
        (result, sink)
    }

    /// Removes and returns the gradient captured for `leaf`, if any.
    pub fn take(&mut self, leaf: &Tensor) -> Option<Matrix> {
        self.grads.remove(&leaf.id())
    }

    /// Borrow of the gradient captured for `leaf`, if any.
    pub fn get(&self, leaf: &Tensor) -> Option<&Matrix> {
        self.grads.get(&leaf.id())
    }

    /// Number of leaves that received gradient.
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }

    fn accum(&mut self, id: u64, delta: &Matrix, scale: Option<f32>) {
        match (self.grads.get_mut(&id), scale) {
            (Some(g), None) => g.add_assign(delta),
            (Some(g), Some(c)) => g.add_scaled_assign(delta, c),
            (None, None) => {
                self.grads.insert(id, delta.clone());
            }
            (None, Some(c)) => {
                let mut g = delta.clone();
                g.scale_assign(c);
                self.grads.insert(id, g);
            }
        }
    }

    fn accum_owned(&mut self, id: u64, delta: Matrix) {
        match self.grads.entry(id) {
            Entry::Occupied(mut g) => g.get_mut().add_assign(&delta),
            Entry::Vacant(slot) => {
                slot.insert(delta);
            }
        }
    }
}

/// Routes a leaf gradient into the current thread's sink, if one is
/// installed. Returns `true` when the gradient was captured (the caller
/// must then skip the shared accumulator). `scale` of `None` means an
/// unscaled add ([`Tensor::accum_grad`]); `Some(c)` adds `c * delta`
/// ([`Tensor::accum_grad_scaled`]).
pub(crate) fn route_leaf_grad(id: u64, delta: &Matrix, scale: Option<f32>) -> bool {
    ACTIVE_SINK.with(|s| match &mut *s.borrow_mut() {
        Some(sink) => {
            sink.accum(id, delta, scale);
            true
        }
        None => false,
    })
}

/// [`route_leaf_grad`] for an owned unscaled gradient
/// ([`Tensor::accum_grad_owned`]): moved into the sink when one is
/// installed, handed back otherwise.
pub(crate) fn route_leaf_grad_owned(id: u64, delta: Matrix) -> Option<Matrix> {
    ACTIVE_SINK.with(|s| match &mut *s.borrow_mut() {
        Some(sink) => {
            sink.accum_owned(id, delta);
            None
        }
        None => Some(delta),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_diverts_leaf_grads_and_restores() {
        let x = Tensor::parameter(Matrix::scalar(2.0));
        let ((), mut sink) = GradSink::capture(|| {
            let loss = x.scale(3.0);
            loss.backward();
        });
        assert!(x.grad().is_none(), "shared accumulator must stay untouched");
        let g = sink.take(&x).expect("sink captured the leaf grad");
        assert_eq!(g.item(), 3.0);
        assert!(sink.take(&x).is_none(), "take removes the entry");
        // Outside the capture, gradients flow into the leaf again.
        x.scale(5.0).backward();
        assert_eq!(x.grad().unwrap().item(), 5.0);
    }

    #[test]
    fn sink_accumulates_within_one_capture() {
        let x = Tensor::parameter(Matrix::scalar(1.0));
        let ((), sink) = GradSink::capture(|| {
            x.scale(2.0).backward();
            x.scale(3.0).backward();
        });
        assert_eq!(sink.get(&x).unwrap().item(), 5.0);
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn sink_matches_direct_accumulation_bitwise() {
        // The sink must not change the arithmetic of a backward pass:
        // same adds in the same order, just into a different buffer.
        let data: Vec<f32> = (0..12).map(|i| (i as f32 * 0.37).sin()).collect();
        let run = |sink: bool| -> Vec<f32> {
            let x = Tensor::parameter(Matrix::from_vec(3, 4, data.clone()));
            let loss = || {
                // A diamond so the leaf receives several contributions.
                let y = x.scale(0.5).add(&x.mul(&x));
                y.sum_all()
            };
            let g = if sink {
                let ((), mut s) = GradSink::capture(|| loss().backward());
                s.take(&x).expect("grad")
            } else {
                loss().backward();
                x.grad().expect("grad")
            };
            g.as_slice().to_vec()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn interior_nodes_unaffected_by_sink() {
        // backward() reads interior grads mid-traversal; the sink must
        // only divert requires_grad leaves or the chain rule breaks.
        let x = Tensor::parameter(Matrix::scalar(2.0));
        let ((), sink) = GradSink::capture(|| {
            let y = x.scale(3.0); // interior node
            let loss = y.mul(&y); // d(loss)/dx = 2·9·x = 36
            loss.backward();
        });
        assert_eq!(sink.get(&x).unwrap().item(), 36.0);
    }

    #[test]
    fn concurrent_captures_do_not_interleave() {
        let x = Tensor::parameter(Matrix::scalar(1.0));
        let grabbed: Vec<f32> = std::thread::scope(|s| {
            let handles: Vec<_> = (1..=4)
                .map(|k| {
                    let x = &x;
                    s.spawn(move || {
                        let ((), mut sink) = GradSink::capture(|| {
                            for _ in 0..50 {
                                x.scale(k as f32).backward();
                            }
                        });
                        sink.take(x).unwrap().item()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(grabbed, vec![50.0, 100.0, 150.0, 200.0]);
        assert!(x.grad().is_none());
    }

    #[test]
    fn capture_restores_previous_sink_on_panic() {
        let x = Tensor::parameter(Matrix::scalar(1.0));
        let r = std::panic::catch_unwind(|| {
            GradSink::capture(|| panic!("mid-backward failure"));
        });
        assert!(r.is_err());
        // A leaked sink would swallow this gradient on the same thread.
        x.scale(2.0).backward();
        assert_eq!(x.grad().unwrap().item(), 2.0);
    }

    #[test]
    fn nested_capture_shadows_outer() {
        let x = Tensor::parameter(Matrix::scalar(1.0));
        let ((), outer) = GradSink::capture(|| {
            x.scale(1.0).backward();
            let ((), inner) = GradSink::capture(|| x.scale(10.0).backward());
            assert_eq!(inner.get(&x).unwrap().item(), 10.0);
            x.scale(2.0).backward();
        });
        assert_eq!(outer.get(&x).unwrap().item(), 3.0);
    }

    #[test]
    fn scaled_accumulation_routes_too() {
        let x = Tensor::parameter(Matrix::scalar(0.0));
        let ((), sink) = GradSink::capture(|| {
            x.accum_grad_scaled(&Matrix::scalar(2.0), 0.5);
            x.accum_grad_scaled(&Matrix::scalar(4.0), 0.25);
        });
        assert_eq!(sink.get(&x).unwrap().item(), 2.0);
        assert!(x.grad().is_none());
    }
}
