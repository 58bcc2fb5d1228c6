//! The workspace's one pool fan-out: training steps, task preparation,
//! the validation sweep and the evaluation harness's meta-test all map
//! through it.

/// Maps `f` over `items` with **at most** `threads` pool workers,
/// returning the results in item order regardless of which worker
/// computed what: items are split into `threads` contiguous chunks and
/// each chunk becomes one pool job, so the cap is a real resource bound
/// (a caller pinning `--threads 2` on a 16-core pool gets 2 concurrent
/// bodies), not just a serial/parallel switch. `threads <= 1` (or a
/// single item) runs serially on the caller with no dispatch.
///
/// Every result slot is written by index, so the output never depends on
/// scheduling. A panic in `f` propagates to the caller once every job of
/// the call has finished. Inside a job the pool reports a width of 1, so
/// kernels and nested `context` calls run serially there.
///
/// Whether ops record a tape is thread-local, and the thread a job lands
/// on may be anyone's — a pool worker, or the owner of an unrelated
/// section helping out from inside its own `no_grad` — so every job runs
/// under the *caller's* setting, as the serial path does by construction.
/// Without that, meta-test under `no_grad` would silently build tapes on
/// the workers and a training step could silently lose one. (A
/// [`cgnp_tensor::GradSink`] cannot be handed on the same way: a job that
/// accumulates leaf gradients captures its own.)
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let chunk_len = items.len().div_ceil(threads);
    let taped = cgnp_tensor::grad_enabled();
    rayon::scope(|s| {
        for (item_chunk, out_chunk) in items.chunks(chunk_len).zip(slots.chunks_mut(chunk_len)) {
            let f = &f;
            s.spawn(move |_| {
                cgnp_tensor::with_grad_enabled(taped, || {
                    for (item, out) in item_chunk.iter().zip(out_chunk.iter_mut()) {
                        *out = Some(f(item));
                    }
                })
            });
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_item_order_for_any_width() {
        let items: Vec<usize> = (0..23).collect();
        let expect: Vec<usize> = items.iter().map(|i| i * i).collect();
        for threads in [0, 1, 2, 4, 64] {
            assert_eq!(par_map(&items, threads, |&i| i * i), expect, "{threads}");
        }
        assert!(par_map(&[] as &[usize], 4, |&i: &usize| i).is_empty());
    }

    #[test]
    fn jobs_run_under_the_callers_tape_setting() {
        // Whoever runs them: a worker (recording by default) or this
        // thread. `model::tests::views_on_other_threads_…` covers the
        // stranger helping out from the opposite state.
        let items: Vec<usize> = (0..64).collect();
        let off = cgnp_tensor::no_grad(|| par_map(&items, 4, |_| cgnp_tensor::grad_enabled()));
        assert!(off.iter().all(|on| !on));
        let on = par_map(&items, 4, |_| cgnp_tensor::grad_enabled());
        assert!(on.iter().all(|on| *on));
    }

    #[test]
    fn width_caps_concurrent_bodies() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        par_map(&items, 2, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "cap of 2 must bound concurrency, saw {}",
            peak.load(Ordering::SeqCst)
        );
    }
}
