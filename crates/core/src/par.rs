//! Pool fan-out shared by training and serving-side scoring.

/// Maps `f` over `items` with **at most** `threads` pool workers,
/// returning the results in item order regardless of which worker
/// computed what: items are split into `threads` contiguous chunks and
/// each chunk becomes one pool job, so the cap is a real resource bound
/// (a caller pinning `--threads 2` on a 16-core pool gets 2 concurrent
/// bodies), not just a serial/parallel switch. `threads <= 1` (or a
/// single item) runs serially on the caller with no dispatch.
///
/// Used by batched gradient computation, task preparation and the
/// validation sweep — every result slot is written by index, so the
/// output never depends on scheduling.
pub(crate) fn par_map<T: Sync, R: Send>(
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
    rayon::scope(|s| {
        for (item_chunk, out_chunk) in items.chunks(chunk_len).zip(slots.chunks_mut(chunk_len)) {
            let f = &f;
            s.spawn(move |_| {
                for (item, out) in item_chunk.iter().zip(out_chunk.iter_mut()) {
                    *out = Some(f(item));
                }
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
