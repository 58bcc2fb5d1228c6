//! Row-range parallelism for the dense and sparse kernels.
//!
//! Every optimised kernel in this crate writes disjoint row ranges of its
//! output, so parallelism is expressed as one primitive: split the output
//! rows into contiguous chunks and hand each chunk to a rayon scope
//! worker. Per-row (and per-element) accumulation order inside a chunk is
//! identical to the serial kernel, which keeps parallel results bitwise
//! equal to the [`crate::reference`] implementations.

/// Minimum multiply-accumulate count before a kernel goes parallel;
/// below this the dispatch cost dominates.
///
/// Tuned for the persistent work-stealing pool in the vendored `rayon`
/// on a single-core machine: dispatching a 4-job section measured ≈1 µs
/// there (deque push + wakeup per job; the owner-self-drain path) vs
/// ≈55 µs for the per-section OS-thread spawns the old `1<<18` gate
/// (≈27 µs of work) existed to amortise, and a real cross-core dispatch
/// (condvar wakeup + steal + cache-line transfer) was budgeted at 2–4 µs.
/// `1<<16` MACs ≈ 6.8 µs at ~10 GMAC/s keeps a ≈2× margin over that
/// budget while still admitting GNN-layer-sized kernels the old gate
/// pinned serial; the help-first latch bounds the downside (slow-waking
/// workers just mean the owner drains the chunks itself at ≈ serial
/// cost + ≈1 µs). On two vCPUs the budget is too low where a wake
/// crosses cores: the meta-test shapes just over the gate run slower
/// split than serial. `cgnp-e2e` records them as `tensor.matmul_small_us`
/// and `tensor.spmm_small_us`, which is where a re-tune reads its
/// effect. Re-tuning moves every kernel, so it is its own measured change
/// (ROADMAP, *Carried over*).
pub(crate) const PAR_MIN_WORK: usize = 1 << 16;

/// Minimum multiply-accumulates per worker chunk once a kernel *is*
/// parallel: [`threads_for`] caps the worker count at
/// `work / PAR_MIN_CHUNK_WORK`, so a many-core machine never splits a
/// just-admitted kernel into jobs smaller than the dispatch cost they
/// each pay (chunk *count* never affects results — chunks are disjoint
/// row ranges computed serially, property-tested across thread counts).
const PAR_MIN_CHUNK_WORK: usize = 1 << 15;

/// Minimum output rows per worker chunk. Chunk boundaries never affect
/// results (disjoint row ranges), so this is purely a dispatch-overhead
/// knob: 8 rows keeps a chunk's spawn cost under ~3% of its work for the
/// row widths the GNN layers use, and stops tiny matrices from fanning
/// out at all (the `rows_1t` regression was chunked dispatch paying for
/// itself on a kernel that never went parallel).
const MIN_ROWS_PER_CHUNK: usize = 8;

/// Splits `out` (row-major, `n_rows × row_w`) into contiguous row chunks
/// and runs `f(row_begin, row_end, chunk)` on each, in parallel when
/// `threads > 1` and the row count permits. `f` must only depend on the
/// row range it is given.
pub(crate) fn for_each_row_chunk<E, F>(
    out: &mut [E],
    n_rows: usize,
    row_w: usize,
    threads: usize,
    f: F,
) where
    E: Send,
    F: Fn(usize, usize, &mut [E]) + Sync,
{
    for_each_row_chunk_with(
        out,
        n_rows,
        row_w,
        &mut [] as &mut [u8],
        |_| 0,
        threads,
        |r0, r1, chunk, _| f(r0, r1, chunk),
    );
}

/// [`for_each_row_chunk`] with a second output split along the same row
/// boundaries: rows `r0..r1` own `side[side_at(r0)..side_at(r1)]`, which
/// `f` gets as its last argument (`side_at` must be non-decreasing,
/// `side_at(0) == 0`, and `side_at(n_rows) == side.len()`).
pub(crate) fn for_each_row_chunk_with<E, S, F>(
    out: &mut [E],
    n_rows: usize,
    row_w: usize,
    side: &mut [S],
    side_at: impl Fn(usize) -> usize,
    threads: usize,
    f: F,
) where
    E: Send,
    S: Send,
    F: Fn(usize, usize, &mut [E], &mut [S]) + Sync,
{
    debug_assert_eq!(out.len(), n_rows * row_w);
    debug_assert_eq!(side.len(), side_at(n_rows) - side_at(0));
    let n_chunks = threads.min(n_rows.div_ceil(MIN_ROWS_PER_CHUNK)).max(1);
    if n_chunks <= 1 {
        f(0, n_rows, out, side);
        return;
    }
    let rows_per_chunk = n_rows.div_ceil(n_chunks);
    rayon::scope(|s| {
        let (mut rest, mut side_rest) = (out, side);
        let mut r0 = 0;
        while r0 < n_rows {
            let r1 = (r0 + rows_per_chunk).min(n_rows);
            let (chunk, tail) = rest.split_at_mut((r1 - r0) * row_w);
            let (side_chunk, side_tail) = side_rest.split_at_mut(side_at(r1) - side_at(r0));
            (rest, side_rest) = (tail, side_tail);
            let f = &f;
            s.spawn(move |_| f(r0, r1, chunk, side_chunk));
            r0 = r1;
        }
    });
}

/// [`for_each_row_chunk`] for an output held as separate columns: every
/// vector of `cols` is `n_rows` long, and `f(row_begin, row_end, band)`
/// gets that row range of each of them, in column order.
pub(crate) fn for_each_row_chunk_of_columns<E, F>(
    cols: &mut [Vec<E>],
    n_rows: usize,
    threads: usize,
    f: F,
) where
    E: Send,
    F: Fn(usize, usize, &mut [&mut [E]]) + Sync,
{
    debug_assert!(cols.iter().all(|c| c.len() == n_rows));
    let mut rest: Vec<&mut [E]> = cols.iter_mut().map(Vec::as_mut_slice).collect();
    let n_chunks = threads.min(n_rows.div_ceil(MIN_ROWS_PER_CHUNK)).max(1);
    if n_chunks <= 1 {
        f(0, n_rows, &mut rest);
        return;
    }
    let rows_per_chunk = n_rows.div_ceil(n_chunks);
    rayon::scope(|s| {
        let mut r0 = 0;
        while r0 < n_rows {
            let r1 = (r0 + rows_per_chunk).min(n_rows);
            let mut band: Vec<&mut [E]> = rest
                .iter_mut()
                .map(|col| {
                    let (head, tail) = std::mem::take(col).split_at_mut(r1 - r0);
                    *col = tail;
                    head
                })
                .collect();
            let f = &f;
            s.spawn(move |_| f(r0, r1, &mut band));
            r0 = r1;
        }
    });
}

/// Seeds every `row.len()`-wide row of `out` with a copy of `row` (the
/// broadcast-bias initialisation shared by the fused `*_bias` kernels).
pub(crate) fn seed_rows<E: Copy>(out: &mut [E], row: &[E]) {
    if row.is_empty() {
        return;
    }
    debug_assert_eq!(out.len() % row.len(), 0);
    for chunk in out.chunks_exact_mut(row.len()) {
        chunk.copy_from_slice(row);
    }
}

/// Worker count the public kernel entry points use for `work`
/// multiply-accumulates: serial below [`PAR_MIN_WORK`], otherwise as
/// many of rayon's threads as keep every chunk at or above
/// [`PAR_MIN_CHUNK_WORK`].
pub(crate) fn threads_for(work: usize) -> usize {
    if work < PAR_MIN_WORK {
        return 1;
    }
    rayon::current_num_threads()
        .min(work / PAR_MIN_CHUNK_WORK)
        .max(1)
}
