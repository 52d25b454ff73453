//! Shard-affine parallel execution, and one writer beside N readers.
//!
//! The distributed streaming engines the paper surveys shard keyed state
//! across workers. [`run_shard_affine`] reproduces that execution model
//! in one process: elements are routed to workers by shard index, each
//! worker exclusively owns its shards' state, and outputs are gathered
//! in worker order. [`run_with_readers`] is the query-vs-ingest shape of
//! a serving layer.

use std::thread;

/// Group `items` into per-shard batches, preserving input order within
/// each shard.
///
/// This is the dispatch half of shard-affine execution, shared by the
/// ingest runner below and by the sharded event engine's
/// `observe_batch` (which feeds each detector shard's run under one
/// borrow). The returned vector always has exactly `shards` entries;
/// shards that received nothing are empty.
///
/// `shard_of` must return values in `0..shards`.
pub fn partition_by_shard<T>(
    items: Vec<T>,
    shards: usize,
    shard_of: impl Fn(&T) -> usize,
) -> Vec<Vec<T>> {
    assert!(shards > 0);
    let cap = items.len() / shards + 1;
    let mut per_shard: Vec<Vec<T>> = (0..shards).map(|_| Vec::with_capacity(cap)).collect();
    for item in items {
        let s = shard_of(&item);
        assert!(s < shards, "shard_of returned {s} for {shards} shards");
        per_shard[s].push(item);
    }
    per_shard
}

/// Route `items` to workers by an *explicit* shard index rather than a
/// key hash, so routing can line up with a sharded state store: worker
/// `w` exclusively owns shards `{s : s % workers == w}`, and therefore
/// two workers never touch the same store shard — shard-affine ingest
/// never contends on shard locks.
///
/// Items are pre-grouped per shard ([`partition_by_shard`]; input order
/// preserved within a shard) and each worker's closure is invoked once
/// per non-empty owned shard with that shard's whole batch, lowest
/// shard index first — the natural shape for batch-ingest APIs.
/// Outputs are concatenated in worker order, then the worker's
/// shard-visit order.
///
/// `shard_of` must return values in `0..shards`.
pub fn run_shard_affine<T, O, F>(
    items: Vec<T>,
    workers: usize,
    shards: usize,
    shard_of: impl Fn(&T) -> usize,
    make_worker: impl Fn() -> F,
) -> Vec<O>
where
    T: Send,
    O: Send,
    F: FnMut(Vec<T>) -> Vec<O> + Send,
{
    let make_indexed = |_w: usize| {
        let mut work = make_worker();
        move |_s: usize, batch: Vec<T>| work(batch)
    };
    run_shard_affine_indexed(items, workers, shards, shard_of, make_indexed)
}

/// [`run_shard_affine`], but the worker closure also receives the shard
/// index of each batch (and `make_worker` the worker index), so workers
/// that own *stateful shard slots* — a sharded event engine, per-shard
/// metrics — can address the right slot without re-deriving the hash.
pub fn run_shard_affine_indexed<T, O, F>(
    items: Vec<T>,
    workers: usize,
    shards: usize,
    shard_of: impl Fn(&T) -> usize,
    make_worker: impl Fn(usize) -> F,
) -> Vec<O>
where
    T: Send,
    O: Send,
    F: FnMut(usize, Vec<T>) -> Vec<O> + Send,
{
    assert!(workers > 0);
    let per_shard = partition_by_shard(items, shards, shard_of);
    // Hand each worker its owned shards' batches (shard index ascending).
    let mut per_worker: Vec<Vec<(usize, Vec<T>)>> = (0..workers).map(|_| Vec::new()).collect();
    for (s, batch) in per_shard.into_iter().enumerate() {
        if !batch.is_empty() {
            per_worker[s % workers].push((s, batch));
        }
    }
    thread::scope(|scope| {
        let handles: Vec<_> = per_worker
            .into_iter()
            .enumerate()
            .map(|(w, batches)| {
                let mut work = make_worker(w);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for (s, batch) in batches {
                        out.extend(work(s, batch));
                    }
                    out
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().expect("worker panicked"));
        }
        all
    })
}

/// Run one writer to completion while `readers` concurrent reader
/// loops poll shared state — the query-vs-ingest execution shape of a
/// serving layer (1 ingest thread × N `QueryService` readers).
///
/// `writer` runs once on its own thread. Each reader closure receives
/// its index and an `ingest_running` flag; it should loop while the
/// flag is `true` (issuing queries against whatever shared handle it
/// captured) and may take one final look after the flag drops — the
/// flag flips *after* the writer returns, so a last iteration observes
/// the writer's final published state. Returns the writer's output and
/// every reader's, in reader-index order.
///
/// ```
/// use mda_stream::runner::run_with_readers;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let counter = AtomicU64::new(0);
/// let (total, reads) = run_with_readers(
///     || {
///         for _ in 0..1_000 {
///             counter.fetch_add(1, Ordering::Relaxed);
///         }
///         counter.load(Ordering::Relaxed)
///     },
///     2,
///     |_reader, running| {
///         let mut last = 0;
///         while running.load(Ordering::Acquire) {
///             last = counter.load(Ordering::Relaxed);
///         }
///         last
///     },
/// );
/// assert_eq!(total, 1_000);
/// assert_eq!(reads.len(), 2);
/// ```
pub fn run_with_readers<W, R>(
    writer: impl FnOnce() -> W + Send,
    readers: usize,
    reader: impl Fn(usize, &std::sync::atomic::AtomicBool) -> R + Sync,
) -> (W, Vec<R>)
where
    W: Send,
    R: Send,
{
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Clears the flag on drop, so a panicking writer still releases
    /// the readers (otherwise `thread::scope` would join the spinning
    /// reader loops forever and the panic would never surface).
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(false, Ordering::Release);
        }
    }

    let running = AtomicBool::new(true);
    thread::scope(|scope| {
        let running = &running;
        let reader = &reader;
        let reader_handles: Vec<_> =
            (0..readers).map(|i| scope.spawn(move || reader(i, running))).collect();
        let wrote = {
            let _stop = StopOnDrop(running);
            writer()
        };
        let read = reader_handles.into_iter().map(|h| h.join().expect("reader panicked")).collect();
        (wrote, read)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn shard_affine_covers_all_shards_in_order() {
        // 10 shards over 3 workers; items round-robin over shards.
        let items: Vec<(usize, u32)> = (0..200u32).map(|seq| ((seq as usize) % 10, seq)).collect();
        let out: Vec<(usize, u32)> = run_shard_affine(
            items.clone(),
            3,
            10,
            |item| item.0,
            || |batch: Vec<(usize, u32)>| batch,
        );
        assert_eq!(out.len(), 200);
        // Per-shard input order is preserved.
        let mut per_shard: HashMap<usize, Vec<u32>> = HashMap::new();
        for (s, seq) in out {
            per_shard.entry(s).or_default().push(seq);
        }
        assert_eq!(per_shard.len(), 10);
        for (s, seqs) in per_shard {
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            assert_eq!(seqs, sorted, "shard {s} out of order");
        }
    }

    #[test]
    fn shard_affine_worker_owns_disjoint_shards() {
        // Each worker records which shards it saw; ownership must be
        // disjoint (that is the no-contention property).
        let items: Vec<usize> = (0..64).map(|i| i % 8).collect();
        let out: Vec<(usize, std::thread::ThreadId)> = run_shard_affine(
            items,
            4,
            8,
            |s| *s,
            || |batch: Vec<usize>| vec![(batch[0], std::thread::current().id())],
        );
        let mut owner: HashMap<usize, std::thread::ThreadId> = HashMap::new();
        let mut threads: HashMap<std::thread::ThreadId, Vec<usize>> = HashMap::new();
        for (shard, tid) in out {
            assert!(owner.insert(shard, tid).is_none(), "shard visited twice");
            threads.entry(tid).or_default().push(shard);
        }
        assert_eq!(owner.len(), 8);
        for (_, shards) in threads {
            for s in &shards {
                assert_eq!(s % 4, shards[0] % 4, "worker crossed its shard class");
            }
        }
    }

    #[test]
    fn partition_by_shard_groups_in_order() {
        let items: Vec<u32> = (0..40).collect();
        let parts = partition_by_shard(items, 4, |v| (*v as usize) % 4);
        assert_eq!(parts.len(), 4);
        for (s, batch) in parts.iter().enumerate() {
            assert_eq!(batch.len(), 10);
            assert!(batch.windows(2).all(|w| w[0] < w[1]), "shard {s} lost input order");
            assert!(batch.iter().all(|v| (*v as usize) % 4 == s));
        }
        // Empty shards are still present.
        let sparse = partition_by_shard(vec![0u32], 3, |_| 2);
        assert_eq!(sparse.iter().map(Vec::len).collect::<Vec<_>>(), vec![0, 0, 1]);
    }

    #[test]
    fn shard_affine_indexed_reports_true_shard() {
        let items: Vec<usize> = (0..60).map(|i| i % 6).collect();
        let out: Vec<(usize, usize)> = run_shard_affine_indexed(
            items,
            3,
            6,
            |s| *s,
            |_w| |shard: usize, batch: Vec<usize>| vec![(shard, batch.len())],
        );
        let mut seen: Vec<(usize, usize)> = out;
        seen.sort_unstable();
        assert_eq!(seen, (0..6).map(|s| (s, 10)).collect::<Vec<_>>());
    }
}
