//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no network access, so this workspace ships
//! a minimal data-parallelism shim with rayon-compatible spelling for
//! the patterns the workspace uses:
//!
//! ```
//! use rayon::prelude::*;
//! let squares: Vec<u64> = (0u64..64).collect::<Vec<_>>()
//!     .par_iter().map(|&x| x * x).collect();
//! assert_eq!(squares[9], 81);
//! ```
//!
//! Execution model: the input slice is split into one contiguous chunk
//! per available core and mapped on scoped OS threads
//! (`std::thread::scope`), preserving input order in the output. This
//! is not a work-stealing pool — it is a deliberate, dependency-free
//! fallback with the same observable results.

/// Number of worker threads a parallel call will use.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Order-preserving parallel map over a slice: one chunk per thread.
fn parallel_map<'a, T, R, F>(items: &'a [T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    // One item never fans out: skip the core-count probe (a syscall
    // that costs more than a batch of one's whole fan-out decision).
    if items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let threads = current_num_threads().min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let chunk = items.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        for (in_chunk, out_chunk) in items.chunks(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (item, slot) in in_chunk.iter().zip(out_chunk.iter_mut()) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("parallel_map worker filled every slot"))
        .collect()
}

/// A pending parallel iteration over `&[T]`.
pub struct ParIter<'a, T: Sync>(&'a [T]);

/// A pending parallel map stage.
pub struct ParMap<'a, T: Sync, F, R> {
    items: &'a [T],
    f: F,
    _out: std::marker::PhantomData<fn() -> R>,
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Applies `f` to every element in parallel (lazily; runs at
    /// `collect`/`for_each`).
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F, R>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap {
            items: self.0,
            f,
            _out: std::marker::PhantomData,
        }
    }

    /// Runs `f` on every element in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a T) + Sync,
    {
        let _ = parallel_map(self.0, &f);
    }
}

impl<'a, T: Sync, F, R> ParMap<'a, T, F, R>
where
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    /// Executes the map in parallel and collects the results in input
    /// order.
    pub fn collect<C>(self) -> C
    where
        C: FromIterator<R>,
    {
        parallel_map(self.items, self.f).into_iter().collect()
    }
}

/// Rayon-style entry point on slices and vectors.
pub trait IntoParallelRefIterator<'a> {
    /// Element type iterated over.
    type Item: Sync + 'a;
    /// Starts a parallel iteration borrowing the data.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter(self)
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter(self.as_slice())
    }
}

/// Runs two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    std::thread::scope(|scope| {
        let hb = scope.spawn(b);
        let ra = a();
        (ra, hb.join().expect("join arm panicked"))
    })
}

pub mod prelude {
    //! Glob-import surface mirroring `rayon::prelude`.
    pub use crate::IntoParallelRefIterator;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let input: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = input.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [7u32];
        let out: Vec<u32> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = super::join(|| 1 + 1, || "x".to_string() + "y");
        assert_eq!(a, 2);
        assert_eq!(b, "xy");
    }

    #[test]
    fn for_each_runs_everything() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = AtomicUsize::new(0);
        let items: Vec<u32> = (0..257).collect();
        items.par_iter().for_each(|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 257);
    }
}
