//! The worker pool every parallel loop in `abtest` and `sammy-bench` runs
//! on. Workers claim cells from an atomic counter (cells vary wildly in
//! cost) and run each under `catch_unwind`; the calling thread consumes
//! results in index order, so output never depends on the thread count
//! and a panicking cell becomes an `Err` carrying its message.

use netsim::invariants::panic_message;
use std::convert::Infallible;
use std::ops::{ControlFlow, Range};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Worker threads for a loop over `cells` cells: `requested`, or every
/// available core when `requested` is 0, capped at `cells` and never
/// below 1.
pub(crate) fn worker_count(requested: usize, cells: usize) -> usize {
    let n = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    n.min(cells).max(1)
}

/// Run `work(i)` for every `i` in `range` on up to `threads` workers
/// (0 = all cores) and hand each result to `sink` on the calling thread,
/// in strict index order.
///
/// A cell that panics reaches the sink as `Err(message)`. Workers never
/// start a cell `window` or more past the first cell the sink has not yet
/// returned from (`window` 0 acts as 1), so at most `window` results are
/// computed or computing but not yet consumed — the streaming runner's
/// memory bound. When the window cannot bind (`window` ≥ the range
/// length) the sink sleeps until the last cell lands rather than being
/// woken per cell, so cheap cells cost no hand-off. When the sink returns
/// [`ControlFlow::Break`] or an error, the workers finish the cells they
/// hold, start no more, and the call returns; a panicking sink stops the
/// workers the same way before its panic propagates.
pub(crate) fn fold_ordered<T: Send, E>(
    range: Range<usize>,
    threads: usize,
    window: usize,
    work: impl Fn(usize) -> T + Sync,
    mut sink: impl FnMut(usize, Result<T, String>) -> Result<ControlFlow<()>, E>,
) -> Result<(), E> {
    let threads = worker_count(threads, range.len());
    let window = window.max(1);
    let next = AtomicUsize::new(range.start);
    let board = Board {
        state: Mutex::new(State {
            // Unconsumed cells lie within `window` consecutive indices, so
            // a ring of that many slots never holds two at once.
            ready: (0..window.min(range.len())).map(|_| None).collect(),
            delivered: range.start,
            unposted: range.len(),
            blocked: 0,
            stop: false,
        }),
        cv: Condvar::new(),
        eager: window < range.len(),
    };
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= range.end || !board.admit(i, window) {
                    break;
                }
                let result = catch_unwind(AssertUnwindSafe(|| work(i)))
                    .map_err(|p| panic_message(&*p).to_string());
                board.post(i, result);
            });
        }
        let _stop = StopOnDrop(&board);
        for i in range.clone() {
            let result = board.take(i);
            if sink(i, result)?.is_break() {
                break;
            }
        }
        Ok(())
    })
}

/// Run `f` over every cell on up to `threads` workers (0 = all cores) and
/// return the results in cell order; a cell that panicked yields
/// `Err(message)`. Each cell must be self-contained (seed-derived) for the
/// output to be identical at every pool size.
pub fn run_cells<C: Sync, T: Send>(
    cells: &[C],
    threads: usize,
    f: impl Fn(&C) -> T + Sync,
) -> Vec<Result<T, String>> {
    let mut out = Vec::with_capacity(cells.len());
    let Ok(()) = fold_ordered(
        0..cells.len(),
        threads,
        cells.len(),
        |i| f(&cells[i]),
        |_, r| {
            out.push(r);
            Ok::<_, Infallible>(ControlFlow::Continue(()))
        },
    );
    out
}

struct State<T> {
    /// Finished cells awaiting the sink, cell `i` at `i % ready.len()`.
    ready: Vec<Option<Result<T, String>>>,
    /// Cells below this index have been consumed by the sink.
    delivered: usize,
    /// Cells not yet finished.
    unposted: usize,
    /// Workers asleep at the window's edge.
    blocked: usize,
    /// Set when the sink loop ends, however it ends; workers then exit.
    stop: bool,
}

/// The sink and window-blocked workers sleep on one condvar. It is only
/// signalled when a sleeper can use the news.
struct Board<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
    /// The window can bind, so the sink consumes cells as they land.
    eager: bool,
}

impl<T> Board<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // No code panics while holding the lock, so a poisoned mutex
        // still holds consistent state.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until cell `i` is inside the window; `false` once stopped.
    fn admit(&self, i: usize, window: usize) -> bool {
        let mut g = self.lock();
        while !g.stop && i >= g.delivered + window {
            g.blocked += 1;
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
            g.blocked -= 1;
        }
        !g.stop
    }

    fn post(&self, i: usize, result: Result<T, String>) {
        let mut g = self.lock();
        let slot = i % g.ready.len();
        g.ready[slot] = Some(result);
        g.unposted -= 1;
        // The sink only ever waits for cell `delivered`; with no window to
        // free up it waits for the last cell instead.
        if (self.eager && i == g.delivered) || g.unposted == 0 {
            self.cv.notify_all();
        }
    }

    /// Mark the cells below `i` consumed, then block until cell `i` is
    /// finished and take it.
    fn take(&self, i: usize) -> Result<T, String> {
        let mut g = self.lock();
        g.delivered = i;
        if g.blocked > 0 {
            self.cv.notify_all();
        }
        let slot = i % g.ready.len();
        loop {
            if let Some(r) = g.ready[slot].take() {
                return r;
            }
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Stops and wakes every worker when the sink loop ends, however it ends.
struct StopOnDrop<'a, T>(&'a Board<T>);

impl<T> Drop for StopOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.lock().stop = true;
        self.0.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uneven cell costs so workers finish out of order.
    fn uneven(i: usize) -> u64 {
        std::thread::sleep(std::time::Duration::from_micros(
            ((i * 7919) % 13) as u64 * 150,
        ));
        (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    #[test]
    fn worker_count_resolves_and_caps() {
        assert_eq!(worker_count(4, 10), 4);
        assert_eq!(worker_count(16, 3), 3);
        assert_eq!(worker_count(4, 0), 1);
        let all = worker_count(0, usize::MAX);
        assert!(all >= 1);
        assert_eq!(worker_count(0, 1), 1);
    }

    #[test]
    fn results_in_index_order_for_every_thread_count() {
        let cells: Vec<usize> = (0..40).collect();
        let expect: Vec<u64> = cells.iter().map(|&i| uneven(i)).collect();
        for threads in [1, 2, 8] {
            let got: Vec<u64> = run_cells(&cells, threads, |&i| uneven(i))
                .into_iter()
                .map(|r| r.expect("no cell panics"))
                .collect();
            assert_eq!(got, expect, "threads {threads}");
        }
    }

    #[test]
    fn panicking_cell_is_isolated() {
        let cells: Vec<usize> = (0..12).collect();
        let out = run_cells(&cells, 4, |&i| {
            if i == 5 {
                panic!("cell {i} exploded");
            }
            i * 2
        });
        for (i, r) in out.into_iter().enumerate() {
            match r {
                Ok(v) => assert_eq!(v, i * 2),
                Err(m) => {
                    assert_eq!(i, 5);
                    assert_eq!(m, "cell 5 exploded");
                }
            }
        }
    }

    #[test]
    fn window_bounds_unconsumed_cells() {
        let in_flight = AtomicUsize::new(0);
        let max_seen = AtomicUsize::new(0);
        for window in [1, 3] {
            in_flight.store(0, Ordering::SeqCst);
            max_seen.store(0, Ordering::SeqCst);
            let mut order = Vec::new();
            let r: Result<(), Infallible> = fold_ordered(
                0..30,
                4,
                window,
                |i| {
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    max_seen.fetch_max(now, Ordering::SeqCst);
                    uneven(i)
                },
                |i, r| {
                    order.push((i, r.expect("no cell panics")));
                    // The cell counts as consumed once the sink returns.
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    Ok(ControlFlow::Continue(()))
                },
            );
            assert!(r.is_ok());
            let expect: Vec<(usize, u64)> = (0..30).map(|i| (i, uneven(i))).collect();
            assert_eq!(order, expect);
            let max = max_seen.load(Ordering::SeqCst);
            assert!(max <= window, "window {window}: {max} cells unconsumed");
        }
    }

    #[test]
    fn sink_stop_and_error_end_the_run() {
        let window = 2;
        let started_max = AtomicUsize::new(0);
        let work = |i: usize| {
            started_max.fetch_max(i, Ordering::SeqCst);
            uneven(i)
        };

        let mut seen = Vec::new();
        let r: Result<(), String> = fold_ordered(0..100, 4, window, work, |i, _| {
            seen.push(i);
            Ok(if i == 9 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            })
        });
        assert_eq!(r, Ok(()));
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        // Cell 9 was consumed last: nothing at or past 9 + window started.
        assert!(started_max.load(Ordering::SeqCst) < 9 + window);

        started_max.store(0, Ordering::SeqCst);
        let r: Result<(), String> = fold_ordered(0..100, 4, window, work, |i, _| {
            if i == 4 {
                Err(format!("sink failed at {i}"))
            } else {
                Ok(ControlFlow::Continue(()))
            }
        });
        assert_eq!(r, Err("sink failed at 4".to_string()));
        // Cell 4 was never consumed: nothing at or past 4 + window started.
        assert!(started_max.load(Ordering::SeqCst) < 4 + window);
    }

    #[test]
    fn panicking_sink_propagates_without_hanging() {
        // Run on a helper thread so a hang fails the test instead of
        // stalling the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let caught = catch_unwind(|| {
                let _: Result<(), Infallible> = fold_ordered(0..1000, 4, 2, uneven, |i, _| {
                    if i == 3 {
                        panic!("sink gave up at {i}");
                    }
                    Ok(ControlFlow::Continue(()))
                });
            });
            let message = caught.map_err(|p| panic_message(&*p).to_string());
            tx.send(message).expect("test thread waits");
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("fold_ordered hung after its sink panicked");
        assert_eq!(outcome, Err("sink gave up at 3".to_string()));
    }
}
