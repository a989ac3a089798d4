//! The start crew: calibrates each lane's model while the calling thread
//! builds the next.

use std::panic::resume_unwind;
use std::sync::{mpsc, Mutex};

/// Runs `work` over the jobs `source` yields; results in source order.
/// `source` is driven on the calling thread, so what it does to make a job
/// (building a model against a shared store) happens serially and in
/// order, while `min(available_parallelism, jobs) - 1` scoped helpers —
/// and the caller, once the source is exhausted — take jobs as they
/// appear. Each of those draining threads makes one `S` with `state` when
/// it takes its first job (one simulator, however many models it
/// calibrates) and drops it when the jobs run out, so none outlives the
/// call. One job, or one core, spawns nothing. Helpers run under the
/// caller's [`drec_par::current`] pool; a panic of `work` resumes on the
/// caller.
pub(crate) fn crew<T: Send, S, R: Send>(
    source: impl ExactSizeIterator<Item = T>,
    state: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, T) -> R + Sync,
) -> Vec<R> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let helpers = cores.min(source.len()).saturating_sub(1);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    let rx = Mutex::new(rx);
    let drain = || {
        let mut held = None;
        let mut done = Vec::new();
        loop {
            // The guard drops at the end of this statement, before `work`.
            let job = rx.lock().expect("nothing panics holding it").recv();
            let Ok((index, job)) = job else { return done };
            done.push((index, work(held.get_or_insert_with(&state), job)));
        }
    };
    let par = drec_par::current();
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (0..helpers)
            .map(|_| scope.spawn(|| drec_par::with_pool(&par, drain)))
            .collect();
        // Owned by this closure, so that a panic of `source` still hangs
        // up on the helpers the scope then waits for.
        let tx = tx;
        for job in source.enumerate() {
            tx.send(job).expect("the receiver outlives the scope");
        }
        drop(tx);
        let mut done = drain();
        for helper in helpers {
            done.extend(helper.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        done
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Counts the states alive.
    struct Held<'a>(&'a AtomicUsize);

    impl Drop for Held<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn one_state_per_draining_thread_and_none_outlives_the_call() {
        let (made, alive) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let state = || {
            made.fetch_add(1, Ordering::SeqCst);
            alive.fetch_add(1, Ordering::SeqCst);
            Held(&alive)
        };
        let jobs = 40;
        let squares = crew(0..jobs, state, |_: &mut Held, job| job * job);
        assert_eq!(squares, (0..jobs).map(|j| j * j).collect::<Vec<_>>());
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let made = made.load(Ordering::SeqCst);
        assert!(
            (1..=cores.min(jobs)).contains(&made),
            "{made} states for {cores} cores"
        );
        assert_eq!(alive.load(Ordering::SeqCst), 0, "a state outlived crew");
    }

    #[test]
    fn no_jobs_make_no_state() {
        let made = AtomicUsize::new(0);
        let state = || made.fetch_add(1, Ordering::SeqCst);
        let none: Vec<()> = crew(std::iter::empty::<()>(), state, |_, ()| ());
        assert!(none.is_empty());
        assert_eq!(made.load(Ordering::SeqCst), 0);
    }
}
