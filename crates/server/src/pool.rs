//! The compute pool: a fixed set of worker threads that run routed
//! requests for the event loop.
//!
//! Until PR 9 this module owned the whole serving thread model — an
//! acceptor plus workers that each held a connection for its entire
//! keep-alive lifetime. The event loop now owns every socket, so the
//! pool's job shrank to pure compute: the loop submits one job per
//! dispatched request, a worker runs the handler, and the response
//! travels back through the loop's completion channel. No thread ever
//! blocks on a peer again (streaming backpressure is bounded by the
//! stall reaper, see `event.rs`).
//!
//! ## Queue-depth accounting
//!
//! The overload controller's queue gauge must mean what it meant under
//! thread-per-connection: *work waiting behind busy capacity*. A job
//! handed straight to an idle worker was never "queued" in that sense —
//! under the old model it would have been a connection claimed
//! immediately by a free thread. So `submit` reserves an idle worker
//! when one is registered (the job stays off the gauge) and counts the
//! job only when every worker is busy. A worker picking up a counted
//! job takes it off the gauge before running, which is exactly when the
//! old model's claiming worker decremented it. The `debt` ledger
//! squares the one racy interleaving — a submitter reserving a worker
//! that then picks up an older *counted* job — so the books stay exact
//! under load, not just on average.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;

/// One unit of compute: a routed request ready to run.
pub type Job = Box<dyn FnOnce() + Send>;

/// Idle-worker bookkeeping, under one small lock (per-request traffic,
/// not per-byte; contention is negligible).
#[derive(Default)]
struct Ledger {
    /// Workers registered as waiting for a job.
    idle: usize,
    /// Registrations consumed out-of-order: a submitter reserved a
    /// worker that then picked up an older counted job. The next
    /// worker registration settles the debt instead of re-counting.
    debt: usize,
}

/// A cheap, cloneable submission handle. The event loop holds one so
/// the pool itself can stay owned (and joinable) by the server.
/// Workers exit once every handle *and* the pool's own sender drop.
#[derive(Clone)]
pub struct PoolHandle {
    sender: Sender<(Job, bool)>,
    ledger: Arc<Mutex<Ledger>>,
    depth_gauge: Arc<AtomicU64>,
}

impl PoolHandle {
    /// Hands one job to the pool. Never blocks.
    pub fn submit(&self, job: Job) {
        let counted = {
            let mut ledger = self.ledger.lock();
            if ledger.idle > 0 {
                ledger.idle -= 1;
                false
            } else {
                true
            }
        };
        if counted {
            self.depth_gauge.fetch_add(1, Ordering::Relaxed);
        }
        let _ = self.sender.send((job, counted));
    }
}

/// The running compute pool.
pub struct Pool {
    handle: Option<PoolHandle>,
    depth_gauge: Arc<AtomicU64>,
    workers: Vec<JoinHandle<()>>,
}

/// Spawns `threads` compute workers.
///
/// `depth_gauge` is the overload controller's queue gauge: it counts
/// jobs submitted while no worker was idle and not yet picked up.
pub fn spawn(threads: usize, depth_gauge: Arc<AtomicU64>) -> Pool {
    let (sender, receiver) = unbounded::<(Job, bool)>();
    let ledger = Arc::new(Mutex::new(Ledger::default()));

    let workers: Vec<JoinHandle<()>> = (0..threads.max(1))
        .map(|i| {
            let receiver = receiver.clone();
            let ledger = Arc::clone(&ledger);
            let depth_gauge = Arc::clone(&depth_gauge);
            std::thread::Builder::new()
                .name(format!("coursenav-worker-{i}"))
                .spawn(move || loop {
                    {
                        let mut ledger = ledger.lock();
                        if ledger.debt > 0 {
                            // A submitter already reserved this
                            // registration (see module docs).
                            ledger.debt -= 1;
                        } else {
                            ledger.idle += 1;
                        }
                    }
                    let Ok((job, counted)) = receiver.recv() else {
                        return; // channel disconnected: shutdown
                    };
                    if counted {
                        let mut ledger = ledger.lock();
                        if ledger.idle > 0 {
                            ledger.idle -= 1;
                        } else {
                            // Our registration was reserved for an
                            // uncounted job behind this one.
                            ledger.debt += 1;
                        }
                        drop(ledger);
                        depth_gauge.fetch_sub(1, Ordering::Relaxed);
                    }
                    // Handler panics are caught at the dispatch layer
                    // (`routes::run_request`); a stray one must not kill
                    // the worker.
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                })
                .expect("spawn worker thread")
        })
        .collect();

    Pool {
        handle: Some(PoolHandle {
            sender,
            ledger,
            depth_gauge: Arc::clone(&depth_gauge),
        }),
        depth_gauge,
        workers,
    }
}

impl Pool {
    /// A cloneable submission handle (see [`PoolHandle`]). Panics after
    /// [`Pool::shutdown`].
    pub fn handle(&self) -> PoolHandle {
        self.handle.clone().expect("pool is running")
    }

    /// Hands one job to the pool. Never blocks and never fails while
    /// the pool is up; after [`Pool::shutdown`] the job is dropped.
    pub fn submit(&self, job: Job) {
        if let Some(handle) = &self.handle {
            handle.submit(job);
        }
    }

    /// Current queue gauge reading (counted jobs not yet picked up).
    pub fn queued(&self) -> u64 {
        self.depth_gauge.load(Ordering::Relaxed)
    }

    /// Drops this side of the channel and joins every worker.
    /// Idempotent. Callers must first drop any outstanding
    /// [`PoolHandle`] clones (workers exit only when the channel fully
    /// disconnects) and unblock workers waiting on connection
    /// backpressure — the event loop's teardown does both before the
    /// server joins the pool.
    pub fn shutdown(&mut self) {
        self.handle.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn jobs_run_and_shutdown_joins() {
        let gauge = Arc::new(AtomicU64::new(0));
        let mut pool = spawn(2, Arc::clone(&gauge));
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let ran = Arc::clone(&ran);
            pool.submit(Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 16);
        assert_eq!(gauge.load(Ordering::Relaxed), 0, "gauge drains to zero");
    }

    #[test]
    fn idle_workers_keep_jobs_off_the_gauge() {
        let gauge = Arc::new(AtomicU64::new(0));
        let pool = spawn(4, Arc::clone(&gauge));
        // Let every worker register idle.
        std::thread::sleep(Duration::from_millis(100));
        let (done_tx, done_rx) = crossbeam::channel::bounded::<()>(4);
        for _ in 0..4 {
            let done_tx = done_tx.clone();
            pool.submit(Box::new(move || {
                let _ = done_tx.send(());
            }));
        }
        // All four reserved an idle worker: nothing was ever counted.
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
        for _ in 0..4 {
            done_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("job ran");
        }
    }

    #[test]
    fn jobs_behind_busy_workers_are_counted() {
        let gauge = Arc::new(AtomicU64::new(0));
        let pool = spawn(1, Arc::clone(&gauge));
        std::thread::sleep(Duration::from_millis(100));

        let (hold_tx, hold_rx) = crossbeam::channel::bounded::<()>(1);
        pool.submit(Box::new(move || {
            let _ = hold_rx.recv_timeout(Duration::from_secs(5));
        }));
        // Wait for the worker to actually claim the holder.
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(gauge.load(Ordering::Relaxed), 0, "claimed job is uncounted");

        pool.submit(Box::new(|| {}));
        pool.submit(Box::new(|| {}));
        assert_eq!(gauge.load(Ordering::Relaxed), 2, "queued jobs are counted");

        hold_tx.send(()).unwrap();
        // The worker drains both; the gauge returns to zero.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while gauge.load(Ordering::Relaxed) != 0 {
            assert!(std::time::Instant::now() < deadline, "gauge never drained");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
