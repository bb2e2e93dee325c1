//! The sharded worker pool: N single-threaded shards, each owning its own
//! analysis counters.
//!
//! Requests are partitioned by content hash ([`crate::RequestKey::shard`])
//! across shards. Each shard is one worker thread with a private job queue
//! and a private [`AnalysisCache`], which the passes of one request share:
//! its hit/miss counters and the function-memo handle. The analyses and
//! the layout themselves live in the unit a request parsed and are dropped
//! with it, so a shard keeps nothing of a finished request, and nothing is
//! bounded or evicted. Work carries across requests through the function
//! memo, which all shards share.
//!
//! Jobs are expected to contain their own panic isolation (the engine
//! wraps each request in `catch_unwind`); as a second line of defense a
//! shard that *does* see a panic escape logs it and keeps serving.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use mao::AnalysisCache;

/// What a job runs against: the shard's index (for labeled metrics) and
/// its private analysis cache.
pub struct ShardCtx {
    /// Shard index in `0..shards`.
    pub index: usize,
    /// The shard's private analysis and layout counters.
    pub analyses: Arc<AnalysisCache>,
}

/// One queued unit of work.
pub type Job = Box<dyn FnOnce(&ShardCtx) + Send + 'static>;

struct Shard {
    tx: Mutex<Option<Sender<Job>>>,
    handle: Mutex<Option<JoinHandle<()>>>,
    ctx: Arc<ShardCtx>,
}

/// Fixed set of single-threaded shards. Dropping the pool (or calling
/// [`ShardPool::shutdown`]) lets every shard finish its queued jobs and
/// exit.
pub struct ShardPool {
    shards: Vec<Shard>,
}

impl ShardPool {
    /// Spawn `shards` worker shards (minimum 1), each with a private
    /// analysis cache.
    pub fn new(shards: usize) -> ShardPool {
        let shards = shards.max(1);
        let mut out = Vec::with_capacity(shards);
        for index in 0..shards {
            let (tx, rx) = channel::<Job>();
            let ctx = Arc::new(ShardCtx {
                index,
                analyses: Arc::new(AnalysisCache::new()),
            });
            let worker_ctx = ctx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("maod-shard-{index}"))
                .spawn(move || shard_loop(rx, worker_ctx))
                .expect("spawn shard thread");
            out.push(Shard {
                tx: Mutex::new(Some(tx)),
                handle: Mutex::new(Some(handle)),
                ctx,
            });
        }
        ShardPool { shards: out }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard's context (its analysis cache), for stats and metrics
    /// attachment.
    pub fn ctx(&self, shard: usize) -> &ShardCtx {
        &self.shards[shard].ctx
    }

    /// Enqueue a job on `shard`. Fails only after [`ShardPool::shutdown`].
    pub fn submit(&self, shard: usize, job: Job) -> Result<(), &'static str> {
        let shard = &self.shards[shard % self.shards.len()];
        match shard.tx.lock().unwrap().as_ref() {
            Some(tx) => tx.send(job).map_err(|_| "shard worker is gone"),
            None => Err("worker pool is shut down"),
        }
    }

    /// Close every queue and join every shard (queued jobs still run).
    pub fn shutdown(&self) {
        for shard in &self.shards {
            drop(shard.tx.lock().unwrap().take());
        }
        let current = std::thread::current().id();
        for shard in &self.shards {
            let handle = shard.handle.lock().unwrap().take();
            if let Some(handle) = handle {
                // A job can own the last handle to the engine (and thus to
                // this pool): its drop then runs shutdown *on a shard
                // thread*, and a thread cannot join itself. Skip it — it
                // exits on its own when the loop sees the closed queue.
                if handle.thread().id() == current {
                    continue;
                }
                let _ = handle.join();
            }
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn shard_loop(rx: Receiver<Job>, ctx: Arc<ShardCtx>) {
    while let Ok(job) = rx.recv() {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(&ctx)));
        if outcome.is_err() {
            eprintln!("[maod] shard worker caught an unisolated panic; continuing");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::sync_channel;

    #[test]
    fn runs_jobs_across_shards() {
        let pool = ShardPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = sync_channel(64);
        for i in 0..64 {
            let counter = counter.clone();
            let done = done_tx.clone();
            pool.submit(
                i % 4,
                Box::new(move |_ctx| {
                    counter.fetch_add(1, Ordering::Relaxed);
                    let _ = done.send(());
                }),
            )
            .unwrap();
        }
        for _ in 0..64 {
            done_rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("job completed");
        }
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn shards_have_private_analysis_caches() {
        let pool = ShardPool::new(2);
        assert!(!Arc::ptr_eq(&pool.ctx(0).analyses, &pool.ctx(1).analyses));
        let (done_tx, done_rx) = sync_channel(1);
        pool.submit(
            1,
            Box::new(move |ctx| {
                let _ = done_tx.send(ctx.index);
            }),
        )
        .unwrap();
        assert_eq!(
            done_rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap(),
            1,
            "job ran on the shard it was submitted to"
        );
    }

    #[test]
    fn survives_panicking_job() {
        let pool = ShardPool::new(1);
        let (done_tx, done_rx) = sync_channel(1);
        pool.submit(0, Box::new(|_| panic!("boom"))).unwrap();
        pool.submit(
            0,
            Box::new(move |_| {
                let _ = done_tx.send(());
            }),
        )
        .unwrap();
        done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("worker survived the panic");
    }

    /// Regression: when a job owns the last `Arc<ShardPool>`, the pool's
    /// drop runs on the worker thread. The self-join used to make std panic
    /// (`pthread_join` on the current thread); shutdown must skip it.
    #[test]
    fn dropping_the_last_pool_handle_on_a_worker_is_clean() {
        let pool = Arc::new(ShardPool::new(2));
        let job_pool = pool.clone();
        let (release_tx, release_rx) = sync_channel::<()>(0);
        let (done_tx, done_rx) = sync_channel::<bool>(1);
        pool.submit(
            0,
            Box::new(move |_| {
                release_rx.recv().unwrap(); // until main has dropped its Arc
                let panicked =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(job_pool)))
                        .is_err();
                let _ = done_tx.send(panicked);
            }),
        )
        .unwrap();
        drop(pool);
        release_tx.send(()).unwrap();
        let panicked = done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("worker finished");
        assert!(!panicked, "worker-side pool drop must not panic");
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let pool = ShardPool::new(2);
        pool.shutdown();
        assert!(pool.submit(0, Box::new(|_| {})).is_err());
    }
}
