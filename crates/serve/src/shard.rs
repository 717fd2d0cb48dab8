//! The sharded worker pool: one OS thread per shard, each owning a private
//! predictor instance.
//!
//! Requests are routed by a hash of the load PC, so every dynamic instance
//! of a load trains and queries the *same* predictor — the property the
//! PC-indexed tables rely on — while shards share nothing and never lock.
//! Each shard is fed through a **bounded** `sync_channel`; when a queue is
//! full the caller gets the job back and answers `Busy` (explicit
//! backpressure, never an unbounded buffer). A worker amortises queue
//! synchronisation by draining up to `max_batch` jobs per blocking `recv`.
//!
//! Because [`mascot::MemDepPredictor`] threads opaque metadata from
//! `predict` to `train`, each shard keeps a fixed-size *pending table*: a
//! predict call parks `(pc, prediction, meta)` in a slot and returns the
//! slot's ticket; the train call quotes the ticket to retrieve them. A
//! ticket whose slot has been reused (the prediction outlived the window)
//! counts as a stale train and is dropped — predictor state is never
//! trained with someone else's metadata.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

use mascot::history::BranchEvent;
use mascot::prediction::{MemDepPredictor, MemDepPrediction, PredictReq, TrainReq};
use mascot_predictors::{AnyMeta, AnyPredictor, PredictorKind};

use crate::metrics::ShardMetrics;
use crate::poll::Waker;
use crate::wire::{PredictItem, PredictReply, Response, StatsReport, TrainItem};

/// Default shard count.
pub const DEFAULT_SHARDS: usize = 4;
/// Default bounded queue depth per shard (jobs, not items).
pub const DEFAULT_QUEUE_DEPTH: usize = 256;
/// Default maximum jobs drained per blocking queue pop.
pub const DEFAULT_MAX_BATCH: usize = 32;
/// Default pending-prediction slots per shard (power of two).
pub const DEFAULT_PENDING_CAPACITY: usize = 1 << 15;

/// Sizing knobs for a [`ShardPool`].
#[derive(Debug, Clone)]
pub struct ShardPoolConfig {
    /// Number of worker threads / predictor instances.
    pub shards: usize,
    /// Bounded queue depth per shard.
    pub queue_depth: usize,
    /// Maximum jobs drained per blocking queue pop.
    pub max_batch: usize,
    /// Pending-prediction slots per shard (rounded up to a power of two).
    pub pending_capacity: usize,
    /// Treat a pending-table eviction as fatal instead of a silent drop.
    ///
    /// A `predict` whose slot is recycled before its `train` arrives is
    /// normally just counted (`evicted_pending`) and the late train goes
    /// stale — acceptable under overload, but in an audit run it means the
    /// deployment's in-flight window exceeds `pending_capacity` and
    /// training silently diverges from the measured workload. `mascotd
    /// --audit` runs with this set.
    pub strict_tickets: bool,
}

impl Default for ShardPoolConfig {
    fn default() -> Self {
        Self {
            shards: DEFAULT_SHARDS,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            max_batch: DEFAULT_MAX_BATCH,
            pending_capacity: DEFAULT_PENDING_CAPACITY,
            strict_tickets: false,
        }
    }
}

/// A predictor-state event broadcast to every shard (replay traffic).
#[derive(Debug, Clone, Copy)]
pub enum SyncEvent {
    /// A committed-path branch.
    Branch(BranchEvent),
    /// A store dispatch.
    StoreDispatch {
        /// PC of the store.
        pc: u64,
        /// Sequence number of the store.
        store_seq: u64,
    },
}

/// Where a shard worker posts a job's reply: an unbounded channel plus an
/// optional [`Waker`] for a parked event loop.
///
/// Workers never block on delivery — the channel is unbounded and the
/// eventfd write behind [`Waker::wake`] is non-blocking — which is what
/// lets the event loop safely park in `epoll_wait` and issue blocking
/// in-loop snapshot/restore fences without risking a worker/loop deadlock.
#[derive(Clone)]
pub struct ReplySink {
    tx: Delivery,
    waker: Option<Arc<Waker>>,
}

#[derive(Clone)]
enum Delivery {
    /// Replies only: the receivers of local pools, which never refuse.
    Replies(Sender<(u64, ShardReply)>),
    /// Replies or refusals: the event loop's receiver.
    Outcomes(Sender<(u64, Outcome)>),
}

impl std::fmt::Debug for ReplySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplySink")
            .field("waker", &self.waker.is_some())
            .finish()
    }
}

impl ReplySink {
    /// A sink that only delivers to `tx` (the receiver is being polled or
    /// blocked on directly).
    pub fn new(tx: Sender<(u64, ShardReply)>) -> Self {
        Self {
            tx: Delivery::Replies(tx),
            waker: None,
        }
    }

    /// A sink of [`Outcome`]s that additionally wakes `waker` after every
    /// delivery, for receivers parked in [`crate::poll::Poller::wait`].
    pub fn with_waker(tx: Sender<(u64, Outcome)>, waker: Arc<Waker>) -> Self {
        Self {
            tx: Delivery::Outcomes(tx),
            waker: Some(waker),
        }
    }

    /// Delivers one reply. A gone receiver is fine — the work is already
    /// done either way (e.g. the client disconnected mid-flight).
    pub fn send(&self, tag: u64, reply: ShardReply) {
        self.deliver(tag, Ok(reply));
    }

    /// Refuses a job with a `Busy` or `Error` response. A replies-only
    /// sink drops the refusal: only the event loop's sinks feed remote
    /// workers, the one kind that refuses.
    pub fn refuse(&self, tag: u64, resp: Response) {
        self.deliver(tag, Err(resp));
    }

    fn deliver(&self, tag: u64, outcome: Outcome) {
        let _ = match (&self.tx, outcome) {
            (Delivery::Outcomes(tx), outcome) => tx.send((tag, outcome)).is_ok(),
            (Delivery::Replies(tx), Ok(reply)) => tx.send((tag, reply)).is_ok(),
            (Delivery::Replies(_), Err(_)) => false,
        };
        if let Some(waker) = &self.waker {
            waker.wake();
        }
    }
}

/// A unit of work on a shard queue.
pub enum ShardJob {
    /// Predict a sub-batch; the reply carries `tag` for reassembly.
    Predict {
        /// The items, all owned by this shard.
        items: Vec<PredictItem>,
        /// Caller-chosen tag echoed in the reply.
        tag: u64,
        /// Where to deliver the reply.
        reply: ReplySink,
    },
    /// Train from a sub-batch of outcomes.
    Train {
        /// The items, all owned by this shard.
        items: Vec<TrainItem>,
        /// Caller-chosen tag echoed in the reply.
        tag: u64,
        /// Where to deliver the reply.
        reply: ReplySink,
    },
    /// Apply predictor-state events (no reply).
    Sync(Vec<SyncEvent>),
    /// Serialize this shard's predictor state.
    Snapshot {
        /// Caller-chosen tag echoed in the reply.
        tag: u64,
        /// Where to deliver the reply.
        reply: ReplySink,
    },
    /// Swap in a fully-built replacement predictor (decoded and validated by
    /// the caller) and clear the pending table — parked tickets reference
    /// metadata from the predictor being replaced.
    Restore {
        /// The replacement predictor.
        predictor: Box<AnyPredictor>,
        /// Caller-chosen tag echoed in the reply.
        tag: u64,
        /// Where to deliver the reply.
        reply: ReplySink,
    },
    /// Park the worker on a barrier (used by tests and by callers that need
    /// a completion fence: the worker has necessarily finished everything
    /// queued before this job when the barrier releases).
    Wait(Arc<Barrier>),
}

impl std::fmt::Debug for ShardJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardJob::Predict { items, tag, .. } => f
                .debug_struct("Predict")
                .field("items", &items.len())
                .field("tag", tag)
                .finish(),
            ShardJob::Train { items, tag, .. } => f
                .debug_struct("Train")
                .field("items", &items.len())
                .field("tag", tag)
                .finish(),
            ShardJob::Sync(events) => f.debug_tuple("Sync").field(&events.len()).finish(),
            ShardJob::Snapshot { tag, .. } => {
                f.debug_struct("Snapshot").field("tag", tag).finish()
            }
            ShardJob::Restore { tag, .. } => f.debug_struct("Restore").field("tag", tag).finish(),
            ShardJob::Wait(_) => f.write_str("Wait"),
        }
    }
}

/// A shard's answer to a [`ShardJob`].
#[derive(Debug)]
pub enum ShardReply {
    /// Predictions, in sub-batch order.
    Predict(Vec<PredictReply>),
    /// Training summary for the sub-batch.
    Train {
        /// Items whose ticket matched.
        applied: u32,
        /// Items dropped on a stale ticket.
        stale: u32,
    },
    /// The shard's serialized predictor state.
    Snapshot(Vec<u8>),
    /// Entries resident in the freshly swapped-in predictor.
    Restore(u64),
}

/// What the event loop receives per job: the shard's reply, or a refusal —
/// a `Busy` or `Error` response that answers the whole request
/// (all-or-nothing), sent by a remote node's worker that could not serve
/// the job. A refusal is not a [`ShardReply`] variant so that exhaustive
/// matches on local replies stay unaffected.
pub type Outcome = Result<ShardReply, Response>;

/// PC→shard multiplier of a local pool (fibonacci hashing).
pub const SHARD_HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Routes a PC to one of `n` shards: multiply-shift mixing by the odd
/// constant `mul`, so that the low bits of the index depend on every bit
/// of the PC — stride-patterned PCs must not all land on one shard.
#[inline]
pub fn index_of(pc: u64, n: usize, mul: u64) -> usize {
    debug_assert!(n > 0);
    ((pc.wrapping_mul(mul) >> 32) as usize) % n
}

/// A parked prediction awaiting its training outcome.
struct Pending {
    ticket: u32,
    pc: u64,
    prediction: mascot::prediction::MemDepPrediction,
    meta: AnyMeta,
}

/// Fixed-capacity, ticket-indexed open slab. Tickets increase monotonically
/// per shard; slot = ticket % capacity, so a slot naturally evicts the
/// prediction `capacity` tickets older — matching the intuition that
/// training interest decays with age.
struct PendingTable {
    slots: Vec<Option<Pending>>,
    mask: u32,
    next_ticket: u32,
}

impl PendingTable {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.next_power_of_two().max(2);
        Self {
            slots: (0..capacity).map(|_| None).collect(),
            mask: capacity as u32 - 1,
            next_ticket: 0,
        }
    }

    /// Parks a prediction and returns `(ticket, evicted)`: `evicted` is
    /// true when the slot still held an untrained prediction (the window
    /// outran the table and that older ticket is now silently stale).
    fn insert(
        &mut self,
        pc: u64,
        prediction: mascot::prediction::MemDepPrediction,
        meta: AnyMeta,
    ) -> (u32, bool) {
        let ticket = self.next_ticket;
        self.next_ticket = self.next_ticket.wrapping_add(1);
        let slot = &mut self.slots[(ticket & self.mask) as usize];
        let evicted = slot.is_some();
        *slot = Some(Pending {
            ticket,
            pc,
            prediction,
            meta,
        });
        (ticket, evicted)
    }

    fn take(&mut self, ticket: u32, pc: u64) -> Option<Pending> {
        let slot = &mut self.slots[(ticket & self.mask) as usize];
        match slot {
            Some(p) if p.ticket == ticket && p.pc == pc => slot.take(),
            _ => None,
        }
    }
}

/// The pool: shard senders, metrics, worker join handles, and the
/// PC→shard multiplier.
#[derive(Debug)]
pub struct ShardPool {
    senders: Vec<SyncSender<ShardJob>>,
    metrics: Vec<Arc<ShardMetrics>>,
    handles: Vec<JoinHandle<()>>,
    hash_mul: u64,
}

impl ShardPool {
    /// Spawns `cfg.shards` workers, each owning a freshly built `kind`
    /// predictor.
    pub fn new(kind: PredictorKind, cfg: &ShardPoolConfig) -> Self {
        assert!(cfg.shards > 0, "at least one shard");
        Self::with_predictors((0..cfg.shards).map(|_| kind.build()).collect(), cfg)
    }

    /// Spawns one worker per element of `predictors`, each owning its
    /// pre-built (e.g. snapshot-restored) predictor. `cfg.shards` is
    /// ignored; the pool's shard count is `predictors.len()`.
    pub fn with_predictors(predictors: Vec<AnyPredictor>, cfg: &ShardPoolConfig) -> Self {
        let metrics: Vec<Arc<ShardMetrics>> =
            predictors.iter().map(|_| Arc::new(ShardMetrics::new())).collect();
        let workers = predictors
            .into_iter()
            .zip(&metrics)
            .map(|(predictor, m)| {
                let m = Arc::clone(m);
                let (max_batch, pending_capacity) = (cfg.max_batch.max(1), cfg.pending_capacity);
                let strict_tickets = cfg.strict_tickets;
                move |rx| worker(rx, predictor, m, max_batch, pending_capacity, strict_tickets)
            })
            .collect();
        Self::spawn("mascot-shard", workers, metrics, cfg.queue_depth, SHARD_HASH_MUL)
    }

    /// Spawns one thread per element of `workers`, each fed by its own
    /// bounded queue of `queue_depth` jobs; PCs route over them by
    /// [`index_of`] with `hash_mul`. `metrics` holds one block per worker
    /// (the one it reports into), optionally followed by extra blocks that
    /// `Stats` reports too — the router's replica.
    pub fn spawn<W>(
        name: &str,
        workers: Vec<W>,
        metrics: Vec<Arc<ShardMetrics>>,
        queue_depth: usize,
        hash_mul: u64,
    ) -> Self
    where
        W: FnOnce(Receiver<ShardJob>) + Send + 'static,
    {
        assert!(!workers.is_empty(), "at least one shard");
        assert!(metrics.len() >= workers.len(), "one metrics block per shard");
        assert!(queue_depth > 0, "queue depth must be positive");
        let mut senders = Vec::with_capacity(workers.len());
        let mut handles = Vec::with_capacity(workers.len());
        for (shard, work) in workers.into_iter().enumerate() {
            let (tx, rx) = sync_channel(queue_depth);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("{name}-{shard}"))
                    .spawn(move || work(rx))
                    .expect("spawn shard worker"),
            );
            senders.push(tx);
        }
        Self {
            senders,
            metrics,
            handles,
            hash_mul,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.senders.len()
    }

    /// The shard owning `pc`.
    pub fn shard_of(&self, pc: u64) -> usize {
        index_of(pc, self.senders.len(), self.hash_mul)
    }

    /// The metrics blocks: one per shard, then any extra reported blocks.
    pub fn metrics(&self) -> &[Arc<ShardMetrics>] {
        &self.metrics
    }

    /// Non-blocking enqueue; hands the job back when the queue is full or
    /// the shard worker is gone.
    pub fn try_send(&self, shard: usize, job: ShardJob) -> Result<(), ShardJob> {
        self.senders[shard].try_send(job).map_err(|e| match e {
            TrySendError::Full(job) | TrySendError::Disconnected(job) => job,
        })
    }

    /// Blocking enqueue (replay traffic, which wants throughput rather than
    /// a `Busy` signal).
    pub fn send(&self, shard: usize, job: ShardJob) {
        let _ = self.senders[shard].send(job);
    }

    /// Broadcasts predictor-state events to every shard (blocking).
    pub fn broadcast_sync(&self, events: Vec<SyncEvent>) {
        if events.is_empty() {
            return;
        }
        for tx in &self.senders {
            let _ = tx.send(ShardJob::Sync(events.clone()));
        }
    }

    /// Blocks until every shard has drained everything queued before this
    /// call (a barrier job per shard).
    pub fn fence(&self) {
        let barrier = Arc::new(Barrier::new(self.senders.len() + 1));
        for tx in &self.senders {
            let _ = tx.send(ShardJob::Wait(Arc::clone(&barrier)));
        }
        barrier.wait();
    }

    /// Serializes every shard's predictor state, in shard order (blocking:
    /// each shard finishes the work queued ahead of its snapshot job first,
    /// so the result is a consistent point-in-time cut per shard).
    ///
    /// # Errors
    ///
    /// When a shard worker has exited or did not answer.
    pub fn snapshot_shards(&self) -> Result<Vec<Vec<u8>>, String> {
        let mut payloads = vec![Vec::new(); self.senders.len()];
        self.each_shard(
            |tag, reply| ShardJob::Snapshot { tag, reply },
            |shard, reply| {
                let ShardReply::Snapshot(bytes) = reply else { return None };
                payloads[shard] = bytes;
                Some(())
            },
        )?;
        Ok(payloads)
    }

    /// Swaps one pre-built predictor into each shard (in shard order),
    /// clears the pending tables, and records each shard's restored entry
    /// count in its metrics. Returns the total across shards.
    ///
    /// # Errors
    ///
    /// When a shard worker has exited or did not answer.
    ///
    /// # Panics
    ///
    /// When `predictors.len()` differs from the pool's shard count — the
    /// caller performs any resharding *before* handing the pool its new
    /// per-shard states.
    pub fn restore_shards(&self, predictors: Vec<AnyPredictor>) -> Result<u64, String> {
        assert_eq!(
            predictors.len(),
            self.senders.len(),
            "one replacement predictor per shard"
        );
        let mut predictors = predictors.into_iter();
        let mut total = 0u64;
        self.each_shard(
            |tag, reply| ShardJob::Restore {
                predictor: Box::new(predictors.next().expect("one per shard")),
                tag,
                reply,
            },
            |shard, reply| {
                let ShardReply::Restore(entries) = reply else { return None };
                self.metrics[shard]
                    .restored_entries
                    .store(entries, Ordering::Relaxed);
                total += entries;
                Some(())
            },
        )?;
        Ok(total)
    }

    /// Sends one job per shard (blocking) and hands every reply to
    /// `on_reply`, which refuses a mismatched one by returning `None`.
    fn each_shard(
        &self,
        mut job: impl FnMut(u64, ReplySink) -> ShardJob,
        mut on_reply: impl FnMut(usize, ShardReply) -> Option<()>,
    ) -> Result<(), String> {
        let (tx, rx) = std::sync::mpsc::channel();
        for (shard, sender) in self.senders.iter().enumerate() {
            if sender.send(job(shard as u64, ReplySink::new(tx.clone()))).is_err() {
                return Err("shard worker exited".to_string());
            }
        }
        drop(tx);
        let mut received = 0usize;
        for (tag, reply) in rx.iter() {
            on_reply(tag as usize, reply).ok_or("mismatched shard reply")?;
            received += 1;
        }
        if received != self.senders.len() {
            return Err("incomplete shard gather".to_string());
        }
        Ok(())
    }

    /// Stamps the warm-start observability counters (snapshot age at
    /// restore, checkpoint/restore generation) on every shard's metrics.
    pub fn set_warm_start(&self, snapshot_age_s: u64, restarts: u64) {
        for m in &self.metrics {
            m.snapshot_age_s.store(snapshot_age_s, Ordering::Relaxed);
            m.restarts.store(restarts, Ordering::Relaxed);
        }
    }

    /// Snapshots every shard's counters.
    pub fn stats_report(&self) -> StatsReport {
        StatsReport {
            shards: self.metrics.iter().map(|m| m.snapshot()).collect(),
        }
    }

    /// Drops the senders and joins the workers; each worker drains every
    /// job already queued before exiting (`sync_channel` delivers buffered
    /// messages before reporting disconnect). Returns the final snapshot.
    ///
    /// # Panics
    ///
    /// When a shard worker died of a panic — most notably the
    /// `strict_tickets` pending-eviction hard error — so an audit run
    /// cannot silently absorb a dead shard into a clean exit.
    pub fn shutdown(self) -> StatsReport {
        let Self {
            senders,
            metrics,
            handles,
            ..
        } = self;
        drop(senders);
        let mut dead_shards = 0usize;
        for handle in handles {
            dead_shards += usize::from(handle.join().is_err());
        }
        let report = StatsReport {
            shards: metrics.iter().map(|m| m.snapshot()).collect(),
        };
        assert_eq!(
            dead_shards, 0,
            "{dead_shards} shard worker(s) panicked (see stderr)"
        );
        report
    }
}

/// Worker-owned scratch for the batched predictor calls: one request build,
/// one `predict_batch`/`train_batch` per drained job, no per-item predictor
/// dispatch.
#[derive(Default)]
struct BatchScratch {
    reqs: Vec<PredictReq>,
    out: Vec<(MemDepPrediction, AnyMeta)>,
    trains: Vec<TrainReq<AnyMeta>>,
}

/// The shard worker loop: block for one job, then drain up to `max_batch`
/// more without blocking, processing each in arrival order.
fn worker(
    rx: Receiver<ShardJob>,
    mut predictor: AnyPredictor,
    metrics: Arc<ShardMetrics>,
    max_batch: usize,
    pending_capacity: usize,
    strict_tickets: bool,
) {
    let mut pending = PendingTable::new(pending_capacity);
    let mut scratch = BatchScratch::default();
    while let Ok(first) = rx.recv() {
        metrics.batches.fetch_add(1, Ordering::Relaxed);
        process(
            first,
            &mut predictor,
            &mut pending,
            &mut scratch,
            &metrics,
            strict_tickets,
        );
        for _ in 1..max_batch {
            match rx.try_recv() {
                Ok(job) => process(
                    job,
                    &mut predictor,
                    &mut pending,
                    &mut scratch,
                    &metrics,
                    strict_tickets,
                ),
                Err(_) => break,
            }
        }
    }
}

fn process(
    job: ShardJob,
    predictor: &mut AnyPredictor,
    pending: &mut PendingTable,
    scratch: &mut BatchScratch,
    metrics: &ShardMetrics,
    strict_tickets: bool,
) {
    let t0 = Instant::now();
    match job {
        ShardJob::Predict { items, tag, reply } => {
            let n = items.len() as u64;
            scratch.reqs.clear();
            scratch.reqs.extend(items.iter().map(|item| PredictReq {
                pc: item.pc,
                store_seq: item.store_seq,
                oracle: None,
            }));
            predictor.predict_batch(&scratch.reqs, &mut scratch.out);
            let mut out = Vec::with_capacity(items.len());
            let mut evicted = 0u64;
            for (item, (prediction, meta)) in items.iter().zip(scratch.out.drain(..)) {
                let (ticket, evicted_one) = pending.insert(item.pc, prediction, meta);
                evicted += u64::from(evicted_one);
                out.push(PredictReply { ticket, prediction });
            }
            if evicted > 0 {
                metrics.evicted_pending.fetch_add(evicted, Ordering::Relaxed);
                assert!(
                    !strict_tickets,
                    "pending-table eviction under strict_tickets: {evicted} \
                     in-flight prediction(s) recycled before their train \
                     arrived (capacity {}); raise pending_capacity or lower \
                     the in-flight window",
                    pending.slots.len(),
                );
            }
            metrics.predicts.fetch_add(n, Ordering::Relaxed);
            metrics.requests.fetch_add(n, Ordering::Relaxed);
            reply.send(tag, ShardReply::Predict(out));
        }
        ShardJob::Train { items, tag, reply } => {
            let n = items.len() as u64;
            let (mut applied, mut stale) = (0u32, 0u32);
            // Misprediction taxonomy of the drained outcomes (the serving
            // mirror of the simulator's per-tenant pollution counters).
            let (mut missed, mut false_dep, mut false_byp) = (0u64, 0u64, 0u64);
            scratch.trains.clear();
            for item in items {
                match pending.take(item.ticket, item.pc) {
                    Some(p) => {
                        match (&p.prediction, item.outcome.dependence.is_some()) {
                            (MemDepPrediction::NoDependence, true) => missed += 1,
                            (MemDepPrediction::Dependence { .. }, false) => false_dep += 1,
                            (MemDepPrediction::Bypass { .. }, false) => false_byp += 1,
                            _ => {}
                        }
                        scratch.trains.push(TrainReq {
                            pc: item.pc,
                            meta: p.meta,
                            predicted: p.prediction,
                            outcome: item.outcome,
                        });
                        applied += 1;
                    }
                    None => stale += 1,
                }
            }
            predictor.train_batch(&mut scratch.trains);
            metrics.missed_dependencies.fetch_add(missed, Ordering::Relaxed);
            metrics.false_dependencies.fetch_add(false_dep, Ordering::Relaxed);
            metrics.false_bypasses.fetch_add(false_byp, Ordering::Relaxed);
            metrics.trains.fetch_add(u64::from(applied), Ordering::Relaxed);
            metrics
                .stale_trains
                .fetch_add(u64::from(stale), Ordering::Relaxed);
            metrics.requests.fetch_add(n, Ordering::Relaxed);
            reply.send(tag, ShardReply::Train { applied, stale });
        }
        ShardJob::Sync(events) => {
            for event in events {
                match event {
                    SyncEvent::Branch(e) => predictor.on_branch(&e),
                    SyncEvent::StoreDispatch { pc, store_seq } => {
                        predictor.on_store_dispatch(pc, store_seq);
                    }
                }
            }
        }
        ShardJob::Snapshot { tag, reply } => {
            reply.send(tag, ShardReply::Snapshot(predictor.snapshot_bytes()));
        }
        ShardJob::Restore {
            predictor: replacement,
            tag,
            reply,
        } => {
            *predictor = *replacement;
            // Parked tickets reference metadata minted by the predictor just
            // replaced; training the restored one with it would be lying.
            *pending = PendingTable::new(pending.slots.len());
            reply.send(tag, ShardReply::Restore(predictor.entry_count()));
        }
        ShardJob::Wait(barrier) => {
            barrier.wait();
            return; // not service work; keep it out of the histogram
        }
    }
    metrics
        .service
        .record_ns(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn predict_job(
        pcs: &[u64],
        tag: u64,
        reply: &Sender<(u64, ShardReply)>,
    ) -> ShardJob {
        ShardJob::Predict {
            items: pcs
                .iter()
                .map(|&pc| PredictItem { pc, store_seq: 0 })
                .collect(),
            tag,
            reply: ReplySink::new(reply.clone()),
        }
    }

    #[test]
    fn routing_is_deterministic_and_spread() {
        let mut seen = [false; 8];
        // Stride-4 PCs (typical code addresses) must hit several shards.
        for i in 0..512u64 {
            let s = index_of(0x40_0000 + i * 4, 8, SHARD_HASH_MUL);
            assert_eq!(s, index_of(0x40_0000 + i * 4, 8, SHARD_HASH_MUL));
            seen[s] = true;
        }
        assert!(seen.iter().filter(|&&b| b).count() >= 6);
    }

    #[test]
    fn predict_then_train_applies_metadata() {
        let pool = ShardPool::new(PredictorKind::Mascot, &ShardPoolConfig::default());
        let (tx, rx) = channel();
        let pc = 0x1234u64;
        let shard = pool.shard_of(pc);
        pool.send(shard, predict_job(&[pc, pc, pc], 7, &tx));
        let (tag, reply) = rx.recv().unwrap();
        assert_eq!(tag, 7);
        let replies = match reply {
            ShardReply::Predict(r) => r,
            other => panic!("expected predict reply, got {other:?}"),
        };
        assert_eq!(replies.len(), 3);
        // Train each ticket once; all must apply.
        let items: Vec<TrainItem> = replies
            .iter()
            .map(|r| TrainItem {
                ticket: r.ticket,
                pc,
                outcome: mascot::prediction::LoadOutcome::independent(),
            })
            .collect();
        pool.send(
            shard,
            ShardJob::Train {
                items: items.clone(),
                tag: 8,
                reply: ReplySink::new(tx.clone()),
            },
        );
        match rx.recv().unwrap() {
            (8, ShardReply::Train { applied, stale }) => {
                assert_eq!((applied, stale), (3, 0));
            }
            other => panic!("unexpected reply {other:?}"),
        }
        // Replaying the same tickets is stale, not a retrain.
        pool.send(
            shard,
            ShardJob::Train {
                items,
                tag: 9,
                reply: ReplySink::new(tx.clone()),
            },
        );
        match rx.recv().unwrap() {
            (9, ShardReply::Train { applied, stale }) => {
                assert_eq!((applied, stale), (0, 3));
            }
            other => panic!("unexpected reply {other:?}"),
        }
        let report = pool.shutdown();
        assert_eq!(report.total_predicts(), 3);
        assert_eq!(report.total_trains(), 3);
        assert_eq!(report.shards[shard].stale_trains, 3);
        assert_eq!(report.total_requests(), 9);
    }

    #[test]
    fn wrong_pc_on_ticket_is_stale() {
        let pool = ShardPool::new(PredictorKind::StoreSets, &ShardPoolConfig::default());
        let (tx, rx) = channel();
        let pc = 0x40u64;
        let shard = pool.shard_of(pc);
        pool.send(shard, predict_job(&[pc], 0, &tx));
        let ticket = match rx.recv().unwrap().1 {
            ShardReply::Predict(r) => r[0].ticket,
            other => panic!("unexpected reply {other:?}"),
        };
        pool.send(
            shard,
            ShardJob::Train {
                items: vec![TrainItem {
                    ticket,
                    pc: pc + 8, // lies about the pc
                    outcome: mascot::prediction::LoadOutcome::independent(),
                }],
                tag: 1,
                reply: ReplySink::new(tx),
            },
        );
        match rx.recv().unwrap().1 {
            ShardReply::Train { applied, stale } => assert_eq!((applied, stale), (0, 1)),
            other => panic!("unexpected reply {other:?}"),
        }
        pool.shutdown();
    }

    #[test]
    fn bounded_queue_rejects_when_worker_is_parked() {
        let cfg = ShardPoolConfig {
            shards: 1,
            queue_depth: 1,
            max_batch: 1,
            ..Default::default()
        };
        let pool = ShardPool::new(PredictorKind::PerfectMdp, &cfg);
        let barrier = Arc::new(Barrier::new(2));
        // Park the worker. Retry until the worker has dequeued the job
        // (depth-1 queue: acceptance of the *next* job proves it).
        let mut job = ShardJob::Wait(Arc::clone(&barrier));
        while let Err(back) = pool.try_send(0, job) {
            job = back;
        }
        let (tx, _rx) = channel();
        let mut filler = predict_job(&[1], 0, &tx);
        loop {
            match pool.try_send(0, filler) {
                Ok(()) => break,
                Err(back) => filler = back,
            }
        }
        // Queue now holds one job and the worker is parked: full.
        assert!(pool.try_send(0, predict_job(&[2], 1, &tx)).is_err());
        barrier.wait(); // release the worker
        pool.fence();
        let report = pool.stats_report();
        assert_eq!(report.total_predicts(), 1);
        pool.shutdown();
    }

    #[test]
    fn pending_table_evicts_after_capacity_wraps() {
        let mut table = PendingTable::new(2);
        let p = mascot::prediction::MemDepPrediction::NoDependence;
        let (t0, e0) = table.insert(0x10, p, AnyMeta::Unit);
        let (_t1, e1) = table.insert(0x14, p, AnyMeta::Unit);
        let (_t2, e2) = table.insert(0x18, p, AnyMeta::Unit); // evicts t0's slot
        assert!(!e0 && !e1, "fresh slots are not evictions");
        assert!(e2, "wrapping onto an occupied slot reports the eviction");
        assert!(table.take(t0, 0x10).is_none(), "evicted ticket is stale");
        assert!(table.take(_t2, 0x18).is_some());
        assert!(table.take(_t1, 0x14).is_some());
        assert!(table.take(_t1, 0x14).is_none(), "tickets are single-use");
    }

    /// Property-style check of the ticket slab against a slot-indexed
    /// model: after arbitrary interleavings of inserts (slot reuse) and
    /// takes — including across the `u32` ticket wrap — a take succeeds iff
    /// the slot still holds exactly that (ticket, pc) pair, so a recycled
    /// slot can never satisfy the ticket it evicted. Seeded and offline.
    #[test]
    fn pending_table_matches_model_under_random_reuse() {
        use std::collections::HashMap;

        const CAPACITY: u32 = 8; // tiny: every few inserts recycle a slot
        let mut table = PendingTable::new(CAPACITY as usize);
        table.next_ticket = u32::MAX - 500; // cross the wrap mid-test
        let mut model: HashMap<u32, (u32, u64)> = HashMap::new(); // slot -> (ticket, pc)
        let mut issued: Vec<(u32, u64)> = Vec::new(); // every ticket ever issued

        let mut rng_state = 0x5eed_0123_4567_89abu64;
        let mut rng = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };

        let p = mascot::prediction::MemDepPrediction::NoDependence;
        for round in 0..4_000u32 {
            match rng() % 4 {
                // Insert: the slot's previous occupant (if any) is evicted.
                0 | 1 => {
                    let pc = 0x40_0000 + (rng() % 64) * 4;
                    let (ticket, evicted) = table.insert(pc, p, AnyMeta::Unit);
                    assert_eq!(
                        evicted,
                        model.contains_key(&(ticket % CAPACITY)),
                        "round {round}: eviction flag must track slot occupancy"
                    );
                    model.insert(ticket % CAPACITY, (ticket, pc));
                    issued.push((ticket, pc));
                }
                // Take a previously issued ticket with its true pc.
                2 if !issued.is_empty() => {
                    let (ticket, pc) = issued[(rng() as usize) % issued.len()];
                    let expect_hit = model.get(&(ticket % CAPACITY)) == Some(&(ticket, pc));
                    let got = table.take(ticket, pc);
                    assert_eq!(got.is_some(), expect_hit, "round {round}, ticket {ticket:#x}");
                    if let Some(pending) = got {
                        assert_eq!((pending.ticket, pending.pc), (ticket, pc));
                        model.remove(&(ticket % CAPACITY));
                    }
                }
                // Take with a lying pc (or a never-issued ticket): never hits.
                _ => {
                    let ticket = if issued.is_empty() || rng() % 2 == 0 {
                        rng() as u32
                    } else {
                        issued[(rng() as usize) % issued.len()].0
                    };
                    let bogus_pc = u64::MAX - u64::from(round);
                    let expect_hit = model.get(&(ticket % CAPACITY)) == Some(&(ticket, bogus_pc));
                    assert_eq!(
                        table.take(ticket, bogus_pc).is_some(),
                        expect_hit,
                        "round {round}, ticket {ticket:#x}"
                    );
                    if expect_hit {
                        model.remove(&(ticket % CAPACITY));
                    }
                }
            }
        }
        // The surviving slots drain exactly once each.
        for (_, (ticket, pc)) in model {
            assert!(table.take(ticket, pc).is_some());
            assert!(table.take(ticket, pc).is_none(), "tickets are single-use");
        }
    }

    /// Pool-level state transplant: snapshot a warmed pool shard-by-shard,
    /// restore the payloads into a cold pool of the same width, and require
    /// the cold pool's shards to answer predictions exactly like the warm
    /// ones (and to report the restore in their metrics).
    #[test]
    fn snapshot_restore_transplants_pool_state() {
        let cfg = ShardPoolConfig {
            shards: 2,
            ..Default::default()
        };
        let warm = ShardPool::new(PredictorKind::Mascot, &cfg);
        let (tx, rx) = channel();
        let pcs: Vec<u64> = (0..16u64).map(|i| 0x5000 + i * 4).collect();
        for round in 0..20 {
            for &pc in &pcs {
                let shard = warm.shard_of(pc);
                warm.send(shard, predict_job(&[pc], round, &tx));
                let ticket = match rx.recv().unwrap().1 {
                    ShardReply::Predict(r) => r[0].ticket,
                    other => panic!("unexpected reply {other:?}"),
                };
                warm.send(
                    shard,
                    ShardJob::Train {
                        items: vec![TrainItem {
                            ticket,
                            pc,
                            outcome: mascot::prediction::LoadOutcome::dependent(
                                mascot::prediction::ObservedDependence {
                                    distance: mascot::prediction::StoreDistance::new(3).unwrap(),
                                    class: mascot::prediction::BypassClass::DirectBypass,
                                    store_pc: 0x9000,
                                    branches_between: 0,
                                },
                            ),
                        }],
                        tag: round,
                        reply: ReplySink::new(tx.clone()),
                    },
                );
                rx.recv().unwrap();
            }
        }
        warm.fence();
        let payloads = warm.snapshot_shards().expect("live shards");
        assert_eq!(payloads.len(), 2);

        let cold = ShardPool::new(PredictorKind::Mascot, &cfg);
        let predictors: Vec<AnyPredictor> = payloads
            .iter()
            .map(|p| AnyPredictor::from_snapshot_bytes(p).expect("valid shard payload"))
            .collect();
        let restored = cold.restore_shards(predictors).expect("live shards");
        assert!(restored > 0, "warm shards must carry entries");
        cold.set_warm_start(7, 2);
        let report = cold.stats_report();
        assert_eq!(report.total_restored(), restored);
        assert!(report.shards.iter().all(|s| s.snapshot_age_s == 7));
        assert!(report.shards.iter().all(|s| s.restarts == 2));

        // Both pools must now answer every PC identically.
        for &pc in &pcs {
            let shard = warm.shard_of(pc);
            warm.send(shard, predict_job(&[pc], 1, &tx));
            let warm_reply = match rx.recv().unwrap().1 {
                ShardReply::Predict(r) => r[0].prediction,
                other => panic!("unexpected reply {other:?}"),
            };
            cold.send(shard, predict_job(&[pc], 2, &tx));
            let cold_reply = match rx.recv().unwrap().1 {
                ShardReply::Predict(r) => r[0].prediction,
                other => panic!("unexpected reply {other:?}"),
            };
            assert_eq!(warm_reply, cold_reply, "pc {pc:#x}");
        }
        warm.shutdown();
        cold.shutdown();
    }

    #[test]
    fn sync_events_reach_every_shard() {
        use mascot::history::{BranchEvent, BranchKind};
        let cfg = ShardPoolConfig {
            shards: 3,
            ..Default::default()
        };
        let pool = ShardPool::new(PredictorKind::Mascot, &cfg);
        pool.broadcast_sync(vec![
            SyncEvent::Branch(BranchEvent {
                pc: 0x100,
                kind: BranchKind::Conditional,
                taken: true,
                target: 0x200,
            }),
            SyncEvent::StoreDispatch {
                pc: 0x300,
                store_seq: 1,
            },
        ]);
        pool.fence();
        pool.shutdown();
    }

    /// Repro for the in-flight-window overrun the audit flushed out: with a
    /// pending table smaller than the number of outstanding predictions,
    /// the oldest tickets are recycled before their trains arrive. The
    /// default (non-strict) pool must surface that as `evicted_pending`
    /// plus stale trains — not as silently applied mistraining.
    #[test]
    fn pending_overrun_is_counted_not_applied() {
        let cfg = ShardPoolConfig {
            shards: 1,
            pending_capacity: 2,
            ..Default::default()
        };
        let pool = ShardPool::new(PredictorKind::Mascot, &cfg);
        let (tx, rx) = channel();
        let pcs = [0x40u64, 0x44, 0x48, 0x4c];
        pool.send(0, predict_job(&pcs, 1, &tx));
        let replies = match rx.recv().unwrap().1 {
            ShardReply::Predict(r) => r,
            other => panic!("unexpected reply {other:?}"),
        };
        assert_eq!(pool.stats_report().total_evicted_pending(), 2);
        // Train every ticket: the two evicted ones must go stale.
        let items: Vec<TrainItem> = replies
            .iter()
            .zip(&pcs)
            .map(|(r, &pc)| TrainItem {
                ticket: r.ticket,
                pc,
                outcome: mascot::prediction::LoadOutcome::independent(),
            })
            .collect();
        pool.send(
            0,
            ShardJob::Train {
                items,
                tag: 2,
                reply: ReplySink::new(tx.clone()),
            },
        );
        match rx.recv().unwrap() {
            (2, ShardReply::Train { applied, stale }) => {
                assert_eq!((applied, stale), (2, 2));
            }
            other => panic!("unexpected reply {other:?}"),
        }
        let report = pool.shutdown();
        assert_eq!(report.total_evicted_pending(), 2);
        assert_eq!(report.shards[0].stale_trains, 2);
    }

    /// Under `strict_tickets` (the `mascotd --audit` configuration) the
    /// same overrun is a hard error: the shard worker panics and
    /// `shutdown` refuses to report a clean exit.
    #[test]
    fn strict_tickets_turns_eviction_into_hard_error() {
        let cfg = ShardPoolConfig {
            shards: 1,
            pending_capacity: 2,
            strict_tickets: true,
            ..Default::default()
        };
        let pool = ShardPool::new(PredictorKind::Mascot, &cfg);
        let (tx, rx) = channel();
        pool.send(0, predict_job(&[0x40u64, 0x44, 0x48], 1, &tx));
        // The worker dies mid-batch; once the job's ReplySink (the only
        // other sender) is gone the channel disconnects without ever
        // delivering a reply.
        drop(tx);
        assert!(rx.recv().is_err(), "no reply escapes the dead shard");
        let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.shutdown()));
        assert!(joined.is_err(), "shutdown must propagate the shard panic");
    }
}
