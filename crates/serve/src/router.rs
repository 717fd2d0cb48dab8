//! `mascot-router`'s shard workers: every backend `mascotd` node is one
//! shard of a [`ShardPool`], so the router runs on the same [`Server`]
//! event loop as `mascotd` — the same accept, pipelining, backpressure
//! and drain code (DESIGN.md §10).
//!
//! The event loop splits each `Predict`/`Train` batch by a hash of the
//! load PC ([`NODE_HASH_MUL`]) into per-node sub-batches and reassembles
//! the replies in request order. The PC→node map is static over the
//! configured primaries: a node that dies does not reshuffle the
//! survivors' slices (their predictor state is PC-local); only the dead
//! node's slice fails over to the replica, which starts cold and warms up
//! from the redirected training traffic.
//!
//! A node worker drains up to [`DEFAULT_MAX_BATCH`] queued sub-batches and
//! pipelines them on its one upstream connection (mascotd answers in
//! order). Failure handling, in order:
//!
//! * `Busy` from a node: the busy sub-batches are re-sent with bounded
//!   exponential backoff; a node that stays busy answers the request
//!   `Busy` (the client already handles backpressure).
//! * I/O error or connect failure: the node is marked down — sticky,
//!   because its state diverges from the replica's the moment traffic is
//!   redirected — and every unanswered sub-batch is re-sent to the
//!   replica, so the client sees a complete answer and loses nothing.
//! * No job for the health interval: the worker pings its node with
//!   `Stats`, so a node that dies between requests is caught early.
//!
//! `Stats` through the router reports one entry per primary plus a
//! trailing one for the replica: the router-side [`ShardMetrics`] of the
//! traffic each served (items, rejections, round-trip service time), which
//! survive a killed node. `Shutdown` answers the router's routed-item
//! count; once the router has drained, each worker sends `Shutdown` to its
//! live node, and the last one out to the replica.

use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::client::Client;
use crate::metrics::ShardMetrics;
use crate::server::Server;
use crate::shard::{
    ReplySink, ShardJob, ShardPool, ShardReply, DEFAULT_MAX_BATCH, DEFAULT_QUEUE_DEPTH,
};
use crate::wire::{Request, Response, MAX_BATCH};

/// Attempts per sub-batch before a persistent `Busy` is surfaced.
pub const BUSY_RETRIES: u32 = 25;
/// Base backoff between busy retries (doubles, capped at 2^8 × base).
pub const BUSY_BACKOFF: Duration = Duration::from_micros(100);

/// PC→node multiplier. Deliberately a different odd constant from the
/// shard router inside `mascotd` ([`crate::shard::SHARD_HASH_MUL`]), so
/// the node index and the shard index of a PC stay decorrelated: with the
/// same constant and `nodes == shards`, every PC routed to node `i` would
/// also land on shard `i` of that node, idling the other shards.
pub const NODE_HASH_MUL: u64 = 0xd1b5_4a32_d192_ed03;

/// Items a worker pipelines on its upstream at once. The responses owed
/// (6 bytes per predict item) stay far below the send-buffer level at
/// which mascotd stops reading, so a burst of blocking writes can never
/// deadlock against unread responses.
const PIPELINE_ITEMS: usize = 4 * MAX_BATCH;

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Primary nodes; a PC's node is fixed by its position in this list.
    pub nodes: Vec<String>,
    /// Failover target for the slices of primaries that went down.
    pub replica: Option<String>,
    /// Idle time after which a worker pings its node.
    pub health_interval: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            nodes: Vec::new(),
            replica: None,
            health_interval: Duration::from_millis(200),
        }
    }
}

/// Binds the router's listener and spawns one worker per node.
///
/// # Errors
///
/// Propagates the bind failure.
///
/// # Panics
///
/// When `cfg.nodes` is empty.
pub fn bind(cfg: &RouterConfig) -> io::Result<Server> {
    let listener = TcpListener::bind(&cfg.addr)?;
    Server::new(listener, node_pool(cfg), None)
}

/// One shard per primary, plus a trailing metrics block for the replica.
fn node_pool(cfg: &RouterConfig) -> ShardPool {
    assert!(!cfg.nodes.is_empty(), "at least one node");
    let n = cfg.nodes.len();
    let metrics: Vec<Arc<ShardMetrics>> = (0..=n).map(|_| Arc::new(ShardMetrics::new())).collect();
    let live = Arc::new(AtomicUsize::new(n));
    let workers = cfg
        .nodes
        .iter()
        .enumerate()
        .map(|(node, addr)| {
            let mut worker = NodeWorker {
                node,
                primary: Upstream::new(addr, &metrics[node]),
                replica: cfg.replica.as_deref().map(|a| Upstream::new(a, &metrics[n])),
                down: false,
                health_interval: cfg.health_interval,
            };
            let live = Arc::clone(&live);
            move |rx: Receiver<ShardJob>| {
                worker.run(&rx);
                // Every other worker has answered its last sub-batch, so
                // the replica owes nothing more.
                if live.fetch_sub(1, Ordering::AcqRel) == 1 {
                    if let Some(replica) = worker.replica.as_mut() {
                        replica.shutdown();
                    }
                }
            }
        })
        .collect();
    ShardPool::spawn("mascot-router-node", workers, metrics, DEFAULT_QUEUE_DEPTH, NODE_HASH_MUL)
}

/// A lazily (re)connected backend connection and the metrics block of the
/// traffic it serves.
struct Upstream {
    addr: String,
    client: Option<Client>,
    metrics: Arc<ShardMetrics>,
}

impl Upstream {
    fn new(addr: &str, metrics: &Arc<ShardMetrics>) -> Self {
        Self {
            addr: addr.to_string(),
            client: None,
            metrics: Arc::clone(metrics),
        }
    }

    fn connect(&mut self) -> Result<&mut Client, String> {
        if self.client.is_none() {
            self.client = Some(Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))?);
        }
        Ok(self.client.as_mut().expect("just connected"))
    }

    /// Best effort: a backend that is already gone has nothing to drain.
    fn shutdown(&mut self) {
        if let Ok(client) = self.connect() {
            let _ = client.shutdown();
        }
        self.client = None;
    }
}

/// A forwarded sub-batch awaiting its node's answer.
struct Job {
    items: u64,
    req: Request,
    tag: u64,
    reply: ReplySink,
}

impl Job {
    fn fail(self, resp: Response) {
        self.reply.refuse(self.tag, resp);
    }
}

/// The worker thread of one primary node.
struct NodeWorker {
    node: usize,
    primary: Upstream,
    replica: Option<Upstream>,
    down: bool,
    health_interval: Duration,
}

impl NodeWorker {
    fn run(&mut self, rx: &Receiver<ShardJob>) {
        let mut jobs = Vec::new();
        loop {
            let first = match rx.recv_timeout(self.health_interval) {
                Ok(job) => job,
                Err(RecvTimeoutError::Timeout) => {
                    self.health_check();
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => break,
            };
            let mut items = self.admit(first, &mut jobs);
            while jobs.len() < DEFAULT_MAX_BATCH && items < PIPELINE_ITEMS {
                match rx.try_recv() {
                    Ok(job) => items += self.admit(job, &mut jobs),
                    Err(_) => break,
                }
            }
            self.forward(std::mem::take(&mut jobs));
        }
        if !self.down {
            self.primary.shutdown();
        }
    }

    /// Queues a predict/train sub-batch and returns its item count; any
    /// other job is handled in place.
    fn admit(&mut self, job: ShardJob, jobs: &mut Vec<Job>) -> usize {
        let job = match job {
            ShardJob::Predict { items, tag, reply } => Job {
                items: items.len() as u64,
                req: Request::Predict(items),
                tag,
                reply,
            },
            ShardJob::Train { items, tag, reply } => Job {
                items: items.len() as u64,
                req: Request::Train(items),
                tag,
                reply,
            },
            ShardJob::Wait(barrier) => {
                // A fence: everything queued before it completes first.
                self.forward(std::mem::take(jobs));
                barrier.wait();
                return 0;
            }
            // Predictor state lives on the nodes; state jobs are dropped,
            // and their reply sinks with them.
            ShardJob::Sync(_) | ShardJob::Snapshot { .. } | ShardJob::Restore { .. } => return 0,
        };
        let items = job.items as usize;
        jobs.push(job);
        items
    }

    /// Forwards a burst to the primary; when the node is or goes down, the
    /// unanswered rest fails over to the replica.
    fn forward(&mut self, jobs: Vec<Job>) {
        if jobs.is_empty() {
            return;
        }
        let jobs = if self.down {
            jobs
        } else {
            match exchange(&mut self.primary, jobs) {
                Ok(()) => return,
                Err((e, rest)) => {
                    self.mark_down(&e);
                    rest
                }
            }
        };
        let (err, jobs) = match self.replica.as_mut() {
            None => (
                format!(
                    "node {} ({}) is down and no --replica is configured",
                    self.node, self.primary.addr
                ),
                jobs,
            ),
            Some(replica) => match exchange(replica, jobs) {
                Ok(()) => return,
                Err((e, rest)) => (
                    format!("replica {}: {e} (after node {} failed)", replica.addr, self.node),
                    rest,
                ),
            },
        };
        for job in jobs {
            job.fail(Response::Error(err.clone()));
        }
    }

    /// Pings the node with `Stats` over its connection.
    fn health_check(&mut self) {
        if self.down {
            return;
        }
        let ping = self
            .primary
            .connect()
            .and_then(|client| client.stats().map_err(|e| e.to_string()));
        if let Err(e) = ping {
            self.mark_down(&format!("health check: {e}"));
        }
    }

    fn mark_down(&mut self, why: &str) {
        self.down = true;
        self.primary.client = None;
        eprintln!(
            "mascot-router: node {} ({}) marked down: {why}",
            self.node, self.primary.addr
        );
    }
}

/// Pipelines `jobs` on `up` and answers each from its in-order response,
/// re-sending the `Busy` ones with backoff. On an I/O error, returns it
/// with every job still unanswered, in arrival order.
fn exchange(up: &mut Upstream, mut jobs: Vec<Job>) -> Result<(), (String, Vec<Job>)> {
    for attempt in 0..BUSY_RETRIES {
        if attempt > 0 {
            std::thread::sleep(BUSY_BACKOFF * (1 << (attempt - 1).min(8)));
        }
        if let Err(e) = up.connect() {
            return Err((e, jobs));
        }
        let client = up.client.as_mut().expect("connected");
        let sent = Instant::now();
        let mut failed = jobs.iter().find_map(|job| client.send(&job.req).err());
        let mut busy = Vec::new();
        let mut rest = jobs.into_iter();
        if failed.is_none() {
            // The first `recv` writes the whole burst in one go.
            for job in rest.by_ref() {
                match client.recv(job.req.opcode()) {
                    Ok(Response::Busy) => busy.push(job),
                    Ok(resp) => deliver(job, resp, &up.addr, &up.metrics, sent),
                    Err(e) => {
                        failed = Some(e);
                        busy.push(job);
                        break;
                    }
                }
            }
        }
        if let Some(e) = failed {
            up.client = None;
            busy.extend(rest);
            return Err((e.to_string(), busy));
        }
        up.metrics.batches.fetch_add(1, Ordering::Relaxed);
        if busy.is_empty() {
            return Ok(());
        }
        jobs = busy;
    }
    for job in jobs {
        up.metrics.rejected_full.fetch_add(job.items, Ordering::Relaxed);
        job.fail(Response::Busy);
    }
    Ok(())
}

/// Answers a job from its node's response, recording the served items and
/// the round trip since `sent`.
fn deliver(job: Job, resp: Response, addr: &str, metrics: &ShardMetrics, sent: Instant) {
    let reply = match resp {
        Response::Predict(replies) if replies.len() as u64 == job.items => {
            metrics.predicts.fetch_add(job.items, Ordering::Relaxed);
            ShardReply::Predict(replies)
        }
        Response::Train { applied, stale } => {
            metrics.trains.fetch_add(u64::from(applied), Ordering::Relaxed);
            metrics.stale_trains.fetch_add(u64::from(stale), Ordering::Relaxed);
            ShardReply::Train { applied, stale }
        }
        Response::Error(e) => return job.fail(Response::Error(format!("{addr}: {e}"))),
        _ => return job.fail(Response::Error(format!("{addr} answered with a mismatch"))),
    };
    metrics.requests.fetch_add(job.items, Ordering::Relaxed);
    metrics
        .service
        .record_ns(sent.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
    job.reply.send(job.tag, reply);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::index_of;

    #[test]
    fn node_map_is_total_and_stable() {
        for nodes in 1..=5 {
            for pc in (0x40_0000u64..0x40_1000).step_by(4) {
                let n = index_of(pc, nodes, NODE_HASH_MUL);
                assert!(n < nodes);
                assert_eq!(n, index_of(pc, nodes, NODE_HASH_MUL), "stable for the same pc");
            }
        }
    }

    #[test]
    fn node_map_spreads_across_nodes() {
        let nodes = 3;
        let mut hits = vec![0u32; nodes];
        for i in 0..4096u64 {
            hits[index_of(0x40_0000 + i * 4, nodes, NODE_HASH_MUL)] += 1;
        }
        for (node, &h) in hits.iter().enumerate() {
            assert!(h > 4096 / 10, "node {node} got only {h}/4096 PCs");
        }
    }
}
