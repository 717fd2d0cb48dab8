//! `mascotd`'s server core: a single-threaded, readiness-driven event loop
//! multiplexing every connection over level-triggered `epoll`
//! ([`crate::poll`]), dispatching into the shard pool.
//!
//! One thread owns the listener and all connections. Each readable event
//! pulls at most [`READ_CHUNK`] bytes into the connection's
//! [`RecvBuf`], parses every complete frame it holds, and scatters the
//! batch over the owning shards; sub-replies come back on an unbounded
//! channel paired with an `eventfd` waker, are reassembled in a gather
//! slab, and are written out strictly in request order (pipelining:
//! clients may have many requests in flight per connection). Partial
//! reads and writes resume where they stopped — the state machine per
//! connection is exactly `reading frames ⇄ writing responses`, both sides
//! restartable at any byte boundary (DESIGN.md §11).
//!
//! Fairness is the level-triggered contract: a connection with more
//! buffered input than one chunk is simply re-reported by the kernel on
//! the next `epoll_wait`, behind every other ready fd, so a hot
//! connection cannot starve thousands of idle ones.
//!
//! Backpressure is layered:
//! * per request, all-or-nothing `Busy` when any owning shard's bounded
//!   queue is full (replies already scattered are discarded via the gather
//!   slab's discard mode — never delivered to the wrong request);
//! * per connection, reading pauses when the send buffer or the in-flight
//!   response count crosses [`crate::conn`]'s thresholds, and resumes at
//!   half (hysteresis), so a client that never reads its responses stops
//!   being served instead of ballooning server memory.
//!
//! Shutdown drains: the `Shutdown` response is flushed, the listener is
//! deregistered, idle connections close immediately, and connections with
//! responses still owed get [`DRAIN_GRACE`] to take delivery.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use mascot::MemDepPredictor;
use mascot_predictors::{AnyPredictor, PredictorKind};
use mascot_snapshot::SnapshotFile;

use crate::conn::{Conn, Inflight, READ_CHUNK};
use crate::metrics::ShardMetrics;
use crate::poll::{Event, Poller, Waker};
use crate::shard::{shard_of, ReplySink, ShardJob, ShardPool, ShardPoolConfig, ShardReply};
use crate::wire::{
    PredictItem, PredictReply, Request, Response, StatsReport, TrainItem, MAX_BATCH,
    MAX_SNAPSHOT_FRAME_PAYLOAD,
};

/// Token of the listening socket in the poller.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token of the completion waker in the poller.
const TOKEN_WAKER: u64 = u64::MAX - 1;
/// Bits of a reply tag reserved for the sub-batch's shard index; the rest
/// is the gather slot.
const TAG_SHARD_BITS: u32 = 16;
/// How long connections still owed responses get to take delivery after a
/// `Shutdown`, before being force-closed.
const DRAIN_GRACE: Duration = Duration::from_secs(5);
/// Poll tick while draining, so the grace deadline is observed.
const DRAIN_TICK_MS: i32 = 50;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Predictor built on every shard.
    pub kind: PredictorKind,
    /// Shard pool sizing.
    pub pool: ShardPoolConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            kind: PredictorKind::Mascot,
            pool: ShardPoolConfig::default(),
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    pool: ShardPool,
    kind: PredictorKind,
    addr: SocketAddr,
    on_ready: Option<Box<dyn FnOnce() + Send>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("shards", &self.pool.num_shards())
            .finish()
    }
}

impl Server {
    /// Binds the listener and spawns the shard pool.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(cfg: &ServeConfig) -> std::io::Result<Server> {
        Self::bind_with(cfg, None)
    }

    /// Binds the listener and spawns the shard pool, seeding each shard
    /// with a pre-built predictor (snapshot warm start) when `predictors`
    /// is given. The pool's shard count follows `predictors.len()` in that
    /// case, overriding `cfg.pool.shards`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_with(
        cfg: &ServeConfig,
        predictors: Option<Vec<AnyPredictor>>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let pool = match predictors {
            Some(p) => ShardPool::with_predictors(p, &cfg.pool),
            None => ShardPool::new(cfg.kind, &cfg.pool),
        };
        assert!(
            pool.num_shards() < (1 << TAG_SHARD_BITS),
            "shard index must fit the reply-tag field"
        );
        Ok(Server {
            listener,
            pool,
            kind: cfg.kind,
            addr,
            on_ready: None,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Direct access to the shard pool (replay warm-up runs before `run`).
    pub fn pool(&self) -> &ShardPool {
        &self.pool
    }

    /// Registers a callback invoked once the listener is registered with
    /// the poller — the earliest point at which the server is actually
    /// accepting under load. `mascotd --port-file` writes its readiness
    /// file here, not before.
    pub fn set_on_ready(&mut self, f: Box<dyn FnOnce() + Send>) {
        self.on_ready = Some(f);
    }

    /// Serves until a `Shutdown` request, then drains every shard and
    /// returns the final statistics.
    pub fn run(self) -> StatsReport {
        self.run_collecting(false).0
    }

    /// Like [`Server::run`], but when `collect_snapshot` is set it also
    /// serializes every shard's final predictor state after the last
    /// connection drains and before the workers exit — the shutdown-path
    /// checkpoint `mascotd --snapshot-dir` persists.
    pub fn run_collecting(self, collect_snapshot: bool) -> (StatsReport, Vec<Vec<u8>>) {
        let Server {
            listener,
            pool,
            kind,
            addr: _,
            on_ready,
        } = self;
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let mut el = EventLoop::new(listener, &pool, kind).expect("event loop setup");
        if let Some(ready) = on_ready {
            ready();
        }
        el.run();
        // The loop holds sender clones; they must go before `shutdown`, or
        // the workers never observe disconnect and the join blocks forever.
        drop(el);
        // No connections remain, so no new work can arrive; a snapshot
        // taken now is the final state. The pool's own senders are still
        // alive, so the workers are still draining and reachable.
        let payloads = if collect_snapshot {
            pool.snapshot_shards()
        } else {
            Vec::new()
        };
        (pool.shutdown(), payloads)
    }

    /// Runs the server on a background thread; returns the bound address
    /// and the handle yielding the final statistics.
    pub fn spawn(self) -> (SocketAddr, JoinHandle<StatsReport>) {
        let addr = self.local_addr();
        let handle = std::thread::Builder::new()
            .name("mascotd-loop".to_string())
            .spawn(move || self.run())
            .expect("spawn server");
        (addr, handle)
    }
}

/// One scatter/gather in flight: sub-replies land here until `remaining`
/// hits zero, then the encoded response parks in `result` until the
/// connection's response pipeline reaches it.
///
/// A slot is freed only at `remaining == 0` — never early — so a late
/// sub-reply can never alias a recycled slot. `discard` (set when the
/// request was answered `Busy` mid-scatter, or the connection died)
/// swallows the completed gather instead of encoding it.
struct Gather {
    conn: usize,
    kind: GatherKind,
    remaining: u32,
    discard: bool,
    result: Option<Vec<u8>>,
}

enum GatherKind {
    Predict {
        /// Replies slotted back into request order.
        out: Vec<Option<PredictReply>>,
        /// Request indices per shard (the scatter layout).
        subs: Vec<Vec<usize>>,
    },
    Train {
        applied: u32,
        stale: u32,
    },
}

/// The event loop: owns the poller, the connection and gather slabs, and
/// clones of the pool's queue senders.
struct EventLoop {
    poller: Poller,
    waker: Arc<Waker>,
    reply_sink: ReplySink,
    reply_rx: Receiver<(u64, ShardReply)>,
    listener: TcpListener,
    conns: Vec<Option<Conn>>,
    free_conns: Vec<usize>,
    /// Slots closed during the current poll batch; recycled only after the
    /// batch, so a stale event can't hit a freshly accepted connection.
    dead: Vec<usize>,
    gathers: Vec<Option<Gather>>,
    free_gathers: Vec<usize>,
    senders: Vec<SyncSender<ShardJob>>,
    metrics: Vec<Arc<ShardMetrics>>,
    kind: PredictorKind,
    accepting: bool,
    draining: bool,
    deadline: Option<Instant>,
}

impl EventLoop {
    fn new(listener: TcpListener, pool: &ShardPool, kind: PredictorKind) -> io::Result<Self> {
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new()?);
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
        poller.add(waker.fd(), TOKEN_WAKER, true, false)?;
        let (tx, reply_rx) = channel();
        Ok(Self {
            poller,
            reply_sink: ReplySink::with_waker(tx, Arc::clone(&waker)),
            waker,
            reply_rx,
            listener,
            conns: Vec::new(),
            free_conns: Vec::new(),
            dead: Vec::new(),
            gathers: Vec::new(),
            free_gathers: Vec::new(),
            senders: pool.senders().to_vec(),
            metrics: pool.metrics().iter().map(Arc::clone).collect(),
            kind,
            accepting: true,
            draining: false,
            deadline: None,
        })
    }

    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let timeout = if self.draining { DRAIN_TICK_MS } else { -1 };
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => {
                        if self.accepting {
                            self.accept_all();
                        }
                    }
                    TOKEN_WAKER => self.waker.drain(),
                    token => {
                        let idx = token as usize;
                        if idx >= self.conns.len() || self.conns[idx].is_none() {
                            continue; // closed earlier in this batch
                        }
                        if ev.hangup {
                            self.close_conn(idx);
                            continue;
                        }
                        if ev.readable {
                            self.handle_readable(idx);
                        }
                        if ev.writable {
                            self.service_conn(idx);
                        }
                    }
                }
            }
            self.drain_replies();
            self.free_conns.append(&mut self.dead);
            if self.draining {
                if self.conns.iter().all(Option::is_none) {
                    break;
                }
                if self.deadline.is_some_and(|d| Instant::now() >= d) {
                    for idx in 0..self.conns.len() {
                        if self.conns[idx].is_some() {
                            self.close_conn(idx);
                        }
                    }
                    break;
                }
            }
        }
    }

    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let idx = match self.free_conns.pop() {
                        Some(i) => {
                            self.conns[i] = Some(Conn::new(stream));
                            i
                        }
                        None => {
                            self.conns.push(Some(Conn::new(stream)));
                            self.conns.len() - 1
                        }
                    };
                    let fd = self.conns[idx].as_ref().expect("just stored").stream.as_raw_fd();
                    if self.poller.add(fd, idx as u64, true, false).is_err() {
                        self.conns[idx] = None;
                        self.free_conns.push(idx);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // Transient (ECONNABORTED) and resource (EMFILE) errors
                // alike: stop for this readiness event rather than spin;
                // level-triggered epoll re-reports a non-empty backlog.
                Err(_) => break,
            }
        }
    }

    /// One bounded read, then parse everything complete.
    fn handle_readable(&mut self, idx: usize) {
        {
            let Some(c) = self.conns[idx].as_mut() else { return };
            if !c.reading || c.eof || c.poisoned {
                return; // stale event for a paused/finished reader
            }
            match c.rd.fill(&mut c.stream, READ_CHUNK) {
                Ok(0) => c.eof = true,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(_) => {
                    self.close_conn(idx);
                    return;
                }
            }
        }
        self.parse_buffered(idx);
        self.service_conn(idx);
    }

    /// Parses and dispatches every complete frame in the receive buffer,
    /// stopping at backpressure, poison, or drain.
    fn parse_buffered(&mut self, idx: usize) {
        loop {
            let Some(c) = self.conns[idx].as_mut() else { return };
            if c.poisoned || self.draining {
                return;
            }
            if c.should_pause() {
                c.reading = false;
                return;
            }
            let (code, len) = match c.rd.peek_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => return,
                Err(e) => {
                    // Framing is unrecoverable mid-stream: report, then
                    // stop parsing and close once the report is delivered.
                    c.poisoned = true;
                    let msg = e.to_string();
                    self.push_done(idx, Response::Error(msg));
                    return;
                }
            };
            let decoded = Request::decode(code, c.rd.payload(len));
            c.rd.consume_frame(len);
            match decoded {
                Ok(req) => self.dispatch(idx, req),
                // A well-framed but malformed payload: the stream is still
                // in sync, so answer and keep serving.
                Err(e) => self.push_done(idx, Response::Error(e.to_string())),
            }
        }
    }

    fn dispatch(&mut self, idx: usize, req: Request) {
        match req {
            Request::Predict(items) => self.scatter_predict(idx, items),
            Request::Train(items) => self.scatter_train(idx, items),
            Request::Stats => {
                let report = StatsReport {
                    shards: self.metrics.iter().map(|m| m.snapshot()).collect(),
                };
                self.push_done(idx, Response::Stats(report));
            }
            Request::Shutdown => {
                let served = self
                    .metrics
                    .iter()
                    .map(|m| m.requests.load(Ordering::Relaxed))
                    .sum();
                self.push_done(idx, Response::Shutdown { served });
                if !self.draining {
                    self.begin_drain();
                }
            }
            Request::Snapshot => {
                let resp = snapshot_response(&self.senders, &self.metrics, self.kind);
                self.push_done(idx, resp);
            }
            Request::Restore(bytes) => {
                let resp = restore_response(&bytes, &self.senders, &self.metrics, self.kind);
                self.push_done(idx, resp);
            }
        }
    }

    fn scatter_predict(&mut self, idx: usize, items: Vec<PredictItem>) {
        if items.len() > MAX_BATCH {
            self.push_done(idx, Response::Error("batch exceeds MAX_BATCH".to_string()));
            return;
        }
        let shards = self.senders.len();
        let by_shard = partition(&items, |it| it.pc, shards);
        let subs: Vec<(usize, Vec<PredictItem>)> = by_shard
            .iter()
            .enumerate()
            .filter(|(_, idxs)| !idxs.is_empty())
            .map(|(s, idxs)| (s, idxs.iter().map(|&i| items[i]).collect()))
            .collect();
        let slot = self.alloc_gather(
            idx,
            GatherKind::Predict {
                out: vec![None; items.len()],
                subs: by_shard,
            },
        );
        self.scatter(idx, slot, subs, |items, tag, reply| ShardJob::Predict {
            items,
            tag,
            reply,
        });
    }

    fn scatter_train(&mut self, idx: usize, items: Vec<TrainItem>) {
        if items.len() > MAX_BATCH {
            self.push_done(idx, Response::Error("batch exceeds MAX_BATCH".to_string()));
            return;
        }
        let shards = self.senders.len();
        let by_shard = partition(&items, |it| it.pc, shards);
        let subs: Vec<(usize, Vec<TrainItem>)> = by_shard
            .iter()
            .enumerate()
            .filter(|(_, idxs)| !idxs.is_empty())
            .map(|(s, idxs)| (s, idxs.iter().map(|&i| items[i]).collect()))
            .collect();
        let slot = self.alloc_gather(idx, GatherKind::Train { applied: 0, stale: 0 });
        self.scatter(idx, slot, subs, |items, tag, reply| ShardJob::Train {
            items,
            tag,
            reply,
        });
    }

    /// Non-blocking scatter over the owning shards. All-or-nothing: the
    /// first full queue answers `Busy` and puts the gather in discard mode
    /// for whatever was already enqueued.
    fn scatter<T>(
        &mut self,
        idx: usize,
        slot: usize,
        subs: Vec<(usize, Vec<T>)>,
        job_of: impl Fn(Vec<T>, u64, ReplySink) -> ShardJob,
    ) {
        let mut sent = 0u32;
        for (shard, sub) in subs {
            let n = sub.len() as u64;
            let tag = ((slot as u64) << TAG_SHARD_BITS) | shard as u64;
            let job = job_of(sub, tag, self.reply_sink.clone());
            if self.senders[shard].try_send(job).is_err() {
                self.metrics[shard].rejected_full.fetch_add(n, Ordering::Relaxed);
                if sent == 0 {
                    self.free_gather(slot);
                } else {
                    let g = self.gathers[slot].as_mut().expect("live gather");
                    g.remaining = sent;
                    g.discard = true;
                }
                self.push_done(idx, Response::Busy);
                return;
            }
            sent += 1;
        }
        if sent == 0 {
            // Empty batch: answer immediately, nothing to wait for.
            let g = self.gathers[slot].take().expect("live gather");
            self.free_gathers.push(slot);
            let resp = gather_response(g.kind);
            self.push_done(idx, resp);
        } else {
            self.gathers[slot].as_mut().expect("live gather").remaining = sent;
            if let Some(c) = self.conns[idx].as_mut() {
                c.inflight.push_back(Inflight::Waiting { gather: slot });
            }
        }
    }

    /// Applies every queued shard reply (non-blocking).
    fn drain_replies(&mut self) {
        while let Ok((tag, reply)) = self.reply_rx.try_recv() {
            self.on_reply(tag, reply);
        }
    }

    fn on_reply(&mut self, tag: u64, reply: ShardReply) {
        let slot = (tag >> TAG_SHARD_BITS) as usize;
        let shard = (tag & ((1 << TAG_SHARD_BITS) - 1)) as usize;
        let Some(g) = self.gathers.get_mut(slot).and_then(Option::as_mut) else {
            return; // only reachable if a worker fabricated a tag
        };
        match (&mut g.kind, reply) {
            (GatherKind::Predict { out, subs }, ShardReply::Predict(replies)) => {
                for (&i, r) in subs[shard].iter().zip(replies) {
                    out[i] = Some(r);
                }
            }
            (GatherKind::Train { applied, stale }, ShardReply::Train { applied: a, stale: s }) => {
                *applied += a;
                *stale += s;
            }
            // A mismatched reply kind still decrements `remaining` below,
            // so the slot cannot leak; a predict gather with holes answers
            // an explicit error.
            _ => {}
        }
        g.remaining -= 1;
        if g.remaining > 0 {
            return;
        }
        if g.discard {
            self.free_gather(slot);
            return;
        }
        let kind = std::mem::replace(&mut g.kind, GatherKind::Train { applied: 0, stale: 0 });
        let conn = g.conn;
        let resp = gather_response(kind);
        let frame = encode_or_error(resp);
        self.gathers[slot].as_mut().expect("live gather").result = Some(frame);
        self.service_conn(conn);
    }

    /// Moves every response whose turn has come into the send buffer,
    /// flushes, resumes paused parsing when below the hysteresis
    /// thresholds, updates epoll interest, and closes finished connections.
    fn service_conn(&mut self, idx: usize) {
        loop {
            self.pump(idx);
            let Some(c) = self.conns[idx].as_mut() else { return };
            if c.wr.flush(&mut c.stream).is_err() {
                self.close_conn(idx);
                return;
            }
            // Resume parsing frames that were already buffered while
            // paused — epoll will not re-report bytes we already hold.
            let resume = !c.reading
                && !c.eof
                && !c.poisoned
                && !self.draining
                && c.may_resume()
                && c.rd.buffered() > 0;
            if !resume {
                break;
            }
            c.reading = true;
            self.parse_buffered(idx);
            if self.conns[idx].is_none() {
                return;
            }
        }
        let Some(c) = self.conns[idx].as_mut() else { return };
        if !c.reading && !c.eof && !c.poisoned && !self.draining && c.may_resume() {
            c.reading = true; // nothing buffered; epoll reports new bytes
        }
        let done =
            c.finished() || (self.draining && c.inflight.is_empty() && c.wr.is_empty());
        if done {
            self.close_conn(idx);
        } else {
            self.update_interest(idx);
        }
    }

    /// Pops leading pipeline entries that are ready into the send buffer.
    fn pump(&mut self, idx: usize) {
        enum Next {
            Done,
            Gather(usize),
            Stop,
        }
        loop {
            let next = match self.conns[idx].as_ref() {
                None => return,
                Some(c) => match c.inflight.front() {
                    None => Next::Stop,
                    Some(Inflight::Done(_)) => Next::Done,
                    Some(Inflight::Waiting { gather }) => Next::Gather(*gather),
                },
            };
            match next {
                Next::Stop => return,
                Next::Done => {
                    let c = self.conns[idx].as_mut().expect("checked above");
                    let Some(Inflight::Done(bytes)) = c.inflight.pop_front() else {
                        unreachable!("front just observed")
                    };
                    c.wr.push(&bytes);
                }
                Next::Gather(slot) => {
                    let ready = self.gathers[slot].as_mut().and_then(|g| g.result.take());
                    let Some(bytes) = ready else { return };
                    self.free_gather(slot);
                    let c = self.conns[idx].as_mut().expect("checked above");
                    c.inflight.pop_front();
                    c.wr.push(&bytes);
                }
            }
        }
    }

    /// Queues an encoded response at the back of the connection's pipeline.
    fn push_done(&mut self, idx: usize, resp: Response) {
        let frame = encode_or_error(resp);
        if let Some(c) = self.conns[idx].as_mut() {
            c.inflight.push_back(Inflight::Done(frame));
        }
    }

    /// Stops accepting and starts the drain clock; connections owed
    /// nothing close now, the rest flush under the deadline.
    fn begin_drain(&mut self) {
        self.draining = true;
        self.deadline = Some(Instant::now() + DRAIN_GRACE);
        self.accepting = false;
        self.poller.delete(self.listener.as_raw_fd());
        for idx in 0..self.conns.len() {
            let close = match self.conns[idx].as_ref() {
                Some(c) => c.inflight.is_empty() && c.wr.is_empty(),
                None => false,
            };
            if close {
                self.close_conn(idx);
            }
        }
    }

    /// Mirrors the connection's desired interests into epoll, skipping the
    /// syscall when nothing changed.
    fn update_interest(&mut self, idx: usize) {
        let draining = self.draining;
        let Some(c) = self.conns[idx].as_mut() else { return };
        let want_r = c.reading && !c.eof && !c.poisoned && !draining;
        let want_w = !c.wr.is_empty();
        if want_r != c.reg_read || want_w != c.want_write {
            let _ = self
                .poller
                .modify(c.stream.as_raw_fd(), idx as u64, want_r, want_w);
            c.reg_read = want_r;
            c.want_write = want_w;
        }
    }

    /// Closes a connection and detaches its outstanding gathers: slots
    /// with sub-replies still in flight flip to discard mode, completed
    /// ones free immediately.
    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].take() else { return };
        self.poller.delete(conn.stream.as_raw_fd());
        for inf in &conn.inflight {
            let Inflight::Waiting { gather } = *inf else { continue };
            let free_now = match self.gathers[gather].as_mut() {
                Some(g) if g.remaining > 0 => {
                    g.discard = true;
                    false
                }
                Some(_) => true,
                None => false,
            };
            if free_now {
                self.free_gather(gather);
            }
        }
        self.dead.push(idx);
    }

    fn alloc_gather(&mut self, conn: usize, kind: GatherKind) -> usize {
        let g = Gather {
            conn,
            kind,
            remaining: 0,
            discard: false,
            result: None,
        };
        match self.free_gathers.pop() {
            Some(i) => {
                self.gathers[i] = Some(g);
                i
            }
            None => {
                self.gathers.push(Some(g));
                self.gathers.len() - 1
            }
        }
    }

    fn free_gather(&mut self, slot: usize) {
        self.gathers[slot] = None;
        self.free_gathers.push(slot);
    }
}

/// Encodes the response, falling back to an `Error` frame (which always
/// encodes — its length is checked at construction) if the response
/// exceeds a wire limit.
fn encode_or_error(resp: Response) -> Vec<u8> {
    match resp.encode_frame() {
        Ok(frame) => frame,
        Err(e) => Response::Error(format!("response encoding failed: {e}"))
            .encode_frame()
            .expect("error response encodes"),
    }
}

/// Builds the response for a completed (or empty) gather.
fn gather_response(kind: GatherKind) -> Response {
    match kind {
        GatherKind::Predict { out, .. } => match out.into_iter().collect::<Option<Vec<_>>>() {
            Some(replies) => Response::Predict(replies),
            None => Response::Error("incomplete scatter-gather".to_string()),
        },
        GatherKind::Train { applied, stale } => Response::Train { applied, stale },
    }
}

/// Seconds since the Unix epoch, 0 when the clock is unavailable.
pub fn unix_now_s() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Decodes a snapshot's per-shard payloads into one predictor per *target*
/// shard, fail-closed: every payload must decode before any state is used.
/// With matching counts each shard's state transfers bit-exactly; otherwise
/// all shards are union-merged and the merged predictor is cloned onto
/// every target shard. Entries live under folded-history hashes, not raw
/// PCs, so a literal re-split is impossible — but queries route by PC, so
/// each target shard only ever *sees* the slice of the union it owns, and
/// the cluster answers exactly like the merged predictor would.
///
/// # Errors
///
/// A human-readable message naming the payload or merge that failed.
pub fn predictors_from_snapshot(
    shards: &[Vec<u8>],
    target: usize,
) -> Result<Vec<AnyPredictor>, String> {
    if shards.is_empty() || target == 0 {
        return Err("snapshot has no shard payloads".to_string());
    }
    let mut decoded = Vec::with_capacity(shards.len());
    for (i, payload) in shards.iter().enumerate() {
        decoded.push(
            AnyPredictor::from_snapshot_bytes(payload)
                .map_err(|e| format!("shard {i} payload: {e}"))?,
        );
    }
    // The container's kind label covers the file as a whole; each payload
    // also self-describes its variant, and a hand-assembled container could
    // disagree with itself. A heterogeneous pool must never be built — even
    // when the counts match and no merge would force the issue. Names,
    // unlike enum variants, also tell MASCOT's modes apart.
    if let Some(mixed) = decoded.iter().position(|p| p.name() != decoded[0].name()) {
        return Err(format!(
            "shard {mixed} payload holds a different predictor kind than shard 0"
        ));
    }
    if decoded.len() == target {
        return Ok(decoded);
    }
    // Merge in shard order: conflict resolution decays the incumbent on
    // usefulness ties (an anti-mistraining measure — see DESIGN.md §12),
    // so the order is observable and must be deterministic.
    let mut rest = decoded.into_iter();
    let mut union = rest.next().expect("non-empty checked above");
    for (i, other) in rest.enumerate() {
        union
            .merge_from(&other)
            .map_err(|e| format!("merging shard {}: {e}", i + 1))?;
    }
    Ok(vec![union; target])
}

/// Gathers every shard's serialized state into one `Snapshot` response.
/// Runs inline on the event loop: the blocking sends and receives are safe
/// because shard workers never block (replies go to unbounded channels).
fn snapshot_response(
    senders: &[SyncSender<ShardJob>],
    metrics: &[Arc<ShardMetrics>],
    kind: PredictorKind,
) -> Response {
    let (tx, rx) = channel();
    for (shard, sender) in senders.iter().enumerate() {
        let job = ShardJob::Snapshot {
            tag: shard as u64,
            reply: ReplySink::new(tx.clone()),
        };
        if sender.send(job).is_err() {
            return Response::Error("shard worker exited".to_string());
        }
    }
    drop(tx);
    let mut payloads = vec![Vec::new(); senders.len()];
    let mut received = 0usize;
    for (tag, reply) in rx.iter() {
        let ShardReply::Snapshot(bytes) = reply else {
            return Response::Error("mismatched shard reply".to_string());
        };
        payloads[tag as usize] = bytes;
        received += 1;
    }
    if received != senders.len() {
        return Response::Error("incomplete snapshot gather".to_string());
    }
    let file = SnapshotFile {
        kind_label: kind.label().into_owned(),
        created_unix_s: unix_now_s(),
        restarts: metrics[0].restarts.load(Ordering::Relaxed),
        shards: payloads,
    };
    let bytes = file.encode();
    if bytes.len() > MAX_SNAPSHOT_FRAME_PAYLOAD {
        return Response::Error("snapshot exceeds the wire payload limit".to_string());
    }
    Response::Snapshot(bytes)
}

/// Validates and scatters a `Restore` payload onto every shard. Inline on
/// the event loop, same blocking rationale as [`snapshot_response`].
fn restore_response(
    bytes: &[u8],
    senders: &[SyncSender<ShardJob>],
    metrics: &[Arc<ShardMetrics>],
    kind: PredictorKind,
) -> Response {
    let file = match SnapshotFile::decode(bytes) {
        Ok(f) => f,
        Err(e) => return Response::Error(format!("snapshot rejected: {e}")),
    };
    let expected = kind.label();
    if file.kind_label != expected {
        return Response::Error(format!(
            "snapshot rejected: holds {:?} state, this server runs {:?}",
            file.kind_label, expected
        ));
    }
    let predictors = match predictors_from_snapshot(&file.shards, senders.len()) {
        Ok(p) => p,
        Err(e) => return Response::Error(format!("snapshot rejected: {e}")),
    };
    let (tx, rx) = channel();
    for (shard, (sender, predictor)) in senders.iter().zip(predictors.into_iter()).enumerate() {
        let job = ShardJob::Restore {
            predictor: Box::new(predictor),
            tag: shard as u64,
            reply: ReplySink::new(tx.clone()),
        };
        if sender.send(job).is_err() {
            return Response::Error("shard worker exited".to_string());
        }
    }
    drop(tx);
    let mut restored_entries = 0u64;
    let mut received = 0usize;
    for (tag, reply) in rx.iter() {
        let ShardReply::Restore(entries) = reply else {
            return Response::Error("mismatched shard reply".to_string());
        };
        metrics[tag as usize]
            .restored_entries
            .store(entries, Ordering::Relaxed);
        restored_entries += entries;
        received += 1;
    }
    if received != senders.len() {
        return Response::Error("incomplete restore scatter".to_string());
    }
    let age = unix_now_s().saturating_sub(file.created_unix_s);
    for m in metrics {
        m.snapshot_age_s.store(age, Ordering::Relaxed);
        m.restarts.store(file.restarts, Ordering::Relaxed);
    }
    Response::Restore { restored_entries }
}

/// Splits a batch's indices by owning shard.
fn partition<T>(items: &[T], pc_of: impl Fn(&T) -> u64, shards: usize) -> Vec<Vec<usize>> {
    let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); shards];
    for (i, item) in items.iter().enumerate() {
        by_shard[shard_of(pc_of(item), shards)].push(i);
    }
    by_shard
}
