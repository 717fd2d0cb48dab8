//! End-to-end loopback tests for `mascot-serve`: a real `mascotd` server on
//! an ephemeral port, real TCP clients, mixed predict/train traffic from
//! multiple threads, protocol-level rejection of malformed frames, and a
//! router in front of several nodes.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mascot_predictors::{AnyPredictor, PredictorKind};
use mascot_serve::router::{self, RouterConfig, NODE_HASH_MUL};
use mascot_serve::shard::{index_of, ShardPoolConfig};
use mascot_serve::wire::{self, Opcode, PredictItem, Response, TrainItem, HEADER_LEN, MAGIC};
use mascot_serve::{Client, ServeConfig, Served, Server};
use mascot_snapshot::SnapshotFile;
use mascot::prediction::{
    BypassClass, LoadOutcome, MemDepPrediction, ObservedDependence, StoreDistance,
};

fn spawn_server(shards: usize) -> (String, std::thread::JoinHandle<wire::StatsReport>) {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        kind: PredictorKind::Mascot,
        pool: ShardPoolConfig {
            shards,
            ..ShardPoolConfig::default()
        },
    };
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let (addr, handle) = server.spawn();
    (addr.to_string(), handle)
}

/// Thousands of mixed predict/train requests from several client threads;
/// every ticket is trained back, and the server-side counters must account
/// for every item exactly.
#[test]
fn loopback_mixed_traffic_accounts_for_every_item() {
    const THREADS: usize = 4;
    const BATCHES: usize = 50;
    const BATCH: usize = 32;

    let (addr, handle) = spawn_server(4);
    let sent_predicts = Arc::new(AtomicU64::new(0));
    let sent_trains = Arc::new(AtomicU64::new(0));

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let addr = addr.clone();
            let sent_predicts = Arc::clone(&sent_predicts);
            let sent_trains = Arc::clone(&sent_trains);
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                for b in 0..BATCHES {
                    let items: Vec<PredictItem> = (0..BATCH)
                        .map(|i| PredictItem {
                            pc: 0x1000 + ((t * BATCHES * BATCH + b * BATCH + i) as u64 % 509) * 4,
                            store_seq: (b * BATCH + i) as u64,
                        })
                        .collect();
                    // One closed-loop frame per connection can never fill a
                    // 256-deep shard queue, so Busy here is a bug.
                    let replies = match client.predict(items.clone()).expect("predict") {
                        Served::Ok(replies) => replies,
                        Served::Busy => panic!("unexpected Busy under closed-loop load"),
                    };
                    assert_eq!(replies.len(), items.len());
                    sent_predicts.fetch_add(items.len() as u64, Ordering::Relaxed);

                    let trains: Vec<TrainItem> = items
                        .iter()
                        .zip(&replies)
                        .map(|(item, r)| TrainItem {
                            ticket: r.ticket,
                            pc: item.pc,
                            outcome: LoadOutcome::independent(),
                        })
                        .collect();
                    match client.train(trains).expect("train") {
                        Served::Ok((applied, stale)) => {
                            assert_eq!(applied as usize, BATCH, "every ticket fresh");
                            assert_eq!(stale, 0);
                        }
                        Served::Busy => panic!("unexpected Busy under closed-loop load"),
                    }
                    sent_trains.fetch_add(BATCH as u64, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    let predicts = sent_predicts.load(Ordering::Relaxed);
    let trains = sent_trains.load(Ordering::Relaxed);
    assert_eq!(predicts, (THREADS * BATCHES * BATCH) as u64);

    let mut control = Client::connect(&addr).expect("control connect");
    let stats = control.stats().expect("stats");
    assert_eq!(stats.shards.len(), 4);
    assert_eq!(stats.total_predicts(), predicts);
    assert_eq!(stats.total_trains(), trains);
    assert_eq!(stats.total_requests(), predicts + trains);
    assert_eq!(stats.total_rejected(), 0);
    // Every train found its pending ticket.
    assert_eq!(stats.shards.iter().map(|s| s.stale_trains).sum::<u64>(), 0);
    // Work spread over all shards, not funnelled into one.
    for s in &stats.shards {
        assert!(s.requests > 0, "an idle shard means broken routing");
    }

    let served = control.shutdown().expect("shutdown");
    assert_eq!(served, predicts + trains);

    // The drained report must agree with the last live snapshot: shutdown
    // may not lose in-flight work.
    let drained = handle.join().expect("server thread");
    assert_eq!(drained.total_requests(), stats.total_requests());
    assert_eq!(drained.total_predicts(), stats.total_predicts());
    assert_eq!(drained.total_trains(), stats.total_trains());
}

/// PCs warmed and fingerprinted by the snapshot e2e test.
const SNAP_PCS: u64 = 64;
const SNAP_PC_BASE: u64 = 0x2000;

/// Warms the server with deterministic predict/train traffic.
fn warm_over_wire(client: &mut Client, rounds: usize) {
    for round in 0..rounds {
        let items: Vec<PredictItem> = (0..SNAP_PCS)
            .map(|i| PredictItem {
                pc: SNAP_PC_BASE + i * 4,
                store_seq: (round as u64) * SNAP_PCS + i + 8,
            })
            .collect();
        let replies = match client.predict(items.clone()).expect("predict") {
            Served::Ok(replies) => replies,
            Served::Busy => panic!("unexpected Busy under closed-loop load"),
        };
        let trains: Vec<TrainItem> = items
            .iter()
            .zip(&replies)
            .map(|(item, r)| TrainItem {
                ticket: r.ticket,
                pc: item.pc,
                outcome: LoadOutcome::dependent(ObservedDependence {
                    distance: StoreDistance::new(3).expect("in range"),
                    class: BypassClass::DirectBypass,
                    store_pc: item.pc.wrapping_sub(8),
                    branches_between: 0,
                }),
            })
            .collect();
        match client.train(trains).expect("train") {
            Served::Ok(_) => {}
            Served::Busy => panic!("unexpected Busy under closed-loop load"),
        }
    }
}

/// What the server predicts for every warmed PC at a fixed store sequence.
fn wire_fingerprint(client: &mut Client) -> Vec<MemDepPrediction> {
    let items: Vec<PredictItem> = (0..SNAP_PCS)
        .map(|i| PredictItem {
            pc: SNAP_PC_BASE + i * 4,
            store_seq: 1 << 40,
        })
        .collect();
    match client.predict(items).expect("fingerprint predict") {
        Served::Ok(replies) => replies.iter().map(|r| r.prediction).collect(),
        Served::Busy => panic!("unexpected Busy under closed-loop load"),
    }
}

/// A snapshot taken over the wire from a warmed 4-shard server restores
/// into a cold 3-shard server (union reshard) with every prediction
/// intact, and the warm counters become visible through `Stats`.
#[test]
fn wire_snapshot_restores_across_shard_counts() {
    let (addr_a, handle_a) = spawn_server(4);
    let mut client = Client::connect(&addr_a).expect("connect");
    warm_over_wire(&mut client, 30);
    let before = wire_fingerprint(&mut client);
    let snap = client.snapshot().expect("snapshot");
    // The blob is a valid container with one payload per shard.
    let file = SnapshotFile::decode(&snap).expect("well-formed container");
    assert_eq!(file.kind_label, PredictorKind::Mascot.label());
    assert_eq!(file.shards.len(), 4);
    client.shutdown().expect("shutdown");
    handle_a.join().expect("server thread");

    let (addr_b, handle_b) = spawn_server(3);
    let mut client = Client::connect(&addr_b).expect("connect");
    let restored = client.restore(snap).expect("restore");
    assert!(restored > 0, "a warmed snapshot restores entries");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.total_restored(), restored);
    for shard in &stats.shards {
        assert!(shard.restored_entries > 0, "every shard warm-started");
    }
    assert_eq!(wire_fingerprint(&mut client), before);
    client.shutdown().expect("shutdown");
    handle_b.join().expect("server thread");
}

/// Restore fails closed over the wire: garbage bytes and a kind-mismatched
/// container are both rejected with an `Error`, the connection stays
/// usable, and the server's state is untouched.
#[test]
fn wire_restore_fails_closed() {
    let (addr, handle) = spawn_server(2);
    let mut client = Client::connect(&addr).expect("connect");
    warm_over_wire(&mut client, 5);
    let before = wire_fingerprint(&mut client);

    assert!(client.restore(vec![0xde, 0xad, 0xbe, 0xef]).is_err());

    // A well-formed container from the wrong predictor kind.
    let phast = PredictorKind::Phast.build();
    let wrong_kind = SnapshotFile {
        kind_label: PredictorKind::Phast.label().into_owned(),
        created_unix_s: 0,
        restarts: 0,
        shards: vec![AnyPredictor::snapshot_bytes(&phast); 2],
    };
    assert!(client.restore(wrong_kind.encode()).is_err());

    // Same connection, state unchanged: fail-closed means nothing was
    // applied before the rejection.
    assert_eq!(wire_fingerprint(&mut client), before);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.total_restored(), 0);
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// The event-loop stressor: 256 concurrent connections, each delivering
/// two pipelined predict frames split at a per-connection byte offset —
/// collectively covering every header and body boundary of the two-frame
/// stream, including mid-header and the frame seam — with a pause between
/// the halves so the server must hold partial frames across readiness
/// events. Every request is answered, in order, with exact server-side
/// accounting: nothing lost, nothing rejected.
#[test]
fn concurrent_partial_writes_lose_nothing() {
    const CONNS: usize = 256;
    const BATCH: usize = 3;

    // Deep queues: all 512 frames land in one burst once the second halves
    // are written, and the exact accounting below requires zero Busy.
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        kind: PredictorKind::Mascot,
        pool: ShardPoolConfig {
            shards: 2,
            queue_depth: 4096,
            ..ShardPoolConfig::default()
        },
    };
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let (addr, handle) = server.spawn();
    let addr = addr.to_string();

    // Each connection's byte stream: two predict frames, back to back.
    let mut streams: Vec<(TcpStream, Vec<u8>, usize)> = (0..CONNS)
        .map(|i| {
            let frame_of = |k: usize| {
                let items: Vec<PredictItem> = (0..BATCH)
                    .map(|j| PredictItem {
                        pc: 0x9000 + ((i * 7 + j) as u64 % 251) * 4,
                        store_seq: (i * 2 + k) as u64,
                    })
                    .collect();
                wire::Request::Predict(items)
                    .encode_frame()
                    .expect("encodable batch")
            };
            let mut bytes = frame_of(0);
            bytes.extend_from_slice(&frame_of(1));
            let split = (i % (bytes.len() - 1)) + 1;
            let stream = TcpStream::connect(&addr).expect("connect");
            (stream, bytes, split)
        })
        .collect();

    // Phase 1: first halves only, across all connections.
    for (stream, bytes, split) in &mut streams {
        stream.write_all(&bytes[..*split]).expect("first half");
        stream.flush().expect("flush");
    }
    // The event loop must park on the incomplete frames without
    // responding, closing, or confusing them across connections.
    std::thread::sleep(std::time::Duration::from_millis(30));
    // Phase 2: the remainders.
    for (stream, bytes, split) in &mut streams {
        stream.write_all(&bytes[*split..]).expect("second half");
        stream.flush().expect("flush");
    }

    // Exactly two in-order Predict responses per connection.
    for (stream, _, _) in &mut streams {
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .expect("set timeout");
        for _ in 0..2 {
            let (code, payload) = wire::read_frame(stream)
                .expect("well-framed reply")
                .expect("reply before close");
            let resp = Response::decode(Opcode::Predict, code, &payload).expect("decode");
            let Response::Predict(replies) = resp else {
                panic!("expected predictions, got {resp:?}");
            };
            assert_eq!(replies.len(), BATCH);
        }
    }
    drop(streams);

    let mut control = Client::connect(&addr).expect("control connect");
    let stats = control.stats().expect("stats");
    assert_eq!(
        stats.total_predicts(),
        (CONNS * 2 * BATCH) as u64,
        "every item answered exactly once"
    );
    assert_eq!(stats.total_rejected(), 0, "deep queues must absorb the burst");
    control.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// A frame with the wrong magic gets an `Error` response and the
/// connection is dropped; the server keeps serving other clients.
#[test]
fn bad_magic_is_rejected_without_killing_the_server() {
    let (addr, handle) = spawn_server(2);

    let mut raw = TcpStream::connect(&addr).expect("raw connect");
    let mut frame = vec![0u8; HEADER_LEN];
    frame[..4].copy_from_slice(b"XSRV");
    raw.write_all(&frame).expect("write bad magic");
    let (code, payload) = wire::read_frame(&mut raw)
        .expect("error reply is well-framed")
        .expect("reply before close");
    let resp = Response::decode(Opcode::Predict, code, &payload).expect("decode");
    let Response::Error(msg) = resp else {
        panic!("expected Error, got {resp:?}");
    };
    assert!(msg.contains("magic"), "unhelpful error: {msg}");
    // The stream is unrecoverable: the server hangs up after reporting.
    assert!(matches!(wire::read_frame(&mut raw), Ok(None)));

    // A fresh, well-behaved client still gets service.
    let mut client = Client::connect(&addr).expect("connect after abuse");
    let replies = match client
        .predict(vec![PredictItem { pc: 0x40, store_seq: 1 }])
        .expect("predict")
    {
        Served::Ok(replies) => replies,
        Served::Busy => panic!("unexpected Busy"),
    };
    assert_eq!(replies.len(), 1);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// A frame with an unknown protocol version is rejected the same way.
#[test]
fn bad_version_is_rejected() {
    let (addr, handle) = spawn_server(2);

    let mut raw = TcpStream::connect(&addr).expect("raw connect");
    let mut frame = vec![0u8; HEADER_LEN];
    frame[..4].copy_from_slice(&MAGIC);
    frame[4] = 99; // future version
    raw.write_all(&frame).expect("write bad version");
    let (code, payload) = wire::read_frame(&mut raw)
        .expect("error reply is well-framed")
        .expect("reply before close");
    let resp = Response::decode(Opcode::Predict, code, &payload).expect("decode");
    let Response::Error(msg) = resp else {
        panic!("expected Error, got {resp:?}");
    };
    assert!(msg.contains("version"), "unhelpful error: {msg}");
    assert!(matches!(wire::read_frame(&mut raw), Ok(None)));

    let mut client = Client::connect(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// A well-framed but malformed payload answers `Error` and the connection
/// stays usable — the stream is still in sync.
#[test]
fn malformed_payload_keeps_the_connection_alive() {
    let (addr, handle) = spawn_server(2);

    let mut raw = TcpStream::connect(&addr).expect("raw connect");
    // Predict frame claiming 2 items but carrying bytes for none.
    wire::write_frame(&mut raw, Opcode::Predict as u8, &2u16.to_le_bytes())
        .expect("write short batch");
    let (code, payload) = wire::read_frame(&mut raw)
        .expect("error reply is well-framed")
        .expect("reply before close");
    let resp = Response::decode(Opcode::Predict, code, &payload).expect("decode");
    assert!(matches!(resp, Response::Error(_)), "got {resp:?}");

    // Same socket, valid request: still served.
    let req = wire::Request::Predict(vec![PredictItem { pc: 0x80, store_seq: 7 }]);
    raw.write_all(&req.encode_frame().expect("encodable batch"))
        .expect("write valid");
    let (code, payload) = wire::read_frame(&mut raw)
        .expect("well-framed")
        .expect("reply");
    let resp = Response::decode(Opcode::Predict, code, &payload).expect("decode");
    assert!(matches!(resp, Response::Predict(_)), "got {resp:?}");

    let mut client = Client::connect(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

// ---------------------------------------------------------------------------
// mascot-router: an in-process router over in-process mascotd nodes.

/// Primaries, then the replica, each a 2-shard mascotd, behind a router.
struct Cluster {
    router: String,
    router_handle: std::thread::JoinHandle<wire::StatsReport>,
    nodes: Vec<String>,
    node_handles: Vec<std::thread::JoinHandle<wire::StatsReport>>,
}

fn spawn_cluster(primaries: usize) -> Cluster {
    let (nodes, node_handles): (Vec<_>, Vec<_>) = (0..=primaries).map(|_| spawn_server(2)).unzip();
    let cfg = RouterConfig {
        nodes: nodes[..primaries].to_vec(),
        replica: Some(nodes[primaries].clone()),
        health_interval: Duration::from_millis(50),
        ..RouterConfig::default()
    };
    let (addr, router_handle) = router::bind(&cfg).expect("bind router").spawn();
    Cluster {
        router: addr.to_string(),
        router_handle,
        nodes,
        node_handles,
    }
}

/// Joins a server thread, failing instead of hanging when it never stops.
fn join_within<T>(handle: std::thread::JoinHandle<T>, what: &str) -> T {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !handle.is_finished() {
        assert!(Instant::now() < deadline, "{what} did not stop");
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.join().expect(what)
}

impl Cluster {
    /// Shuts the router down and requires it to stop every node it
    /// reaches; returns the router's `Shutdown` answer and drained report.
    fn shutdown(self) -> (u64, wire::StatsReport) {
        let served = Client::connect(&self.router)
            .expect("control connect")
            .shutdown()
            .expect("router shutdown");
        let drained = join_within(self.router_handle, "router");
        for (i, handle) in self.node_handles.into_iter().enumerate() {
            join_within(handle, &format!("node {i}"));
        }
        (served, drained)
    }
}

const ROUTED_PCS: u64 = 96;

/// One round of the routed stream: every PC once, advancing store_seq.
fn routed_batch(round: u64) -> Vec<PredictItem> {
    (0..ROUTED_PCS)
        .map(|i| PredictItem {
            pc: 0x7000 + i * 4,
            store_seq: round * ROUTED_PCS + i + 8,
        })
        .collect()
}

/// Trains every reply back: odd PCs depend on a store 3 back, even PCs
/// are independent, so predictions diverge from the cold default.
fn train_items(items: &[PredictItem], replies: &[wire::PredictReply]) -> Vec<TrainItem> {
    items
        .iter()
        .zip(replies)
        .map(|(item, r)| TrainItem {
            ticket: r.ticket,
            pc: item.pc,
            outcome: if item.pc & 4 != 0 {
                LoadOutcome::dependent(ObservedDependence {
                    distance: StoreDistance::new(3).expect("in range"),
                    class: BypassClass::DirectBypass,
                    store_pc: item.pc.wrapping_sub(8),
                    branches_between: 0,
                })
            } else {
                LoadOutcome::independent()
            },
        })
        .collect()
}

/// Predict + train one batch, requiring a complete, non-Busy answer.
fn predict_and_train(client: &mut Client, items: &[PredictItem]) -> Vec<wire::PredictReply> {
    let Served::Ok(replies) = client.predict(items.to_vec()).expect("predict") else {
        panic!("unexpected Busy under closed-loop load");
    };
    assert_eq!(replies.len(), items.len(), "every item answered");
    let Served::Ok((applied, stale)) = client.train(train_items(items, &replies)).expect("train")
    else {
        panic!("unexpected Busy under closed-loop load");
    };
    assert_eq!((applied + stale) as usize, items.len(), "every train accounted");
    replies
}

/// Each node's slice of the stream, sent straight to a twin mascotd, gets
/// exactly the predictions (and tickets) the router returns for it; the
/// router's `Stats` has one entry per primary plus the replica's, adding
/// up to what the client sent, and `Shutdown` answers that same count.
#[test]
fn router_predictions_match_the_owning_node() {
    const PRIMARIES: usize = 2;
    const ROUNDS: u64 = 25;
    let cluster = spawn_cluster(PRIMARIES);
    let twins: Vec<_> = (0..PRIMARIES).map(|_| spawn_server(2)).collect();
    let mut routed = Client::connect(&cluster.router).expect("connect router");
    let mut direct: Vec<Client> = twins
        .iter()
        .map(|(addr, _)| Client::connect(addr).expect("connect twin"))
        .collect();

    let mut last = Vec::new();
    for round in 0..ROUNDS {
        let items = routed_batch(round);
        let via_router = predict_and_train(&mut routed, &items);
        let mut via_twin: Vec<Option<wire::PredictReply>> = vec![None; items.len()];
        for (node, client) in direct.iter_mut().enumerate() {
            let idxs: Vec<usize> = (0..items.len())
                .filter(|&i| index_of(items[i].pc, PRIMARIES, NODE_HASH_MUL) == node)
                .collect();
            let sub: Vec<PredictItem> = idxs.iter().map(|&i| items[i]).collect();
            for (&i, reply) in idxs.iter().zip(predict_and_train(client, &sub)) {
                via_twin[i] = Some(reply);
            }
        }
        let via_twin: Vec<_> = via_twin.into_iter().map(|r| r.expect("owned")).collect();
        assert_eq!(via_router, via_twin, "round {round}");
        last = via_router;
    }
    assert!(
        last.iter().any(|r| r.prediction != MemDepPrediction::NoDependence),
        "the stream must train non-trivial predictions"
    );

    let sent = 2 * ROUNDS * ROUTED_PCS;
    let stats = routed.stats().expect("stats");
    assert_eq!(stats.shards.len(), PRIMARIES + 1, "one entry per primary, then the replica");
    assert_eq!(stats.total_requests(), sent);
    assert_eq!(stats.total_predicts(), sent / 2);
    assert_eq!(stats.shards[PRIMARIES].requests, 0, "no failover happened");
    for s in &stats.shards[..PRIMARIES] {
        assert!(s.requests > 0 && s.service_p99_ns > 0, "primary unused: {s:?}");
    }
    let (served, drained) = cluster.shutdown();
    assert_eq!(served, sent, "Shutdown answers the routed-item count");
    assert_eq!(drained.total_requests(), sent);
    for (addr, handle) in twins {
        Client::connect(&addr).expect("connect").shutdown().expect("shutdown");
        join_within(handle, "twin");
    }
}

/// A primary shut down mid-stream loses nothing: its slice fails over to
/// the replica and every later request is still answered in full.
#[test]
fn router_fails_a_shut_down_primary_over_to_the_replica() {
    const PRIMARIES: usize = 2;
    let mut cluster = spawn_cluster(PRIMARIES);
    let mut client = Client::connect(&cluster.router).expect("connect router");
    for round in 0..10 {
        predict_and_train(&mut client, &routed_batch(round));
    }
    let before = client.stats().expect("stats");
    assert_eq!(before.shards[PRIMARIES].requests, 0, "replica idle before");

    Client::connect(&cluster.nodes[0])
        .expect("connect primary 0")
        .shutdown()
        .expect("primary 0 shutdown");
    join_within(cluster.node_handles.remove(0), "primary 0");
    for round in 10..30 {
        predict_and_train(&mut client, &routed_batch(round));
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.total_requests(), 2 * 30 * ROUTED_PCS, "nothing lost");
    assert!(stats.shards[PRIMARIES].requests > 0, "the replica took over");
    assert_eq!(
        stats.shards[0].requests, before.shards[0].requests,
        "the shut-down primary serves nothing more"
    );
    let replica = Client::connect(cluster.nodes.last().expect("replica"))
        .expect("connect replica")
        .stats()
        .expect("replica stats");
    assert_eq!(replica.total_requests(), stats.shards[PRIMARIES].requests);
    let (served, _) = cluster.shutdown();
    assert_eq!(served, 2 * 30 * ROUTED_PCS);
}

/// Snapshot and Restore are per-node operations: the router answers each
/// with an `Error`, and the connection stays in sync for the next request.
#[test]
fn router_rejects_snapshot_and_restore() {
    let cluster = spawn_cluster(2);
    let mut client = Client::connect(&cluster.router).expect("connect router");
    predict_and_train(&mut client, &routed_batch(0));
    for req in [wire::Request::Snapshot, wire::Request::Restore(vec![1, 2, 3])] {
        match client.request(&req).expect("answered") {
            Response::Error(msg) => assert!(msg.contains("per-node"), "unhelpful error: {msg}"),
            other => panic!("expected Error for {req:?}, got {other:?}"),
        }
    }
    predict_and_train(&mut client, &routed_batch(1));
    cluster.shutdown();
}

/// Frames pipelined on one router connection — predicts of different
/// sizes interleaved with requests the router answers itself — come back
/// in request order.
#[test]
fn router_answers_pipelined_frames_in_order() {
    let cluster = spawn_cluster(2);
    let mut client = Client::connect(&cluster.router).expect("connect router");
    let sizes = [1usize, 7, 64, 3, 96];
    let mut expect = Vec::new();
    for (k, &n) in sizes.iter().enumerate() {
        let items = routed_batch(k as u64)[..n].to_vec();
        client.send(&wire::Request::Predict(items)).expect("send");
        expect.push(Some(n));
        if k % 2 == 0 {
            client.send(&wire::Request::Stats).expect("send");
            expect.push(None);
        }
    }
    for want in expect {
        match (want, client.recv(if want.is_some() { Opcode::Predict } else { Opcode::Stats })) {
            (Some(n), Ok(Response::Predict(replies))) => assert_eq!(replies.len(), n),
            (None, Ok(Response::Stats(report))) => assert_eq!(report.shards.len(), 3),
            (want, got) => panic!("expected {want:?} next, got {got:?}"),
        }
    }
    cluster.shutdown();
}

/// Without a replica, a request touching a dead node's slice is refused
/// as a whole (`Error`, no partial answer), while requests owned only by
/// the surviving node keep being served on the same connection.
#[test]
fn router_without_a_replica_refuses_a_dead_nodes_slice() {
    const PRIMARIES: usize = 2;
    let (nodes, mut handles): (Vec<_>, Vec<_>) = (0..PRIMARIES).map(|_| spawn_server(2)).unzip();
    let cfg = RouterConfig {
        nodes: nodes.clone(),
        health_interval: Duration::from_millis(50),
        ..RouterConfig::default()
    };
    let (addr, router_handle) = router::bind(&cfg).expect("bind router").spawn();
    let mut client = Client::connect(addr).expect("connect router");
    predict_and_train(&mut client, &routed_batch(0));

    Client::connect(&nodes[0])
        .expect("connect primary 0")
        .shutdown()
        .expect("primary 0 shutdown");
    join_within(handles.remove(0), "primary 0");
    let owned_by = |node: usize| -> Vec<PredictItem> {
        routed_batch(1)
            .into_iter()
            .filter(|it| index_of(it.pc, PRIMARIES, NODE_HASH_MUL) == node)
            .collect()
    };
    for _ in 0..3 {
        match client.request(&wire::Request::Predict(routed_batch(1))).expect("answered") {
            Response::Error(msg) => assert!(msg.contains("no --replica"), "unhelpful error: {msg}"),
            other => panic!("expected a whole-request Error, got {other:?}"),
        }
        predict_and_train(&mut client, &owned_by(1));
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.shards.len(), PRIMARIES + 1, "the replica entry stays, idle");
    assert_eq!(stats.shards[PRIMARIES].requests, 0);

    client.shutdown().expect("router shutdown");
    join_within(router_handle, "router");
    join_within(handles.remove(0), "primary 1");
}
