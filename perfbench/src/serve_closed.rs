//! `serve-closed`: a `mascotd` process with two shards, warmed by
//! replaying a trace generated from the seed, under a closed loop of two
//! client threads with one connection each: Predict 64 loads, then Train
//! the same 64 with the returned tickets.
//!
//! The traced pass runs half its time plain and half with the wire codec
//! timed on every frame, reads the server's own shard service histogram
//! through `Stats`, and then, with the server stopped, drives a
//! `ShardPool` in-process (no TCP) and a bare predictor's batched calls on
//! the same batches.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc::channel;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mascot::prediction::{
    LoadOutcome, MemDepPredictor, ObservedDependence, PredictReq, StoreDistance, TrainReq,
};
use mascot_predictors::PredictorKind;
use mascot_serve::shard::{ReplySink, ShardJob, ShardReply};
use mascot_serve::wire::{PredictItem, Request, Response, StatsReport, TrainItem};
use mascot_serve::{replay_trace, Client, Served, ShardPool, ShardPoolConfig};
use mascot_sim::{Trace, TraceDep, UopKind};
use mascot_workloads::{generate, spec};

use crate::host::{peak_rss_mb, Guarded};
use crate::report::Report;
use crate::stats::{median, percentile_sorted};
use crate::Args;

/// Profile whose trace warms the server and supplies the load's PCs.
const PROFILE: &str = "perlbench2";
/// Uops in the generated trace.
const TRACE_UOPS: usize = 150_000;
/// Shard worker threads in `mascotd`.
const SHARDS: usize = 2;
/// Client threads, one connection each.
const CLIENTS: usize = 2;
/// Loads per Predict frame (and per Train frame).
const BATCH: usize = 64;
/// Server starts before the load, the last of which takes the load, and
/// again after it, so the samples span the run; the median start-up time
/// is reported.
const SETUP_REPS: usize = 7;
/// How long a server may take to start or to stop.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(60);
/// Window over which throughput and latency percentiles are taken; a run
/// reports the median over its windows, so a burst of host noise in a few
/// windows does not move it.
const WINDOW_NS: u64 = 500_000_000;
/// Longest in-process `ShardPool` phase of the traced pass.
const POOL_PHASE: Duration = Duration::from_secs(3);

/// The commit-time outcome the simulator would record for a trace load:
/// dependences beyond the 127-store window train as independent.
fn outcome_of(dep: Option<TraceDep>) -> LoadOutcome {
    match dep.and_then(|d| StoreDistance::new(d.distance).map(|dist| (d, dist))) {
        Some((d, distance)) => LoadOutcome::dependent(ObservedDependence {
            distance,
            class: d.class,
            store_pc: d.store_pc,
            branches_between: d.branches_between,
        }),
        None => LoadOutcome::independent(),
    }
}

/// Every load of `trace` as a predict item (PC and the count of stores
/// before it) with its outcome.
fn loads_of(trace: &Trace) -> Vec<(PredictItem, LoadOutcome)> {
    let mut stores = 0u64;
    let mut out = Vec::new();
    for uop in &trace.uops {
        match uop.kind {
            UopKind::Store { .. } => stores += 1,
            UopKind::Load { dep, .. } => out.push((
                PredictItem {
                    pc: uop.pc,
                    store_seq: stores,
                },
                outcome_of(dep),
            )),
            _ => {}
        }
    }
    out
}

/// A running `mascotd`.
struct Server {
    process: Guarded,
    addr: String,
    /// Wall time from launch until the port file appeared.
    startup_wall_s: f64,
    /// CPU time the server's threads ran over that interval.
    startup_cpu_s: f64,
}

/// CPU time every thread of process `pid` has run so far, in seconds. The
/// kernel's paravirtual accounting leaves out time the hypervisor gave to
/// other guests, which on a shared host dominates the wall time of a
/// start-up made of many cross-thread wake-ups.
fn process_cpu_s(pid: u32) -> Result<f64, String> {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).map_err(|e| e.to_string())?;
    let mut ns = 0u64;
    for task in tasks.flatten() {
        // A thread that exited between the listing and the read has no
        // file left; mascotd's threads all live until shutdown.
        if let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) {
            ns += stat
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("unreadable schedstat {stat:?}"))?;
        }
    }
    Ok(ns as f64 / 1e9)
}

fn start_server(bin: &Path, mtrc: &Path, work_dir: &Path, n: usize) -> Result<Server, String> {
    let port_file = work_dir.join(format!("mascotd-{n}.port"));
    let _ = std::fs::remove_file(&port_file);
    let log_path = work_dir.join(format!("mascotd-{n}.log"));
    let log = File::create(&log_path).map_err(|e| format!("{}: {e}", log_path.display()))?;
    let t0 = Instant::now();
    let child = Command::new(bin)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--shards",
            &SHARDS.to_string(),
            "--replay",
        ])
        .arg(mtrc)
        .arg("--port-file")
        .arg(&port_file)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("cannot launch {}: {e}", bin.display()))?;
    let mut process = Guarded::new(child);
    loop {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            if let Some(addr) = s.strip_suffix('\n') {
                let startup_wall_s = t0.elapsed().as_secs_f64();
                let startup_cpu_s = process_cpu_s(process.id())?;
                return Ok(Server {
                    process,
                    addr: addr.to_string(),
                    startup_wall_s,
                    startup_cpu_s,
                });
            }
        }
        if let Some(exited) = process.try_wait().map_err(|e| e.to_string())? {
            let log = std::fs::read_to_string(&log_path).unwrap_or_default();
            return Err(format!(
                "mascotd exited ({:?}) before serving:\n{log}",
                exited.code
            ));
        }
        if t0.elapsed() > PROCESS_TIMEOUT {
            return Err(format!(
                "mascotd wrote no port file within {PROCESS_TIMEOUT:?}"
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Shuts the server down over the wire and reaps it; returns its peak RSS.
fn stop_server(mut server: Server, report: &mut Report) -> Result<f64, String> {
    // Read from the live process: the reaped child's `ru_maxrss` would also
    // count what this harness held when it spawned the server.
    let peak_rss_mb = peak_rss_mb(&server.process.id().to_string());
    let served = Client::connect(&server.addr)
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
    report.check(served.is_ok(), || {
        format!("mascotd shutdown failed: {served:?}")
    });
    let exited = server
        .process
        .wait_timeout(PROCESS_TIMEOUT)
        .map_err(|e| format!("mascotd did not stop: {e}"))?;
    report.check(exited.success(), || {
        format!("mascotd exited with {:?}", exited.code)
    });
    Ok(peak_rss_mb)
}

/// One client thread's closed loop.
#[derive(Debug, Default)]
struct Loop {
    predict_ns: Vec<u64>,
    train_ns: Vec<u64>,
    /// Completion time of each predict frame since the phase started.
    predict_at: Vec<u64>,
    /// Completion time of each train frame since the phase started.
    train_at: Vec<u64>,
    predict_items: u64,
    train_items: u64,
    applied: u64,
    stale: u64,
    busy: u64,
    lost: u64,
    bad_replies: u64,
    encode_ns: u64,
    decode_ns: u64,
    codec_frames: u64,
    secs: f64,
}

impl Loop {
    fn merge(&mut self, o: Loop) {
        self.predict_ns.extend(o.predict_ns);
        self.train_ns.extend(o.train_ns);
        self.predict_at.extend(o.predict_at);
        self.train_at.extend(o.train_at);
        self.predict_items += o.predict_items;
        self.train_items += o.train_items;
        self.applied += o.applied;
        self.stale += o.stale;
        self.busy += o.busy;
        self.lost += o.lost;
        self.bad_replies += o.bad_replies;
        self.encode_ns += o.encode_ns;
        self.decode_ns += o.decode_ns;
        self.codec_frames += o.codec_frames;
        self.secs = self.secs.max(o.secs);
    }

    fn frames(&self) -> u64 {
        (self.predict_ns.len() + self.train_ns.len()) as u64
    }
}

/// Times `Request::encode_frame` for `req` and `Response::decode` for
/// `resp` (encoded outside the timing), adding both to `l`.
fn time_codec(l: &mut Loop, req: &Request, resp: &Response) {
    let t0 = Instant::now();
    let frame = req.encode_frame();
    l.encode_ns += t0.elapsed().as_nanos() as u64;
    std::hint::black_box(frame.map(|f| f.len()).unwrap_or(0));
    let payload = resp
        .encode_payload()
        .expect("reply batches are within the wire limit");
    let t0 = Instant::now();
    let decoded = Response::decode(req.opcode(), resp.status() as u8, &payload);
    l.decode_ns += t0.elapsed().as_nanos() as u64;
    std::hint::black_box(decoded.is_ok());
    l.codec_frames += 1;
}

/// Predict then Train batches of `BATCH` loads for `run_for`; client
/// `id` of `CLIENTS` takes every `CLIENTS`-th batch of `loads`.
fn closed_loop(
    addr: &str,
    loads: &[(PredictItem, LoadOutcome)],
    id: usize,
    start: &Barrier,
    run_for: Duration,
    codec: bool,
) -> Loop {
    let mut l = Loop::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: client {id}: connect failed: {e}");
            start.wait();
            l.lost += 1;
            return l;
        }
    };
    let batches = loads.len() / BATCH;
    let mut b = id;
    start.wait();
    let t0 = Instant::now();
    while t0.elapsed() < run_for {
        let chunk = &loads[(b % batches) * BATCH..][..BATCH];
        b += CLIENTS;
        let items: Vec<PredictItem> = chunk.iter().map(|(item, _)| *item).collect();
        let req = codec.then(|| Request::Predict(items.clone()));
        let t = Instant::now();
        let replies = match client.predict(items) {
            Ok(Served::Ok(replies)) => replies,
            Ok(Served::Busy) => {
                l.busy += 1;
                continue;
            }
            Err(e) => {
                eprintln!("perfbench: client {id}: predict lost: {e}");
                l.lost += 1;
                break;
            }
        };
        l.predict_ns.push(t.elapsed().as_nanos() as u64);
        l.predict_at.push(t0.elapsed().as_nanos() as u64);
        l.predict_items += replies.len() as u64;
        if replies.len() != BATCH {
            l.bad_replies += 1;
            continue;
        }
        if let Some(req) = &req {
            time_codec(&mut l, req, &Response::Predict(replies.clone()));
        }
        let trains: Vec<TrainItem> = chunk
            .iter()
            .zip(&replies)
            .map(|((item, outcome), r)| TrainItem {
                ticket: r.ticket,
                pc: item.pc,
                outcome: *outcome,
            })
            .collect();
        let req = codec.then(|| Request::Train(trains.clone()));
        let t = Instant::now();
        match client.train(trains) {
            Ok(Served::Ok((applied, stale))) => {
                l.train_ns.push(t.elapsed().as_nanos() as u64);
                l.train_at.push(t0.elapsed().as_nanos() as u64);
                l.train_items += BATCH as u64;
                l.applied += u64::from(applied);
                l.stale += u64::from(stale);
                if let Some(req) = &req {
                    time_codec(&mut l, req, &Response::Train { applied, stale });
                }
            }
            Ok(Served::Busy) => l.busy += 1,
            Err(e) => {
                eprintln!("perfbench: client {id}: train lost: {e}");
                l.lost += 1;
                break;
            }
        }
    }
    l.secs = t0.elapsed().as_secs_f64();
    l
}

/// `CLIENTS` closed loops in parallel for `run_for`.
fn load_phase(
    addr: &str,
    loads: &[(PredictItem, LoadOutcome)],
    run_for: Duration,
    codec: bool,
) -> Loop {
    let start = Barrier::new(CLIENTS);
    let mut total = Loop::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let start = &start;
                s.spawn(move || closed_loop(addr, loads, id, start, run_for, codec))
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("client thread panicked"));
        }
    });
    total
}

fn stats(addr: &str) -> Result<StatsReport, String> {
    Client::connect(addr)
        .map_err(|e| e.to_string())?
        .stats()
        .map_err(|e| format!("Stats failed: {e}"))
}

/// Counts every frame and checks the server's accounting against the
/// client's: nothing lost, no Busy, every item answered and trained.
fn check_phase(report: &mut Report, l: &Loop, before: &StatsReport, after: &StatsReport) {
    report.ops(l.frames() + l.busy + l.lost, l.busy + l.lost);
    report.check(l.lost == 0, || format!("{} requests lost", l.lost));
    report.check(l.bad_replies == 0, || {
        format!("{} short predict replies", l.bad_replies)
    });
    let predicts = after.total_predicts() - before.total_predicts();
    let trains = after.total_trains() - before.total_trains();
    let stale: u64 = after.shards.iter().map(|s| s.stale_trains).sum::<u64>()
        - before.shards.iter().map(|s| s.stale_trains).sum::<u64>();
    report.check(predicts == l.predict_items, || {
        format!(
            "server counted {predicts} predicts, clients got {}",
            l.predict_items
        )
    });
    report.check(
        trains == l.applied && stale == l.stale && trains + stale == l.train_items,
        || {
            format!(
                "server counted {trains} trains + {stale} stale, clients sent {} \
                 ({} applied, {} stale)",
                l.train_items, l.applied, l.stale
            )
        },
    );
}

/// Median, 99th and 99.9th percentile of `ns` samples, in microseconds.
fn latency_us(ns: &[u64]) -> (f64, f64, f64) {
    let mut v = ns.to_vec();
    v.sort_unstable();
    let us = |p| percentile_sorted(&v, p) as f64 / 1e3;
    (us(50.0), us(99.0), us(99.9))
}

/// Medians over the run's whole windows of predict items per second and
/// of the frame latency p50 and p99, in microseconds.
fn windowed(l: &Loop) -> (f64, f64, f64) {
    let windows = ((l.secs * 1e9) as u64 / WINDOW_NS).max(1) as usize;
    let mut latencies: Vec<Vec<u64>> = vec![Vec::new(); windows];
    let mut predicts = vec![0u64; windows];
    let frames = l.predict_at.iter().zip(&l.predict_ns).map(|f| (f, true));
    let frames = frames.chain(l.train_at.iter().zip(&l.train_ns).map(|f| (f, false)));
    for ((&at, &ns), is_predict) in frames {
        let w = (at / WINDOW_NS) as usize;
        if w < windows {
            latencies[w].push(ns);
            predicts[w] += u64::from(is_predict);
        }
    }
    let span_s = (l.secs * 1e9).min((windows as u64 * WINDOW_NS) as f64) / 1e9 / windows as f64;
    let rates: Vec<f64> = predicts
        .iter()
        .map(|&n| (n * BATCH as u64) as f64 / span_s)
        .collect();
    let (p50s, p99s): (Vec<f64>, Vec<f64>) = latencies
        .iter()
        .map(|ns| {
            let (p50, p99, _) = latency_us(ns);
            (p50, p99)
        })
        .unzip();
    (median(&rates), median(&p50s), median(&p99s))
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let bin = args.bin_dir.join("mascotd");
    if !bin.is_file() {
        return Err(format!("missing release binary {}", bin.display()));
    }
    let profile = spec::profile(PROFILE).ok_or("unknown serve profile")?;
    let t_gen = Instant::now();
    let trace = generate(&profile, args.seed, TRACE_UOPS);
    report.layer(
        "workloads.generate_ns_per_uop",
        t_gen.elapsed().as_secs_f64() * 1e9 / trace.len() as f64,
        "ns",
    );
    let mtrc: PathBuf = args.work_dir.join(format!("serve-{}.mtrc", args.seed));
    std::fs::write(&mtrc, mascot_sim::codec::encode(&trace))
        .map_err(|e| format!("{}: {e}", mtrc.display()))?;
    let loads = loads_of(&trace);

    let (mut startup_cpu, mut startup_wall) = (Vec::new(), Vec::new());
    let mut peak_rss: f64 = 0.0;
    let mut server = None;
    for n in 0..SETUP_REPS {
        let s = start_server(&bin, &mtrc, &args.work_dir, n)?;
        startup_cpu.push(s.startup_cpu_s);
        startup_wall.push(s.startup_wall_s);
        if n + 1 < SETUP_REPS {
            peak_rss = peak_rss.max(stop_server(s, report)?);
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("SETUP_REPS is positive");

    let before = stats(&server.addr)?;
    let plain_for = if report.traced() {
        args.seconds / 2
    } else {
        args.seconds
    };
    let plain = load_phase(&server.addr, &loads, plain_for, false);
    let middle = stats(&server.addr)?;
    check_phase(report, &plain, &before, &middle);
    let traced = if report.traced() {
        let l = load_phase(&server.addr, &loads, args.seconds - plain_for, true);
        let after = stats(&server.addr)?;
        check_phase(report, &l, &middle, &after);
        Some((l, after))
    } else {
        None
    };
    peak_rss = peak_rss.max(stop_server(server, report)?);
    for n in SETUP_REPS..2 * SETUP_REPS {
        let s = start_server(&bin, &mtrc, &args.work_dir, n)?;
        startup_cpu.push(s.startup_cpu_s);
        startup_wall.push(s.startup_wall_s);
        peak_rss = peak_rss.max(stop_server(s, report)?);
    }
    let _ = std::fs::remove_file(&mtrc);
    report.e2e("setup_s", median(&startup_cpu), "s");
    report.layer("serve.startup_wall_s", median(&startup_wall), "s");

    let (items_per_s, p50, p99) = windowed(&plain);
    // Throughput and p99 are printed here and reported only by the traced
    // pass: on a shared two-core host both swing by more than 2x with the
    // load other guests put on the machine (README.md).
    println!(
        "serve-closed: {} frames, {} predict items in {:.2}s; busy {} lost {}; \
         window medians: {items_per_s:.0} items/s, p99 {p99:.1} us; \
         start-up wall {:.4}s",
        plain.frames(),
        plain.predict_items,
        plain.secs,
        plain.busy,
        plain.lost,
        median(&startup_wall)
    );
    report.layer("serve.items_per_s", items_per_s, "items/s");
    // A frame's round trip is the workload's unit of work.
    report.e2e("wall_s", p50 / 1e6, "s");
    report.e2e("peak_rss_mb", peak_rss, "MB");

    if let Some((l, after)) = traced {
        traced_metrics(report, &trace, &loads, &l, &middle, &after, items_per_s);
    }
    Ok(())
}

fn traced_metrics(
    report: &mut Report,
    trace: &Trace,
    loads: &[(PredictItem, LoadOutcome)],
    l: &Loop,
    before: &StatsReport,
    after: &StatsReport,
    plain_items_per_s: f64,
) {
    let (pp50, pp99, _) = latency_us(&l.predict_ns);
    let (tp50, tp99, _) = latency_us(&l.train_ns);
    let mut all_ns = l.predict_ns.clone();
    all_ns.extend(&l.train_ns);
    let (_, _, p999) = latency_us(&all_ns);
    let frames = l.codec_frames.max(1) as f64;
    let encode_ns = l.encode_ns as f64 / frames;
    let decode_ns = l.decode_ns as f64 / frames;
    let worst = |f: fn(&mascot_serve::wire::ShardStats) -> u64| {
        after.shards.iter().map(f).max().unwrap_or(0) as f64 / 1e3
    };
    let service_p50 = worst(|s| s.service_p50_ns);
    let service_p99 = worst(|s| s.service_p99_ns);
    let delta = |f: fn(&mascot_serve::wire::ShardStats) -> u64| {
        (after.shards.iter().map(f).sum::<u64>() - before.shards.iter().map(f).sum::<u64>()) as f64
    };
    report.layer("serve.predict_rtt_p50_us", pp50, "us");
    report.layer("serve.predict_rtt_p99_us", pp99, "us");
    report.layer("serve.train_rtt_p50_us", tp50, "us");
    report.layer("serve.train_rtt_p99_us", tp99, "us");
    report.layer("serve.p999_us", p999, "us");
    report.layer("serve.frames", all_ns.len() as f64, "count");
    report.layer("serve.wire_encode_ns_per_frame", encode_ns, "ns");
    report.layer("serve.wire_decode_ns_per_frame", decode_ns, "ns");
    report.layer("serve.shard_service_p50_us", service_p50, "us");
    report.layer("serve.shard_service_p99_us", service_p99, "us");
    report.layer(
        "serve.unattributed_p50_us",
        pp50 - service_p50 - (encode_ns + decode_ns) / 1e3,
        "us",
    );
    report.layer("serve.shard_batches", delta(|s| s.batches), "count");
    report.layer("serve.busy_rejected", delta(|s| s.rejected_full), "count");
    report.layer("serve.stale_trains", delta(|s| s.stale_trains), "count");
    report.layer(
        "trace_overhead_pct",
        (plain_items_per_s / windowed(l).0 - 1.0) * 100.0,
        "%",
    );

    let pool = pool_phase(report, trace, loads);
    report.layer("serve.pool_items_per_s", pool, "items/s");
    let (predict_ns, train_ns) = batched_calls(loads);
    report.layer("predictors.batch_predict_ns_per_item", predict_ns, "ns");
    report.layer("predictors.batch_train_ns_per_item", train_ns, "ns");
}

/// Drives a `ShardPool` in-process the way the server does (scatter each
/// batch by shard, gather, then train), from `CLIENTS` threads; returns
/// predict items per second.
fn pool_phase(report: &mut Report, trace: &Trace, loads: &[(PredictItem, LoadOutcome)]) -> f64 {
    let cfg = ShardPoolConfig {
        shards: SHARDS,
        ..ShardPoolConfig::default()
    };
    let pool = ShardPool::new(PredictorKind::Mascot, &cfg);
    let replay = replay_trace(&pool, trace);
    report.check(replay.applied + replay.stale == replay.loads, || {
        format!("in-process replay lost trains: {replay:?}")
    });
    let start = Barrier::new(CLIENTS);
    let mut items = 0u64;
    let mut secs: f64 = 0.0;
    let mut failed = 0u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let (pool, start) = (&pool, &start);
                s.spawn(move || pool_client(pool, loads, id, start))
            })
            .collect();
        for h in handles {
            let (n, t, bad) = h.join().expect("pool client panicked");
            items += n;
            secs = secs.max(t);
            failed += bad;
        }
    });
    let report_stats = pool.shutdown();
    report.ops(items / BATCH as u64, failed);
    report.check(report_stats.total_predicts() >= items, || {
        "in-process pool counted fewer predicts than were answered".into()
    });
    items as f64 / secs
}

fn pool_client(
    pool: &ShardPool,
    loads: &[(PredictItem, LoadOutcome)],
    id: usize,
    start: &Barrier,
) -> (u64, f64, u64) {
    let (tx, rx) = channel();
    let batches = loads.len() / BATCH;
    let mut b = id;
    let (mut items, mut failed) = (0u64, 0u64);
    start.wait();
    let t0 = Instant::now();
    while t0.elapsed() < POOL_PHASE {
        let chunk = &loads[(b % batches) * BATCH..][..BATCH];
        b += CLIENTS;
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); pool.num_shards()];
        for (i, (item, _)) in chunk.iter().enumerate() {
            by_shard[pool.shard_of(item.pc)].push(i);
        }
        let mut outstanding = 0;
        for (shard, idxs) in by_shard.iter().enumerate().filter(|(_, v)| !v.is_empty()) {
            pool.send(
                shard,
                ShardJob::Predict {
                    items: idxs.iter().map(|&i| chunk[i].0).collect(),
                    tag: shard as u64,
                    reply: ReplySink::new(tx.clone()),
                },
            );
            outstanding += 1;
        }
        // Train replies share the channel and may arrive between predict
        // replies, as in the server's own scatter/gather.
        let (mut predicts, mut trains_sent, mut trains_seen) = (0, 0, 0);
        while predicts < outstanding || trains_seen < trains_sent {
            let Ok((shard, reply)) = rx.recv() else {
                failed += 1;
                break;
            };
            let shard = shard as usize;
            match reply {
                ShardReply::Predict(replies) => {
                    predicts += 1;
                    items += replies.len() as u64;
                    let train: Vec<TrainItem> = by_shard[shard]
                        .iter()
                        .zip(&replies)
                        .map(|(&i, r)| TrainItem {
                            ticket: r.ticket,
                            pc: chunk[i].0.pc,
                            outcome: chunk[i].1,
                        })
                        .collect();
                    pool.send(
                        shard,
                        ShardJob::Train {
                            items: train,
                            tag: shard as u64,
                            reply: ReplySink::new(tx.clone()),
                        },
                    );
                    trains_sent += 1;
                }
                ShardReply::Train { stale, .. } => {
                    trains_seen += 1;
                    failed += u64::from(stale > 0);
                }
                ShardReply::Snapshot(_) | ShardReply::Restore(_) => failed += 1,
            }
        }
    }
    (items, t0.elapsed().as_secs_f64(), failed)
}

/// Host time per item of `predict_batch` and `train_batch` on a bare
/// MASCOT predictor fed serve's batches in order, twice over the trace.
fn batched_calls(loads: &[(PredictItem, LoadOutcome)]) -> (f64, f64) {
    let mut pred = PredictorKind::Mascot.build();
    let mut reqs = Vec::with_capacity(BATCH);
    let mut out = Vec::with_capacity(BATCH);
    let mut trains = Vec::with_capacity(BATCH);
    let (mut predict_ns, mut train_ns, mut items) = (0u64, 0u64, 0u64);
    for _ in 0..2 {
        for chunk in loads.chunks_exact(BATCH) {
            reqs.clear();
            reqs.extend(chunk.iter().map(|(item, _)| PredictReq {
                pc: item.pc,
                store_seq: item.store_seq,
                oracle: None,
            }));
            let t0 = Instant::now();
            pred.predict_batch(&reqs, &mut out);
            predict_ns += t0.elapsed().as_nanos() as u64;
            trains.extend(
                chunk
                    .iter()
                    .zip(out.drain(..))
                    .map(|((item, outcome), (p, meta))| TrainReq {
                        pc: item.pc,
                        meta,
                        predicted: p,
                        outcome: *outcome,
                    }),
            );
            let t0 = Instant::now();
            pred.train_batch(&mut trains);
            train_ns += t0.elapsed().as_nanos() as u64;
            items += BATCH as u64;
        }
    }
    (
        predict_ns as f64 / items as f64,
        train_ns as f64 / items as f64,
    )
}
