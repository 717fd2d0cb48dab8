//! `mascot-router` — a consistent-hash front for a multi-node `mascotd`
//! cluster, with health checks, busy-aware retry, and replica failover.
//!
//! ```text
//! mascot-router [--addr HOST:PORT] --node HOST:PORT [--node HOST:PORT ...]
//!               [--replica HOST:PORT] [--port-file PATH]
//!               [--health-interval-ms N]
//! ```
//!
//! The router speaks the same `MSRV` wire protocol as `mascotd` on both
//! sides, so any client (the load generator, the integration tests) can
//! point at it unchanged. It runs on `mascotd`'s own event loop, with
//! each node as one shard ([`mascot_serve::router`] has the worker model,
//! failover and `Stats`/`Shutdown` semantics); this binary only parses
//! arguments and starts it.

use std::process::ExitCode;
use std::time::Duration;

use mascot_serve::router::{self, RouterConfig};

struct Args {
    cfg: RouterConfig,
    port_file: Option<String>,
}

fn usage() -> &'static str {
    "usage: mascot-router [--addr HOST:PORT] --node HOST:PORT [--node HOST:PORT ...]\n\
    \x20                    [--replica HOST:PORT] [--port-file PATH]\n\
    \x20                    [--health-interval-ms N]\n\
    Routes MSRV predict/train traffic across the --node list by a hash of\n\
    the load PC. A node that fails is marked down and its slice of the PC\n\
    space fails over to --replica. --port-file writes the bound address\n\
    once the router accepts connections."
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cfg: RouterConfig::default(),
        port_file: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => args.cfg.addr = value("--addr")?,
            "--node" => args.cfg.nodes.push(value("--node")?),
            "--replica" => args.cfg.replica = Some(value("--replica")?),
            "--port-file" => args.port_file = Some(value("--port-file")?),
            "--health-interval-ms" => {
                let ms = value("--health-interval-ms")?;
                let ms = ms
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("--health-interval-ms must be positive, got {ms:?}"))?;
                args.cfg.health_interval = Duration::from_millis(ms);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.cfg.nodes.is_empty() {
        return Err("at least one --node is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mascot-router: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut server = match router::bind(&args.cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mascot-router: failed to bind {}: {e}", args.cfg.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    eprintln!(
        "mascot-router: {} nodes{} on {addr}",
        args.cfg.nodes.len(),
        if args.cfg.replica.is_some() {
            " + replica"
        } else {
            ""
        }
    );
    if let Some(path) = args.port_file {
        server.set_on_ready(Box::new(move || {
            if let Err(e) = std::fs::write(&path, format!("{addr}\n")) {
                eprintln!("mascot-router: failed to write {path}: {e}");
                std::process::exit(1);
            }
        }));
    }
    let stats = server.run();
    eprintln!(
        "mascot-router: stopped; routed {} items, {} via the replica",
        stats.total_requests(),
        stats.shards.last().map_or(0, |s| s.requests)
    );
    ExitCode::SUCCESS
}
