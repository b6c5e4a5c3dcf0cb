//! `ft-router` — front a fleet of `ft-server` nodes.
//!
//! ```text
//! ft-router --backends 127.0.0.1:8001,127.0.0.1:8002 [--addr HOST:PORT] [--workers N]
//! ```
//!
//! Prints `listening on HOST:PORT` once bound (the fleet scripts and
//! CI wait on that line).

use ft_router::RouterConfig;
use std::net::SocketAddr;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: ft-router --backends HOST:PORT[,HOST:PORT...] \
         [--addr HOST:PORT] [--workers N]"
    );
    exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:0".to_string();
    let mut backends: Vec<SocketAddr> = Vec::new();
    let mut config = RouterConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--backends" => {
                let raw = value("--backends");
                for part in raw.split(',').filter(|s| !s.is_empty()) {
                    match part.parse() {
                        Ok(parsed) => backends.push(parsed),
                        Err(_) => {
                            eprintln!("bad backend address: {part}");
                            usage();
                        }
                    }
                }
            }
            "--workers" => match value("--workers").parse() {
                Ok(n) if n > 0 => config.workers = n,
                _ => {
                    eprintln!("--workers needs a positive integer");
                    usage();
                }
            },
            _ => usage(),
        }
    }
    if backends.is_empty() {
        eprintln!("at least one --backends address is required");
        usage();
    }
    let router = match ft_router::bind(&addr, backends, config) {
        Ok(router) => router,
        Err(e) => {
            eprintln!("bind {addr}: {e}");
            exit(1);
        }
    };
    println!("listening on {}", router.local_addr());
    router.serve();
}
