//! The tuning-as-a-service daemon binary.
//!
//! ```text
//! llamatune-serverd --store /var/lib/llamatune [--addr 127.0.0.1:7701]
//!                   [--max-frame-bytes N]
//! ```
//!
//! Serves the PostgreSQL 9.6 catalog over a local-directory store
//! backend. Stopping the daemon (a client's `shutdown` request) leaves
//! running sessions `Running` in the store; restarting the daemon over
//! the same `--store` resumes them byte-identically.

use llamatune_runtime::CampaignOptions;
use llamatune_server::{Server, ServerConfig, SessionRegistry};
use llamatune_space::catalog::postgres_v9_6;
use llamatune_store::{LocalDirBackend, StoreOptions};
use std::sync::Arc;

fn usage() -> ! {
    eprintln!("usage: llamatune-serverd --store DIR [--addr HOST:PORT] [--max-frame-bytes N]");
    std::process::exit(2);
}

fn main() -> std::io::Result<()> {
    let mut store_dir: Option<String> = None;
    let mut addr = "127.0.0.1:7701".to_string();
    let mut cfg = ServerConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().unwrap_or_else(|| usage_missing(flag));
        match flag.as_str() {
            "--store" => store_dir = Some(value("--store")),
            "--addr" => addr = value("--addr"),
            "--max-frame-bytes" => {
                cfg.max_frame = value("--max-frame-bytes").parse().unwrap_or_else(|e| {
                    eprintln!("bad --max-frame-bytes: {e}");
                    std::process::exit(2);
                });
            }
            _ => usage(),
        }
    }
    let Some(store_dir) = store_dir else { usage() };

    let backend = Arc::new(LocalDirBackend::create(&store_dir)?);
    let registry = Arc::new(SessionRegistry::new(
        backend,
        postgres_v9_6(),
        CampaignOptions::default(),
        StoreOptions::default(),
    ));
    let server = Server::bind(&addr, registry, cfg)?;
    eprintln!("llamatune-serverd listening on {} (store: {store_dir})", server.local_addr()?);
    server.serve()
}

fn usage_missing(flag: &str) -> String {
    eprintln!("{flag} requires a value");
    usage()
}
