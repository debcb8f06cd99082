//! End-to-end TCP serving: a sharded engine behind per-shard worker
//! threads, driven by concurrent remote clients over loopback.
//!
//! The flow mirrors a deployed arrangement service:
//!
//! 1. build a community-structured base instance and start
//!    `EngineServer::serve_sharded` on an ephemeral port — the
//!    coordinator validates and routes on one thread while each shard
//!    repairs on its own worker;
//! 2. connect several `EngineClient`s concurrently, each registering a
//!    stream of users (typed errors come back through the versioned
//!    response envelopes — the example provokes one on purpose);
//! 3. shut the server down cleanly, recover the engine, and verify the
//!    merged arrangement is feasible for the full instance.
//!
//! ```text
//! cargo run --release --example service_tcp [num_clients] [deltas_per_client] [num_shards]
//! ```

use igepa::core::{AttributeVector, EventId, InstanceDelta, UserId};
use igepa::datagen::{generate_clustered_dataset, ClusteredConfig};
use igepa::engine::{
    ClientError, EngineClient, EngineError, EngineQuery, EngineResponse, EngineServer, Framing,
};
use igepa::experiments::sharded_serving_engine;
use std::net::TcpListener;
use std::time::Instant;

fn main() {
    let num_clients: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let deltas_per_client: usize = std::env::args()
        .nth(2)
        .and_then(|v| v.parse().ok())
        .unwrap_or(250);
    let num_shards: usize = std::env::args()
        .nth(3)
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);

    // 1. The served platform state plus the TCP front door.
    let dataset = generate_clustered_dataset(&ClusteredConfig::default(), 42);
    let base = dataset.instance.clone();
    let num_events = base.num_events();
    println!(
        "serving {} events x {} users on {} shards (one worker thread each)",
        num_events,
        base.num_users(),
        num_shards
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback binds");
    let engine = sharded_serving_engine(base, 5, num_shards);
    let handle =
        EngineServer::serve_sharded(listener, engine, Framing::Lines).expect("server spawns");
    let addr = handle.local_addr();
    println!("listening on {addr}");

    // 2. Concurrent clients, each a burst of user registrations.
    let start = Instant::now();
    let workers: Vec<_> = (0..num_clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client =
                    EngineClient::connect(addr, Framing::Lines).expect("client connects");
                let mut applied = 0usize;
                for i in 0..deltas_per_client {
                    let response = client
                        .apply(InstanceDelta::AddUser {
                            capacity: 1 + (c + i) % 2,
                            attrs: AttributeVector::empty(),
                            bids: vec![
                                EventId::new((c * 7 + i) % num_events),
                                EventId::new((c * 13 + i * 3) % num_events),
                            ],
                            interaction: 0.3 + 0.1 * ((c + i) % 7) as f64,
                        })
                        .expect("apply round-trips");
                    if matches!(response, EngineResponse::Applied { .. }) {
                        applied += 1;
                    }
                }
                // The typed taxonomy over the wire: an out-of-range query
                // answers NotFound instead of a silent empty result.
                match client.query(EngineQuery::AssignmentsOf {
                    user: UserId::new(9_999_999),
                }) {
                    Err(ClientError::Engine(EngineError::NotFound { .. })) => {}
                    other => panic!("expected NotFound, got {other:?}"),
                }
                applied
            })
        })
        .collect();
    let applied: usize = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .sum();
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "{applied} registrations across {num_clients} clients in {elapsed:.2}s \
         ({:.0} req/s through the coordinator)",
        applied as f64 / elapsed
    );
    assert_eq!(applied, num_clients * deltas_per_client);

    // 3. Clean shutdown returns the engine for inspection.
    let engine = handle.shutdown().expect("clean shutdown");
    let merged = engine.merged_arrangement();
    let feasible = merged.is_feasible(engine.instance());
    println!(
        "final state: {} users, {} served pairs, utility {:.3}, merged arrangement {}",
        engine.instance().num_users(),
        merged.len(),
        engine.merged_utility().total,
        if feasible { "FEASIBLE" } else { "INFEASIBLE" }
    );
    assert!(feasible, "quota invariant must survive concurrent serving");
}
