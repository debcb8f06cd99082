//! Golden-log compatibility suite.
//!
//! `tests/golden/pre_envelope_requests.jsonl` is a checked-in request log
//! in the *pre-envelope* wire format (bare `EngineRequest` lines, as every
//! log recorded before the service-layer redesign). The contract pinned
//! here: that log must keep decoding, and replaying it through the new
//! [`EngineService`] must keep producing **byte-identical** responses —
//! on the monolithic engine and on a one-shard `ShardedEngine` alike —
//! matching `tests/golden/pre_envelope_responses.jsonl`.
//!
//! Regenerate both files with `UPDATE_GOLDEN=1 cargo test -p igepa-engine
//! --test golden_log` after an *intentional* protocol change, and review
//! the diff like any other API break.

use igepa_algos::GreedyArrangement;
use igepa_core::{
    AttributeVector, CapacityTarget, ConstantInterest, EventId, HashPartitioner, Instance,
    InstanceDelta, NeverConflict, UserId,
};
use igepa_engine::transport::{read_frame, write_frame};
use igepa_engine::{
    decode_response_envelope, encode_response, replay, requests_from_jsonl, requests_to_jsonl,
    Engine, EngineBackend, EngineConfig, EngineQuery, EngineRequest, EngineServer, EngineService,
    Framing, ShardedConfig, ShardedEngine,
};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The deterministic base instance the log was recorded against: three
/// capacity-2 events, four capacity-2 users bidding on everything.
fn base_instance() -> Instance {
    let mut b = Instance::builder();
    let events: Vec<EventId> = (0..3)
        .map(|_| b.add_event(2, AttributeVector::empty()))
        .collect();
    for _ in 0..4 {
        b.add_user(2, AttributeVector::empty(), events.clone());
    }
    b.interaction_scores(vec![0.5; 4]);
    b.build(&NeverConflict, &ConstantInterest(0.5)).unwrap()
}

fn monolithic() -> Engine {
    Engine::new(
        base_instance(),
        Box::new(NeverConflict),
        Box::new(ConstantInterest(0.5)),
        Box::new(GreedyArrangement),
        EngineConfig::default(),
    )
}

fn sharded_one() -> ShardedEngine {
    ShardedEngine::new(
        base_instance(),
        Box::new(NeverConflict),
        Box::new(ConstantInterest(0.5)),
        Box::new(GreedyArrangement),
        Box::new(HashPartitioner),
        ShardedConfig::default(),
    )
}

/// The scripted request sequence behind the checked-in log: every delta
/// kind, a batch, a rebalance, every query — including the out-of-range
/// `AssignmentsOf` / `EventLoad` lookups whose silent `[]` / `(0, 0)`
/// answers the legacy dialect pins — and one rejected delta.
fn scripted_requests() -> Vec<EngineRequest> {
    vec![
        EngineRequest::Query {
            query: EngineQuery::Utility,
        },
        EngineRequest::Apply {
            delta: InstanceDelta::AddUser {
                capacity: 1,
                attrs: AttributeVector::empty(),
                bids: vec![EventId::new(0)],
                interaction: 0.8,
            },
        },
        EngineRequest::Apply {
            delta: InstanceDelta::AddEvent {
                capacity: 3,
                attrs: AttributeVector::from_time(10, 60),
            },
        },
        EngineRequest::Apply {
            delta: InstanceDelta::UpdateCapacity {
                target: CapacityTarget::Event(EventId::new(0)),
                capacity: 1,
            },
        },
        EngineRequest::Apply {
            delta: InstanceDelta::UpdateCapacity {
                target: CapacityTarget::User(UserId::new(1)),
                capacity: 1,
            },
        },
        EngineRequest::Apply {
            delta: InstanceDelta::UpdateBids {
                user: UserId::new(2),
                bids: vec![EventId::new(1), EventId::new(3)],
            },
        },
        EngineRequest::Apply {
            delta: InstanceDelta::UpdateInteractionScore {
                user: UserId::new(0),
                score: 0.9,
            },
        },
        EngineRequest::Apply {
            delta: InstanceDelta::RemoveUser {
                user: UserId::new(3),
            },
        },
        // Rejected: the user does not exist.
        EngineRequest::Apply {
            delta: InstanceDelta::UpdateInteractionScore {
                user: UserId::new(99),
                score: 0.5,
            },
        },
        EngineRequest::ApplyBatch {
            deltas: vec![
                InstanceDelta::AddUser {
                    capacity: 2,
                    attrs: AttributeVector::empty(),
                    bids: vec![EventId::new(1), EventId::new(3)],
                    interaction: 0.6,
                },
                InstanceDelta::UpdateInteractionScore {
                    user: UserId::new(1),
                    score: 0.7,
                },
            ],
        },
        EngineRequest::Rebalance,
        // Legacy silent answers for out-of-range ids.
        EngineRequest::Query {
            query: EngineQuery::AssignmentsOf {
                user: UserId::new(99),
            },
        },
        EngineRequest::Query {
            query: EngineQuery::EventLoad {
                event: EventId::new(99),
            },
        },
        EngineRequest::Query {
            query: EngineQuery::AssignmentsOf {
                user: UserId::new(0),
            },
        },
        EngineRequest::Query {
            query: EngineQuery::EventLoad {
                event: EventId::new(0),
            },
        },
        EngineRequest::Query {
            query: EngineQuery::Stats,
        },
        EngineRequest::Query {
            query: EngineQuery::ShardStats,
        },
        EngineRequest::Query {
            query: EngineQuery::MergedSnapshot,
        },
        EngineRequest::Query {
            query: EngineQuery::Utility,
        },
    ]
}

/// Replays `requests` through a fresh service and renders the responses
/// as JSONL, exactly as a response recorder would.
fn responses_jsonl<B: EngineBackend>(backend: B, requests: &[EngineRequest]) -> String {
    let mut service = EngineService::new(backend);
    requests
        .iter()
        .map(|request| encode_response(&service.handle(request)) + "\n")
        .collect()
}

#[test]
fn golden_log_replays_byte_identically_on_both_backends() {
    let dir = golden_dir();
    let requests_path = dir.join("pre_envelope_requests.jsonl");
    let responses_path = dir.join("pre_envelope_responses.jsonl");

    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&requests_path, requests_to_jsonl(&scripted_requests())).unwrap();
        std::fs::write(
            &responses_path,
            responses_jsonl(monolithic(), &scripted_requests()),
        )
        .unwrap();
    }

    let log =
        std::fs::read_to_string(&requests_path).expect("checked-in golden request log is readable");
    let requests = requests_from_jsonl(&log).expect("pre-envelope log still decodes");
    assert_eq!(
        requests,
        scripted_requests(),
        "checked-in golden requests drifted from the script in this file"
    );

    let golden = std::fs::read_to_string(&responses_path)
        .expect("checked-in golden response log is readable");
    assert_eq!(
        responses_jsonl(monolithic(), &requests),
        golden,
        "monolithic responses drifted from the golden log"
    );
    assert_eq!(
        responses_jsonl(sharded_one(), &requests),
        golden,
        "one-shard sharded responses drifted from the golden log"
    );
}

#[test]
fn golden_log_replays_through_the_replay_driver() {
    // The replay driver takes the same service path, so its response
    // stream must match a hand-driven service byte for byte too.
    let log = std::fs::read_to_string(golden_dir().join("pre_envelope_requests.jsonl")).unwrap();
    let requests = requests_from_jsonl(&log).unwrap();
    let outcome = replay(&mut monolithic(), &requests);
    let driven: String = outcome
        .responses
        .iter()
        .map(|response| encode_response(response) + "\n")
        .collect();
    let golden =
        std::fs::read_to_string(golden_dir().join("pre_envelope_responses.jsonl")).unwrap();
    assert_eq!(driven, golden);
    assert_eq!(outcome.report.rejected, 1);
    assert_eq!(outcome.report.requests, requests.len());
}

#[test]
fn golden_log_replays_byte_identically_over_the_wire() {
    // The legacy dialect end to end: a pre-envelope client sends the
    // checked-in log as bare lines to the TCP server, and each response
    // envelope's `result`, re-encoded in the pre-envelope format, must
    // reproduce the golden response log byte for byte.
    let log = std::fs::read_to_string(golden_dir().join("pre_envelope_requests.jsonl")).unwrap();
    let golden =
        std::fs::read_to_string(golden_dir().join("pre_envelope_responses.jsonl")).unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = EngineServer::serve_sharded(listener, sharded_one(), Framing::Lines).unwrap();
    let stream = TcpStream::connect(handle.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut served = String::new();
    for line in log.lines().filter(|line| !line.trim().is_empty()) {
        write_frame(&mut writer, Framing::Lines, line).unwrap();
        let reply = read_frame(&mut reader, Framing::Lines).unwrap().unwrap();
        let envelope = decode_response_envelope(&reply).unwrap();
        let response = envelope
            .result
            .unwrap_or_else(|e| panic!("legacy request {line} answered a typed error: {e}"));
        served.push_str(&encode_response(&response));
        served.push('\n');
    }
    assert_eq!(served, golden, "wire responses drifted from the golden log");

    drop(writer);
    handle.shutdown().unwrap();
}
