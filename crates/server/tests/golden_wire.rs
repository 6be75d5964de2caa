//! Golden pins for the serving protocol's request and response envelopes.
//!
//! Every envelope kind is encoded from a fixed value and framed into one
//! buffer whose FNV-1a digest is compared with a recorded constant, so
//! an envelope change that moves a single byte fails here.

use sekitei_server::{
    encode_request, encode_response, frame_into, Priority, Request, Response, ServedVia,
    StatsSnapshot,
};
use sekitei_spec::{WireOutcome, WirePhase, WireStats};
use sekitei_util::fnv1a;

fn framed<T>(items: &[T], encode: impl Fn(&T) -> Vec<u8>) -> Vec<u8> {
    let mut buf = Vec::new();
    for item in items {
        frame_into(&mut buf, &encode(item)).unwrap();
    }
    buf
}

#[test]
fn request_envelopes_are_pinned() {
    let requests = [
        Request::Plan {
            trace_id: 0xDEAD_BEEF_0042_1177,
            profile: true,
            priority: Priority::Low,
            problem: b"SKT1 opaque problem".to_vec(),
        },
        Request::Plan { trace_id: 0, profile: false, priority: Priority::High, problem: vec![7] },
        Request::Stats,
        Request::Shutdown,
        Request::Metrics,
        Request::FlightRecorder,
    ];
    let bytes = framed(&requests, encode_request);
    let got = fnv1a(&bytes);
    assert_eq!(
        got,
        0x5cae_a133_fd77_344c,
        "requests: digest {got:#018x} over {} bytes",
        bytes.len()
    );
}

#[test]
fn response_envelopes_are_pinned() {
    let outcome = WireOutcome {
        plan: None,
        best_bound: Some(2.5),
        optimality_gap: Some(0.25),
        stats: WireStats { rg_nodes: 42, budget_exhausted: true, ..WireStats::default() },
        certificate: None,
    };
    let stats = StatsSnapshot {
        served: 10,
        cache_hits: 4,
        p99_us: 45_000,
        class_error: 3,
        ..StatsSnapshot::default()
    };
    let responses = [
        Response::Outcome {
            served_via: ServedVia::Coalesced,
            trace_id: 71,
            phases: vec![
                WirePhase { name: "queue_wait".into(), self_ns: 900, count: 1 },
                WirePhase { name: "search".into(), self_ns: 44_000, count: 2 },
            ],
            outcome: outcome.clone(),
        },
        Response::Outcome { served_via: ServedVia::Cache, trace_id: 0, phases: vec![], outcome },
        Response::Stats(stats),
        Response::Rejected("queue full".into()),
        Response::Error("bad magic".into()),
        Response::Bye,
        Response::Metrics("# sekitei-metrics v1\n".into()),
        Response::FlightRecorder("# sekitei-flight v1\n".into()),
    ];
    let bytes = framed(&responses, encode_response);
    let got = fnv1a(&bytes);
    assert_eq!(
        got,
        0x83cf_779a_a20d_091e,
        "responses: digest {got:#018x} over {} bytes",
        bytes.len()
    );
}
