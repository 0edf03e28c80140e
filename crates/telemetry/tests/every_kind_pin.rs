//! The pin on the trace exporters: one event of every `EventKind`, with
//! scenario and policy labels that need JSON escaping (quote, backslash, tab,
//! newline, a control character) and CSV quoting (commas, quotes, a newline).
//!
//! The trace is written as JSONL text and parsed, not built from `EventKind`
//! values, so this file compiles against any layout of the event types: the
//! bytes below were captured before the layout changed and are never edited.

use fedco_telemetry::export::{events_to_csv, events_to_jsonl, parse_events_jsonl};

const TRACE: &str = r#"{"slot":0,"event":"job-start","job":0,"scenario":"paper-default:users=25,\"quoted\"\tcell\\x\u0001","policy":"Online(V=1000), \"tuned\"\nv2"}
{"slot":0,"event":"run-start","users":25,"slots":10800,"policy":"Online(V=1000), \"tuned\"\nv2"}
{"slot":5,"event":"schedule","user":3,"corun":true}
{"slot":60,"event":"energy","component":"co-running","joules":0.3333333333333333}
{"slot":61,"event":"merge","user":3,"lag":2,"version":7}
{"slot":62,"event":"round","participants":25,"version":8}
{"slot":63,"event":"barrier","depth":4}
{"slot":99,"event":"dense-span","slots":40,"idle_decisions":13}
{"slot":120,"event":"battery-depleted","user":5,"soc":0.05}
{"slot":840,"event":"recharged","user":5,"soc":0.3125}
{"slot":900,"event":"user-churned","user":2,"offline":true}
{"slot":960,"event":"compressed-upload","user":3,"bytes":625000,"ratio":0.0000001}
{"slot":10800,"event":"run-end","updates":123,"energy_j":98765.4321098765}
{"slot":10800,"event":"job-end","job":0}
{"slot":7,"event":"join-accepted","session":11,"client":3}
{"slot":7,"event":"join-rejected","client":4,"reason":"server-full"}
{"slot":31,"event":"session-expired","session":11}
{"slot":32,"event":"push-applied","session":12,"lag":1,"version":9}
{"slot":33,"event":"push-refused","session":13,"reason":"backpressure"}
{"slot":34,"event":"round-advance","version":10,"participants":6}
"#;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn every_kind_renders_its_golden_jsonl_and_csv_bytes() {
    let trace = parse_events_jsonl(TRACE).expect("the pinned trace parses");
    let mut kinds: Vec<&str> = trace.iter().map(|e| e.kind.name()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), trace.len(), "one event per kind");

    let jsonl = events_to_jsonl(&trace);
    assert_eq!(jsonl, TRACE, "the pinned text is canonical");
    assert_eq!(parse_events_jsonl(&jsonl).expect("re-parses"), trace);
    assert_eq!(fnv1a(jsonl.as_bytes()), 0x80f3eecd6da9de96);
    assert_eq!(fnv1a(events_to_csv(&trace).as_bytes()), 0xa6a532bf1af81b6b);
}
