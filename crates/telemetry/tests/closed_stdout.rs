//! `fedco-trace csv big.jsonl | head -1`: the reader of stdout goes away
//! before the CSV is written. The output ends there, without a panic.

use std::io::Read;
use std::process::{Command, Stdio};

use fedco_telemetry::event::{Event, EventKind};
use fedco_telemetry::export::events_to_jsonl;

#[test]
fn csv_into_a_closed_stdout_ends_without_a_panic() {
    // ~160 KiB of CSV, more than a pipe holds: the writer meets the closed
    // pipe even when it starts before the reader is dropped.
    let events: Vec<Event> = (0..4000)
        .map(|slot| {
            let (user, corun) = (slot % 25, slot % 2 == 0);
            Event::new(slot, EventKind::Schedule { user, corun })
        })
        .collect();
    let trace =
        std::env::temp_dir().join(format!("fedco_trace_closed_{}.jsonl", std::process::id()));
    std::fs::write(&trace, events_to_jsonl(&events)).expect("write the trace");
    let mut child = Command::new(env!("CARGO_BIN_EXE_fedco-trace"))
        .arg("csv")
        .arg(&trace)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fedco-trace");
    drop(child.stdout.take());
    let mut stderr = String::new();
    let _ = child
        .stderr
        .take()
        .map(|mut e| e.read_to_string(&mut stderr));
    let status = child.wait().expect("fedco-trace exits");
    let _ = std::fs::remove_file(&trace);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(status.code(), Some(101), "{stderr}");
    assert!(status.success(), "{status}: {stderr}");
}
