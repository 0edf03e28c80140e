//! Property-style schema tests for the fleet report writers: every CSV row
//! must carry exactly the `CSV_HEADER` field count (under RFC-4180 quoting),
//! and every JSONL line must round-trip the `(scenario, policy)` label
//! pair that keys it — including labels with embedded commas, quotes and
//! newlines from parameterized or custom specs.

use fedco_core::policy::SchedulingPolicy;
use fedco_fleet::executor::JobSummary;
use fedco_fleet::prelude::*;
use fedco_fleet::report::{csv_row, json_line, CSV_HEADER};

/// Splits one CSV record into fields, honouring RFC-4180 quoting (the
/// inverse of `csv_escape`). Returns the unescaped fields.
fn split_csv_record(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut field));
            }
            c => field.push(c),
        }
    }
    fields.push(field);
    fields
}

/// Extracts the string value of `"key"` from a flat JSON object line,
/// undoing the writer's escaping.
fn json_string_value(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":\"");
    let start = line.find(&marker)? + marker.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                other => panic!("unexpected escape \\{other}"),
            },
            '"' => return Some(out),
            c => out.push(c),
        }
    }
    None
}

fn summary_with_labels(scenario: &str, policy: &str) -> JobSummary {
    JobSummary {
        id: 1,
        scenario: scenario.to_string(),
        policy: policy.to_string(),
        arrival_probability: 0.001,
        devices: "testbed".to_string(),
        link: "wifi",
        seed: 42,
        total_energy_j: 1234.5,
        radio_energy_j: 1.5,
        total_updates: 17,
        corun_epochs: 4,
        mean_lag: 1.5,
        max_lag: 6,
        mean_queue: 0.25,
        mean_virtual_queue: 2.5,
        final_accuracy: None,
        wall_ms: Measured(7.125),
        slots_per_sec: Measured(28070.2),
    }
}

/// The label corpus: the paper's specs, parameterized variants, and
/// adversarial custom labels with CSV/JSON metacharacters.
fn label_corpus() -> Vec<String> {
    let mut labels: Vec<String> = PolicySpec::PAPER.iter().map(PolicySpec::label).collect();
    labels.extend(
        [1000.0, 4000.0, 16000.0]
            .map(PolicySpec::online_with_v)
            .iter()
            .map(PolicySpec::label),
    );
    labels.extend(
        [
            "custom,with,commas",
            "say \"hi\", twice",
            "quote\"inside",
            "line\nbreak",
            "tabs\tand\rreturns",
            "unicode µ±∞ label",
            "trailing,comma,",
            "\"leading quote",
        ]
        .map(String::from),
    );
    labels
}

/// Scenario labels exercising the registry syntax plus CSV/JSON
/// metacharacters (a hand-built JobSummary can carry anything).
fn scenario_corpus() -> Vec<String> {
    let mut labels: Vec<String> = ScenarioSpec::default_registry()
        .iter()
        .map(ScenarioSpec::label)
        .collect();
    labels.extend(
        [
            "smoke:users=100:devices=pixel2+hikey970:link=lte",
            "weird,comma-scenario",
            "quoted \"scenario\"",
        ]
        .map(String::from),
    );
    labels
}

#[test]
fn every_csv_row_has_exactly_the_header_field_count() {
    let header_fields = CSV_HEADER.split(',').count();
    for scenario in scenario_corpus() {
        for label in label_corpus() {
            let row = csv_row(&summary_with_labels(&scenario, &label));
            // A label with a newline must still be ONE record (quoted), so
            // the parser runs over the raw row, not line-split output.
            let fields = split_csv_record(&row);
            assert_eq!(
                fields.len(),
                header_fields,
                "field count mismatch for label {label:?}: {row:?}"
            );
            // The (scenario, policy) key columns round-trip exactly.
            assert_eq!(fields[1], scenario, "CSV scenario column mangled");
            assert_eq!(fields[2], label, "CSV policy column mangled");
        }
    }
}

#[test]
fn every_jsonl_line_round_trips_the_label_pair() {
    for label in label_corpus() {
        let scenario = "smoke:users=100,weird \"quote";
        let line = json_line(&summary_with_labels(scenario, &label));
        // One physical line per job, however gnarly the label.
        assert_eq!(line.lines().count(), 1, "label {label:?} split the line");
        assert!(line.starts_with('{') && line.ends_with('}'));
        let parsed_scenario = json_string_value(&line, "scenario")
            .unwrap_or_else(|| panic!("no scenario key in {line}"));
        assert_eq!(parsed_scenario, scenario, "JSONL scenario value mangled");
        let parsed =
            json_string_value(&line, "policy").unwrap_or_else(|| panic!("no policy key in {line}"));
        assert_eq!(parsed, label, "JSONL policy value mangled");
        // Structural sanity: balanced braces and an even quote count.
        assert_eq!(line.matches('{').count(), line.matches('}').count());
        assert_eq!(
            line.chars()
                .fold((0usize, false), |(n, esc), c| match c {
                    '\\' if !esc => (n, true),
                    '"' if !esc => (n + 1, false),
                    _ => (n, false),
                })
                .0
                % 2,
            0,
            "unbalanced quotes in {line}"
        );
    }
}

/// Immediate scheduling under a label that needs CSV quoting and JSON
/// escaping.
#[derive(Debug)]
struct QuotedLabel;

impl PolicyFactory for QuotedLabel {
    fn label(&self) -> String {
        "Eager(p=1, \"now\")".to_string()
    }

    fn build(&self, scheduler: &SchedulerConfig) -> Box<dyn SchedulingPolicy> {
        PolicySpec::Immediate.build(scheduler)
    }
}

#[test]
fn real_sweep_reports_satisfy_the_schema_end_to_end() {
    let grid = ScenarioGrid::new(
        ScenarioSpec::preset("smoke")
            .expect("preset")
            .with_users(3)
            .with_slots(200),
    )
    .with_axis("link", &["ideal", "lte"])
    .with_policy_specs(vec![
        PolicySpec::Immediate,
        PolicySpec::online_with_v(1000.0),
        PolicySpec::custom(QuotedLabel),
    ]);
    let report = run_grid(&grid, 2);
    let csv = to_csv(&report);
    let header_fields = CSV_HEADER.split(',').count();
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some(CSV_HEADER));
    for line in lines {
        assert_eq!(split_csv_record(line).len(), header_fields, "{line}");
    }
    // Both key columns round-trip through CSV and JSONL for every job.
    let jsonl = to_jsonl(&report);
    let expected: Vec<(String, String)> = report
        .jobs
        .iter()
        .map(|j| (j.scenario.clone(), j.policy.clone()))
        .collect();
    let parsed: Vec<(String, String)> = jsonl
        .lines()
        .map(|l| {
            (
                json_string_value(l, "scenario").expect("scenario key"),
                json_string_value(l, "policy").expect("policy key"),
            )
        })
        .collect();
    assert_eq!(parsed, expected);
    let csv_keys: Vec<(String, String)> = csv
        .lines()
        .skip(1)
        .map(|l| {
            let fields = split_csv_record(l);
            (fields[1].clone(), fields[2].clone())
        })
        .collect();
    assert_eq!(csv_keys, expected);
    // The scenario labels carry the axis override of each cell.
    assert!(csv.contains("smoke:users=3:slots=200:link=lte"));
    // The custom label's comma and quotes must have been quoted in the CSV
    // and escaped in the JSONL.
    assert!(csv.contains(r#","Eager(p=1, ""now"")","#));
    assert!(jsonl.contains(r#""policy":"Eager(p=1, \"now\")""#));
}
