//! JSONL/CSV exporters and the matching JSONL parser.
//!
//! The workspace is offline and zero-dependency, so there is no serde here.
//! Every writer uses Rust's shortest round-trip `Display` formatting for
//! numbers and a fixed field order per event kind, so `emit → parse → emit`
//! is **byte-identical** — the schema round-trip test pins this down, and
//! trace diffs can safely compare serialized lines.

use std::fmt::{Display, Write as _};
use std::str::FromStr;

use crate::event::{resolve_label, Event, EventKind, JobLabels};

/// Appends `field` to `out`, escaped as [`csv_escape`] does.
fn push_csv_escaped(out: &mut String, field: &str) {
    if !field.contains([',', '"', '\n', '\r']) {
        out.push_str(field);
        return;
    }
    out.push('"');
    for c in field.chars() {
        if c == '"' {
            out.push('"');
        }
        out.push(c);
    }
    out.push('"');
}

/// Escapes one CSV field: quotes it when it contains a comma, quote or
/// newline, doubling embedded quotes (RFC 4180).
pub fn csv_escape(field: &str) -> String {
    let mut out = String::with_capacity(field.len());
    push_csv_escaped(&mut out, field);
    out
}

/// Appends `s` to `out`, escaped for a JSON string literal (quotes,
/// backslashes and control characters).
fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                // Writing into a `String` cannot fail.
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_json_escaped(&mut out, s);
    out
}

/// Appends the decimal digits of `value` (what `Display` prints, without
/// going through `core::fmt`: most of a trace is integers).
fn push_u64(out: &mut String, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    for &digit in &digits[at..] {
        out.push(digit as char);
    }
}

/// A field's wire key and its column of [`EVENT_CSV_HEADER`].
pub(crate) struct Key {
    name: &'static str,
    column: usize,
}

impl Key {
    /// The key `name` at its column of [`EVENT_CSV_HEADER`], or at
    /// [`CSV_COLUMNS`] when the header has none (the name of a field written
    /// under keys of its own, like `labels`). Evaluated into a `const`.
    pub(crate) const fn new(name: &'static str) -> Key {
        let (header, wanted) = (EVENT_CSV_HEADER.as_bytes(), name.as_bytes());
        let (mut at, mut column) = (0, 0);
        while at < header.len() {
            let mut len = 0;
            while at + len < header.len() && header[at + len] != b',' {
                len += 1;
            }
            let mut same = len == wanted.len();
            let mut i = 0;
            while same && i < len {
                same = header[at + i] == wanted[i];
                i += 1;
            }
            if same {
                return Key { name, column };
            }
            at += len + 1;
            column += 1;
        }
        Key { name, column }
    }
}

/// One field's value, as the writers see it.
pub(crate) enum Value<'a> {
    U64(u64),
    F64(f64),
    Bool(bool),
    Str(&'a str),
}

impl Value<'_> {
    /// Appends the value as every writer spells it: an integer without
    /// `core::fmt`, a float in Rust's shortest round-trip `Display`, and a
    /// string through `push_str`, the format's own escaping.
    #[inline(always)]
    fn push_to(self, out: &mut String, push_str: impl FnOnce(&mut String, &str)) {
        match self {
            Value::U64(value) => push_u64(out, value),
            Value::F64(value) => {
                // Writing into a `String` cannot fail.
                let _ = write!(out, "{value}");
            }
            Value::Bool(value) => out.push_str(if value { "true" } else { "false" }),
            Value::Str(value) => push_str(out, value),
        }
    }
}

/// Where [`EventKind::visit_fields`] hands an event's fields, in JSON order:
/// the JSONL and the CSV writer.
pub(crate) trait FieldVisitor {
    fn field(&mut self, key: Key, value: Value<'_>);
}

/// How a field type of the event table is written and read: the type of
/// every field but a closed-set label, which the table resolves itself.
pub(crate) trait WireField: Sized {
    fn visit(&self, key: Key, out: &mut impl FieldVisitor);
    fn read(fields: &Fields<'_>, key: Key) -> Result<Self, String>;
}

/// The scalar field types: each one [`Value`] variant and one reader.
macro_rules! scalar_fields {
    ($($ty:ty => $variant:ident, $read:ident;)*) => {$(
        impl WireField for $ty {
            fn visit(&self, key: Key, out: &mut impl FieldVisitor) {
                out.field(key, Value::$variant(*self));
            }
            fn read(fields: &Fields<'_>, key: Key) -> Result<Self, String> {
                fields.$read(key.name)
            }
        }
    )*};
}

scalar_fields! {
    u64 => U64, number;
    f64 => F64, number;
    bool => Bool, bool;
}

impl WireField for Box<String> {
    fn visit(&self, key: Key, out: &mut impl FieldVisitor) {
        out.field(key, Value::Str(self));
    }
    fn read(fields: &Fields<'_>, key: Key) -> Result<Self, String> {
        Ok(Box::new(fields.str(key.name)?.to_string()))
    }
}

const SCENARIO: Key = Key::new("scenario");
const POLICY: Key = Key::new("policy");

/// Two keys of its own, `scenario` and `policy`, whatever the field's name.
impl WireField for Box<JobLabels> {
    fn visit(&self, _: Key, out: &mut impl FieldVisitor) {
        out.field(SCENARIO, Value::Str(&self.scenario));
        out.field(POLICY, Value::Str(&self.policy));
    }
    fn read(fields: &Fields<'_>, _: Key) -> Result<Self, String> {
        Ok(Box::new(JobLabels {
            scenario: fields.str(SCENARIO.name)?.to_string(),
            policy: fields.str(POLICY.name)?.to_string(),
        }))
    }
}

/// The fields of one event line, appended to the caller's buffer as
/// `,"key":value` in visiting order.
struct LineFields<'a>(&'a mut String);

impl FieldVisitor for LineFields<'_> {
    // Inlined into each field of `visit_fields`, where key and variant are
    // constants.
    #[inline(always)]
    fn field(&mut self, key: Key, value: Value<'_>) {
        self.0.push_str(",\"");
        self.0.push_str(key.name);
        self.0.push_str("\":");
        value.push_to(self.0, |out, value| {
            out.push('"');
            push_json_escaped(out, value);
            out.push('"');
        });
    }
}

/// Appends one canonical JSONL line for an event (no trailing newline)
/// straight into `out`, with no temporary per line or per field — the one
/// renderer behind [`event_line`] and [`events_to_jsonl`].
pub fn write_event_line(out: &mut String, event: &Event) {
    out.push_str("{\"slot\":");
    push_u64(out, event.slot);
    out.push_str(",\"event\":\"");
    out.push_str(event.kind.name());
    out.push('"');
    event.kind.visit_fields(&mut LineFields(out));
    out.push('}');
}

/// One canonical JSONL line for an event (no trailing newline).
pub fn event_line(event: &Event) -> String {
    let mut out = String::new();
    write_event_line(&mut out, event);
    out
}

/// A whole trace as JSON lines, one event per line, in stream order.
pub fn events_to_jsonl(events: &[Event]) -> String {
    // 80 bytes covers the mean line of the recorded traces (64 to 66), so
    // the buffer is sized once instead of doubling near the end.
    let mut out = String::with_capacity(events.len() * 80);
    for event in events {
        write_event_line(&mut out, event);
        out.push('\n');
    }
    out
}

/// The CSV header of [`events_to_csv`]: the union of all event fields, with
/// blanks where a kind has no value for a column.
pub const EVENT_CSV_HEADER: &str = "slot,event,user,corun,component,joules,lag,version,\
participants,depth,updates,energy_j,slots,idle_decisions,job,users,scenario,policy,\
session,client,reason,soc,offline,bytes,ratio";

/// The columns of [`EVENT_CSV_HEADER`].
const CSV_COLUMNS: usize = 25;

/// One row of [`events_to_csv`]: each field rendered into `text` as it is
/// visited, with its key's column of [`EVENT_CSV_HEADER`] and its span (a
/// kind visits its fields in JSON order, not column order).
struct CsvRow {
    text: String,
    cells: Vec<(usize, usize, usize)>,
}

impl FieldVisitor for CsvRow {
    #[inline(always)]
    fn field(&mut self, key: Key, value: Value<'_>) {
        let start = self.text.len();
        value.push_to(&mut self.text, push_csv_escaped);
        self.cells.push((key.column, start, self.text.len()));
    }
}

impl CsvRow {
    /// Appends the row to `out`, its cells in column order with the commas
    /// of the blank columns between them, and starts the next. Every key a
    /// field is written under has a column (`every_key_has_a_csv_column`).
    fn write_to(&mut self, out: &mut String) {
        self.cells.sort_unstable();
        let mut at = 0;
        for &(column, start, end) in &self.cells {
            while at < column {
                out.push(',');
                at += 1;
            }
            out.push_str(&self.text[start..end]);
        }
        while at < CSV_COLUMNS - 1 {
            out.push(',');
            at += 1;
        }
        out.push('\n');
        self.text.clear();
        self.cells.clear();
    }
}

/// A whole trace as CSV (wide layout: one column per possible field).
pub fn events_to_csv(events: &[Event]) -> String {
    const SLOT: Key = Key::new("slot");
    const EVENT: Key = Key::new("event");
    let mut out = String::with_capacity((events.len() + 1) * 48);
    out.push_str(EVENT_CSV_HEADER);
    out.push('\n');
    let mut row = CsvRow {
        text: String::new(),
        cells: Vec::new(),
    };
    for event in events {
        row.field(SLOT, Value::U64(event.slot));
        row.field(EVENT, Value::Str(event.kind.name()));
        event.kind.visit_fields(&mut row);
        row.write_to(&mut out);
    }
    out
}

/// Error parsing a JSONL trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// One parsed value of the flat JSON-object subset the exporters emit.
#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    /// A (unescaped) string literal.
    Str(String),
    /// A number, kept as its raw token so the caller parses it into the
    /// exact target type (`u64` stays exact, `f64` round-trips its bits).
    Num(String),
    /// A boolean.
    Bool(bool),
}

/// Parses one flat JSON object line into its key/value pairs, in document
/// order. Only the subset the exporters emit is supported: string, number
/// and boolean values.
fn parse_object(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut chars = line.trim().char_indices().peekable();
    let text = line.trim();
    let mut pairs = Vec::new();
    match chars.next() {
        Some((_, '{')) => {}
        _ => return Err("expected `{`".to_string()),
    }
    loop {
        match chars.peek() {
            Some((_, '}')) => {
                chars.next();
                break;
            }
            Some((_, ',')) if !pairs.is_empty() => {
                chars.next();
            }
            Some(_) if pairs.is_empty() => {}
            _ => return Err("expected `,` or `}`".to_string()),
        }
        let key = parse_string(&mut chars)?;
        match chars.next() {
            Some((_, ':')) => {}
            _ => return Err(format!("expected `:` after key `{key}`")),
        }
        let value = parse_value(text, &mut chars)?;
        pairs.push((key, value));
    }
    if chars.next().is_some() {
        return Err("trailing characters after `}`".to_string());
    }
    Ok(pairs)
}

fn parse_value(
    text: &str,
    chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
) -> Result<JsonValue, String> {
    match chars.peek().copied() {
        Some((_, '"')) => Ok(JsonValue::Str(parse_string(chars)?)),
        Some((_, 't')) => {
            expect_word(text, chars, "true")?;
            Ok(JsonValue::Bool(true))
        }
        Some((_, 'f')) => {
            expect_word(text, chars, "false")?;
            Ok(JsonValue::Bool(false))
        }
        Some(_) => Ok(JsonValue::Num(parse_number(text, chars)?)),
        None => Err("unexpected end of line".to_string()),
    }
}

fn parse_number(
    text: &str,
    chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
) -> Result<String, String> {
    let start = match chars.peek().copied() {
        Some((i, c)) if c == '-' || c.is_ascii_digit() => i,
        _ => return Err("expected a number".to_string()),
    };
    let mut end = start;
    while let Some(&(i, c)) = chars.peek() {
        if c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' || c.is_ascii_digit() {
            end = i + c.len_utf8();
            chars.next();
        } else {
            break;
        }
    }
    Ok(text[start..end].to_string())
}

fn expect_word(
    text: &str,
    chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
    word: &str,
) -> Result<(), String> {
    let start = match chars.peek() {
        Some(&(i, _)) => i,
        None => return Err("unexpected end of line".to_string()),
    };
    if text[start..].starts_with(word) {
        for _ in 0..word.chars().count() {
            chars.next();
        }
        Ok(())
    } else {
        Err(format!("expected `{word}`"))
    }
}

/// Parses a JSON string literal, undoing exactly the escapes
/// [`json_escape`] produces.
fn parse_string(
    chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
) -> Result<String, String> {
    match chars.next() {
        Some((_, '"')) => {}
        _ => return Err("expected `\"`".to_string()),
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            Some((_, '"')) => return Ok(out),
            Some((_, '\\')) => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let d = chars
                            .next()
                            .and_then(|(_, c)| c.to_digit(16))
                            .ok_or_else(|| "bad \\u escape".to_string())?;
                        code = code * 16 + d;
                    }
                    out.push(char::from_u32(code).ok_or_else(|| "bad \\u escape".to_string())?);
                }
                other => return Err(format!("bad escape `{other:?}`")),
            },
            Some((_, c)) => out.push(c),
            None => return Err("unterminated string".to_string()),
        }
    }
}

/// Typed access to the key/value pairs of one parsed object line.
pub(crate) struct Fields<'a> {
    pairs: &'a [(String, JsonValue)],
}

impl<'a> Fields<'a> {
    fn new(pairs: &'a [(String, JsonValue)]) -> Self {
        Fields { pairs }
    }

    fn get(&self, key: &str) -> Result<&'a JsonValue, String> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// A number field, parsed into the exact target type (`u64` stays
    /// exact, `f64` round-trips its bits).
    pub(crate) fn number<T: FromStr>(&self, key: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        match self.get(key)? {
            JsonValue::Num(raw) => raw
                .parse()
                .map_err(|e| format!("field `{key}`: {e} (`{raw}`)")),
            _ => Err(format!("field `{key}` is not a number")),
        }
    }

    pub(crate) fn str(&self, key: &str) -> Result<&'a str, String> {
        match self.get(key)? {
            JsonValue::Str(s) => Ok(s),
            _ => Err(format!("field `{key}` is not a string")),
        }
    }

    /// A string field that must be one of `table`'s labels.
    pub(crate) fn label(&self, key: &str, table: &[&'static str]) -> Result<&'static str, String> {
        let value = self.str(key)?;
        resolve_label(table, value).ok_or_else(|| format!("field `{key}`: unknown label `{value}`"))
    }

    pub(crate) fn bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key)? {
            JsonValue::Bool(b) => Ok(*b),
            _ => Err(format!("field `{key}` is not a boolean")),
        }
    }
}

/// Parses one event line (the inverse of [`event_line`]).
pub fn parse_event_line(line: &str) -> Result<Event, String> {
    let pairs = parse_object(line)?;
    let fields = Fields::new(&pairs);
    let slot = fields.number("slot")?;
    let kind = EventKind::parse_fields(fields.str("event")?, &fields)?;
    Ok(Event { slot, kind })
}

/// Parses a whole JSONL trace (the inverse of [`events_to_jsonl`]). Empty
/// lines are rejected — the writers never produce them.
pub fn parse_events_jsonl(text: &str) -> Result<Vec<Event>, ParseError> {
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            parse_event_line(line).map_err(|message| ParseError {
                line: i + 1,
                message,
            })
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::event::{ENERGY_COMPONENTS, KIND_NAMES, REFUSAL_REASONS};

    pub(crate) fn one_of_each() -> Vec<Event> {
        vec![
            Event::new(
                0,
                EventKind::run_start(25, 10800, "Online(V=1000)".to_string()),
            ),
            Event::new(
                0,
                EventKind::job_start(0, "smoke:users=3".to_string(), "Online".to_string()),
            ),
            Event::new(
                5,
                EventKind::Schedule {
                    user: 3,
                    corun: true,
                },
            ),
            Event::new(
                60,
                EventKind::Energy {
                    component: "co-running",
                    joules: 1.0 / 3.0,
                },
            ),
            Event::new(
                61,
                EventKind::Merge {
                    user: 3,
                    lag: 2,
                    version: 7,
                },
            ),
            Event::new(
                62,
                EventKind::Round {
                    participants: 25,
                    version: 8,
                },
            ),
            Event::new(63, EventKind::Barrier { depth: 4 }),
            Event::new(
                99,
                EventKind::DenseSpan {
                    slots: 40,
                    idle_decisions: 13,
                },
            ),
            Event::new(
                10800,
                EventKind::RunEnd {
                    updates: 123,
                    energy_j: 98765.4321098765,
                },
            ),
            Event::new(10800, EventKind::JobEnd { job: 0 }),
            Event::new(
                7,
                EventKind::JoinAccepted {
                    session: 11,
                    client: 3,
                },
            ),
            Event::new(
                7,
                EventKind::JoinRejected {
                    client: 4,
                    reason: "server-full",
                },
            ),
            Event::new(31, EventKind::SessionExpired { session: 11 }),
            Event::new(
                32,
                EventKind::PushApplied {
                    session: 12,
                    lag: 1,
                    version: 9,
                },
            ),
            Event::new(
                33,
                EventKind::PushRefused {
                    session: 13,
                    reason: "backpressure",
                },
            ),
            Event::new(
                34,
                EventKind::RoundAdvance {
                    version: 10,
                    participants: 6,
                },
            ),
            Event::new(120, EventKind::BatteryDepleted { user: 5, soc: 0.05 }),
            Event::new(
                840,
                EventKind::Recharged {
                    user: 5,
                    soc: 0.3125,
                },
            ),
            Event::new(
                900,
                EventKind::UserChurned {
                    user: 2,
                    offline: true,
                },
            ),
            Event::new(
                960,
                EventKind::CompressedUpload {
                    user: 3,
                    bytes: 625_000,
                    ratio: 0.25,
                },
            ),
        ]
    }

    #[test]
    fn jsonl_round_trip_is_byte_identical() {
        let events = one_of_each();
        let first = events_to_jsonl(&events);
        let parsed = parse_events_jsonl(&first).expect("parses");
        assert_eq!(parsed, events);
        let second = events_to_jsonl(&parsed);
        assert_eq!(first, second, "emit → parse → emit must be byte-identical");
    }

    #[test]
    fn string_escapes_round_trip() {
        let event = Event::new(
            1,
            EventKind::job_start(
                9,
                "odd \"name\",\\ with\ttabs\nand\u{1}ctrl".to_string(),
                "Online".to_string(),
            ),
        );
        let line = event_line(&event);
        assert_eq!(parse_event_line(&line).expect("parses"), event);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_events_jsonl("{\"slot\":1,\"event\":\"barrier\",\"depth\":2}\nnot json\n")
            .expect_err("second line is bad");
        assert_eq!(err.line, 2);
        assert!(err.to_string().starts_with("line 2:"));
        assert!(parse_event_line("{\"slot\":1,\"event\":\"warp\"}").is_err());
        assert!(parse_event_line("{\"slot\":1}").is_err());
        assert!(parse_event_line("{\"slot\":1,\"event\":\"barrier\",\"depth\":2} x").is_err());
        assert!(parse_event_line("").is_err());
    }

    #[test]
    fn csv_has_header_and_one_row_per_event() {
        let events = one_of_each();
        let csv = events_to_csv(&events);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), events.len() + 1);
        assert_eq!(lines[0], EVENT_CSV_HEADER);
        let columns = EVENT_CSV_HEADER.split(',').count();
        // The quoted scenario cell contains commas; count on a plain row.
        assert_eq!(lines[1].split(',').count(), columns);
        assert!(lines[3].starts_with("5,schedule,3,true,"));
    }

    /// The renderer this module had before [`write_event_line`]: a `head`
    /// and a `tail` `format!` per line, one `json_escape` temporary per
    /// string. Kept as the oracle the buffer writer must match byte for byte.
    mod reference_bits {
        use super::*;

        fn json_escape(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }

        fn reference_line(event: &Event) -> String {
            let head = format!(
                "{{\"slot\":{},\"event\":\"{}\"",
                event.slot,
                event.kind.name()
            );
            let tail = match &event.kind {
                EventKind::RunStart {
                    users,
                    slots,
                    policy,
                } => format!(
                    ",\"users\":{users},\"slots\":{slots},\"policy\":\"{}\"",
                    json_escape(policy)
                ),
                EventKind::Schedule { user, corun } => {
                    format!(",\"user\":{user},\"corun\":{corun}")
                }
                EventKind::Energy { component, joules } => format!(
                    ",\"component\":\"{}\",\"joules\":{joules}",
                    json_escape(component)
                ),
                EventKind::Merge { user, lag, version } => {
                    format!(",\"user\":{user},\"lag\":{lag},\"version\":{version}")
                }
                EventKind::Round {
                    participants,
                    version,
                } => format!(",\"participants\":{participants},\"version\":{version}"),
                EventKind::Barrier { depth } => format!(",\"depth\":{depth}"),
                EventKind::RunEnd { updates, energy_j } => {
                    format!(",\"updates\":{updates},\"energy_j\":{energy_j}")
                }
                EventKind::DenseSpan {
                    slots,
                    idle_decisions,
                } => format!(",\"slots\":{slots},\"idle_decisions\":{idle_decisions}"),
                EventKind::JobStart { job, labels } => format!(
                    ",\"job\":{job},\"scenario\":\"{}\",\"policy\":\"{}\"",
                    json_escape(&labels.scenario),
                    json_escape(&labels.policy)
                ),
                EventKind::JobEnd { job } => format!(",\"job\":{job}"),
                EventKind::JoinAccepted { session, client } => {
                    format!(",\"session\":{session},\"client\":{client}")
                }
                EventKind::JoinRejected { client, reason } => {
                    format!(
                        ",\"client\":{client},\"reason\":\"{}\"",
                        json_escape(reason)
                    )
                }
                EventKind::SessionExpired { session } => format!(",\"session\":{session}"),
                EventKind::PushApplied {
                    session,
                    lag,
                    version,
                } => format!(",\"session\":{session},\"lag\":{lag},\"version\":{version}"),
                EventKind::PushRefused { session, reason } => {
                    format!(
                        ",\"session\":{session},\"reason\":\"{}\"",
                        json_escape(reason)
                    )
                }
                EventKind::RoundAdvance {
                    version,
                    participants,
                } => format!(",\"version\":{version},\"participants\":{participants}"),
                EventKind::BatteryDepleted { user, soc } => {
                    format!(",\"user\":{user},\"soc\":{soc}")
                }
                EventKind::Recharged { user, soc } => format!(",\"user\":{user},\"soc\":{soc}"),
                EventKind::UserChurned { user, offline } => {
                    format!(",\"user\":{user},\"offline\":{offline}")
                }
                EventKind::CompressedUpload { user, bytes, ratio } => {
                    format!(",\"user\":{user},\"bytes\":{bytes},\"ratio\":{ratio}")
                }
            };
            format!("{head}{tail}}}")
        }

        /// Every float field of the schema set to `x`, every integer field
        /// to `n`, every free-text field to `s`.
        fn extremes(n: u64, x: f64, s: &str) -> Vec<Event> {
            let text = || s.to_string();
            vec![
                Event::new(n, EventKind::run_start(n, n, text())),
                Event::new(
                    n,
                    EventKind::Energy {
                        component: "idle",
                        joules: x,
                    },
                ),
                Event::new(
                    n,
                    EventKind::Merge {
                        user: n,
                        lag: n,
                        version: n,
                    },
                ),
                Event::new(
                    n,
                    EventKind::RunEnd {
                        updates: n,
                        energy_j: x,
                    },
                ),
                Event::new(n, EventKind::job_start(n, text(), text())),
                Event::new(
                    n,
                    EventKind::JoinRejected {
                        client: n,
                        reason: "shutting-down",
                    },
                ),
                Event::new(
                    n,
                    EventKind::PushRefused {
                        session: n,
                        reason: "wrong-model-len",
                    },
                ),
                Event::new(n, EventKind::BatteryDepleted { user: n, soc: x }),
                Event::new(n, EventKind::Recharged { user: n, soc: x }),
                Event::new(
                    n,
                    EventKind::CompressedUpload {
                        user: n,
                        bytes: n,
                        ratio: x,
                    },
                ),
            ]
        }

        fn csv_escape(field: &str) -> String {
            if field.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", field.replace('"', "\"\""))
            } else {
                field.to_string()
            }
        }

        /// The CSV exporter this module had before [`CsvRow`]: a
        /// `[String; 25]` of `to_string` / `csv_escape` temporaries per
        /// event, joined. Kept as the oracle the row writer must match byte
        /// for byte.
        fn reference_csv(events: &[Event]) -> String {
            let mut out = String::with_capacity((events.len() + 1) * 48);
            out.push_str(EVENT_CSV_HEADER);
            out.push('\n');
            for event in events {
                let mut cols: [String; 25] = Default::default();
                cols[0] = event.slot.to_string();
                cols[1] = event.kind.name().to_string();
                match &event.kind {
                    EventKind::RunStart {
                        users,
                        slots,
                        policy,
                    } => {
                        cols[15] = users.to_string();
                        cols[12] = slots.to_string();
                        cols[17] = csv_escape(policy);
                    }
                    EventKind::Schedule { user, corun } => {
                        cols[2] = user.to_string();
                        cols[3] = corun.to_string();
                    }
                    EventKind::Energy { component, joules } => {
                        cols[4] = csv_escape(component);
                        cols[5] = joules.to_string();
                    }
                    EventKind::Merge { user, lag, version } => {
                        cols[2] = user.to_string();
                        cols[6] = lag.to_string();
                        cols[7] = version.to_string();
                    }
                    EventKind::Round {
                        participants,
                        version,
                    } => {
                        cols[8] = participants.to_string();
                        cols[7] = version.to_string();
                    }
                    EventKind::Barrier { depth } => cols[9] = depth.to_string(),
                    EventKind::RunEnd { updates, energy_j } => {
                        cols[10] = updates.to_string();
                        cols[11] = energy_j.to_string();
                    }
                    EventKind::DenseSpan {
                        slots,
                        idle_decisions,
                    } => {
                        cols[12] = slots.to_string();
                        cols[13] = idle_decisions.to_string();
                    }
                    EventKind::JobStart { job, labels } => {
                        cols[14] = job.to_string();
                        cols[16] = csv_escape(&labels.scenario);
                        cols[17] = csv_escape(&labels.policy);
                    }
                    EventKind::JobEnd { job } => cols[14] = job.to_string(),
                    EventKind::JoinAccepted { session, client } => {
                        cols[18] = session.to_string();
                        cols[19] = client.to_string();
                    }
                    EventKind::JoinRejected { client, reason } => {
                        cols[19] = client.to_string();
                        cols[20] = csv_escape(reason);
                    }
                    EventKind::SessionExpired { session } => cols[18] = session.to_string(),
                    EventKind::PushApplied {
                        session,
                        lag,
                        version,
                    } => {
                        cols[18] = session.to_string();
                        cols[6] = lag.to_string();
                        cols[7] = version.to_string();
                    }
                    EventKind::PushRefused { session, reason } => {
                        cols[18] = session.to_string();
                        cols[20] = csv_escape(reason);
                    }
                    EventKind::RoundAdvance {
                        version,
                        participants,
                    } => {
                        cols[7] = version.to_string();
                        cols[8] = participants.to_string();
                    }
                    EventKind::BatteryDepleted { user, soc }
                    | EventKind::Recharged { user, soc } => {
                        cols[2] = user.to_string();
                        cols[21] = soc.to_string();
                    }
                    EventKind::UserChurned { user, offline } => {
                        cols[2] = user.to_string();
                        cols[22] = offline.to_string();
                    }
                    EventKind::CompressedUpload { user, bytes, ratio } => {
                        cols[2] = user.to_string();
                        cols[23] = bytes.to_string();
                        cols[24] = ratio.to_string();
                    }
                }
                out.push_str(&cols.join(","));
                out.push('\n');
            }
            out
        }

        /// [`one_of_each`], every label of both tables, and [`extremes`] at
        /// every float and string edge.
        fn corpus() -> Vec<Event> {
            let mut events = one_of_each();
            for &component in ENERGY_COMPONENTS {
                events.push(Event::new(
                    1,
                    EventKind::Energy {
                        component,
                        joules: 2.5,
                    },
                ));
            }
            for &reason in REFUSAL_REASONS {
                events.push(Event::new(2, EventKind::JoinRejected { client: 3, reason }));
                events.push(Event::new(2, EventKind::PushRefused { session: 4, reason }));
            }
            let floats = [
                0.0,
                -0.0,
                1e-7,
                1e21,
                f64::MIN_POSITIVE,
                f64::MAX,
                1.0 / 3.0,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ];
            for (i, x) in floats.into_iter().enumerate() {
                let n = [0, 9, 10, 12_345, u64::MAX][i % 5];
                events.extend(extremes(n, x, STRINGS[i % STRINGS.len()]));
            }
            events
        }

        const STRINGS: [&str; 3] = [
            "",
            "plain",
            "quote\" backslash\\ newline\n return\r tab\t comma, ctrl\u{1}\u{1f} é ☃",
        ];

        #[test]
        fn the_buffer_writer_matches_the_format_renderer_byte_for_byte() {
            let events = corpus();
            // One line at a time, into a fresh and into a reused buffer...
            let mut reused = String::from("kept");
            let mut expected = String::from("kept");
            for event in &events {
                let reference = reference_line(event);
                assert_eq!(event_line(event), reference);
                write_event_line(&mut reused, event);
                expected.push_str(&reference);
            }
            assert_eq!(reused, expected, "the writer only appends");
            // ...and the whole stream.
            let whole: String = events.iter().map(|e| reference_line(e) + "\n").collect();
            assert_eq!(events_to_jsonl(&events), whole);
            for s in STRINGS {
                assert_eq!(super::super::json_escape(s), json_escape(s));
            }
        }

        #[test]
        fn the_row_writer_matches_the_joined_columns_byte_for_byte() {
            let events = corpus();
            assert_eq!(events_to_csv(&events), reference_csv(&events));
            assert_eq!(events_to_csv(&[]), reference_csv(&[]));
            for s in STRINGS {
                assert_eq!(super::super::csv_escape(s), csv_escape(s));
            }
        }
    }

    #[test]
    fn unknown_labels_are_parse_errors_naming_the_field_and_the_value() {
        for (line, field, value) in [
            (
                r#"{"slot":1,"event":"energy","component":"warp","joules":1}"#,
                "component",
                "warp",
            ),
            (
                r#"{"slot":1,"event":"join-rejected","client":4,"reason":"Server-Full"}"#,
                "reason",
                "Server-Full",
            ),
            (
                r#"{"slot":1,"event":"push-refused","session":4,"reason":""}"#,
                "reason",
                "",
            ),
        ] {
            let message = parse_event_line(line).expect_err(line);
            assert_eq!(message, format!("field `{field}`: unknown label `{value}`"));
        }
        let err = parse_events_jsonl(
            "{\"slot\":1,\"event\":\"energy\",\"component\":\"co_running\",\"joules\":1}\n",
        )
        .expect_err("unknown component");
        assert_eq!(
            err.to_string(),
            "line 1: field `component`: unknown label `co_running`"
        );
    }

    #[test]
    fn csv_escaping_quotes_embedded_commas() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn one_of_each_holds_every_kind_of_the_table() {
        let mut names: Vec<&str> = one_of_each().iter().map(|e| e.kind.name()).collect();
        names.sort_unstable();
        let mut table = KIND_NAMES.to_vec();
        table.sort_unstable();
        assert_eq!(names, table);
    }

    /// The keys [`EventKind::visit_fields`] hands out.
    struct Keys(Vec<Key>);

    impl FieldVisitor for Keys {
        fn field(&mut self, key: Key, _: Value<'_>) {
            self.0.push(key);
        }
    }

    #[test]
    fn every_key_has_a_csv_column() {
        let columns: Vec<&str> = EVENT_CSV_HEADER.split(',').collect();
        assert_eq!(columns.len(), CSV_COLUMNS);
        for event in one_of_each() {
            let mut keys = Keys(Vec::new());
            event.kind.visit_fields(&mut keys);
            assert!(!keys.0.is_empty(), "{}", event.kind.name());
            for key in keys.0 {
                let column = columns.get(key.column);
                assert_eq!(column, Some(&key.name), "{}", event.kind.name());
            }
        }
    }

    /// A line of `pairs`, written back as the exporters would.
    fn object_line(pairs: &[(String, JsonValue)]) -> String {
        let fields: Vec<String> = pairs
            .iter()
            .map(|(key, value)| match value {
                JsonValue::Str(s) => format!("\"{key}\":\"{}\"", json_escape(s)),
                JsonValue::Num(raw) => format!("\"{key}\":{raw}"),
                JsonValue::Bool(b) => format!("\"{key}\":{b}"),
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    #[test]
    fn a_missing_or_mistyped_field_is_a_parse_error_naming_it() {
        for event in one_of_each() {
            let line = event_line(&event);
            let pairs = parse_object(&line).expect("an exported line is an object");
            assert_eq!(object_line(&pairs), line);
            for (at, (key, value)) in pairs.iter().enumerate() {
                let mut missing = pairs.clone();
                missing.remove(at);
                let message = parse_event_line(&object_line(&missing)).expect_err(key);
                assert!(message.contains(&format!("`{key}`")), "{line}: {message}");

                let wrong = match value {
                    JsonValue::Str(_) => JsonValue::Num("7".to_string()),
                    JsonValue::Num(_) | JsonValue::Bool(_) => JsonValue::Str("7".to_string()),
                };
                let mut mistyped = pairs.clone();
                mistyped[at].1 = wrong;
                let message = parse_event_line(&object_line(&mistyped)).expect_err(key);
                assert!(message.contains(&format!("`{key}`")), "{line}: {message}");
            }
        }
    }
}
