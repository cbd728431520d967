//! Hostile-input tests for the serve protocol: every malformed,
//! truncated, oversized or type-confused request must produce a
//! structured error (or be skipped) without poisoning any warm state.
//! The witness is bit-identity: a good query answered *after* the
//! attack must match, byte for byte, the same query answered by a
//! session that never saw it.

use std::io::Cursor;

use hfta_fta::AnalysisConfig;
use hfta_netlist::gen::{carry_skip_adder, CsaDelays};
use hfta_serve::{serve_lines, Action, ServeSession};
use hfta_trace::TraceSink;

const GOOD: &str = r#"{"id":"probe","kind":"report"}"#;

fn fresh_session() -> ServeSession {
    let design = carry_skip_adder(4, 2, CsaDelays::default());
    let mut session = ServeSession::new(design, "csa4.2", &AnalysisConfig::default()).unwrap();
    session.warm().unwrap();
    session
}

/// The reference answer: what an unmolested session says to `GOOD`.
fn reference_report() -> String {
    let mut session = fresh_session();
    let (resp, action) = session.handle_line(GOOD);
    assert_eq!(action, Action::Continue);
    resp.expect("report answers")
}

/// A catalogue of hostile lines: truncated JSON, unknown kinds, bad
/// id/field types, missing required fields, conflicting ECO shapes,
/// over-deep nesting, raw control characters, trailing garbage.
fn hostile_lines() -> Vec<String> {
    let mut lines = vec![
        // Truncated mid-token and mid-string.
        r#"{"id":1,"kind":"rep"#.to_string(),
        r#"{"id":1,"kind":"report"#.to_string(),
        "{".to_string(),
        // Not JSON at all.
        "GET / HTTP/1.1".to_string(),
        // Unknown request kind.
        r#"{"id":2,"kind":"frobnicate"}"#.to_string(),
        // Ids must be numbers, strings or null.
        r#"{"id":[1,2],"kind":"report"}"#.to_string(),
        r#"{"id":{"a":1},"kind":"report"}"#.to_string(),
        // Type confusion in required fields.
        r#"{"id":3,"kind":"delay","output":42}"#.to_string(),
        r#"{"id":3,"kind":"delay"}"#.to_string(),
        r#"{"id":4,"kind":"slack","net":null}"#.to_string(),
        r#"{"id":5,"kind":"whatif","module":"blk0","output":"z"}"#.to_string(),
        r#"{"id":6,"kind":"whatif","module":9,"output":"z","arrivals":{}}"#.to_string(),
        // Unknown names inside otherwise well-typed requests.
        r#"{"id":7,"kind":"delay","output":"no_such_output"}"#.to_string(),
        r#"{"id":8,"kind":"report","arrivals":{"no_such_pin":3}}"#.to_string(),
        r#"{"id":9,"kind":"eco","module":"no_such_module","gate":"g","delay":1}"#.to_string(),
        // ECO needs gate+delay XOR bench, never both, never neither.
        r#"{"id":10,"kind":"eco","module":"blk0"}"#.to_string(),
        r#"{"id":11,"kind":"eco","module":"blk0","gate":"g","delay":1,"bench":""}"#.to_string(),
        // Trailing garbage after a complete value.
        r#"{"id":12,"kind":"report"} {"id":13,"kind":"report"}"#.to_string(),
        // Raw control character inside a string.
        "{\"id\":14,\"kind\":\"delay\",\"output\":\"a\u{1}b\"}".to_string(),
        // Arrivals of the wrong shape / wrong arity.
        r#"{"id":15,"kind":"report","arrivals":[0,0]}"#.to_string(),
        r#"{"id":16,"kind":"report","arrivals":"zero"}"#.to_string(),
        // Times past ±2^60 are refused: they used to panic the daemon
        // (the sentinels) or wrap into a wrong answer.
        r#"{"id":18,"kind":"report","arrivals":{"c_in":9223372036854775807}}"#.to_string(),
        r#"{"id":19,"kind":"delay","output":"c4","arrivals":{"a0":9223372036854775806}}"#
            .to_string(),
        r#"{"id":20,"kind":"whatif","module":"blk0","output":"z","arrivals":{"c_in":-9223372036854775808}}"#
            .to_string(),
        r#"{"id":21,"kind":"slack","net":"c4","arrivals":{"a1":4611686018427387904}}"#.to_string(),
        r#"{"id":22,"kind":"slack","net":"c4","required":9223372036854775807}"#.to_string(),
    ];
    // Nesting past the codec's depth cap.
    let deep = format!("{}1{}", "[".repeat(64), "]".repeat(64));
    lines.push(format!(r#"{{"id":17,"kind":"report","arrivals":{deep}}}"#));
    lines
}

/// Every hostile line is answered with a structured `"ok":false`
/// error, and the good query asked right after each one is
/// bit-identical to the untouched session's answer.
#[test]
fn hostile_lines_error_structurally_and_poison_nothing() {
    let want = reference_report();
    let mut session = fresh_session();
    for line in hostile_lines() {
        let (resp, action) = session.handle_line(&line);
        assert_eq!(
            action,
            Action::Continue,
            "hostile line must not stop: {line}"
        );
        let resp = resp.unwrap_or_else(|| panic!("hostile line must be answered: {line}"));
        assert!(
            resp.contains(r#""ok":false"#),
            "hostile line must error: {line} -> {resp}"
        );
        assert!(
            resp.contains(r#""error":"#),
            "error responses carry a message: {resp}"
        );
        // The error itself must be valid JSON (clients parse it).
        hfta_serve::json::parse(&resp)
            .unwrap_or_else(|e| panic!("error response is not JSON ({e:?}): {resp}"));

        let (good, _) = session.handle_line(GOOD);
        assert_eq!(
            good.as_deref(),
            Some(want.as_str()),
            "state poisoned by: {line}"
        );
    }
}

/// Oversized lines are rejected with a structured error under the
/// session's byte cap, and the next (small) query still answers
/// bit-identically.
#[test]
fn oversized_line_is_rejected_then_service_resumes() {
    let want = reference_report();
    let mut session = fresh_session();
    session.set_max_line(256);
    let big = format!(
        r#"{{"id":1,"kind":"report","junk":"{}"}}"#,
        "x".repeat(4096)
    );
    let (resp, action) = session.handle_line(&big);
    assert_eq!(action, Action::Continue);
    assert!(resp.unwrap().contains(r#""ok":false"#));
    let (good, _) = session.handle_line(GOOD);
    assert_eq!(good.as_deref(), Some(want.as_str()));
}

/// The transport loop survives a whole hostile transcript ending in a
/// mid-stream disconnect (a truncated final line with no newline):
/// every line gets an answer, the partial line gets a structured
/// error, and the loop returns cleanly instead of hanging or dying.
#[test]
fn transport_survives_hostile_transcript_and_disconnect() {
    let want = reference_report();
    let mut transcript = String::new();
    transcript.push_str(GOOD);
    transcript.push('\n');
    for line in hostile_lines() {
        transcript.push_str(&line);
        transcript.push('\n');
    }
    transcript.push_str(GOOD);
    transcript.push('\n');
    transcript.push_str(r#"{"id":99,"kind":"rep"#); // disconnect mid-line

    let mut session = fresh_session();
    let mut out = Vec::new();
    let action = serve_lines(
        &mut session,
        Cursor::new(transcript.into_bytes()),
        &mut out,
        None,
        &TraceSink::disabled(),
    )
    .unwrap();
    assert_eq!(action, Action::Continue, "EOF is a clean non-shutdown exit");

    let out = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(
        lines.len(),
        hostile_lines().len() + 3,
        "every line answered: {out}"
    );
    assert_eq!(lines.first(), Some(&want.as_str()));
    assert_eq!(
        lines[lines.len() - 2],
        want,
        "good query after the attack is bit-identical"
    );
    assert!(
        lines.last().unwrap().contains(r#""ok":false"#),
        "truncated final line gets a structured error: {}",
        lines.last().unwrap()
    );
    for line in &lines[1..lines.len() - 2] {
        assert!(line.contains(r#""ok":false"#), "hostile answered: {line}");
    }
}
