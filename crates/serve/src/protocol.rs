//! The serve request/response protocol.
//!
//! One request is one JSON object on one line; one response is one JSON
//! object on one line. Every request carries an `id` that is echoed
//! verbatim in its response (number, string or `null`), so clients may
//! pipeline requests and match completions out of order. The full
//! schema is tabulated in DESIGN.md ("Server mode").
//!
//! Parsing is split in two so that *semantic* errors still echo the
//! request id: the JSON layer either yields a value or a positioned
//! syntax error (id unknown → `null`), and the request layer extracts
//! the id first, before validating the rest.

use hfta_netlist::Time;

use crate::json::{self, Json, ObjBuilder};

/// The arrival-time payload of a request: named per input, or
/// positional in input order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Arrivals {
    /// `{"a":0,"b":-3}` — inputs not named default to `0`.
    Named(Vec<(String, Time)>),
    /// `[0,-3,5]` — must cover every input.
    Positional(Vec<Time>),
}

/// An ECO (engineering change order) edit to one leaf module.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EcoEdit {
    /// Change the delay of the gate driving net `gate` to `delay`.
    GateDelay {
        /// Output net of the edited gate.
        gate: String,
        /// The new propagation delay.
        delay: u32,
    },
    /// Replace the module body with a netlist parsed from ISCAS
    /// `.bench` text (ports must match the old body).
    Replace {
        /// The `.bench` source of the new body.
        bench: String,
    },
}

/// What a request asks for.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RequestKind {
    /// Full timing report of the design.
    Report {
        /// Optional top-level arrival override (defaults to all-zero).
        arrivals: Option<Arrivals>,
    },
    /// Arrival time of one named primary output.
    Delay {
        /// The output's net name in the top module.
        output: String,
        /// Optional top-level arrival override.
        arrivals: Option<Arrivals>,
    },
    /// Slack on one named top-level net.
    Slack {
        /// The net name in the top module.
        net: String,
        /// Required time; defaults to the circuit delay.
        required: Option<Time>,
        /// Optional top-level arrival override.
        arrivals: Option<Arrivals>,
    },
    /// What-if: the functional arrival of one leaf-module output under
    /// a hypothetical arrival condition, answered by rebinding that
    /// module's persistent stability oracle (no re-encoding).
    WhatIf {
        /// The leaf module name.
        module: String,
        /// The output's net name inside the module.
        output: String,
        /// The hypothetical module-input arrivals.
        arrivals: Arrivals,
    },
    /// ECO edit of one leaf module, followed by incremental re-analysis.
    Eco {
        /// The leaf module name.
        module: String,
        /// The edit to apply.
        edit: EcoEdit,
    },
    /// Session counters (characterizations, cache traffic, requests).
    Stats,
    /// Answer `ok` and stop the daemon cleanly.
    Shutdown,
}

/// One parsed request.
#[derive(Clone, PartialEq, Debug)]
pub struct Request {
    /// Echoed verbatim in the response.
    pub id: Json,
    /// What is being asked.
    pub kind: RequestKind,
    /// Per-request deadline in milliseconds: on expiry the answer
    /// degrades (soundly) instead of blocking.
    pub deadline_ms: Option<u64>,
}

impl Request {
    /// Whether this request only reads warm state (no cache mutation
    /// beyond oracle/model warming) — the batching loop may shard these
    /// across workers.
    #[must_use]
    pub fn is_read_only(&self) -> bool {
        !matches!(self.kind, RequestKind::Eco { .. } | RequestKind::Shutdown)
    }
}

/// Converts a JSON time value: integers within [`Time::LIMIT`] are
/// finite times (larger ones are refused), the strings `"-inf"` /
/// `"+inf"` (or `"inf"`) are the infinities.
pub fn time_from_json(v: &Json) -> Result<Time, String> {
    match v {
        Json::Num(n) => Time::checked(*n).map_err(|e| e.to_string()),
        Json::Str(s) if s == "-inf" => Ok(Time::NEG_INF),
        Json::Str(s) if s == "+inf" || s == "inf" => Ok(Time::POS_INF),
        other => Err(format!(
            "expected integer time or \"-inf\"/\"+inf\", got {other}"
        )),
    }
}

/// Converts a [`Time`] to its JSON form: finite values as integers, the
/// infinities as the strings `"-inf"` / `"+inf"`.
#[must_use]
pub fn time_to_json(t: Time) -> Json {
    match t.finite() {
        Some(v) => Json::Num(v),
        None if t == Time::NEG_INF => Json::Str("-inf".to_string()),
        None => Json::Str("+inf".to_string()),
    }
}

fn arrivals_from_json(v: &Json) -> Result<Arrivals, String> {
    match v {
        Json::Obj(fields) => {
            let mut named = Vec::with_capacity(fields.len());
            for (k, t) in fields {
                named.push((
                    k.clone(),
                    time_from_json(t).map_err(|e| format!("arrival `{k}`: {e}"))?,
                ));
            }
            Ok(Arrivals::Named(named))
        }
        Json::Arr(items) => {
            let mut times = Vec::with_capacity(items.len());
            for (i, t) in items.iter().enumerate() {
                times.push(time_from_json(t).map_err(|e| format!("arrival [{i}]: {e}"))?);
            }
            Ok(Arrivals::Positional(times))
        }
        other => Err(format!(
            "`arrivals` must be an object or array, got {other}"
        )),
    }
}

fn require_str(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string `{key}` field"))
}

fn optional_arrivals(obj: &Json) -> Result<Option<Arrivals>, String> {
    obj.get("arrivals").map(arrivals_from_json).transpose()
}

/// Parses one request line. On failure the error carries the id (when
/// one could be extracted — `null` otherwise) so the caller can still
/// address the structured error response.
pub fn parse_request(line: &str) -> Result<Request, (Json, String)> {
    let value = json::parse(line).map_err(|e| (Json::Null, format!("bad JSON: {e}")))?;
    if !matches!(value, Json::Obj(_)) {
        return Err((Json::Null, "request must be a JSON object".to_string()));
    }
    let id = match value.get("id") {
        None => Json::Null,
        Some(v @ (Json::Num(_) | Json::Str(_) | Json::Null)) => v.clone(),
        Some(_) => {
            return Err((
                Json::Null,
                "`id` must be a number, string or null".to_string(),
            ))
        }
    };
    let fail = |msg: String| (id.clone(), msg);
    let kind_name = value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| fail("missing or non-string `kind` field".to_string()))?;
    let deadline_ms = match value.get("deadline_ms") {
        None => None,
        Some(Json::Num(n)) if *n >= 0 => Some(*n as u64),
        Some(_) => {
            return Err(fail(
                "`deadline_ms` must be a non-negative integer".to_string(),
            ))
        }
    };
    let kind = match kind_name {
        "report" => RequestKind::Report {
            arrivals: optional_arrivals(&value).map_err(&fail)?,
        },
        "delay" => RequestKind::Delay {
            output: require_str(&value, "output").map_err(&fail)?,
            arrivals: optional_arrivals(&value).map_err(&fail)?,
        },
        "slack" => RequestKind::Slack {
            net: require_str(&value, "net").map_err(&fail)?,
            required: value
                .get("required")
                .map(time_from_json)
                .transpose()
                .map_err(&fail)?,
            arrivals: optional_arrivals(&value).map_err(&fail)?,
        },
        "whatif" => RequestKind::WhatIf {
            module: require_str(&value, "module").map_err(&fail)?,
            output: require_str(&value, "output").map_err(&fail)?,
            arrivals: value
                .get("arrivals")
                .ok_or_else(|| fail("`whatif` needs an `arrivals` field".to_string()))
                .and_then(|v| arrivals_from_json(v).map_err(&fail))?,
        },
        "eco" => {
            let module = require_str(&value, "module").map_err(&fail)?;
            let edit = match (value.get("gate"), value.get("bench")) {
                (Some(_), Some(_)) => {
                    return Err(fail(
                        "`eco` takes `gate`+`delay` or `bench`, not both".to_string(),
                    ))
                }
                (Some(_), None) => {
                    let gate = require_str(&value, "gate").map_err(&fail)?;
                    let delay = match value.get("delay") {
                        Some(Json::Num(n)) if *n >= 0 && *n <= i64::from(u32::MAX) => *n as u32,
                        _ => {
                            return Err(fail(
                                "`eco` delay edit needs a non-negative integer `delay`".to_string(),
                            ))
                        }
                    };
                    EcoEdit::GateDelay { gate, delay }
                }
                (None, Some(_)) => EcoEdit::Replace {
                    bench: require_str(&value, "bench").map_err(&fail)?,
                },
                (None, None) => {
                    return Err(fail(
                        "`eco` needs `gate`+`delay` or a `bench` body".to_string(),
                    ))
                }
            };
            RequestKind::Eco { module, edit }
        }
        "stats" => RequestKind::Stats,
        "shutdown" => RequestKind::Shutdown,
        other => return Err(fail(format!("unknown request kind `{other}`"))),
    };
    Ok(Request {
        id,
        kind,
        deadline_ms,
    })
}

/// How a typed [`Response`] answers: a successful payload of one
/// request kind, or a structured error.
#[derive(Clone, PartialEq, Debug)]
pub enum Outcome {
    /// A successful answer: the echoed request kind plus the response
    /// fields in the exact order [`Response::encode`] will emit them.
    Ok {
        /// The request kind this answers (echoed in the response).
        kind: &'static str,
        /// Ordered response fields after `id`/`ok`/`kind`.
        fields: Vec<(String, Json)>,
    },
    /// A structured error (`"ok":false`).
    Error {
        /// Human-readable reason.
        message: String,
    },
}

/// One typed response — the value [`dispatch`] computes and sharded
/// workers/tests consume directly; the JSON codec only ever sees it at
/// the transport edge, through [`Response::encode`].
///
/// [`dispatch`]: crate::ServeSession::dispatch
#[derive(Clone, PartialEq, Debug)]
pub struct Response {
    /// The request id, echoed verbatim.
    pub id: Json,
    /// The answer.
    pub outcome: Outcome,
}

impl Response {
    /// A successful response of `kind` with `fields` (in emit order).
    #[must_use]
    pub fn ok(id: &Json, kind: &'static str, fields: Vec<(String, Json)>) -> Response {
        Response {
            id: id.clone(),
            outcome: Outcome::Ok { kind, fields },
        }
    }

    /// A structured error response.
    #[must_use]
    pub fn error(id: &Json, message: impl Into<String>) -> Response {
        Response {
            id: id.clone(),
            outcome: Outcome::Error {
                message: message.into(),
            },
        }
    }

    /// Whether this is a successful (`"ok":true`) response.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self.outcome, Outcome::Ok { .. })
    }

    /// Looks up a response field by name (`Ok` outcomes only).
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&Json> {
        match &self.outcome {
            Outcome::Ok { fields, .. } => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            Outcome::Error { .. } => None,
        }
    }

    /// Renders the single-line JSON wire form: byte-identical to what
    /// the daemon has always emitted (`{"id":…,"ok":true,"kind":…,…}`
    /// or `{"id":…,"ok":false,"error":…}`, fixed key order).
    #[must_use]
    pub fn encode(&self) -> String {
        match &self.outcome {
            Outcome::Ok { kind, fields } => {
                let mut b = ok_response(&self.id, kind);
                for (k, v) in fields {
                    b = b.field(k, v.clone());
                }
                b.build().to_string()
            }
            Outcome::Error { message } => error_response(&self.id, message),
        }
    }
}

/// Starts an `ok` response: `{"id":…,"ok":true,"kind":…}` with the key
/// order every response shares.
#[must_use]
pub fn ok_response(id: &Json, kind: &str) -> ObjBuilder {
    ObjBuilder::new()
        .field("id", id.clone())
        .field("ok", Json::Bool(true))
        .field("kind", Json::Str(kind.to_string()))
}

/// A structured error response: `{"id":…,"ok":false,"error":…}`.
#[must_use]
pub fn error_response(id: &Json, message: &str) -> String {
    ObjBuilder::new()
        .field("id", id.clone())
        .field("ok", Json::Bool(false))
        .field("error", Json::Str(message.to_string()))
        .build()
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_requests() {
        let r = parse_request(r#"{"id":1,"kind":"report"}"#).unwrap();
        assert_eq!(r.id, Json::Num(1));
        assert_eq!(r.kind, RequestKind::Report { arrivals: None });
        assert!(r.is_read_only());

        let r = parse_request(r#"{"id":"q","kind":"delay","output":"s3"}"#).unwrap();
        assert!(matches!(r.kind, RequestKind::Delay { ref output, .. } if output == "s3"));

        let r = parse_request(r#"{"kind":"shutdown"}"#).unwrap();
        assert_eq!(r.id, Json::Null);
        assert!(!r.is_read_only());
    }

    #[test]
    fn whatif_needs_arrivals() {
        let err =
            parse_request(r#"{"id":7,"kind":"whatif","module":"m","output":"z"}"#).unwrap_err();
        assert_eq!(err.0, Json::Num(7), "semantic error still echoes the id");
        assert!(err.1.contains("arrivals"));
    }

    #[test]
    fn arrivals_both_shapes() {
        let r = parse_request(
            r#"{"id":1,"kind":"whatif","module":"m","output":"z","arrivals":{"a":0,"b":"-inf"}}"#,
        )
        .unwrap();
        match r.kind {
            RequestKind::WhatIf {
                arrivals: Arrivals::Named(named),
                ..
            } => {
                assert_eq!(named[1], ("b".to_string(), Time::NEG_INF));
            }
            other => panic!("{other:?}"),
        }
        let r = parse_request(
            r#"{"id":1,"kind":"whatif","module":"m","output":"z","arrivals":[1,2,"+inf"]}"#,
        )
        .unwrap();
        match r.kind {
            RequestKind::WhatIf {
                arrivals: Arrivals::Positional(times),
                ..
            } => {
                assert_eq!(times, vec![Time::new(1), Time::new(2), Time::POS_INF]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn eco_shapes_and_conflicts() {
        let r =
            parse_request(r#"{"id":1,"kind":"eco","module":"m","gate":"z","delay":3}"#).unwrap();
        assert!(matches!(
            r.kind,
            RequestKind::Eco { edit: EcoEdit::GateDelay { ref gate, delay: 3 }, .. } if gate == "z"
        ));
        assert!(!r.is_read_only());
        let err =
            parse_request(r#"{"id":1,"kind":"eco","module":"m","gate":"z","delay":3,"bench":"x"}"#)
                .unwrap_err();
        assert!(err.1.contains("not both"));
        let err = parse_request(r#"{"id":1,"kind":"eco","module":"m"}"#).unwrap_err();
        assert!(err.1.contains("eco"));
    }

    #[test]
    fn unknown_kind_and_bad_id() {
        let err = parse_request(r#"{"id":5,"kind":"frobnicate"}"#).unwrap_err();
        assert_eq!(err.0, Json::Num(5));
        assert!(err.1.contains("unknown request kind"));
        let err = parse_request(r#"{"id":[1],"kind":"report"}"#).unwrap_err();
        assert_eq!(err.0, Json::Null);
    }

    #[test]
    fn time_json_roundtrip() {
        for t in [
            Time::NEG_INF,
            Time::new(-7),
            Time::ZERO,
            Time::new(42),
            Time::POS_INF,
        ] {
            assert_eq!(time_from_json(&time_to_json(t)).unwrap(), t);
        }
    }

    #[test]
    fn responses_are_deterministic() {
        let ok = ok_response(&Json::Num(3), "stats").build().to_string();
        assert_eq!(ok, r#"{"id":3,"ok":true,"kind":"stats"}"#);
        assert_eq!(
            error_response(&Json::Null, "boom"),
            r#"{"id":null,"ok":false,"error":"boom"}"#
        );
    }
}
