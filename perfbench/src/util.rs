//! Small shared helpers: statistics, a seeded RNG, process memory
//! readings, a minimal JSON writer and the benchmark's own span
//! recorder.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Median of `xs` (mean of the middle pair for even lengths); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Arithmetic mean of `xs` (NaN when empty).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Linear-interpolated quantile `q` of `xs` (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// SplitMix64: the benchmark's seeded generator for inputs and mixes.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Resets this process's peak resident set size (`VmHWM`) to its current
/// size, so the next reading is the peak of what runs in between.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset VmHWM: {e}"))
}

/// A `VmHWM`/`VmRSS`-style field of `/proc/<pid>/status`, in MB.
pub fn proc_status_mb(pid: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One JSON value of the result and record lines.
#[derive(Clone, Debug)]
pub enum J {
    Num(f64),
    Int(i64),
    Bool(bool),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj<K: Into<String>>(fields: Vec<(K, J)>) -> J {
        J::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, s: &mut String) {
        match self {
            J::Num(x) if x.is_finite() => {
                let _ = write!(s, "{x:?}");
            }
            J::Num(_) => s.push_str("null"),
            J::Int(i) => {
                let _ = write!(s, "{i}");
            }
            J::Bool(b) => {
                let _ = write!(s, "{b}");
            }
            J::Str(t) => write_str(s, t),
            J::Arr(items) => {
                s.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        s.push(',');
                    }
                    item.write(s);
                }
                s.push(']');
            }
            J::Obj(fields) => {
                s.push('{');
                for (k, (key, v)) in fields.iter().enumerate() {
                    if k > 0 {
                        s.push(',');
                    }
                    write_str(s, key);
                    s.push(':');
                    v.write(s);
                }
                s.push('}');
            }
        }
    }
}

fn write_str(s: &mut String, t: &str) {
    s.push('"');
    for c in t.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

/// One recorded span: a timed call into one layer of the program.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request id (serve) or pass index (batch workloads).
    pub tag: u64,
}

/// In-memory span recorder around calls into the program's crates.
/// Disabled (every call a single branch) unless the run is traced;
/// spans are written out once, when the run ends.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    tag: u64,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            tag: 0,
        }
    }

    /// Tags the spans opened from now on (pass index / request id).
    pub fn set_tag(&mut self, tag: u64) {
        self.tag = tag;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            tag: self.tag,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Records an already-measured span (e.g. one timed on another
    /// thread) under the currently open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, tag: u64) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.open.last().copied(),
            tag,
        });
    }

    /// Self time (duration minus child-span durations) summed per span
    /// name, in milliseconds.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (k, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child[k]);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (k, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(J::Int(-1), |p| J::Int(p as i64));
            let line = J::obj(vec![
                ("id", J::Int(k as i64)),
                ("name", J::Str(s.name.to_string())),
                ("start_ns", J::Int(s.start_ns as i64)),
                ("end_ns", J::Int(s.end_ns as i64)),
                ("parent", parent),
                ("tag", J::Int(s.tag as i64)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

/// Parses one JSON text (the daemon's responses). Integers become
/// [`J::Int`]; this reader shares no code with the program's codec.
pub fn parse_json(text: &str) -> Result<J, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        at: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.at != p.s.len() {
        return Err(format!("trailing bytes at {}", p.at));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.at < self.s.len() && self.s[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.at) == Some(&c) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at {}", c as char, self.at))
        }
    }

    fn value(&mut self) -> Result<J, String> {
        self.ws();
        match self.s.get(self.at).copied() {
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(J::Obj(fields));
                }
                loop {
                    self.ws();
                    let J::Str(key) = self.value()? else {
                        return Err("object key is not a string".into());
                    };
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(J::Obj(fields));
                        }
                        _ => return Err(format!("bad object at {}", self.at)),
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(J::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(J::Arr(items));
                        }
                        _ => return Err(format!("bad array at {}", self.at)),
                    }
                }
            }
            Some(b'"') => {
                self.at += 1;
                let mut out = String::new();
                loop {
                    match self.s.get(self.at).copied() {
                        None => return Err("unterminated string".into()),
                        Some(b'"') => {
                            self.at += 1;
                            return Ok(J::Str(out));
                        }
                        Some(b'\\') => {
                            let esc = self.s.get(self.at + 1).copied().ok_or("bad escape")?;
                            out.push(match esc {
                                b'n' => '\n',
                                b't' => '\t',
                                b'u' => {
                                    let hex =
                                        std::str::from_utf8(&self.s[self.at + 2..self.at + 6])
                                            .map_err(|e| e.to_string())?;
                                    self.at += 4;
                                    char::from_u32(
                                        u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?,
                                    )
                                    .unwrap_or('?')
                                }
                                other => other as char,
                            });
                            self.at += 2;
                        }
                        Some(_) => {
                            let rest = std::str::from_utf8(&self.s[self.at..])
                                .map_err(|e| e.to_string())?;
                            let c = rest.chars().next().expect("non-empty");
                            out.push(c);
                            self.at += c.len_utf8();
                        }
                    }
                }
            }
            Some(b't') if self.s[self.at..].starts_with(b"true") => {
                self.at += 4;
                Ok(J::Bool(true))
            }
            Some(b'f') if self.s[self.at..].starts_with(b"false") => {
                self.at += 5;
                Ok(J::Bool(false))
            }
            Some(b'n') if self.s[self.at..].starts_with(b"null") => {
                self.at += 4;
                Ok(J::Str(String::new()))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.at;
                self.at += 1;
                while self.at < self.s.len()
                    && matches!(
                        self.s[self.at],
                        b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'
                    )
                {
                    self.at += 1;
                }
                let t = std::str::from_utf8(&self.s[start..self.at]).map_err(|e| e.to_string())?;
                match t.parse::<i64>() {
                    Ok(i) => Ok(J::Int(i)),
                    Err(_) => t
                        .parse::<f64>()
                        .map(J::Num)
                        .map_err(|e| format!("number `{t}`: {e}")),
                }
            }
            _ => Err(format!("unexpected byte at {}", self.at)),
        }
    }
}

impl J {
    /// Field `key` of an object.
    pub fn get(&self, key: &str) -> Option<&J> {
        match self {
            J::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}
