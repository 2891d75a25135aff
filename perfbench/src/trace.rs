//! In-memory spans for the traced run. Each thread owns a [`SpanLog`]; a
//! span wraps one call into a layer's public function and records its
//! name, start, end, parent span and request id. The logs are merged and
//! written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// The request this span belongs to (0 for set-up work).
    pub request: u64,
    /// The layer call, e.g. `net.Client::submit`.
    pub name: &'static str,
    /// Start, in microseconds since the run's epoch.
    pub start_us: f64,
    /// End, in microseconds since the run's epoch.
    pub end_us: f64,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// One thread's spans. Ids carry the log's number in their high bits, so
/// logs of different threads never collide.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log numbered `log` whose times count from `epoch`.
    pub fn new(epoch: Instant, log: u64) -> SpanLog {
        SpanLog {
            epoch,
            next_id: (log << 40) + 1,
            spans: Vec::new(),
        }
    }

    /// A fresh log for another thread of the same run.
    pub fn fork(&self, log: u64) -> SpanLog {
        SpanLog::new(self.epoch, log)
    }

    /// Records `name` around `call` and returns the call's result with the
    /// new span's id.
    pub fn record<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        call: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.next_id;
        self.next_id += 1;
        let start = self.epoch.elapsed();
        let result = call();
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_us: start.as_secs_f64() * 1e6,
            end_us: end.as_secs_f64() * 1e6,
        });
        (result, id)
    }

    /// Moves another log's spans into this one.
    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of the spans called `name`.
    pub fn micros_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(Span::micros)
            .collect()
    }

    /// The spans as JSON lines, ordered by start time.
    pub fn to_json_lines(&self) -> String {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        let mut out = String::new();
        for span in spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |id| id.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                span.id, span.request, span.name, span.start_us, span.end_us
            );
        }
        out
    }
}

/// Runs `call` inside a span when `log` is present, bare otherwise.
pub fn traced<T>(
    log: &mut Option<SpanLog>,
    name: &'static str,
    parent: Option<u64>,
    request: u64,
    call: impl FnOnce() -> T,
) -> (T, Option<u64>) {
    match log {
        Some(log) => {
            let (result, id) = log.record(name, parent, request, call);
            (result, Some(id))
        }
        None => (call(), None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialise() {
        let mut log = SpanLog::new(Instant::now(), 0);
        let (value, outer) = log.record("outer", None, 7, || 41);
        let (_, inner) = log.record("inner", Some(outer), 7, || ());
        assert_eq!(value, 41);
        assert_ne!(outer, inner);
        let mut other = log.fork(1);
        other.record("outer", None, 8, || ());
        assert!(other.spans()[0].id > inner);
        log.absorb(other);
        assert_eq!(log.micros_of("outer").len(), 2);
        let lines = log.to_json_lines();
        assert_eq!(lines.lines().count(), 3);
        assert!(lines.contains(&format!("\"parent\": {outer}")));
    }

    #[test]
    fn untraced_calls_record_nothing() {
        let mut log: Option<SpanLog> = None;
        let (value, id) = traced(&mut log, "x", None, 0, || 3);
        assert_eq!((value, id), (3, None));
    }
}
