//! Benchmark-side spans: recorded around the calls into the program,
//! kept in memory, written as Chrome-trace JSON when the run ends.
//! Spans inside the program are a later change.

use std::path::Path;
use std::time::Instant;

/// One transaction in this many is traced.
pub const SAMPLE_EVERY: u64 = 64;

pub struct Span {
    pub name: &'static str,
    /// The span that caused this one (`""` for a root).
    pub parent: &'static str,
    /// Scheme index — the trace's process.
    pub scheme: u8,
    /// Client index — the trace's thread.
    pub client: u8,
    /// Client-local transaction number; spans of one transaction share it.
    pub txn: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// One client's span buffer for one scheme.
pub struct Spans {
    epoch: Instant,
    scheme: u8,
    client: u8,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant, scheme: usize, client: usize) -> Spans {
        Spans {
            epoch,
            scheme: scheme as u8,
            client: client as u8,
            spans: Vec::new(),
        }
    }

    pub fn record(
        &mut self,
        name: &'static str,
        parent: &'static str,
        txn: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            name,
            parent,
            scheme: self.scheme,
            client: self.client,
            txn,
            start_ns: (start - self.epoch).as_nanos() as u64,
            dur_ns: (end - start).as_nanos() as u64,
        });
    }
}

/// Chrome `trace_event` JSON: complete (`X`) events, one process per
/// scheme, one thread per client.
pub fn write_chrome(path: &Path, scheme_names: &[&str], spans: &[Span]) -> std::io::Result<()> {
    let mut events: Vec<String> = scheme_names
        .iter()
        .enumerate()
        .map(|(pid, name)| {
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{name}\"}}}}"
            )
        })
        .collect();
    events.extend(spans.iter().map(|s| {
        format!(
            "{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"txn\":{},\"parent\":\"{}\"}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.scheme,
            s.client,
            s.txn,
            s.parent
        )
    }));
    let doc = format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ns\"}}\n",
        events.join(",\n")
    );
    std::fs::write(path, doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn chrome_trace_is_loadable_json() {
        let epoch = Instant::now();
        let mut buf = Spans::new(epoch, 1, 0);
        let t = Instant::now();
        buf.record("run_txn", "", 64, t, t);
        buf.record("send", "body", 64, t, t);
        let path =
            std::env::temp_dir().join(format!("finecc-bm-trace-{}.json", std::process::id()));
        write_chrome(&path, &["tav", "rw"], &buf.spans).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let events = doc.get("traceEvents").unwrap().items();
        assert_eq!(events.len(), 4, "two process names + two spans");
        assert_eq!(events[3].get("name").unwrap().as_str(), Some("send"));
    }
}
