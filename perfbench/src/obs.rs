//! Reading what the program already exports through fd-obs: histogram
//! and counter values from the registry snapshot, and completed spans
//! from the trace ring. Reading goes through `fd_obs::snapshot()` so
//! the benchmark never registers an instrument itself (the first
//! registration fixes a histogram's buckets).

use serde::Content;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Count and sum of one histogram.
#[derive(Debug, Default, Clone, Copy)]
pub struct HistSum {
    pub count: f64,
    pub sum: f64,
}

impl HistSum {
    /// What was recorded between `earlier` and `self`.
    pub fn since(self, earlier: HistSum) -> HistSum {
        HistSum {
            count: self.count - earlier.count,
            sum: self.sum - earlier.sum,
        }
    }

    /// Mean recorded value; `None` when nothing was recorded.
    pub fn mean(self) -> Option<f64> {
        (self.count > 0.0).then(|| self.sum / self.count)
    }
}

/// A parsed registry snapshot.
pub struct Snapshot(serde_json::Value);

fn number(c: &Content) -> f64 {
    match c {
        Content::U64(v) => *v as f64,
        Content::I64(v) => *v as f64,
        Content::F64(v) => *v,
        _ => 0.0,
    }
}

impl Snapshot {
    pub fn take() -> Snapshot {
        Snapshot(serde_json::from_str(&fd_obs::snapshot()).expect("fd-obs snapshot is JSON"))
    }

    fn section(&self, name: &str) -> Option<&[(String, Content)]> {
        self.0[name].as_map()
    }

    /// A histogram's count and sum; zero when it was never registered.
    pub fn hist(&self, name: &str) -> HistSum {
        let Some(h) = self
            .section("histograms")
            .and_then(|m| serde::content_get(m, name))
        else {
            return HistSum::default();
        };
        let field = |f: &str| {
            h.as_map()
                .and_then(|m| serde::content_get(m, f))
                .map_or(0.0, number)
        };
        HistSum {
            count: field("count"),
            sum: field("sum"),
        }
    }

    /// A counter's value; zero when it was never registered.
    pub fn counter(&self, name: &str) -> f64 {
        self.section("counters")
            .and_then(|m| serde::content_get(m, name))
            .map_or(0.0, number)
    }
}

/// Drains the trace ring on a background thread so a long traced run
/// loses no spans to the ring's drop-oldest overflow.
pub struct SpanCollector {
    stop: Arc<AtomicBool>,
    spans: Arc<Mutex<Vec<fd_obs::trace::Span>>>,
    thread: Option<JoinHandle<()>>,
}

impl SpanCollector {
    pub fn start() -> SpanCollector {
        drop(fd_obs::trace::take_spans());
        let stop = Arc::new(AtomicBool::new(false));
        let spans = Arc::new(Mutex::new(Vec::new()));
        let thread = {
            let (stop, spans) = (Arc::clone(&stop), Arc::clone(&spans));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    let batch = fd_obs::trace::take_spans();
                    spans.lock().expect("span store").extend(batch);
                }
            })
        };
        SpanCollector {
            stop,
            spans,
            thread: Some(thread),
        }
    }

    /// Stops the drain thread and returns every span collected.
    pub fn finish(mut self) -> Vec<fd_obs::trace::Span> {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span store"));
        spans.extend(fd_obs::trace::take_spans());
        spans
    }
}

/// The trace id fd-serve and fd-router give a request sent with
/// `X-Request-Id: request_id`.
pub fn trace_id_of(request_id: &str) -> u64 {
    fd_obs::trace::TraceCtx::from_request_id(request_id).trace_id
}
