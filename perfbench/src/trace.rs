//! The benchmark's own span recorder.
//!
//! Spans are opened by the benchmark around its calls into each layer's
//! public functions; the program itself is not instrumented for them.
//! Recording is off unless [`set_enabled`] turned it on, so untraced runs
//! pay one atomic load per span site. Records are kept in memory and
//! drained after every op.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Layer name, e.g. `spice.transient`.
    pub name: &'static str,
    /// Recorder-assigned id of the thread the span ran on.
    pub thread: u64,
    /// Start, seconds since the recorder's origin.
    pub start: f64,
    /// End, seconds since the recorder's origin.
    pub end: f64,
}

impl Record {
    /// Wall duration (s).
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn records() -> &'static Mutex<Vec<Record>> {
    static RECORDS: OnceLock<Mutex<Vec<Record>>> = OnceLock::new();
    RECORDS.get_or_init(|| Mutex::new(Vec::with_capacity(1 << 16)))
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    origin();
    ENABLED.store(on, Ordering::SeqCst);
}

/// The calling thread's recorder id.
pub fn thread_id() -> u64 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Runs `f` inside a span named `name` (recorded only when enabled).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let start = origin().elapsed().as_secs_f64();
    let out = f();
    let end = origin().elapsed().as_secs_f64();
    let rec = Record {
        name,
        thread: thread_id(),
        start,
        end,
    };
    records()
        .lock()
        .expect("span store poisoned by a panicking recorder")
        .push(rec);
    out
}

/// Removes and returns every record collected so far.
pub fn drain() -> Vec<Record> {
    std::mem::take(
        &mut *records()
            .lock()
            .expect("span store poisoned by a panicking recorder"),
    )
}

/// Self time of each span: its duration minus the part of it covered by
/// spans nested in it on the same thread. Returns `(record, self_s)`.
pub fn self_times(recs: &[Record]) -> Vec<(Record, f64)> {
    let mut out = Vec::with_capacity(recs.len());
    let mut threads: Vec<u64> = recs.iter().map(|r| r.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    for t in threads {
        // Outer spans first: earliest start, then longest.
        let mut mine: Vec<&Record> = recs.iter().filter(|r| r.thread == t).collect();
        mine.sort_by(|a, b| a.start.total_cmp(&b.start).then(b.end.total_cmp(&a.end)));
        let mut child_cover = vec![0.0f64; mine.len()];
        let mut stack: Vec<usize> = Vec::new();
        for (i, r) in mine.iter().enumerate() {
            while let Some(&top) = stack.last() {
                if mine[top].end <= r.start {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = stack.last() {
                child_cover[parent] += r.duration();
            }
            stack.push(i);
        }
        for (r, cover) in mine.into_iter().zip(child_cover) {
            out.push((r.clone(), (r.duration() - cover).max(0.0)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, thread: u64, start: f64, end: f64) -> Record {
        Record {
            name,
            thread,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_on_the_same_thread_only() {
        let recs = vec![
            rec("outer", 1, 0.0, 10.0),
            rec("inner", 1, 2.0, 5.0),
            rec("inner2", 1, 6.0, 7.0),
            rec("leaf", 1, 3.0, 4.0),
            rec("worker", 2, 1.0, 9.0),
            rec("after", 1, 10.0, 12.0),
        ];
        let st = self_times(&recs);
        let get = |n: &str| st.iter().find(|(r, _)| r.name == n).map(|(_, s)| *s);
        assert_eq!(get("outer"), Some(6.0));
        assert_eq!(get("inner"), Some(2.0));
        assert_eq!(get("leaf"), Some(1.0));
        assert_eq!(get("worker"), Some(8.0));
        assert_eq!(get("after"), Some(2.0));
    }
}
