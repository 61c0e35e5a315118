//! The baseline log buffer: one mutex across allocation *and* copy.
//!
//! Every insert holds the buffer mutex for the full duration of its memcpy,
//! so log insertion is fully serialized — this is the design whose collapse
//! under core count growth motivates the Aether work the keynote cites.

use crate::buffer::{LogBuffer, LogStore, LsnRange, LOG_START};
use crate::Lsn;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

struct SerialState {
    /// Bytes inserted but not yet flushed.
    pending: Vec<u8>,
    /// Next LSN to hand out.
    tail: Lsn,
}

/// Mutex-serialized log buffer.
pub struct SerialLogBuffer {
    state: Mutex<SerialState>,
    store: LogStore,
    durable: AtomicU64,
    /// The flusher's batch buffer. Its lock serializes flushes so each makes
    /// one store append (group commit); a flush swaps it with `pending`, so
    /// both keep their capacity and steady-state flushing never allocates.
    batch: Mutex<Vec<u8>>,
}

impl SerialLogBuffer {
    /// Creates an empty buffer; `flush_latency` models the log device.
    pub fn new(flush_latency: Option<Duration>) -> Self {
        Self::new_at(LOG_START, flush_latency)
    }

    /// Creates a buffer whose first LSN is `base` (post-crash log
    /// continuation: page LSNs from earlier incarnations stay smaller than
    /// every new record).
    pub fn new_at(base: u64, flush_latency: Option<Duration>) -> Self {
        SerialLogBuffer {
            state: Mutex::new(SerialState {
                pending: Vec::new(),
                tail: base,
            }),
            store: LogStore::new_at(base, flush_latency),
            durable: AtomicU64::new(base),
            batch: Mutex::new(Vec::new()),
        }
    }
}

impl Default for SerialLogBuffer {
    fn default() -> Self {
        Self::new(None)
    }
}

impl LogBuffer for SerialLogBuffer {
    fn insert(&self, payload: &[u8]) -> LsnRange {
        // A contended acquisition here IS the serial-log-head bottleneck the
        // keynote describes: attribute the queueing delay to the log.
        let mut st = match self.state.try_lock() {
            Some(guard) => guard,
            None => {
                let _wait = esdb_obs::wait_timer(esdb_obs::WaitClass::LogWait);
                self.state.lock()
            }
        };
        let start = st.tail;
        st.pending.extend_from_slice(payload);
        st.tail += payload.len() as u64;
        LsnRange {
            start,
            end: st.tail,
        }
    }

    fn flush(&self, lsn: Lsn) {
        while self.durable.load(Ordering::Acquire) < lsn {
            // One flusher at a time; latecomers whose LSN got covered by the
            // winner's flush exit via the loop condition (group commit).
            let mut batch = self.batch.lock();
            if self.durable.load(Ordering::Acquire) >= lsn {
                return;
            }
            let new_durable = {
                let mut st = self.state.lock();
                std::mem::swap(&mut st.pending, &mut *batch);
                st.tail
            };
            if !batch.is_empty() {
                self.store.append(&[&batch]);
                batch.clear();
            }
            self.durable.store(new_durable, Ordering::Release);
        }
    }

    fn durable_lsn(&self) -> Lsn {
        self.durable.load(Ordering::Acquire)
    }

    fn current_lsn(&self) -> Lsn {
        self.state.lock().tail
    }

    fn name(&self) -> &'static str {
        "serial"
    }

    fn store(&self) -> &LogStore {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsn_ranges_are_contiguous() {
        let b = SerialLogBuffer::default();
        let a = b.insert(b"aaaa");
        let c = b.insert(b"cc");
        assert_eq!(a.start, LOG_START);
        assert_eq!(a.end, a.start + 4);
        assert_eq!(c.start, a.end);
        assert_eq!(b.current_lsn(), c.end);
    }

    #[test]
    fn flush_makes_bytes_durable() {
        let b = SerialLogBuffer::default();
        let r = b.insert(b"record-1");
        assert_eq!(b.durable_lsn(), LOG_START);
        b.flush(r.end);
        assert!(b.durable_lsn() >= r.end);
        assert_eq!(b.read_durable(LOG_START), b"record-1");
    }

    #[test]
    fn group_commit_batches_flushes() {
        let b = SerialLogBuffer::default();
        let mut last = LOG_START;
        for _ in 0..10 {
            last = b.insert(b"payload").end;
        }
        b.flush(last);
        assert_eq!(b.flush_count(), 1, "ten records should flush as one batch");
    }

    #[test]
    fn concurrent_inserts_are_all_durable() {
        use std::sync::Arc;
        let b = Arc::new(SerialLogBuffer::default());
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    b.insert(&[t; 16]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let end = b.current_lsn();
        b.flush(end);
        let bytes = b.read_durable(LOG_START);
        assert_eq!(bytes.len() as u64, end - LOG_START);
        assert_eq!(bytes.len(), 4 * 500 * 16);
    }
}
