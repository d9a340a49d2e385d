//! Event sinks: where emitted [`Event`]s go.
//!
//! The service is generic over its sink, so the choice is made at
//! compile time. With [`NullSink`] — the default — `enabled()` is a
//! constant `false`, every emission site folds away under
//! monomorphization, and the instrumented service is byte-for-byte the
//! uninstrumented one. [`RingRecorder`] keeps the last N events in
//! memory (a flight recorder for post-mortem inspection); [`JsonlWriter`]
//! streams every event as one JSON line; [`TeeSink`] fans one stream
//! out to two sinks (e.g. a JSONL trace *and* a
//! [`TimeSeriesSink`](crate::TimeSeriesSink) in the same run).

use std::io;

use vod_sim::SimTime;

use crate::event::Event;

/// A consumer of service events.
///
/// Implementations decide what to retain. Emission sites must guard
/// event construction with [`EventSink::enabled`] so that disabled
/// sinks cost nothing:
///
/// ```
/// # use vod_obs::{Event, EventSink, NullSink};
/// # use vod_sim::SimTime;
/// # let mut sink = NullSink;
/// # let (now, server, video) = (SimTime::ZERO, vod_net::NodeId::new(0), vod_storage::VideoId::new(0));
/// if sink.enabled() {
///     sink.record(now, &Event::DmaHit { server, video });
/// }
/// ```
pub trait EventSink {
    /// Whether this sink wants events at all. Defaults to `true`;
    /// [`NullSink`] overrides it to a constant `false`, letting the
    /// optimizer delete guarded emission sites entirely.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event stamped with the simulated time it occurred.
    fn record(&mut self, at: SimTime, event: &Event);
}

/// The no-op sink: tracing compiled out.
///
/// `enabled()` is a constant `false` and `record` does nothing, so a
/// `VodService<NullSink>` carries zero observability overhead — see
/// `benches/obs.rs` (`BENCH_obs.json`), which measures the guarded
/// emission path at ≈0 ns/event.
#[derive(Debug, Default, Copy, Clone)]
pub struct NullSink;

impl EventSink for NullSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _at: SimTime, _event: &Event) {}
}

/// A bounded in-memory flight recorder.
///
/// Keeps the most recent `capacity` events, overwriting the oldest
/// when full and counting what it dropped. Iteration is chronological.
///
/// Internally a pre-sized circular buffer: the backing `Vec` is
/// allocated once at construction and a saturated ring overwrites the
/// oldest slot in place, so steady-state recording never reallocates
/// or shifts entries — the emission tail stays flat at capacity
/// (`benches/obs.rs`, `obs/emit/ring_recorder`).
#[derive(Debug, Clone)]
pub struct RingRecorder {
    capacity: usize,
    entries: Vec<(SimTime, Event)>,
    /// Oldest retained entry once the ring is full; always the next
    /// slot to overwrite.
    head: usize,
    dropped: u64,
}

impl RingRecorder {
    /// Creates a recorder holding at most `capacity` events. The
    /// backing storage is reserved up front so recording never grows
    /// the allocation.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        RingRecorder {
            capacity,
            entries: Vec::with_capacity(capacity),
            head: 0,
            dropped: 0,
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently retained events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Events evicted to make room (total recorded − retained).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &Event)> {
        let (tail, front) = self.entries.split_at(self.head);
        front.iter().chain(tail).map(|(at, e)| (*at, e))
    }

    /// Renders the retained events as JSONL (one event per line, oldest
    /// first, trailing newline after each line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 96);
        for (at, event) in self.iter() {
            event.write_json(at, &mut out);
            out.push('\n');
        }
        out
    }
}

impl EventSink for RingRecorder {
    fn record(&mut self, at: SimTime, event: &Event) {
        if self.entries.len() < self.capacity {
            self.entries.push((at, event.clone()));
        } else {
            self.entries[self.head] = (at, event.clone());
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }
}

/// Fans one event stream out to two sinks.
///
/// `enabled()` is the OR of the parts and each part only sees events
/// while it is itself enabled, so a `TeeSink<NullSink, NullSink>`
/// still folds away entirely. Nest tees for wider fan-out:
/// `TeeSink::new(jsonl, TeeSink::new(series, spans))` records a trace
/// and feeds both aggregators in a single run.
#[derive(Debug, Default, Clone)]
pub struct TeeSink<A, B> {
    first: A,
    second: B,
}

impl<A: EventSink, B: EventSink> TeeSink<A, B> {
    /// Combines two sinks.
    pub fn new(first: A, second: B) -> Self {
        TeeSink { first, second }
    }

    /// Splits the tee back into its parts.
    pub fn into_parts(self) -> (A, B) {
        (self.first, self.second)
    }
}

impl<A: EventSink, B: EventSink> EventSink for TeeSink<A, B> {
    #[inline]
    fn enabled(&self) -> bool {
        self.first.enabled() || self.second.enabled()
    }

    fn record(&mut self, at: SimTime, event: &Event) {
        if self.first.enabled() {
            self.first.record(at, event);
        }
        if self.second.enabled() {
            self.second.record(at, event);
        }
    }
}

/// Streams events as JSON Lines to any [`io::Write`].
///
/// One line per event, formatted by [`Event::write_json`]; given the
/// same event sequence the byte stream is identical across runs and
/// platforms. A failed write loses its line but does not stop the
/// simulation; the first such error is kept and returned by
/// [`JsonlWriter::into_inner`], so a trace with a hole is never taken
/// for a whole one.
#[derive(Debug)]
pub struct JsonlWriter<W: io::Write> {
    writer: W,
    buf: String,
    lines: u64,
    /// The first write that failed, if any.
    error: Option<io::Error>,
}

impl<W: io::Write> JsonlWriter<W> {
    /// Wraps a writer. Buffer the writer yourself (e.g. with
    /// [`io::BufWriter`]) when it is a file or socket.
    pub fn new(writer: W) -> Self {
        JsonlWriter {
            writer,
            buf: String::with_capacity(128),
            lines: 0,
            error: None,
        }
    }

    /// Lines successfully written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns the first write that failed while recording, or else the
    /// flush's error.
    pub fn into_inner(mut self) -> io::Result<W> {
        let flushed = self.writer.flush();
        match self.error {
            Some(e) => Err(e),
            None => flushed.map(|()| self.writer),
        }
    }
}

impl<W: io::Write> EventSink for JsonlWriter<W> {
    fn record(&mut self, at: SimTime, event: &Event) {
        self.buf.clear();
        event.write_json(at, &mut self.buf);
        self.buf.push('\n');
        match self.writer.write_all(self.buf.as_bytes()) {
            Ok(()) => self.lines += 1,
            Err(e) => {
                self.error.get_or_insert(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_net::NodeId;

    fn event(i: u32) -> Event {
        Event::ServerDown {
            server: NodeId::new(i),
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut ring = RingRecorder::new(2);
        assert!(ring.is_empty());
        for i in 0..5 {
            ring.record(SimTime::from_secs(i as u64), &event(i));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let kept: Vec<_> = ring.iter().map(|(at, _)| at.as_micros()).collect();
        assert_eq!(kept, vec![3_000_000, 4_000_000]);
        let jsonl = ring.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.starts_with("{\"at_us\":3000000,\"kind\":\"server_down\""));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn ring_rejects_zero_capacity() {
        let _ = RingRecorder::new(0);
    }

    #[test]
    fn ring_never_reallocates_and_stays_chronological() {
        let mut ring = RingRecorder::new(3);
        let backing = ring.entries.capacity();
        for i in 0..10 {
            ring.record(SimTime::from_secs(i as u64), &event(i));
            let kept: Vec<_> = ring.iter().map(|(at, _)| at.as_micros()).collect();
            let mut sorted = kept.clone();
            sorted.sort_unstable();
            assert_eq!(kept, sorted, "iteration stays oldest-first");
        }
        assert_eq!(ring.entries.capacity(), backing, "no reallocation on wrap");
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 7);
        let kept: Vec<_> = ring.iter().map(|(at, _)| at.as_micros()).collect();
        assert_eq!(kept, vec![7_000_000, 8_000_000, 9_000_000]);
    }

    #[test]
    fn tee_feeds_both_sinks_and_ors_enabled() {
        let tee = TeeSink::new(NullSink, NullSink);
        assert!(!tee.enabled());

        let mut tee = TeeSink::new(RingRecorder::new(4), JsonlWriter::new(Vec::new()));
        assert!(tee.enabled());
        tee.record(SimTime::ZERO, &event(1));
        tee.record(SimTime::from_secs(1), &event(2));
        assert_eq!(tee.first.len(), 2);
        assert_eq!(tee.second.lines(), 2);
        let (ring, writer) = tee.into_parts();
        let text = String::from_utf8(writer.into_inner().unwrap()).unwrap_or_default();
        assert_eq!(ring.to_jsonl(), text);
    }

    #[test]
    fn jsonl_writer_streams_lines() {
        let mut w = JsonlWriter::new(Vec::new());
        w.record(SimTime::ZERO, &event(1));
        w.record(SimTime::from_micros(5), &event(2));
        assert_eq!(w.lines(), 2);
        let bytes = w.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(
            text,
            "{\"at_us\":0,\"kind\":\"server_down\",\"server\":1}\n\
             {\"at_us\":5,\"kind\":\"server_down\",\"server\":2}\n"
        );
    }

    #[test]
    fn jsonl_writer_returns_a_transient_write_error() {
        /// Fails the second write and takes every other one.
        #[derive(Debug)]
        struct FailsOnce {
            writes: u32,
        }
        impl io::Write for FailsOnce {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                if self.writes == 2 {
                    return Err(io::Error::other("transient"));
                }
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = JsonlWriter::new(FailsOnce { writes: 0 });
        for i in 0..3 {
            w.record(SimTime::from_secs(u64::from(i)), &event(i));
        }
        assert_eq!(w.lines(), 2);
        let err = w.into_inner().unwrap_err();
        assert_eq!(err.to_string(), "transient");
    }
}
