//! Event sinks: where emitted [`Event`]s go.
//!
//! The service is generic over its sink, so the choice is made at
//! compile time, and every emission goes through [`EventSink::emit`],
//! which builds the event only for a sink that wants it. With
//! [`NullSink`] — the default — `enabled()` is a constant `false`, every
//! `emit` folds away under monomorphization, and the instrumented
//! service is byte-for-byte the uninstrumented one. [`RingRecorder`] keeps the last N events in
//! memory (a flight recorder for post-mortem inspection); [`JsonlWriter`]
//! streams every event as one JSON line; [`TeeSink`] fans one stream
//! out to two sinks (e.g. a JSONL trace *and* a
//! [`TimeSeriesSink`](crate::TimeSeriesSink) in the same run).
//!
//! [`JsonlWriter`] is the one place in the workspace that starts a
//! thread. Past its first 1 024 events, on a host with more than one
//! CPU, it hands full batches to one formatter thread and writes the
//! lines that come back to its `W`, on the caller's thread, in record
//! order: when lines reach `W`, and why the bytes cannot depend on
//! scheduling, is on the type. `into_inner` and `Drop` write every
//! pending line and join the thread.

use std::collections::VecDeque;
use std::io;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use vod_sim::SimTime;

use crate::event::Event;

/// A consumer of service events.
///
/// Implementations decide what to retain by implementing
/// [`EventSink::record`] (and [`EventSink::enabled`] when they can
/// refuse everything). Emission sites call [`EventSink::emit`] with a
/// closure that builds the event, so a disabled sink never builds it:
///
/// ```
/// # use vod_obs::{Event, EventSink, NullSink};
/// # use vod_sim::SimTime;
/// # let mut sink = NullSink;
/// # let (now, server, video) = (SimTime::ZERO, vod_net::NodeId::new(0), vod_storage::VideoId::new(0));
/// sink.emit(now, || Event::DmaHit { server, video });
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

    /// Builds the event and records it, only when the sink is enabled:
    /// for [`NullSink`] the closure never runs and the call folds away.
    #[inline]
    fn emit(&mut self, at: SimTime, event: impl FnOnce() -> Event)
    where
        Self: Sized,
    {
        if self.enabled() {
            self.record(at, &event());
        }
    }
}

/// The no-op sink: tracing compiled out.
///
/// `enabled()` is a constant `false` and `record` does nothing, so a
/// `VodService<NullSink>` carries zero observability overhead — see
/// `benches/obs.rs` (`BENCH_obs.json`), which measures
/// [`EventSink::emit`] into it at ≈0 ns/event.
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
    #[expect(
        clippy::disallowed_macros,
        reason = "config validation: `flight recorder capacity must be positive`; a typed error is ROADMAP 4(a)"
    )]
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
    #[expect(
        clippy::indexing_slicing,
        reason = "once the ring is full, `head < capacity == entries.len()`"
    )]
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
/// `TeeSink::new(jsonl, TeeSink::new(series, auditor))` records a
/// trace, folds its series and audits it (`vod-check`'s `AuditSink`)
/// in a single run.
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

/// Events per batch: what one formatter call renders at once.
const BATCH: usize = 1024;

/// Room for one line of a batch's text, reserved up front: a trace's
/// lines average about 96 bytes, and a text grown by doubling would leave
/// its outgrown buffers behind as heap garbage.
const LINE_BYTES: usize = 128;

/// Full batches handed to the worker and not yet written back.
const IN_FLIGHT: usize = 2;

/// Times the formatter thread yields its CPU, finding no batch, before
/// it sleeps until the caller wakes it: a few milliseconds when it has
/// a CPU of its own.
const IDLE_YIELDS: u32 = 10_000;

/// Streams events as JSON Lines to any [`io::Write`].
///
/// One line per event, formatted by [`Event::write_json`]; given the
/// same event sequence the byte stream is identical across runs and
/// platforms. A failed write loses its line but does not stop the
/// simulation; the first such error is kept and returned by
/// [`JsonlWriter::into_inner`], so a trace with a hole is never taken
/// for a whole one.
///
/// # When lines reach `W`
///
/// The first 1 024 events are formatted and written as each is
/// recorded, so a short trace is written line by line on the caller's
/// thread, no thread is started, and [`lines`](JsonlWriter::lines)
/// counts every event recorded. A longer trace, on a host with more
/// than one CPU, starts one formatter thread as its first batch ends.
/// From then on each event is cloned into a batch of 1 024; full
/// batches go to the worker, at most two at a time, and the caller
/// writes the lines that come back in record order, waiting only while
/// two batches are still out. `lines` then trails `record` by the
/// batch being filled and up to two in flight. On one CPU, or when no
/// thread can be started, every event is formatted and written as it
/// is recorded. Either way the bytes are the same, `W` is only ever
/// touched by the caller's thread, and each line is one `write_all`:
/// one worker, fed batches in record order by the caller, which writes
/// what comes back in that order, cannot reorder a byte.
///
/// [`into_inner`](JsonlWriter::into_inner) and `Drop` both write every
/// line still pending (the tail is formatted on the caller's thread) and
/// join the formatter thread, so when either returns `W` holds the
/// whole trace and no thread is left.
#[derive(Debug)]
pub struct JsonlWriter<W: io::Write> {
    out: Out<W>,
    /// The events not yet handed to a formatter.
    batch: Batch,
    mode: Mode,
    /// Batches back from the worker, emptied for reuse.
    spare: Vec<Batch>,
    /// Whether a formatter thread may be started: more than one CPU,
    /// asked once, as the first batch ends.
    may_spawn: fn() -> bool,
}

/// Where a recorded event is formatted.
#[derive(Debug)]
enum Mode {
    /// The first batch: each event is formatted and written as it is
    /// recorded, `left` more of them; then one of the other two.
    Eager { left: usize },
    /// Each event formatted and written as it is recorded: one CPU, no
    /// thread to be had, or the trace drained.
    Here,
    /// Events batched for the formatter thread.
    Worker(Worker),
}

impl<W: io::Write> JsonlWriter<W> {
    /// Wraps a writer. Buffer the writer yourself (e.g. with
    /// [`io::BufWriter`]) when it is a file or socket.
    pub fn new(writer: W) -> Self {
        JsonlWriter {
            out: Out {
                writer: Some(writer),
                lines: 0,
                error: None,
            },
            batch: Batch::full_size(),
            mode: Mode::Eager { left: BATCH },
            spare: Vec::new(),
            may_spawn: several_cpus,
        }
    }

    /// Lines successfully written so far. Exact for the first 1 024
    /// events and without a formatter thread; with one it trails
    /// [`EventSink::record`] by up to three batches (see the type's
    /// docs).
    pub fn lines(&self) -> u64 {
        self.out.lines
    }

    /// Writes every pending line, joins the formatter thread, flushes
    /// and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns the first write that failed while recording, or else the
    /// flush's error.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.drain();
        let error = self.out.error.take();
        let Some(mut writer) = self.out.writer.take() else {
            return Err(io::Error::other("the JSONL writer was already taken"));
        };
        let flushed = writer.flush();
        match error {
            Some(e) => Err(e),
            None => flushed.map(|()| writer),
        }
    }

    /// Formats one event on this thread and writes its line.
    fn write_now(&mut self, at: SimTime, event: &Event) {
        let text = &mut self.batch.text;
        text.clear();
        render(text, at, event);
        self.out.write_line(text.as_bytes());
    }

    /// Formats the batch on this thread and writes its lines.
    fn format_here(&mut self) {
        self.batch.format();
        self.out.write(&self.batch);
    }

    /// Sends the full batch to the worker after writing back what it
    /// has finished: the oldest batch is waited for while [`IN_FLIGHT`]
    /// are out.
    fn hand_off(&mut self) {
        let Mode::Worker(worker) = &mut self.mode else {
            return self.format_here();
        };
        while let Some(done) = worker.take(worker.in_flight == IN_FLIGHT) {
            self.out.write(&done);
            self.spare.push(done);
        }
        if worker.in_flight == IN_FLIGHT {
            // Gone without handing a batch back: the rest is formatted here.
            return self.drain();
        }
        let next = self.spare.pop().unwrap_or_else(Batch::full_size);
        worker.send(std::mem::replace(&mut self.batch, next));
    }

    /// Writes every line recorded so far: the worker's batches in
    /// order, then the tail, formatted here; ends the worker. Later
    /// events are written as they are recorded.
    fn drain(&mut self) {
        if let Mode::Worker(mut worker) = std::mem::replace(&mut self.mode, Mode::Here) {
            while let Some(done) = worker.take(true) {
                self.out.write(&done);
            }
            if !worker.stop() {
                self.out.error.get_or_insert(io::Error::other(
                    "the JSONL formatter thread panicked; its lines are lost",
                ));
            }
        }
        if !self.batch.events.is_empty() {
            self.format_here();
        }
    }

    /// A writer that starts a formatter thread (`worker`) or never
    /// does, whatever the host.
    #[cfg(test)]
    fn with_worker(writer: W, worker: bool) -> Self {
        let mut w = JsonlWriter::new(writer);
        w.may_spawn = if worker { || true } else { || false };
        w
    }
}

impl<W: io::Write> EventSink for JsonlWriter<W> {
    fn record(&mut self, at: SimTime, event: &Event) {
        match &mut self.mode {
            Mode::Eager { left } => {
                *left -= 1;
                if *left == 0 {
                    self.mode = match (self.may_spawn)().then(Worker::spawn).flatten() {
                        Some(worker) => Mode::Worker(worker),
                        None => Mode::Here,
                    };
                }
                self.write_now(at, event);
            }
            Mode::Here => self.write_now(at, event),
            Mode::Worker(_) => {
                self.batch.events.push((at, event.clone()));
                if self.batch.events.len() == BATCH {
                    self.hand_off();
                }
            }
        }
    }
}

impl<W: io::Write> Drop for JsonlWriter<W> {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Whether this process may run on more than one CPU.
fn several_cpus() -> bool {
    std::thread::available_parallelism().is_ok_and(|n| n.get() > 1)
}

/// The caller's end: `W` and what writing to it has done.
#[derive(Debug)]
struct Out<W> {
    /// `None` only once `into_inner` has taken it.
    writer: Option<W>,
    lines: u64,
    /// The first write that failed, if any.
    error: Option<io::Error>,
}

impl<W: io::Write> Out<W> {
    /// Writes a formatted batch's lines in order.
    fn write(&mut self, batch: &Batch) {
        for line in batch.lines() {
            self.write_line(line);
        }
    }

    /// Writes one line with one `write_all`, so a failed write loses
    /// only its own line.
    fn write_line(&mut self, line: &[u8]) {
        let Some(writer) = &mut self.writer else {
            return;
        };
        match writer.write_all(line) {
            Ok(()) => self.lines += 1,
            Err(e) => {
                self.error.get_or_insert(e);
            }
        }
    }
}

/// Events on their way through a formatter, then their lines. Its
/// buffers are reused, so a steady trace allocates nothing.
#[derive(Debug)]
struct Batch {
    events: Vec<(SimTime, Event)>,
    /// The events' lines, each ended by `'\n'`.
    text: String,
    /// Where each line of `text` ends.
    ends: Vec<usize>,
}

impl Batch {
    /// A batch with room for [`BATCH`] events. The writer takes its
    /// first at construction, before the run grows the heap around it.
    fn full_size() -> Self {
        Batch {
            events: Vec::with_capacity(BATCH),
            text: String::with_capacity(BATCH * LINE_BYTES),
            ends: Vec::with_capacity(BATCH),
        }
    }

    /// The batch's events as lines, then dropped (on the worker, that
    /// pass leaves the caller's thread too).
    fn format(&mut self) {
        let Batch { events, text, ends } = self;
        text.clear();
        ends.clear();
        for (at, event) in events.iter() {
            render(text, *at, event);
            ends.push(text.len());
        }
        events.clear();
    }

    /// The formatted lines, in record order.
    fn lines(&self) -> impl Iterator<Item = &[u8]> {
        let text = self.text.as_bytes();
        self.ends.iter().scan(0, move |start, &end| {
            let line = text.get(*start..end);
            *start = end;
            line
        })
    }
}

/// The formatter, wherever it runs: one event as one line of `text`.
fn render(text: &mut String, at: SimTime, event: &Event) {
    event.write_json(at, text);
    text.push('\n');
}

/// The caller's handle on the formatter thread.
#[derive(Debug)]
struct Worker {
    handoff: Arc<Handoff>,
    thread: Option<JoinHandle<()>>,
    /// Batches handed over and not yet taken back.
    in_flight: usize,
}

/// What the caller and the formatter thread share: batches to format
/// and formatted ones, each queue in record order.
#[derive(Debug)]
struct Handoff {
    slots: Mutex<Slots>,
    /// Wakes a sleeping worker: a batch to format, or the end.
    to_worker: Condvar,
    /// Wakes the caller: a batch formatted, or the worker gone.
    to_caller: Condvar,
}

#[derive(Debug)]
struct Slots {
    todo: VecDeque<Batch>,
    done: VecDeque<Batch>,
    /// Set by the caller: no batch will follow.
    closed: bool,
    /// Set by the worker while it sleeps for want of batches.
    asleep: bool,
    /// Set by the worker as it exits, whether it returns or panics.
    gone: bool,
}

impl Handoff {
    /// Every update of [`Slots`] is one push, pop or flag, so a guard
    /// poisoned by a panic elsewhere still holds consistent queues.
    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Worker {
    /// Starts the formatter thread; `None` when the OS refuses one.
    fn spawn() -> Option<Worker> {
        let handoff = Arc::new(Handoff {
            slots: Mutex::new(Slots {
                todo: VecDeque::with_capacity(IN_FLIGHT),
                done: VecDeque::with_capacity(IN_FLIGHT),
                closed: false,
                asleep: false,
                gone: false,
            }),
            to_worker: Condvar::new(),
            to_caller: Condvar::new(),
        });
        let theirs = Arc::clone(&handoff);
        #[expect(
            clippy::disallowed_methods,
            reason = "one worker, fed batches in FIFO order by the caller, which writes them back in that order, cannot reorder a byte"
        )]
        let thread = std::thread::Builder::new()
            .name("jsonl-format".into())
            .spawn(move || format_batches(&theirs))
            .ok()?;
        Some(Worker {
            handoff,
            thread: Some(thread),
            in_flight: 0,
        })
    }

    /// Queues a full batch, waking the worker only if it sleeps.
    fn send(&mut self, batch: Batch) {
        let mut slots = self.handoff.lock();
        slots.todo.push_back(batch);
        if slots.asleep {
            self.handoff.to_worker.notify_one();
        }
        self.in_flight += 1;
    }

    /// The oldest batch back from the worker, formatted. With `wait`,
    /// waits for it while one is out and the worker lives.
    fn take(&mut self, wait: bool) -> Option<Batch> {
        if self.in_flight == 0 {
            return None;
        }
        let mut slots = self.handoff.lock();
        loop {
            if let Some(batch) = slots.done.pop_front() {
                self.in_flight -= 1;
                return Some(batch);
            }
            if !wait || slots.gone {
                return None;
            }
            slots = self
                .handoff
                .to_caller
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Ends the worker and joins it. False when it died with batches
    /// still out (only a panic in the formatter does that).
    fn stop(&mut self) -> bool {
        self.handoff.lock().closed = true;
        self.handoff.to_worker.notify_one();
        let joined = self.thread.take().is_none_or(|t| t.join().is_ok());
        joined && self.in_flight == 0
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The formatter thread: formats batches in the order they come until
/// the caller closes the hand-off.
///
/// Between batches it yields instead of sleeping, up to
/// [`IDLE_YIELDS`] times. A thread that sleeps between batches is woken
/// where the scheduler finds it convenient, often on the caller's CPU,
/// where it preempts the simulation and formats in series with it (on
/// a two-CPU host, once per batch); a thread that stays runnable is
/// moved to a CPU of its own and keeps it. Sharing the caller's CPU, a
/// yield hands the CPU straight back. Only a writer idle for longer
/// sleeps, so it costs no CPU.
fn format_batches(handoff: &Handoff) {
    /// Marks the worker gone however the loop ends, so a caller never
    /// waits on a dead thread.
    struct Gone<'a>(&'a Handoff);
    impl Drop for Gone<'_> {
        fn drop(&mut self) {
            self.0.lock().gone = true;
            self.0.to_caller.notify_one();
        }
    }
    let _gone = Gone(handoff);
    let mut idle = 0;
    let mut slots = handoff.lock();
    loop {
        if let Some(mut batch) = slots.todo.pop_front() {
            drop(slots);
            batch.format();
            slots = handoff.lock();
            slots.done.push_back(batch);
            handoff.to_caller.notify_one();
            idle = 0;
        } else if slots.closed {
            return;
        } else if idle < IDLE_YIELDS {
            drop(slots);
            std::thread::yield_now();
            idle += 1;
            slots = handoff.lock();
        } else {
            slots.asleep = true;
            slots = handoff
                .to_worker
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
            slots.asleep = false;
            idle = 0;
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

    /// A disabled sink that still counts what reaches `record`.
    #[derive(Debug, Default)]
    struct Off {
        records: u32,
    }
    impl EventSink for Off {
        fn enabled(&self) -> bool {
            false
        }
        fn record(&mut self, _at: SimTime, _event: &Event) {
            self.records += 1;
        }
    }

    /// Emits once into `sink` and returns how often the closure ran.
    fn emit_count<S: EventSink>(sink: &mut S) -> u32 {
        let mut built = 0;
        sink.emit(SimTime::from_secs(3), || {
            built += 1;
            event(7)
        });
        built
    }

    #[test]
    fn emit_never_builds_for_a_disabled_sink() {
        assert_eq!(emit_count(&mut NullSink), 0);
        let mut tee = TeeSink::new(Off::default(), Off::default());
        assert_eq!(emit_count(&mut tee), 0);
        assert_eq!((tee.first.records, tee.second.records), (0, 0));
    }

    #[test]
    fn emit_builds_once_for_an_enabled_sink() {
        let mut ring = RingRecorder::new(4);
        assert_eq!(emit_count(&mut ring), 1);
        assert_eq!(
            ring.to_jsonl(),
            "{\"at_us\":3000000,\"kind\":\"server_down\",\"server\":7}\n"
        );
    }

    #[test]
    fn emit_into_a_half_enabled_tee_builds_once_and_feeds_that_side() {
        let mut tee = TeeSink::new(Off::default(), RingRecorder::new(4));
        assert_eq!(emit_count(&mut tee), 1);
        assert_eq!((tee.first.records, tee.second.len()), (0, 1));
        let mut tee = TeeSink::new(RingRecorder::new(4), Off::default());
        assert_eq!(emit_count(&mut tee), 1);
        assert_eq!((tee.first.len(), tee.second.records), (1, 0));
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

    /// `n` events of random kinds with random fields, drawn from `seed`.
    fn random_events(n: usize, seed: u64) -> Vec<(SimTime, Event)> {
        let mut g = crate::event::tests::Gen(seed);
        (0..n)
            .map(|_| {
                let kinds = Event::KINDS.len() as u64;
                let kind = Event::KINDS[(g.draw::<u64>() % kinds) as usize];
                let at = SimTime::from_micros(g.draw());
                (
                    at,
                    Event::random(kind, &mut g).expect("every kind is in the table"),
                )
            })
            .collect()
    }

    /// The trace `events` should give: one `write_json` line each.
    fn expected_bytes(events: &[(SimTime, Event)]) -> Vec<u8> {
        let mut text = String::new();
        for (at, event) in events {
            event.write_json(*at, &mut text);
            text.push('\n');
        }
        text.into_bytes()
    }

    /// Counts the bytes it is given into a shared cell, as the
    /// benchmark's writer does; `Rc` keeps it on one thread.
    struct Counting(std::rc::Rc<std::cell::Cell<u64>>);
    impl io::Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.set(self.0.get() + buf.len() as u64);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        /// Both paths write every event's line in record order, whatever
        /// the length against the batch size.
        #[test]
        fn pipelined_and_inline_writers_write_the_same_lines(seed in proptest::prelude::any::<u64>()) {
            for n in [0, 1, BATCH - 1, BATCH, BATCH + 1, 3 * BATCH + 17] {
                let events = random_events(n, seed);
                for worker in [true, false] {
                    let mut w = JsonlWriter::with_worker(Vec::new(), worker);
                    for (at, event) in &events {
                        w.record(*at, event);
                    }
                    proptest::prop_assert!(w.lines() <= n as u64);
                    w.drain();
                    proptest::prop_assert_eq!(w.lines(), n as u64);
                    let bytes = w.into_inner().expect("Vec never fails");
                    proptest::prop_assert!(bytes == expected_bytes(&events), "n {} worker {}", n, worker);
                }
            }
        }
    }

    #[test]
    fn the_first_batch_is_written_as_recorded_and_one_cpu_never_starts_a_worker() {
        let events = random_events(BATCH + 1, 3);
        let mut w = JsonlWriter::with_worker(Vec::new(), true);
        for (i, (at, event)) in events.iter().enumerate() {
            assert!(matches!(w.mode, Mode::Eager { .. }) == (i < BATCH));
            w.record(*at, event);
            if i < BATCH {
                assert_eq!(
                    w.lines(),
                    i as u64 + 1,
                    "the first batch is written as recorded"
                );
            }
        }
        assert!(matches!(w.mode, Mode::Worker(_)));
        assert_eq!(w.lines(), BATCH as u64, "the next event waits in a batch");
        let mut w = JsonlWriter::with_worker(Vec::new(), false);
        for (at, event) in random_events(5 * BATCH, 4) {
            w.record(at, &event);
        }
        assert!(matches!(w.mode, Mode::Here));
        assert_eq!(
            w.lines(),
            5 * BATCH as u64,
            "one CPU writes every event as recorded"
        );
    }

    #[test]
    fn a_dropped_writer_has_delivered_every_byte_and_ended_its_worker() {
        let events = random_events(4 * BATCH + 100, 5);
        let bytes = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut w = JsonlWriter::with_worker(Counting(std::rc::Rc::clone(&bytes)), true);
        for (at, event) in &events {
            w.record(*at, event);
        }
        let Mode::Worker(worker) = &w.mode else {
            panic!("four batches start the worker");
        };
        let handoff = Arc::clone(&worker.handoff);
        drop(w);
        assert_eq!(bytes.get(), expected_bytes(&events).len() as u64);
        assert!(handoff.lock().gone, "the worker has exited");
        assert_eq!(Arc::strong_count(&handoff), 1, "and released its end");
    }

    #[test]
    fn a_failed_write_in_a_pipelined_batch_loses_exactly_its_line() {
        /// Keeps every line but the `fail_at`-th write (1-based).
        #[derive(Debug)]
        struct FailsAt {
            kept: Vec<u8>,
            writes: usize,
            fail_at: usize,
        }
        impl io::Write for FailsAt {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                if self.writes == self.fail_at {
                    return Err(io::Error::other("transient"));
                }
                self.kept.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let events = random_events(4 * BATCH, 6);
        // Inside the second batch, the first one the worker formats.
        let fail_at = 2 * BATCH - 10;
        let writer = FailsAt {
            kept: Vec::new(),
            writes: 0,
            fail_at,
        };
        let mut w = JsonlWriter::with_worker(writer, true);
        for (at, event) in &events {
            w.record(*at, event);
        }
        assert!(matches!(w.mode, Mode::Worker(_)));
        w.drain();
        assert_eq!(w.lines(), events.len() as u64 - 1);
        let kept = std::mem::take(&mut w.out.writer.as_mut().expect("not yet taken").kept);
        let mut expected = expected_bytes(&events[..fail_at - 1]);
        expected.extend(expected_bytes(&events[fail_at..]));
        assert!(kept == expected, "all lines but the failed one, in order");
        assert_eq!(w.into_inner().unwrap_err().to_string(), "transient");
    }
}
