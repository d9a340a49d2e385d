//! The discrete-event simulation loop.
//!
//! Events reach a [`Model`] from two sources. The [`Scheduler`] holds
//! what the model scheduled for itself — its depth follows the live
//! state. The model's *input lane* ([`Model::peek_input`] /
//! [`Model::pop_input`]) holds what is known before the run starts and
//! is already in time order, such as a request trace: it is read
//! through a cursor and never enters the queue, so a long horizon costs
//! no heap depth.
//!
//! Each step takes the earlier of the two heads, and **the input goes
//! first on a tie**: at one instant, every input due runs (in lane
//! order) before anything scheduled for that instant, and scheduled
//! events then run in the order they were scheduled. That is the order a
//! scheduler seeded with the whole lane before any other event would
//! produce, so moving a pre-seeded trace onto the lane changes no run.

use crate::scheduler::{Scheduler, SchedulerStats};
use crate::time::SimTime;

/// A simulation model: owns the world state and handles its own events.
///
/// The engine repeatedly takes the earliest event — from the model's
/// input lane or from the scheduler, see the [module docs](self) — and
/// calls [`Model::handle`], which may schedule further events. Time
/// never moves backwards: scheduling an event before the current
/// instant (or yielding inputs out of time order) is a model bug and
/// the engine will panic when it reaches it.
pub trait Model {
    /// The event type driving this model.
    type Event;

    /// Handles one event at instant `now`, scheduling any follow-ups on
    /// `scheduler`.
    fn handle(&mut self, now: SimTime, event: Self::Event, scheduler: &mut Scheduler<Self::Event>);

    /// The instant of the next event on the input lane, `None` once it
    /// is exhausted. Instants must be non-decreasing from one input to
    /// the next. The default is an empty lane.
    fn peek_input(&self) -> Option<SimTime> {
        None
    }

    /// Takes the event [`Model::peek_input`] announced. Called only
    /// right after a `peek_input` that returned `Some`.
    fn pop_input(&mut self) -> Option<Self::Event> {
        None
    }
}

/// The deadline of a step that has none.
const NO_DEADLINE: SimTime = SimTime::from_micros(u64::MAX);

/// The simulation engine: clock + scheduler + model.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug)]
pub struct Simulation<M: Model> {
    model: M,
    scheduler: Scheduler<M::Event>,
    now: SimTime,
    processed: u64,
    /// Events taken from the model's input lane.
    inputs: u64,
}

impl<M: Model> Simulation<M> {
    /// Creates a simulation at time zero with an empty event queue.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            scheduler: Scheduler::new(),
            now: SimTime::ZERO,
            processed: 0,
            inputs: 0,
        }
    }

    /// Current simulated time (the timestamp of the last processed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// The model (read access).
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The scheduler, e.g. for seeding initial events.
    pub fn scheduler_mut(&mut self) -> &mut Scheduler<M::Event> {
        &mut self.scheduler
    }

    /// The scheduler's work counters, with the number of events that
    /// came from the model's input lane instead.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        SchedulerStats {
            inputs: self.inputs,
            ..self.scheduler.stats()
        }
    }

    /// The instant of the earliest pending event, input lane included
    /// (`None` once both have drained) — for drivers stepping the run
    /// with [`Simulation::run_until`].
    pub fn peek_time(&self) -> Option<SimTime> {
        match (self.model.peek_input(), self.scheduler.peek_time()) {
            (Some(input), Some(queued)) => Some(input.min(queued)),
            (input, queued) => input.or(queued),
        }
    }

    /// Takes the next event if it is due by `deadline`: the input lane's
    /// when it is due no later than the queue's head, the queue's
    /// otherwise. Each lane is peeked once.
    fn next_event_by(&mut self, deadline: SimTime) -> Option<(SimTime, M::Event)> {
        let queued = self.scheduler.peek_time();
        match self.model.peek_input() {
            Some(at) if queued.is_none_or(|queued| at <= queued) => {
                if at > deadline {
                    return None;
                }
                let event = self.model.pop_input()?;
                self.inputs += 1;
                Some((at, event))
            }
            _ if queued.is_some_and(|at| at <= deadline) => self.scheduler.pop(),
            _ => None,
        }
    }

    /// Processes the next event if it is due by `deadline`.
    fn step_by(&mut self, deadline: SimTime) -> bool {
        let Some((at, event)) = self.next_event_by(deadline) else {
            return false;
        };
        assert!(
            at >= self.now,
            "event scheduled in the past: {at} < {}",
            self.now
        );
        self.now = at;
        self.processed += 1;
        self.model.handle(at, event, &mut self.scheduler);
        true
    }

    /// Processes a single event. Returns `false` when the queue and the
    /// input lane are both empty.
    ///
    /// # Panics
    ///
    /// Panics if the model scheduled an event in the past.
    pub fn step(&mut self) -> bool {
        self.step_by(NO_DEADLINE)
    }

    /// Runs until the event queue and the input lane drain. Returns the
    /// number of events processed by this call.
    pub fn run(&mut self) -> u64 {
        let before = self.processed;
        while self.step() {}
        self.processed - before
    }

    /// Runs until everything drains or the next event would be after
    /// `deadline`; events exactly at the deadline are processed. The clock
    /// is advanced to `deadline` if the run stopped early. Returns the
    /// number of events processed by this call.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let before = self.processed;
        while self.step_by(deadline) {}
        if self.now < deadline {
            self.now = deadline;
        }
        self.processed - before
    }

    /// Consumes the simulation, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// Counts events; every event below `limit` reschedules itself 1s later.
    struct Counter {
        fired: Vec<SimTime>,
        limit: usize,
    }

    enum Ev {
        Tick,
    }

    impl Model for Counter {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, _ev: Ev, s: &mut Scheduler<Ev>) {
            self.fired.push(now);
            if self.fired.len() < self.limit {
                s.schedule(now + SimDuration::from_secs(1), Ev::Tick);
            }
        }
    }

    fn ticking(limit: usize) -> Simulation<Counter> {
        let mut sim = Simulation::new(Counter {
            fired: Vec::new(),
            limit,
        });
        sim.scheduler_mut().schedule(SimTime::ZERO, Ev::Tick);
        sim
    }

    #[test]
    fn run_drains_queue() {
        let mut sim = ticking(5);
        assert_eq!(sim.run(), 5);
        assert_eq!(sim.model().fired.len(), 5);
        assert_eq!(sim.now(), SimTime::from_secs(4));
        assert_eq!(sim.processed(), 5);
        // Queue empty: another run processes nothing.
        assert_eq!(sim.run(), 0);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = ticking(100);
        let n = sim.run_until(SimTime::from_secs(2));
        assert_eq!(n, 3); // events at t=0,1,2
        assert_eq!(sim.now(), SimTime::from_secs(2));
        // Continue to the end.
        sim.run();
        assert_eq!(sim.model().fired.len(), 100);
    }

    #[test]
    fn run_until_advances_clock_when_idle() {
        let mut sim = ticking(1);
        sim.run();
        sim.run_until(SimTime::from_secs(50));
        assert_eq!(sim.now(), SimTime::from_secs(50));
    }

    #[test]
    fn step_returns_false_on_empty() {
        let mut sim = Simulation::new(Counter {
            fired: Vec::new(),
            limit: 0,
        });
        assert!(!sim.step());
    }

    /// A model with a two-lane life: `inputs` is its input lane, and
    /// every handled event is logged; input `n` schedules `Queued(n)`
    /// for the instant of the *next* input, so the two lanes tie.
    struct Lanes {
        inputs: Vec<SimTime>,
        cursor: usize,
        log: Vec<(SimTime, LaneEv)>,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum LaneEv {
        Input(usize),
        Queued(usize),
    }

    impl Model for Lanes {
        type Event = LaneEv;
        fn handle(&mut self, now: SimTime, ev: LaneEv, s: &mut Scheduler<LaneEv>) {
            self.log.push((now, ev));
            if let LaneEv::Input(n) = ev {
                let at = self.inputs.get(n + 1).copied().unwrap_or(now);
                s.schedule(at, LaneEv::Queued(n));
            }
        }
        fn peek_input(&self) -> Option<SimTime> {
            self.inputs.get(self.cursor).copied()
        }
        fn pop_input(&mut self) -> Option<LaneEv> {
            self.peek_input()?;
            self.cursor += 1;
            Some(LaneEv::Input(self.cursor - 1))
        }
    }

    fn lanes(secs: &[u64]) -> Simulation<Lanes> {
        Simulation::new(Lanes {
            inputs: secs.iter().map(|&s| SimTime::from_secs(s)).collect(),
            cursor: 0,
            log: Vec::new(),
        })
    }

    #[test]
    fn inputs_merge_in_time_order_and_win_ties() {
        // Inputs 1 and 2 share t=5 with Queued(0); input 3 is alone.
        let mut sim = lanes(&[1, 5, 5, 9]);
        sim.scheduler_mut()
            .schedule(SimTime::from_secs(5), LaneEv::Queued(99));
        assert_eq!(sim.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(sim.run(), 9);
        let order: Vec<LaneEv> = sim.model().log.iter().map(|&(_, e)| e).collect();
        use LaneEv::{Input, Queued};
        assert_eq!(
            order,
            vec![
                Input(0),
                // t=5: both inputs (lane order) before either queued
                // event (schedule order: 99 was seeded first).
                Input(1),
                Input(2),
                Queued(99),
                Queued(0),
                Queued(1),
                // t=9: the input, then what it and Input(2) scheduled.
                Input(3),
                Queued(2),
                Queued(3),
            ]
        );
        let stats = sim.scheduler_stats();
        assert_eq!((stats.inputs, stats.pushes, stats.pops), (4, 5, 5));
        assert_eq!(sim.peek_time(), None);
        assert!(!sim.step());
    }

    /// The merged order is the order of one scheduler pre-seeded with
    /// every input before anything else.
    #[test]
    fn input_lane_matches_a_preseeded_scheduler() {
        struct Preseeded(Lanes);
        impl Model for Preseeded {
            type Event = LaneEv;
            fn handle(&mut self, now: SimTime, ev: LaneEv, s: &mut Scheduler<LaneEv>) {
                self.0.handle(now, ev, s);
            }
        }
        let secs = [0, 2, 2, 2, 3, 7, 7];
        let mut merged = lanes(&secs);
        let mut seeded = Simulation::new(Preseeded(lanes(&secs).into_model()));
        for (n, &at) in secs.iter().enumerate() {
            seeded
                .scheduler_mut()
                .schedule(SimTime::from_secs(at), LaneEv::Input(n));
        }
        for sim_at in [2, 7] {
            let at = SimTime::from_secs(sim_at);
            merged
                .scheduler_mut()
                .schedule(at, LaneEv::Queued(50 + sim_at as usize));
            seeded
                .scheduler_mut()
                .schedule(at, LaneEv::Queued(50 + sim_at as usize));
        }
        merged.run();
        seeded.run();
        assert_eq!(merged.model().log, seeded.model().0.log);
        assert_eq!(merged.now(), seeded.now());
        assert_eq!(seeded.scheduler_stats().inputs, 0);
    }

    #[test]
    fn run_until_stops_before_a_late_input() {
        let mut sim = lanes(&[1, 10]);
        assert_eq!(sim.run_until(SimTime::from_secs(5)), 1);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert_eq!(sim.peek_time(), Some(SimTime::from_secs(10)));
        // Exactly at the deadline: the input and everything it ties with.
        assert_eq!(sim.run_until(SimTime::from_secs(10)), 3);
        assert_eq!(sim.peek_time(), None);
    }

    #[test]
    fn into_model_returns_state() {
        let mut sim = ticking(2);
        sim.run();
        let model = sim.into_model();
        assert_eq!(model.fired, vec![SimTime::ZERO, SimTime::from_secs(1)]);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn past_events_panic() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn handle(&mut self, _now: SimTime, _ev: (), s: &mut Scheduler<()>) {
                s.schedule(SimTime::ZERO, ());
            }
        }
        let mut sim = Simulation::new(Bad);
        sim.scheduler_mut().schedule(SimTime::from_secs(1), ());
        sim.run();
    }
}
