//! `sim::event` — the discrete-event execution kernel.
//!
//! The lockstep reference engine ([`crate::reference`]) rescans every
//! worker at every interesting instant and moves one word per operation:
//! `O(workers)` per instant, and three instants (send, delivery, receive)
//! per word. This kernel computes the same results with two changes:
//!
//! * **Sleeping workers.** The event queue holds only worker completions,
//!   one entry per busy worker keyed by `(completion time, worker index)`,
//!   so completions at one instant apply in worker order — the reference
//!   engine's order, which fixes the order of trace events. An idle worker
//!   holds no entry: it sleeps until a *wake*, a state change on a channel
//!   it watches or its own completion. Each channel's watchers are the at
//!   most four workers whose starts can depend on it: the producer's and
//!   consumer's firing workers and, for cross-tile channels, the
//!   serializing and de-serializing workers. Wakes are conservative (a
//!   spurious wake just fails to start again).
//! * **Word bursts.** One serialize or de-serialize operation moves every
//!   word the worker can take at its start, up to the next token boundary
//!   and, on a PE, the end of its schedule entry. The burst computes each
//!   word's start: a sent word waits for the previous word and for its
//!   credit, the delivery of the word `alpha_n` places before it; a
//!   received word waits for the previous word and for its own delivery. A
//!   send burst pushes its words' delivery times when it starts and wakes
//!   the channel's watchers, so deliveries are never queue events: each
//!   [`Connection`](crate::noc_sim::Connection) keeps the delivery times
//!   still ahead and counts the rest.
//!
//! A burst is exact because every pool a start consumes (tokens, space,
//! `send_words`, credits, delivered words, `dst_word_space`, `assembled`,
//! `src_space`) has exactly one consuming worker, so once a word's
//! resources are there nothing can take them away; and the pools other
//! workers wait on (`assembled`, `src_space`) change only when a token
//! completes, which is where a burst ends. The same argument makes the
//! order of starts at one instant irrelevant. Two outcomes of a
//! word-by-word run need explicit care: a run that ends mid-burst takes
//! back the busy cycles of the words starting at or after the final
//! instant, and a run whose queue empties reports the latest pushed
//! delivery as its last instant. Traced runs cap bursts at one word, so
//! every word is a trace event in the word-by-word order.
//!
//! Channel FIFOs themselves are passive state ([`crate::fifo`]): they
//! change only as an effect of worker starts and completions, so they never
//! appear in the queue — they are reached through the wake lists instead.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mamps_mapping::mapping::{Mapping, ScheduleEntry};
use mamps_sdf::graph::{ActorId, ChannelId};

use crate::fifo::ChannelState;
use crate::processor::{Op, Worker, WorkerKind};
use crate::system::SimState;
use crate::trace::{Measurement, SimError};

/// Runs `st` with the event-driven kernel.
pub(crate) fn run(
    st: &mut SimState<'_>,
    iterations: u64,
    max_cycles: u64,
) -> Result<Measurement, SimError> {
    EventKernel::new(st).run_inner(iterations, max_cycles)
}

struct EventKernel<'s, 'a> {
    st: &'s mut SimState<'a>,
    /// Worker completions, `Reverse((busy_until, worker))`: exactly one
    /// entry per busy worker, so no entry is ever stale.
    queue: BinaryHeap<Reverse<(u64, usize)>>,
    /// Per channel: the workers whose starts can depend on its state.
    watchers: Vec<Vec<usize>>,
    /// Wake flags and list of workers to re-try.
    woken: Vec<bool>,
    wake_list: Vec<usize>,
    /// Per worker: the start cycle of each word of its current burst.
    word_starts: Vec<Vec<u64>>,
    /// Words per burst at most: one while tracing, so that every word is a
    /// trace event.
    max_burst: u64,
}

impl<'s, 'a> EventKernel<'s, 'a> {
    fn new(st: &'s mut SimState<'a>) -> EventKernel<'s, 'a> {
        // Locate each actor's firing worker and each tile's PE so the
        // watcher sets can be assembled per channel.
        let mut pe_of_tile = vec![None; st.arch.tile_count()];
        let mut ip_of_actor = vec![None; st.graph.actor_count()];
        let mut engine_send = vec![None; st.channels.len()];
        let mut engine_recv = vec![None; st.channels.len()];
        for (w, worker) in st.workers.iter().enumerate() {
            match worker.kind {
                WorkerKind::Pe { tile } => pe_of_tile[tile] = Some(w),
                WorkerKind::Ip { actor } => ip_of_actor[actor.0] = Some(w),
                WorkerKind::EngineSend { channel } => engine_send[channel.0] = Some(w),
                WorkerKind::EngineRecv { channel } => engine_recv[channel.0] = Some(w),
            }
        }
        let fire_worker =
            |a: ActorId| ip_of_actor[a.0].or(pe_of_tile[st.mapping.binding.tile_of[a.0].0]);
        let mut watchers = Vec::with_capacity(st.channels.len());
        for (cid, ch) in st.graph.channels() {
            let mut ws = Vec::with_capacity(4);
            ws.extend(fire_worker(ch.src()));
            ws.extend(fire_worker(ch.dst()));
            if let ChannelState::Cross(c) = &st.channels[cid.0] {
                ws.extend(engine_send[cid.0].or(pe_of_tile[c.src_tile.0]));
                ws.extend(engine_recv[cid.0].or(pe_of_tile[c.dst_tile.0]));
            }
            ws.sort_unstable();
            ws.dedup();
            watchers.push(ws);
        }
        // Every worker starts woken: cycle 0 admission is tried for all.
        let n = st.workers.len();
        let max_burst = if st.trace.is_some() { 1 } else { u64::MAX };
        EventKernel {
            st,
            queue: BinaryHeap::new(),
            watchers,
            woken: vec![true; n],
            wake_list: (0..n).collect(),
            word_starts: vec![Vec::new(); n],
            max_burst,
        }
    }

    fn run_inner(&mut self, iterations: u64, max_cycles: u64) -> Result<Measurement, SimError> {
        while (self.st.iteration_times.len() as u64) < iterations {
            self.start_phase();
            // Advance to the next completion, or report the verdict.
            let Some(&Reverse((next, _))) = self.queue.peek() else {
                // Nothing is busy. Deliveries are not queue events, so the
                // last instant of the run is the latest pushed delivery
                // when that comes after the last completion.
                let last = self
                    .st
                    .channels
                    .iter()
                    .filter_map(|c| match c {
                        ChannelState::Cross(c) => Some(c.conn.last_delivery()),
                        _ => None,
                    })
                    .fold(self.st.now, u64::max);
                if last > max_cycles {
                    return Err(SimError::CycleLimit(max_cycles));
                }
                return Err(SimError::Deadlock(format!(
                    "no progress at cycle {last} after {} iterations",
                    self.st.iteration_times.len()
                )));
            };
            if next > max_cycles {
                return Err(SimError::CycleLimit(max_cycles));
            }
            self.st.now = next;
            // Apply every completion at `next`, in worker order.
            while let Some(&Reverse((t, w))) = self.queue.peek() {
                if t != next {
                    break;
                }
                self.queue.pop();
                self.complete(w);
            }
        }
        self.take_back_late_words();
        Ok(self.st.measurement())
    }

    /// Tries to start every woken worker. The order does not matter: each
    /// pool a start consumes has one consuming worker. A send burst wakes
    /// its receiver, which this same pass then tries (again).
    fn start_phase(&mut self) {
        let mut i = 0;
        while i < self.wake_list.len() {
            let w = self.wake_list[i];
            i += 1;
            self.woken[w] = false;
            if self.st.workers[w].is_idle() {
                self.try_start(w);
            }
        }
        self.wake_list.clear();
    }

    fn wake(&mut self, w: usize) {
        if !self.woken[w] {
            self.woken[w] = true;
            self.wake_list.push(w);
        }
    }

    fn wake_watchers(&mut self, cid: usize) {
        for i in 0..self.watchers[cid].len() {
            let w = self.watchers[cid][i];
            self.wake(w);
        }
    }

    /// Marks worker `w` busy with `op` from `start` to `end`, charges it
    /// `busy` cycles and queues its completion.
    fn begin(&mut self, w: usize, op: Op, start: u64, end: u64, busy: u64) {
        let worker = &mut self.st.workers[w];
        worker.op = Some(op);
        worker.op_started = start;
        worker.busy_until = end;
        worker.busy_cycles += busy;
        self.queue.push(Reverse((end, w)));
    }

    /// Attempts to start the next operation of worker `w` at `now`.
    fn try_start(&mut self, w: usize) {
        match self.st.workers[w].kind {
            WorkerKind::Pe { tile } => match self.st.mapping.schedules[tile][self.st.workers[w].pc]
            {
                ScheduleEntry::Fire { actor, .. } => self.try_fire(w, actor),
                ScheduleEntry::Send { channel, .. } => self.try_send(w, channel),
                ScheduleEntry::Receive { channel, .. } => self.try_receive(w, channel),
            },
            WorkerKind::EngineSend { channel } => self.try_send(w, channel),
            WorkerKind::EngineRecv { channel } => self.try_receive(w, channel),
            WorkerKind::Ip { actor } => self.try_fire(w, actor),
        }
    }

    /// Firing admission: checks and consumes start-time resources.
    fn try_fire(&mut self, w: usize, actor: ActorId) {
        // Check every endpoint first (no partial consumption).
        for &cid in self.st.graph.incoming(actor) {
            let ok = match &self.st.channels[cid.0] {
                ChannelState::SelfEdge(s) => s.tokens >= s.cons,
                ChannelState::Local(l) => l.tokens >= l.cons,
                ChannelState::Cross(c) => c.assembled >= c.cons,
            };
            if !ok {
                return;
            }
        }
        for &cid in self.st.graph.outgoing(actor) {
            let ok = match &self.st.channels[cid.0] {
                ChannelState::SelfEdge(_) => true, // checked as incoming
                ChannelState::Local(l) => l.space >= l.prod,
                ChannelState::Cross(c) => c.src_space >= c.prod,
            };
            if !ok {
                return;
            }
        }
        // Consume.
        for &cid in self.st.graph.incoming(actor) {
            match &mut self.st.channels[cid.0] {
                ChannelState::SelfEdge(s) => s.tokens -= s.cons,
                ChannelState::Local(l) => l.tokens -= l.cons,
                ChannelState::Cross(c) => c.assembled -= c.cons,
            }
        }
        for &cid in self.st.graph.outgoing(actor) {
            match &mut self.st.channels[cid.0] {
                ChannelState::SelfEdge(_) => {}
                ChannelState::Local(l) => l.space -= l.prod,
                ChannelState::Cross(c) => c.src_space -= c.prod,
            }
        }
        let duration =
            self.st.times.cycles(actor, self.st.firings[actor.0]) + self.st.fire_overhead[actor.0];
        let now = self.st.now;
        self.begin(w, Op::Fire { actor }, now, now + duration, duration);
    }

    /// Starts a send burst: the words produced so far, up to the next token
    /// boundary.
    fn try_send(&mut self, w: usize, channel: ChannelId) {
        let now = self.st.now;
        let ChannelState::Cross(c) = &mut self.st.channels[channel.0] else {
            return;
        };
        let words = words_left_in_entry(&self.st.workers[w], self.st.mapping, c.n_words)
            .min(self.max_burst)
            .min(c.send_words)
            .min(c.n_words - c.srel_progress);
        let starts = &mut self.word_starts[w];
        let Some(end) = c.conn.send_burst(now, words, c.ser_word, starts) else {
            return;
        };
        c.send_words -= words;
        let (first, busy) = (starts[0], words * c.ser_word);
        self.begin(w, Op::SendWord { channel }, first, end, busy);
        // The words are pushed: the receiver may take them now.
        self.wake_watchers(channel.0);
    }

    /// Starts a receive burst: the words pushed so far, up to the next
    /// token boundary and the free destination space.
    fn try_receive(&mut self, w: usize, channel: ChannelId) {
        let now = self.st.now;
        let ChannelState::Cross(c) = &mut self.st.channels[channel.0] else {
            return;
        };
        let limit = words_left_in_entry(&self.st.workers[w], self.st.mapping, c.n_words)
            .min(self.max_burst)
            .min(c.dst_word_space)
            .min(c.n_words - c.asm_progress);
        let starts = &mut self.word_starts[w];
        let Some(end) = c.conn.receive_burst(now, limit, c.des_word, starts) else {
            return;
        };
        let words = starts.len() as u64;
        c.dst_word_space -= words;
        let (first, busy) = (starts[0], words * c.des_word);
        self.begin(w, Op::RecvWord { channel }, first, end, busy);
    }

    /// Applies completion effects of worker `w` at `now`, waking the
    /// watchers of every channel whose pools grew (and `w` itself — its
    /// schedule position advanced, so its next entry may be admissible).
    fn complete(&mut self, w: usize) {
        let op = self.st.workers[w].op.take().expect("busy workers have ops");
        self.st.record_completion(w, op);
        let words = self.word_starts[w].len() as u64;
        self.word_starts[w].clear();
        let units = match op {
            Op::Fire { actor } => {
                for &cid in self.st.graph.outgoing(actor) {
                    match &mut self.st.channels[cid.0] {
                        ChannelState::SelfEdge(s) => s.tokens += s.prod,
                        ChannelState::Local(l) => l.tokens += l.prod,
                        ChannelState::Cross(c) => c.send_words += c.prod * c.n_words,
                    }
                }
                for &cid in self.st.graph.incoming(actor) {
                    match &mut self.st.channels[cid.0] {
                        ChannelState::SelfEdge(_) => {}
                        ChannelState::Local(l) => l.space += l.cons,
                        ChannelState::Cross(c) => c.dst_word_space += c.cons * c.n_words,
                    }
                }
                self.st.firings[actor.0] += 1;
                // An iteration completes when the slowest actor (relative to
                // its repetition count) crosses the next multiple.
                let completed = self
                    .st
                    .firings
                    .iter()
                    .zip(&self.st.q)
                    .map(|(&f, &q)| f / q)
                    .min()
                    .unwrap_or(0);
                while (self.st.iteration_times.len() as u64) < completed {
                    self.st.iteration_times.push(self.st.now);
                }
                let graph = self.st.graph;
                for &cid in graph.outgoing(actor) {
                    self.wake_watchers(cid.0);
                }
                for &cid in graph.incoming(actor) {
                    self.wake_watchers(cid.0);
                }
                1
            }
            Op::SendWord { channel } => {
                if let ChannelState::Cross(c) = &mut self.st.channels[channel.0] {
                    c.srel_progress += words;
                    if c.srel_progress == c.n_words {
                        c.srel_progress = 0;
                        c.src_space += 1;
                    }
                }
                self.wake_watchers(channel.0);
                words
            }
            Op::RecvWord { channel } => {
                if let ChannelState::Cross(c) = &mut self.st.channels[channel.0] {
                    c.asm_progress += words;
                    if c.asm_progress == c.n_words {
                        c.asm_progress = 0;
                        c.assembled += 1;
                    }
                }
                self.wake_watchers(channel.0);
                words
            }
        };
        self.wake(w);
        // Advance PE schedule position.
        if let WorkerKind::Pe { tile } = self.st.workers[w].kind {
            let round = &self.st.mapping.schedules[tile];
            let entry = round[self.st.workers[w].pc];
            let total_units = match entry {
                ScheduleEntry::Fire { reps, .. } => reps,
                ScheduleEntry::Send { channel, reps }
                | ScheduleEntry::Receive { channel, reps } => match &self.st.channels[channel.0] {
                    ChannelState::Cross(c) => reps * c.n_words,
                    _ => reps,
                },
            };
            let worker = &mut self.st.workers[w];
            worker.done_in_entry += units;
            if worker.done_in_entry >= total_units {
                worker.done_in_entry = 0;
                worker.pc = (worker.pc + 1) % round.len();
            }
        }
    }

    /// Takes back the busy cycles of burst words that start at or after the
    /// final instant: a word-by-word run stops before it starts them, and
    /// [`Measurement::worker_busy`] counts only the operations started
    /// before that instant.
    fn take_back_late_words(&mut self) {
        let now = self.st.now;
        for (worker, starts) in self.st.workers.iter_mut().zip(&self.word_starts) {
            // A burst ends one word's cycles after its last word starts.
            if let Some(&last) = starts.last() {
                let late = starts.iter().filter(|&&s| s >= now).count() as u64;
                worker.busy_cycles -= late * (worker.busy_until - last);
            }
        }
    }
}

/// The words `worker` may still move in its schedule entry, a send or
/// receive of `n_words`-word tokens: unbounded off a PE, and on a PE one at
/// least, as a word-by-word run moves a word before it checks the entry's
/// count.
fn words_left_in_entry(worker: &Worker, mapping: &Mapping, n_words: u64) -> u64 {
    match worker.kind {
        WorkerKind::Pe { tile } => {
            let reps = mapping.schedules[tile][worker.pc].reps();
            (reps * n_words).saturating_sub(worker.done_in_entry).max(1)
        }
        _ => u64::MAX,
    }
}
