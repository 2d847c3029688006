//! Connection state: the word path from sending NI to receiving NI.
//!
//! Mirrors the latency-rate model of Fig. 4 operationally: a word pushed at
//! time `t` occupies one of `w` pipeline slots of the latency stage for
//! `latency` cycles, then passes the serial rate stage (`cycles_per_word`
//! each, FIFO order), and is *delivered*: it enters the receiving NI queue
//! and its in-connection credit returns to the sender. Both FSL links and
//! SDM NoC connections use this shape, with parameters from
//! `CommParams`.

use std::collections::VecDeque;

use mamps_platform::interconnect::CommParams;

/// One programmed connection of the interconnect.
#[derive(Debug, Clone)]
pub struct Connection {
    /// Remaining in-connection credits (initially `alpha_n` words). Kept
    /// by the lockstep engine; the event kernel derives them from the
    /// words still in flight.
    pub credits: u64,
    /// Words delivered to the receiving NI, not yet de-serialized.
    pub delivered: u64,
    /// Event kernel: delivery times of pushed words not yet folded into
    /// `delivered`, oldest first.
    ahead: VecDeque<u64>,
    /// Event kernel: words at the front of `ahead` that a receive burst
    /// already took.
    taken_ahead: usize,
    /// Latency-stage completion times of the last `w` words (FIFO); word
    /// `k` can enter the stage only after word `k - w` left it.
    lat_done_history: VecDeque<u64>,
    /// Completion time of the last word through the rate stage.
    last_rate_done: u64,
    params: CommParams,
}

impl Connection {
    /// Creates an idle connection with full credits.
    pub fn new(params: CommParams) -> Connection {
        Connection {
            credits: params.alpha_n,
            delivered: 0,
            ahead: VecDeque::new(),
            taken_ahead: 0,
            lat_done_history: VecDeque::new(),
            last_rate_done: 0,
            params,
        }
    }

    /// The connection parameters.
    pub fn params(&self) -> &CommParams {
        &self.params
    }

    /// Pushes one word at `now` (the sender's serialization just finished)
    /// and returns its *delivery time*: when it reaches the receiving NI and
    /// the credit returns.
    ///
    /// The caller must have acquired a credit beforehand (at serialization
    /// start).
    ///
    /// Delivery times of one connection are non-decreasing across calls
    /// (the serial rate stage is FIFO), so the words in flight form a plain
    /// queue ordered by delivery.
    pub fn push_word(&mut self, now: u64) -> u64 {
        let w = self.params.w.max(1) as usize;
        // Latency stage: word k starts once word k-w has left the stage.
        let start = if self.lat_done_history.len() < w {
            now
        } else {
            let gate = self.lat_done_history.pop_front().expect("len checked");
            now.max(gate)
        };
        let lat_done = start + self.params.latency;
        self.lat_done_history.push_back(lat_done);
        // Rate stage: serial, FIFO.
        let rate_start = lat_done.max(self.last_rate_done);
        let rate_done = rate_start + self.params.cycles_per_word;
        debug_assert!(
            rate_done >= self.last_rate_done,
            "per-connection delivery times must be monotone"
        );
        self.last_rate_done = rate_done;
        rate_done
    }

    /// The delivery time of the last word pushed (0 before the first).
    pub(crate) fn last_delivery(&self) -> u64 {
        self.last_rate_done
    }

    /// Folds the deliveries due by `now` into `delivered`; words a receive
    /// burst already took are just dropped.
    fn fold_deliveries(&mut self, now: u64) {
        while self.ahead.front().is_some_and(|&d| d <= now) {
            self.ahead.pop_front();
            if self.taken_ahead > 0 {
                self.taken_ahead -= 1;
            } else {
                self.delivered += 1;
            }
        }
    }

    /// Serializes `words` words as one burst of the event kernel, the first
    /// no earlier than `now`, each taking `cycles`. A word starts once the
    /// previous one ended and its credit returned: the delivery of the
    /// word `alpha_n` places before it. Pushes every word at its end,
    /// appends each start to `starts` and returns the burst's end, or
    /// `None` when nothing can be sent (no words, or no credits at all).
    pub(crate) fn send_burst(
        &mut self,
        now: u64,
        words: u64,
        cycles: u64,
        starts: &mut Vec<u64>,
    ) -> Option<u64> {
        if words == 0 || self.params.alpha_n == 0 {
            return None;
        }
        self.fold_deliveries(now);
        // Every word left in `ahead` is in flight and holds a credit.
        let free = (self.params.alpha_n as usize)
            .checked_sub(self.ahead.len())
            .expect("at most alpha_n words are in flight");
        let mut t = now;
        for j in 0..words as usize {
            if j >= free {
                t = t.max(self.ahead[j - free]);
            }
            starts.push(t);
            t += cycles;
            let delivery = self.push_word(t);
            self.ahead.push_back(delivery);
        }
        Some(t)
    }

    /// De-serializes up to `limit` pushed words as one burst of the event
    /// kernel, the first no earlier than `now`, each taking `cycles`. A
    /// word starts once the previous one ended and it was delivered. Takes
    /// the words, appends each start to `starts` and returns the burst's
    /// end, or `None` when no word is pushed or `limit` is 0.
    pub(crate) fn receive_burst(
        &mut self,
        now: u64,
        limit: u64,
        cycles: u64,
        starts: &mut Vec<u64>,
    ) -> Option<u64> {
        self.fold_deliveries(now);
        let pushed = self.delivered + (self.ahead.len() - self.taken_ahead) as u64;
        let words = limit.min(pushed);
        if words == 0 {
            return None;
        }
        let ready = self.delivered.min(words);
        let mut t = now;
        for j in 0..words {
            if j >= ready {
                t = t.max(self.ahead[self.taken_ahead + (j - ready) as usize]);
            }
            starts.push(t);
            t += cycles;
        }
        self.delivered -= ready;
        self.taken_ahead += (words - ready) as usize;
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(w: u64, latency: u64, cpw: u64, alpha_n: u64) -> CommParams {
        CommParams {
            w,
            alpha_n,
            latency,
            cycles_per_word: cpw,
        }
    }

    #[test]
    fn single_word_latency_plus_rate() {
        let mut c = Connection::new(params(1, 3, 2, 16));
        assert_eq!(c.push_word(10), 15); // 10 + 3 + 2
    }

    #[test]
    fn rate_stage_serializes() {
        let mut c = Connection::new(params(4, 0, 5, 16));
        assert_eq!(c.push_word(0), 5);
        assert_eq!(c.push_word(0), 10);
        assert_eq!(c.push_word(0), 15);
    }

    #[test]
    fn latency_pipelines_up_to_w() {
        let mut c = Connection::new(params(2, 10, 1, 16));
        // Two words overlap in the latency stage.
        assert_eq!(c.push_word(0), 11);
        assert_eq!(c.push_word(0), 12);
        // The third waits for a slot (earliest frees at 10).
        let t3 = c.push_word(0);
        assert!(t3 >= 20, "third word must wait for a latency slot: {t3}");
    }

    #[test]
    fn fsl_like_back_to_back() {
        // FSL: w=1, latency 1, 1 cycle/word => sustained 1 word/cycle after
        // the pipeline fills... with w=1 the latency stage serializes.
        let mut c = Connection::new(params(1, 1, 1, 16));
        let d1 = c.push_word(0);
        let d2 = c.push_word(0);
        assert_eq!(d1, 2);
        assert!(d2 >= 3);
    }

    #[test]
    fn credits_are_caller_managed() {
        let c = Connection::new(params(1, 1, 1, 7));
        assert_eq!(c.credits, 7);
        assert_eq!(c.delivered, 0);
    }
}
