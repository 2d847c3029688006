//! Workers: the active entities of the simulated platform.
//!
//! * A **PE worker** per tile walks the tile's static-order schedule round
//!   (the lookup-table scheduler of paper §6.3), blocking on tokens, buffer
//!   space and connection credits exactly like the generated wrapper code.
//! * **CA workers** (on communication-assist tiles) and **NI workers** (on
//!   hardware-IP tiles) run the word loops of one channel endpoint
//!   autonomously, concurrently with the PE.
//! * An **IP worker** fires a hardware actor whenever it is ready (no
//!   schedule — the actor is its own tile).

use mamps_sdf::graph::{ActorId, ChannelId};

/// What a busy worker is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Executing one firing of an actor.
    Fire {
        /// The actor being fired.
        actor: ActorId,
    },
    /// Serializing words of a channel into the interconnect: one word in
    /// the lockstep engine and in traced runs, a burst of words up to the
    /// next token boundary in untraced event-kernel runs.
    SendWord {
        /// The channel being served.
        channel: ChannelId,
    },
    /// De-serializing words of a channel from the interconnect (one word or
    /// a burst, as for [`Op::SendWord`]).
    RecvWord {
        /// The channel being served.
        channel: ChannelId,
    },
}

/// The flavour of a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerKind {
    /// The processing element of a tile, executing its schedule.
    Pe {
        /// Tile index.
        tile: usize,
    },
    /// A CA/NI engine serializing one channel's tokens.
    EngineSend {
        /// The channel served.
        channel: ChannelId,
    },
    /// A CA/NI engine de-serializing one channel's tokens.
    EngineRecv {
        /// The channel served.
        channel: ChannelId,
    },
    /// A hardware-IP actor firing autonomously.
    Ip {
        /// The actor.
        actor: ActorId,
    },
}

/// Runtime state of one worker.
#[derive(Debug, Clone)]
pub struct Worker {
    /// The worker flavour.
    pub kind: WorkerKind,
    /// Current operation, when busy.
    pub op: Option<Op>,
    /// Start time of the current operation (of its first word, for a
    /// burst).
    pub op_started: u64,
    /// Completion time of the current operation.
    pub busy_until: u64,
    /// Schedule position (PE workers only): index into the round.
    pub pc: usize,
    /// Units (firings or words) completed within the current entry.
    pub done_in_entry: u64,
    /// Total busy cycles (utilization accounting).
    pub busy_cycles: u64,
}

impl Worker {
    /// Creates an idle worker.
    pub fn new(kind: WorkerKind) -> Worker {
        Worker {
            kind,
            op: None,
            op_started: 0,
            busy_until: 0,
            pc: 0,
            done_in_entry: 0,
            busy_cycles: 0,
        }
    }

    /// True when the worker can accept a new operation.
    pub fn is_idle(&self) -> bool {
        self.op.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_start_idle() {
        let w = Worker::new(WorkerKind::Pe { tile: 0 });
        assert!(w.is_idle());
        assert_eq!(w.pc, 0);
        assert_eq!(w.busy_cycles, 0);
    }

    #[test]
    fn op_equality() {
        assert_eq!(
            Op::Fire { actor: ActorId(1) },
            Op::Fire { actor: ActorId(1) }
        );
        assert_ne!(
            Op::SendWord {
                channel: ChannelId(0)
            },
            Op::RecvWord {
                channel: ChannelId(0)
            }
        );
    }
}
