//! Channel state of the simulated platform.
//!
//! Three channel flavours exist at runtime:
//!
//! * **Self-edges** — actor state/concurrency bounds, kept as plain token
//!   counters (consumed at firing start, produced at completion).
//! * **Local channels** — both endpoints on one tile: a memory buffer with
//!   `tokens` available to the consumer and `space` available to the
//!   producer (paper §3's buffer-size restriction, operationally).
//! * **Cross-tile channels** — the full NI-to-NI path: a fragmentation
//!   queue of words awaiting serialization, the source buffer space
//!   (`alpha_src` tokens, freed as tokens finish serializing), the
//!   [`Connection`], the receive-side assembly
//!   state, and the destination buffer space (`alpha_dst` tokens tracked in
//!   word units, freed when the consumer fires).

use mamps_platform::types::TileId;

use crate::noc_sim::Connection;

/// A self-edge: plain token counter.
#[derive(Debug, Clone)]
pub struct SelfEdgeState {
    /// Tokens currently on the edge.
    pub tokens: u64,
    /// Tokens consumed per firing.
    pub cons: u64,
    /// Tokens produced per firing.
    pub prod: u64,
}

/// A channel whose endpoints share a tile.
#[derive(Debug, Clone)]
pub struct LocalChannelState {
    /// Tokens available to the consumer.
    pub tokens: u64,
    /// Free space available to the producer (capacity minus fill).
    pub space: u64,
    /// Tokens consumed per firing of the destination.
    pub cons: u64,
    /// Tokens produced per firing of the source.
    pub prod: u64,
}

/// A cross-tile channel: the operational Fig. 4 path.
#[derive(Debug, Clone)]
pub struct CrossChannelState {
    /// Words waiting to be serialized (tokens already produced, fragmented).
    pub send_words: u64,
    /// Source buffer space, in tokens (`alpha_src` pool).
    pub src_space: u64,
    /// Words serialized since the last source-space release.
    pub srel_progress: u64,
    /// The interconnect connection.
    pub conn: Connection,
    /// Words de-serialized toward the next token.
    pub asm_progress: u64,
    /// Assembled tokens available to the consumer.
    pub assembled: u64,
    /// Destination buffer space in words (`alpha_dst * n_words` pool).
    pub dst_word_space: u64,
    /// Words per token.
    pub n_words: u64,
    /// Sender per-word serialization cycles (setup amortized).
    pub ser_word: u64,
    /// Receiver per-word de-serialization cycles.
    pub des_word: u64,
    /// Tokens produced per firing of the source.
    pub prod: u64,
    /// Tokens consumed per firing of the destination.
    pub cons: u64,
    /// Sending tile.
    pub src_tile: TileId,
    /// Receiving tile.
    pub dst_tile: TileId,
}

impl CrossChannelState {
    /// Applies the arrival of one word at the receiving NI, as the lockstep
    /// engine sees it: the flow-control credit returns to the sender and
    /// the word becomes available to the de-serializer. The event kernel
    /// never delivers single words; its [`Connection`] bursts account for
    /// deliveries by time.
    pub(crate) fn deliver_word(&mut self) {
        self.conn.credits += 1;
        self.conn.delivered += 1;
    }
}

/// Runtime representation of one application channel.
#[derive(Debug, Clone)]
pub enum ChannelState {
    /// A self-edge.
    SelfEdge(SelfEdgeState),
    /// A same-tile channel.
    Local(LocalChannelState),
    /// A cross-tile channel.
    Cross(CrossChannelState),
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamps_platform::interconnect::CommParams;

    #[test]
    fn variants_construct() {
        let s = ChannelState::SelfEdge(SelfEdgeState {
            tokens: 1,
            cons: 1,
            prod: 1,
        });
        let l = ChannelState::Local(LocalChannelState {
            tokens: 0,
            space: 4,
            cons: 2,
            prod: 1,
        });
        let c = ChannelState::Cross(CrossChannelState {
            send_words: 0,
            src_space: 2,
            srel_progress: 0,
            conn: Connection::new(CommParams {
                w: 1,
                alpha_n: 16,
                latency: 1,
                cycles_per_word: 1,
            }),
            asm_progress: 0,
            assembled: 0,
            dst_word_space: 8,
            n_words: 4,
            ser_word: 5,
            des_word: 5,
            prod: 1,
            cons: 1,
            src_tile: TileId(0),
            dst_tile: TileId(1),
        });
        assert!(matches!(s, ChannelState::SelfEdge(_)));
        assert!(matches!(l, ChannelState::Local(_)));
        assert!(matches!(c, ChannelState::Cross(_)));
    }
}
