//! Synchronous dataflow (SDF) graph representation.
//!
//! An SDF graph (Lee & Messerschmitt, 1987) consists of *actors* connected by
//! *channels*. Every channel endpoint carries a constant *rate*: the number of
//! tokens produced or consumed per firing of the connected actor. Channels may
//! hold *initial tokens*. This is exactly the model of Section 3 of the paper;
//! the example of Fig. 2 is reproduced in the tests of this module.

use std::collections::HashSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::SdfError;

/// Index of an actor within its [`SdfGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ActorId(pub usize);

/// Index of a channel within its [`SdfGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ChannelId(pub usize);

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// An SDF actor: a named computation with a worst-case execution time.
///
/// The execution time is expressed in platform clock cycles, the base time
/// unit of the design flow (paper §5). The value used by the analysis is the
/// WCET of the chosen implementation; the simulator may substitute measured
/// per-firing times.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Actor {
    name: String,
    execution_time: u64,
}

impl Actor {
    /// Creates an actor with the given name and execution time (cycles).
    pub fn new(name: impl Into<String>, execution_time: u64) -> Actor {
        Actor {
            name: name.into(),
            execution_time,
        }
    }

    /// The actor's name (unique within its graph).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Worst-case execution time in clock cycles.
    pub fn execution_time(&self) -> u64 {
        self.execution_time
    }

    /// Updates the execution time (used when a mapping selects a different
    /// implementation of the actor).
    pub fn set_execution_time(&mut self, cycles: u64) {
        self.execution_time = cycles;
    }
}

/// A directed SDF channel between two actor ports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Channel {
    name: String,
    src: ActorId,
    dst: ActorId,
    /// Tokens produced per firing of `src`.
    production_rate: u64,
    /// Tokens consumed per firing of `dst`.
    consumption_rate: u64,
    /// Tokens present on the channel in the initial state.
    initial_tokens: u64,
    /// Size of one token in bytes (used by the communication model to
    /// fragment tokens into 32-bit words; paper §4.2).
    token_size: u64,
}

impl Channel {
    /// The channel's name (unique within its graph).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Source (producing) actor.
    pub fn src(&self) -> ActorId {
        self.src
    }

    /// Destination (consuming) actor.
    pub fn dst(&self) -> ActorId {
        self.dst
    }

    /// Tokens produced per firing of the source actor.
    pub fn production_rate(&self) -> u64 {
        self.production_rate
    }

    /// Tokens consumed per firing of the destination actor.
    pub fn consumption_rate(&self) -> u64 {
        self.consumption_rate
    }

    /// Number of initial tokens.
    pub fn initial_tokens(&self) -> u64 {
        self.initial_tokens
    }

    /// Token size in bytes.
    pub fn token_size(&self) -> u64 {
        self.token_size
    }

    /// True if source and destination are the same actor.
    pub fn is_self_edge(&self) -> bool {
        self.src == self.dst
    }
}

/// A synchronous dataflow graph.
///
/// Graphs are immutable-by-convention after construction through
/// [`SdfGraphBuilder`]; analysis passes treat them as read-only, while
/// transformation passes (see [`crate::transform`]) build new graphs.
///
/// # Examples
///
/// The graph of paper Fig. 2:
///
/// ```
/// use mamps_sdf::graph::SdfGraphBuilder;
///
/// let mut b = SdfGraphBuilder::new("fig2");
/// let a = b.add_actor("A", 10);
/// let bb = b.add_actor("B", 5);
/// let c = b.add_actor("C", 7);
/// b.add_channel("a2b", a, 2, bb, 1);
/// b.add_channel("a2c", a, 1, c, 1);
/// b.add_channel("b2c", bb, 1, c, 2);
/// b.add_channel_with_tokens("selfA", a, 1, a, 1, 1);
/// let g = b.build().unwrap();
/// assert_eq!(g.actor_count(), 3);
/// assert_eq!(g.channel_count(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SdfGraph {
    name: String,
    actors: Vec<Actor>,
    channels: Vec<Channel>,
    /// Channel ids leaving each actor, in id order.
    #[serde(skip)]
    outgoing: Adjacency,
    /// Channel ids entering each actor, in id order.
    #[serde(skip)]
    incoming: Adjacency,
}

/// The channels at one end of every actor, flattened: actor `a`'s list is
/// `channels[offsets[a]..offsets[a + 1]]`. Two allocations per graph and
/// direction, not one per actor: the Fig. 4 expansion builds a graph for
/// every analysis probe.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Adjacency {
    offsets: Vec<usize>,
    channels: Vec<ChannelId>,
}

impl Adjacency {
    /// Groups channel ids by the actor `end` gives for each channel, a
    /// counting sort that keeps each group in channel-id order.
    fn new(actors: usize, channels: &[Channel], end: impl Fn(&Channel) -> ActorId) -> Adjacency {
        // After the prefix sum, `offsets[a + 1]` is where actor `a`'s list
        // starts. The fill advances it to where the list ends, which is
        // what `offsets[a + 1]` holds in the result; the last slot only
        // counted and is dropped.
        let mut offsets = vec![0; actors + 2];
        for c in channels {
            offsets[end(c).0 + 2] += 1;
        }
        for a in 2..offsets.len() {
            offsets[a] += offsets[a - 1];
        }
        let mut ids = vec![ChannelId(0); channels.len()];
        for (i, c) in channels.iter().enumerate() {
            let cursor = &mut offsets[end(c).0 + 1];
            ids[*cursor] = ChannelId(i);
            *cursor += 1;
        }
        offsets.pop();
        Adjacency {
            offsets,
            channels: ids,
        }
    }

    fn of(&self, actor: ActorId) -> &[ChannelId] {
        &self.channels[self.offsets[actor.0]..self.offsets[actor.0 + 1]]
    }
}

impl SdfGraph {
    /// The graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of actors.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Access an actor by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn actor(&self, id: ActorId) -> &Actor {
        &self.actors[id.0]
    }

    /// Access a channel by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.0]
    }

    /// Iterate over `(id, actor)` pairs.
    pub fn actors(&self) -> impl Iterator<Item = (ActorId, &Actor)> {
        self.actors.iter().enumerate().map(|(i, a)| (ActorId(i), a))
    }

    /// Iterate over `(id, channel)` pairs.
    pub fn channels(&self) -> impl Iterator<Item = (ChannelId, &Channel)> {
        self.channels
            .iter()
            .enumerate()
            .map(|(i, c)| (ChannelId(i), c))
    }

    /// Ids of channels leaving `actor` (including self-edges), in id order.
    pub fn outgoing(&self, actor: ActorId) -> &[ChannelId] {
        self.outgoing.of(actor)
    }

    /// Ids of channels entering `actor` (including self-edges), in id
    /// order.
    pub fn incoming(&self, actor: ActorId) -> &[ChannelId] {
        self.incoming.of(actor)
    }

    /// Looks up an actor by name.
    pub fn actor_by_name(&self, name: &str) -> Option<ActorId> {
        self.actors.iter().position(|a| a.name == name).map(ActorId)
    }

    /// Looks up a channel by name.
    pub fn channel_by_name(&self, name: &str) -> Option<ChannelId> {
        self.channels
            .iter()
            .position(|c| c.name == name)
            .map(ChannelId)
    }

    /// Rebuilds the adjacency caches from the channels.
    pub fn rebuild_adjacency(&mut self) {
        let n = self.actors.len();
        self.outgoing = Adjacency::new(n, &self.channels, Channel::src);
        self.incoming = Adjacency::new(n, &self.channels, Channel::dst);
    }

    /// Returns a mutable reference to an actor (execution-time updates only).
    pub fn actor_mut(&mut self, id: ActorId) -> &mut Actor {
        &mut self.actors[id.0]
    }

    /// True if the graph, viewed as undirected, is connected.
    ///
    /// A disconnected graph has no meaningful single repetition vector
    /// normalization, so most analyses require connectedness.
    pub fn is_connected(&self) -> bool {
        if self.actors.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.actors.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(v) = stack.pop() {
            for &c in self.outgoing(ActorId(v)) {
                let w = self.channels[c.0].dst.0;
                if !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
            for &c in self.incoming(ActorId(v)) {
                let w = self.channels[c.0].src.0;
                if !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }
}

/// A graph deserializes through [`SdfGraphBuilder::build`]: it gets the
/// checks of a built graph and the adjacency lists its serialized form
/// skips.
impl<'de> Deserialize<'de> for SdfGraph {
    fn from_value(value: &serde::Value) -> Result<SdfGraph, serde::Error> {
        SdfGraphBuilder::from_value(value)?
            .build()
            .map_err(|e| serde::Error::custom(e.to_string()))
    }
}

/// Builder for [`SdfGraph`].
///
/// Checks name uniqueness, endpoint validity and non-zero rates at
/// [`build`](SdfGraphBuilder::build) time.
#[derive(Debug, Clone, Default, Deserialize)]
pub struct SdfGraphBuilder {
    // Crate-visible so builder-level transforms
    // ([`crate::transform::add_static_orders`]) can read the actor count
    // and extend the name of a graph under construction.
    pub(crate) name: String,
    pub(crate) actors: Vec<Actor>,
    channels: Vec<Channel>,
}

impl SdfGraphBuilder {
    /// Starts a new graph with the given name.
    pub fn new(name: impl Into<String>) -> SdfGraphBuilder {
        SdfGraphBuilder {
            name: name.into(),
            actors: Vec::new(),
            channels: Vec::new(),
        }
    }

    /// Reserves room for `actors` more actors and `channels` more channels.
    pub fn reserve(&mut self, actors: usize, channels: usize) {
        self.actors.reserve(actors);
        self.channels.reserve(channels);
    }

    /// Adds an actor, returning its id.
    pub fn add_actor(&mut self, name: impl Into<String>, execution_time: u64) -> ActorId {
        self.actors.push(Actor::new(name, execution_time));
        ActorId(self.actors.len() - 1)
    }

    /// Adds a channel with no initial tokens and the default token size
    /// (4 bytes — one 32-bit word, the network-interface word size).
    pub fn add_channel(
        &mut self,
        name: impl Into<String>,
        src: ActorId,
        production_rate: u64,
        dst: ActorId,
        consumption_rate: u64,
    ) -> ChannelId {
        self.add_channel_full(name, src, production_rate, dst, consumption_rate, 0, 4)
    }

    /// Adds a channel with initial tokens and the default token size.
    pub fn add_channel_with_tokens(
        &mut self,
        name: impl Into<String>,
        src: ActorId,
        production_rate: u64,
        dst: ActorId,
        consumption_rate: u64,
        initial_tokens: u64,
    ) -> ChannelId {
        self.add_channel_full(
            name,
            src,
            production_rate,
            dst,
            consumption_rate,
            initial_tokens,
            4,
        )
    }

    /// Adds a channel specifying every attribute.
    #[allow(clippy::too_many_arguments)]
    pub fn add_channel_full(
        &mut self,
        name: impl Into<String>,
        src: ActorId,
        production_rate: u64,
        dst: ActorId,
        consumption_rate: u64,
        initial_tokens: u64,
        token_size: u64,
    ) -> ChannelId {
        self.channels.push(Channel {
            name: name.into(),
            src,
            dst,
            production_rate,
            consumption_rate,
            initial_tokens,
            token_size,
        });
        ChannelId(self.channels.len() - 1)
    }

    /// Validates and finalizes the graph.
    ///
    /// # Errors
    ///
    /// Returns [`SdfError::InvalidGraph`] if actor or channel names collide,
    /// a rate is zero, a token size is zero, or a channel endpoint is out of
    /// range.
    pub fn build(self) -> Result<SdfGraph, SdfError> {
        // Presized: the Fig. 4 expansion builds a graph per analysis probe,
        // and growing these sets cost about a third of this function there.
        let mut names = HashSet::with_capacity(self.actors.len());
        for a in &self.actors {
            if !names.insert(a.name.as_str()) {
                return Err(SdfError::InvalidGraph(format!(
                    "duplicate actor name `{}`",
                    a.name
                )));
            }
        }
        let mut cnames = HashSet::with_capacity(self.channels.len());
        for c in &self.channels {
            if !cnames.insert(c.name.as_str()) {
                return Err(SdfError::InvalidGraph(format!(
                    "duplicate channel name `{}`",
                    c.name
                )));
            }
            if c.src.0 >= self.actors.len() || c.dst.0 >= self.actors.len() {
                return Err(SdfError::InvalidGraph(format!(
                    "channel `{}` references a non-existent actor",
                    c.name
                )));
            }
            if c.production_rate == 0 || c.consumption_rate == 0 {
                return Err(SdfError::InvalidGraph(format!(
                    "channel `{}` has a zero rate; SDF rates must be positive",
                    c.name
                )));
            }
            if c.token_size == 0 {
                return Err(SdfError::InvalidGraph(format!(
                    "channel `{}` has zero token size",
                    c.name
                )));
            }
        }
        let mut g = SdfGraph {
            name: self.name,
            actors: self.actors,
            channels: self.channels,
            outgoing: Adjacency::default(),
            incoming: Adjacency::default(),
        };
        g.rebuild_adjacency();
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the example graph of paper Fig. 2 (actors A, B, C; A has a
    /// stateful self-edge carrying one initial token).
    pub(crate) fn fig2_graph() -> SdfGraph {
        let mut b = SdfGraphBuilder::new("fig2");
        let a = b.add_actor("A", 10);
        let bb = b.add_actor("B", 5);
        let c = b.add_actor("C", 7);
        b.add_channel("a2b", a, 2, bb, 1);
        b.add_channel("a2c", a, 1, c, 1);
        b.add_channel("b2c", bb, 1, c, 2);
        b.add_channel_with_tokens("selfA", a, 1, a, 1, 1);
        b.build().unwrap()
    }

    #[test]
    fn build_fig2() {
        let g = fig2_graph();
        assert_eq!(g.actor_count(), 3);
        assert_eq!(g.channel_count(), 4);
        let a = g.actor_by_name("A").unwrap();
        assert_eq!(g.outgoing(a).len(), 3); // a2b, a2c, selfA
        assert_eq!(g.incoming(a).len(), 1); // selfA
        let self_a = g.channel_by_name("selfA").unwrap();
        assert!(g.channel(self_a).is_self_edge());
        assert_eq!(g.channel(self_a).initial_tokens(), 1);
    }

    #[test]
    fn connectedness() {
        let g = fig2_graph();
        assert!(g.is_connected());

        let mut b = SdfGraphBuilder::new("disc");
        b.add_actor("X", 1);
        b.add_actor("Y", 1);
        let g = b.build().unwrap();
        assert!(!g.is_connected());

        let empty = SdfGraphBuilder::new("empty").build().unwrap();
        assert!(empty.is_connected());
    }

    #[test]
    fn duplicate_actor_name_rejected() {
        let mut b = SdfGraphBuilder::new("dup");
        b.add_actor("A", 1);
        b.add_actor("A", 2);
        assert!(b.build().is_err());
    }

    #[test]
    fn duplicate_channel_name_rejected() {
        let mut b = SdfGraphBuilder::new("dup");
        let a = b.add_actor("A", 1);
        let c = b.add_actor("B", 1);
        b.add_channel("e", a, 1, c, 1);
        b.add_channel("e", a, 1, c, 1);
        assert!(b.build().is_err());
    }

    #[test]
    fn zero_rate_rejected() {
        let mut b = SdfGraphBuilder::new("zr");
        let a = b.add_actor("A", 1);
        let c = b.add_actor("B", 1);
        b.add_channel("e", a, 0, c, 1);
        assert!(b.build().is_err());
    }

    #[test]
    fn zero_token_size_rejected() {
        let mut b = SdfGraphBuilder::new("zt");
        let a = b.add_actor("A", 1);
        let c = b.add_actor("B", 1);
        b.add_channel_full("e", a, 1, c, 1, 0, 0);
        assert!(b.build().is_err());
    }

    #[test]
    fn lookup_by_name() {
        let g = fig2_graph();
        assert!(g.actor_by_name("B").is_some());
        assert!(g.actor_by_name("nope").is_none());
        assert!(g.channel_by_name("b2c").is_some());
        assert!(g.channel_by_name("nope").is_none());
    }

    #[test]
    fn rebuild_adjacency_is_idempotent() {
        // Fig. 2, and a graph whose channels alternate between actors.
        let mut b = SdfGraphBuilder::new("interleaved");
        let (x, y, z) = (
            b.add_actor("X", 1),
            b.add_actor("Y", 1),
            b.add_actor("Z", 1),
        );
        let ends = [(z, x), (x, y), (y, z), (x, x), (z, y), (x, z), (y, x)];
        for (i, (src, dst)) in ends.into_iter().enumerate() {
            b.add_channel(format!("e{i}"), src, 1, dst, 1);
        }
        for g in [fig2_graph(), b.build().unwrap()] {
            let mut g2 = g.clone();
            g2.rebuild_adjacency();
            assert_eq!(g2.outgoing(ActorId(0)), g.outgoing(ActorId(0)));
            assert_eq!(g2.incoming(ActorId(2)), g.incoming(ActorId(2)));
            // Every actor lists the channels at each of its ends in id
            // order.
            for (a, _) in g.actors() {
                let at = |end: fn(&Channel) -> ActorId| -> Vec<ChannelId> {
                    let ids = g.channels().filter(|(_, c)| end(c) == a);
                    ids.map(|(id, _)| id).collect()
                };
                assert_eq!(g.outgoing(a), at(Channel::src), "{} {a}", g.name());
                assert_eq!(g.incoming(a), at(Channel::dst), "{} {a}", g.name());
            }
        }
    }
}
