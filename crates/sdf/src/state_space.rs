//! Worst-case throughput analysis via self-timed state-space execution.
//!
//! This is the SDF3 throughput algorithm (Ghamarian et al., *Throughput
//! Analysis of Synchronous Data Flow Graphs*, ACSD 2006) used by the paper:
//! execute the timed graph self-timed (every actor fires as soon as it is
//! ready), record the state after each time step, and detect the periodic
//! phase as the first recurrent state. The *throughput* is the long-term
//! average number of graph iterations per time unit (paper §5), where the
//! time unit is the platform clock cycle.
//!
//! With unbounded channels, only strongly connected components (SCCs) have a
//! finite state space: channel fill on cross-SCC edges grows without bound
//! when the producer is faster. The analysis therefore decomposes the graph
//! into SCCs, analyses each in isolation (external inputs are then always
//! available), and takes the minimum rate — the classic decomposition for
//! self-timed execution with unbounded buffers. Graphs whose channels all
//! have finite capacities (modelled as reverse channels, see
//! [`crate::transform`]) are strongly connected by construction, so the
//! decomposition is exact for the bound graphs produced by the mapping flow.
//!
//! Auto-concurrency (multiple simultaneous firings of one actor) is disabled
//! by default, matching both SDF3's default and the MAMPS implementation in
//! which each actor is a single task on a single processor.
//!
//! # Kernel design
//!
//! The exploration is the innermost loop of the whole design flow (buffer
//! sizing, mapping and DSE all bottom out here), so the kernel is written to
//! be allocation-free per time instant:
//!
//! * The SCC-induced subgraph is flattened into a `KernelGraph`: CSR-style
//!   incoming and outgoing adjacency with the per-channel
//!   consumption/production rate stored inline next to the channel index,
//!   so the ready check touches one contiguous slice per actor.
//! * Instead of rescanning every actor after every firing (O(actors ×
//!   channels) per instant), a *ready worklist* revisits only actors whose
//!   input channels gained tokens or whose processor became free. Because
//!   self-timed firing is monotonic (producing tokens never disables another
//!   firing), the worklist exactly reaches the maximal firing set of each
//!   instant, and because that set is unique (confluence of dataflow
//!   firing), the explored states — and therefore throughput, transient and
//!   period — are bit-identical to the naive rescan in `reference`.
//! * State snapshots are encoded into a reused scratch buffer (`Vec<u64>`:
//!   channel fills followed by the sorted `(actor, remaining-time)` pairs of
//!   ongoing firings) and interned in a `StateTable`: the keys lie
//!   back-to-back in one arena, chained per 64-bit hash, and compared word
//!   for word along the chain. A revisited state allocates nothing, and a
//!   new one appends to the arena, which grows by doubling. The hash is
//!   FxHash in four interleaved lanes, so the multiplies of consecutive
//!   words overlap instead of waiting on each other; since the table
//!   compares whole keys, the hash decides only where a key is looked up,
//!   never which states are explored.
//! * All scratch buffers live in a `Scratch` value that one analysis
//!   reuses across its SCC runs.
//!
//! Before the kernel, [`throughput`] checks that the whole graph can
//! complete an iteration without recording a firing order: each step
//! fires a ready actor as often as its inputs allow, which the helper
//! actors of a Fig. 4 expansion need, as they fire once per word. Most
//! probes of the genetic binder end there, with a deadlock.
//!
//! The pre-optimization implementation is retained verbatim in
//! `reference` as the oracle for property tests and the before/after
//! kernel benchmark (`cargo bench -p mamps_bench --bench state_space`).
//! It is built only with `cfg(test)` or the `testkit` feature.

use std::collections::{BinaryHeap, HashMap};

use crate::error::SdfError;
use crate::graph::{ActorId, SdfGraph};
use crate::liveness::iteration_completes;
use crate::ratio::{gcd, Ratio};
use crate::repetition::repetition_vector;

/// Options controlling the state-space exploration.
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// Allow multiple concurrent firings of the same actor. Off by default
    /// (each actor is one task on one processor). When enabled, actors whose
    /// concurrency is not bounded by any cycle have unconstrained rate.
    pub auto_concurrency: bool,
    /// Safety cap on distinct explored states per SCC before giving up.
    pub max_states: usize,
    /// Safety cap on firings started within a single time instant; exceeding
    /// it indicates a zero-delay cycle.
    pub max_firings_per_instant: usize,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            auto_concurrency: false,
            max_states: 1_000_000,
            max_firings_per_instant: 1_000_000,
        }
    }
}

/// Outcome of a throughput analysis.
///
/// Serializable so the global analysis cache ([`crate::cache`]) can persist
/// memoized results across processes.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ThroughputResult {
    /// Long-term average iterations per clock cycle, exact.
    pub iterations_per_cycle: Ratio,
    /// Transient prefix of the bottleneck component, in cycles.
    pub transient_cycles: u64,
    /// Period of the bottleneck component, in cycles.
    pub period_cycles: u64,
    /// Local iterations completed per period in the bottleneck component.
    pub iterations_per_period: u64,
    /// Total distinct states explored (summed over components).
    pub states_explored: usize,
}

impl ThroughputResult {
    /// Throughput as a floating-point value (iterations per cycle).
    pub fn as_f64(&self) -> f64 {
        self.iterations_per_cycle.to_f64()
    }

    /// Cycle count per iteration (the reciprocal), as `f64`; `inf` when the
    /// throughput is zero.
    pub fn cycles_per_iteration(&self) -> f64 {
        if self.iterations_per_cycle.is_zero() {
            f64::INFINITY
        } else {
            self.iterations_per_cycle.recip().to_f64()
        }
    }
}

/// Computes the self-timed worst-case throughput of `graph` in graph
/// iterations per clock cycle.
///
/// # Errors
///
/// * Consistency errors from [`repetition_vector`].
/// * [`SdfError::Deadlock`] if the graph cannot complete an iteration.
/// * [`SdfError::AnalysisLimit`] on zero-delay cycles, state explosion, or
///   when no component bounds the rate (all actors have zero execution
///   time), in which case the throughput is unbounded.
/// * [`SdfError::Overflow`] when the cycles one iteration spends in an
///   actor without a self-edge do not fit `u64`.
///
/// # Examples
///
/// ```
/// use mamps_sdf::graph::SdfGraphBuilder;
/// use mamps_sdf::state_space::{throughput, AnalysisOptions};
///
/// // Two actors in a cycle with one token: period = 3 + 7 cycles.
/// let mut b = SdfGraphBuilder::new("pair");
/// let a = b.add_actor("A", 3);
/// let c = b.add_actor("B", 7);
/// b.add_channel_with_tokens("f", a, 1, c, 1, 1);
/// b.add_channel("r", c, 1, a, 1);
/// let g = b.build().unwrap();
/// let t = throughput(&g, &AnalysisOptions::default()).unwrap();
/// assert_eq!(t.as_f64(), 0.1);
/// ```
pub fn throughput(graph: &SdfGraph, opts: &AnalysisOptions) -> Result<ThroughputResult, SdfError> {
    let q = repetition_vector(graph)?;
    if graph.actor_count() == 0 {
        return Err(SdfError::InvalidGraph("empty graph".into()));
    }
    // Exact deadlock detection on the whole graph (untimed), reusing `q`
    // rather than recomputing it as `check_liveness` would, and recording
    // no witness order.
    iteration_completes(graph, &q)?;

    let sccs = strongly_connected_components(graph);
    let mut scratch = Scratch::default();
    let mut best: Option<ThroughputResult> = None;

    for scc in &sccs {
        let candidate = if scc.len() == 1 {
            let a = scc[0];
            let has_self_edge = graph
                .outgoing(a)
                .iter()
                .any(|&c| graph.channel(c).is_self_edge());
            if has_self_edge {
                scc_throughput(graph, scc, &q, opts, &mut scratch)?
            } else {
                let exec = graph.actor(a).execution_time();
                if exec == 0 || opts.auto_concurrency {
                    // Unconstrained rate: does not bound the graph.
                    continue;
                }
                // One firing per `exec` cycles; one global iteration needs
                // q[a] firings.
                let cycles = exec.checked_mul(q.of(a)).ok_or_else(|| {
                    SdfError::Overflow(format!(
                        "cycles per iteration of actor `{}`",
                        graph.actor(a).name()
                    ))
                })?;
                Some(ThroughputResult {
                    iterations_per_cycle: Ratio::new(1, i128::from(cycles)),
                    transient_cycles: 0,
                    period_cycles: cycles,
                    iterations_per_period: 1,
                    states_explored: 1,
                })
            }
        } else {
            scc_throughput(graph, scc, &q, opts, &mut scratch)?
        };
        if let Some(c) = candidate {
            best = Some(match best {
                None => c,
                Some(b) => {
                    if c.iterations_per_cycle < b.iterations_per_cycle {
                        ThroughputResult {
                            states_explored: b.states_explored + c.states_explored,
                            ..c
                        }
                    } else {
                        ThroughputResult {
                            states_explored: b.states_explored + c.states_explored,
                            ..b
                        }
                    }
                }
            });
        }
    }

    best.ok_or_else(|| {
        SdfError::AnalysisLimit(
            "throughput unbounded: no component constrains the firing rate".into(),
        )
    })
}

/// Runs the kernel on the subgraph induced by one SCC and converts its local
/// rate to global iterations per cycle.
///
/// Returns `Ok(None)` when the component does not constrain the rate.
fn scc_throughput(
    graph: &SdfGraph,
    scc: &[ActorId],
    q_global: &crate::repetition::RepetitionVector,
    opts: &AnalysisOptions,
    scratch: &mut Scratch,
) -> Result<Option<ThroughputResult>, SdfError> {
    // Local repetition vector: an SCC is connected, so its solution space is
    // one-dimensional and the minimal local vector is the restriction of the
    // global one divided by its gcd. That gcd is also the scale factor: one
    // global iteration is `g0` local iterations.
    let g0 = scc.iter().fold(0u64, |g, &a| gcd(g, q_global.of(a)));
    debug_assert!(g0 >= 1);

    scratch.kg.clear();
    let n = graph.actor_count();
    scratch.global_to_local.clear();
    scratch.global_to_local.resize(n, u32::MAX);
    for (i, &a) in scc.iter().enumerate() {
        scratch.global_to_local[a.0] = i as u32;
        scratch.kg.add_actor(graph.actor(a).execution_time());
    }
    for (_, ch) in graph.channels() {
        let ls = scratch.global_to_local[ch.src().0];
        let ld = scratch.global_to_local[ch.dst().0];
        if ls != u32::MAX && ld != u32::MAX {
            scratch.kg.add_channel(
                ls,
                ld,
                ch.production_rate(),
                ch.consumption_rate(),
                ch.initial_tokens(),
            );
        }
    }
    scratch.kg.build_adjacency();

    let q_ref = q_global.of(scc[0]) / g0;
    let local = run_kernel(scratch, q_ref, opts)?;
    Ok(local.map(|l| ThroughputResult {
        iterations_per_cycle: l.iterations_per_cycle / Ratio::from_int(g0 as i128),
        ..l
    }))
}

/// One outgoing adjacency entry: the channel, its production rate, and the
/// consuming actor to requeue when tokens arrive.
#[derive(Debug, Clone, Copy, Default)]
struct OutEdge {
    ch: u32,
    dst: u32,
    prod: u64,
}

/// Flattened CSR-style graph view consumed by the kernel. Built from an
/// SCC-induced subgraph without going through [`crate::graph::SdfGraphBuilder`] (no name strings, no
/// validation re-runs).
#[derive(Debug, Default)]
struct KernelGraph {
    exec: Vec<u64>,
    init_tokens: Vec<u64>,
    ch_src: Vec<u32>,
    ch_dst: Vec<u32>,
    ch_prod: Vec<u64>,
    ch_cons: Vec<u64>,
    /// `in_list[in_off[a]..in_off[a+1]]` = `(channel, consumption rate)` of
    /// the channels entering actor `a`, in channel-id order.
    in_off: Vec<u32>,
    in_list: Vec<(u32, u64)>,
    out_off: Vec<u32>,
    out_list: Vec<OutEdge>,
}

impl KernelGraph {
    fn clear(&mut self) {
        self.exec.clear();
        self.init_tokens.clear();
        self.ch_src.clear();
        self.ch_dst.clear();
        self.ch_prod.clear();
        self.ch_cons.clear();
    }

    fn actor_count(&self) -> usize {
        self.exec.len()
    }

    fn channel_count(&self) -> usize {
        self.ch_src.len()
    }

    fn add_actor(&mut self, exec: u64) {
        self.exec.push(exec);
    }

    fn add_channel(&mut self, src: u32, dst: u32, prod: u64, cons: u64, tokens: u64) {
        self.ch_src.push(src);
        self.ch_dst.push(dst);
        self.ch_prod.push(prod);
        self.ch_cons.push(cons);
        self.init_tokens.push(tokens);
    }

    /// Builds the CSR adjacency from the accumulated channels, reusing the
    /// existing buffers. Channel order within each actor is ascending by
    /// channel id, matching [`SdfGraph::incoming`]/[`SdfGraph::outgoing`].
    fn build_adjacency(&mut self) {
        let n = self.actor_count();
        let m = self.channel_count();
        self.in_off.clear();
        self.in_off.resize(n + 1, 0);
        self.out_off.clear();
        self.out_off.resize(n + 1, 0);
        for i in 0..m {
            self.in_off[self.ch_dst[i] as usize + 1] += 1;
            self.out_off[self.ch_src[i] as usize + 1] += 1;
        }
        for a in 0..n {
            self.in_off[a + 1] += self.in_off[a];
            self.out_off[a + 1] += self.out_off[a];
        }
        self.in_list.clear();
        self.in_list.resize(m, (0, 0));
        self.out_list.clear();
        self.out_list.resize(m, OutEdge::default());
        // Fill using the offset arrays as cursors, then shift them back.
        for i in 0..m {
            let d = self.ch_dst[i] as usize;
            self.in_list[self.in_off[d] as usize] = (i as u32, self.ch_cons[i]);
            self.in_off[d] += 1;
            let s = self.ch_src[i] as usize;
            self.out_list[self.out_off[s] as usize] = OutEdge {
                ch: i as u32,
                dst: self.ch_dst[i],
                prod: self.ch_prod[i],
            };
            self.out_off[s] += 1;
        }
        for a in (1..=n).rev() {
            self.in_off[a] = self.in_off[a - 1];
            self.out_off[a] = self.out_off[a - 1];
        }
        if n > 0 {
            self.in_off[0] = 0;
            self.out_off[0] = 0;
        }
    }

    fn incoming(&self, a: usize) -> &[(u32, u64)] {
        &self.in_list[self.in_off[a] as usize..self.in_off[a + 1] as usize]
    }

    fn outgoing(&self, a: usize) -> &[OutEdge] {
        &self.out_list[self.out_off[a] as usize..self.out_off[a + 1] as usize]
    }
}

/// Interned store of visited states. Encoded state keys live back-to-back
/// in one arena (`[chain-next, key-length, time, ref-completions, key
/// words...]` records), indexed by a 64-bit [`key_hash`] through an
/// identity-hashed map, so a snapshot costs one hash of the scratch key
/// and — only for new states — one arena append. No per-state boxing, no
/// SipHash, no re-hashing of keys when the table grows. Hash collisions
/// are resolved along the per-bucket chain by comparing the stored key
/// length and then the exact key words (keys of one run vary in length
/// with the number of ongoing firings), so the exploration is oblivious to
/// the hash function.
#[derive(Debug, Default)]
struct StateTable {
    arena: Vec<u64>,
    index: HashMap<u64, u64, std::hash::BuildHasherDefault<IdentityHasher>>,
    len: usize,
}

impl StateTable {
    fn clear(&mut self) {
        self.arena.clear();
        self.index.clear();
        self.len = 0;
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Returns the `(time, ref_completions)` stored with `key` if it was
    /// seen before; otherwise interns it with the given values.
    fn get_or_insert(&mut self, key: &[u64], time: u64, completions: u64) -> Option<(u64, u64)> {
        let hash = key_hash(key);
        let head = self.index.entry(hash).or_insert(0);
        let mut at = *head;
        while at != 0 {
            let base = (at - 1) as usize;
            if self.arena[base + 1] as usize == key.len()
                && &self.arena[base + 4..base + 4 + key.len()] == key
            {
                return Some((self.arena[base + 2], self.arena[base + 3]));
            }
            at = self.arena[base];
        }
        let base = self.arena.len();
        self.arena.push(*head);
        self.arena.push(key.len() as u64);
        self.arena.push(time);
        self.arena.push(completions);
        self.arena.extend_from_slice(key);
        *head = base as u64 + 1;
        self.len += 1;
        None
    }
}

/// FxHash (the rustc hash) in four lanes: word `i` enters the
/// rotate-xor-multiply chain of lane `i % 4`, and the lanes and the key
/// length are folded into one hash at the end. A single chain waits on one
/// multiply per word; four independent ones overlap, which matters on the
/// hundreds of words of an expanded graph's key. Quality is ample for
/// 64-bit buckets over state keys, and it is an order of magnitude cheaper
/// than SipHash.
fn key_hash(words: &[u64]) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let step = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(SEED);
    let mut lanes = [0u64; 4];
    let mut chunks = words.chunks_exact(4);
    for c in &mut chunks {
        lanes = [
            step(lanes[0], c[0]),
            step(lanes[1], c[1]),
            step(lanes[2], c[2]),
            step(lanes[3], c[3]),
        ];
    }
    for (lane, &w) in lanes.iter_mut().zip(chunks.remainder()) {
        *lane = step(*lane, w);
    }
    lanes.into_iter().fold(words.len() as u64, step)
}

/// Hasher for keys that already are hashes (the [`StateTable`] index).
#[derive(Debug, Default)]
struct IdentityHasher(u64);

impl std::hash::Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("identity hasher is only used with u64 keys");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// Reusable buffers of the kernel. One `Scratch` amortizes every allocation
/// of the exploration across the SCC runs of one analysis.
#[derive(Debug, Default)]
struct Scratch {
    kg: KernelGraph,
    global_to_local: Vec<u32>,
    tokens: Vec<u64>,
    busy: Vec<u32>,
    ongoing: BinaryHeap<std::cmp::Reverse<(u64, u32)>>,
    queued: Vec<bool>,
    worklist: Vec<u32>,
    pairs: Vec<(u32, u64)>,
    key: Vec<u64>,
    seen: StateTable,
}

/// Self-timed execution with recurrence detection on the strongly connected
/// (hence bounded) graph in `scratch.kg`. Returns `None` if the graph has no
/// timed actor. `q_ref` is the local repetition count of actor 0, the
/// reference for counting completed iterations.
fn run_kernel(
    scratch: &mut Scratch,
    q_ref: u64,
    opts: &AnalysisOptions,
) -> Result<Option<ThroughputResult>, SdfError> {
    let Scratch {
        ref kg,
        ref mut tokens,
        ref mut busy,
        ref mut ongoing,
        ref mut queued,
        ref mut worklist,
        ref mut pairs,
        ref mut key,
        ref mut seen,
        ..
    } = *scratch;

    let n = kg.actor_count();
    if kg.exec.iter().all(|&e| e == 0) {
        return Ok(None);
    }
    tokens.clear();
    tokens.extend_from_slice(&kg.init_tokens);
    busy.clear();
    busy.resize(n, 0);
    ongoing.clear();
    queued.clear();
    queued.resize(n, true);
    worklist.clear();
    worklist.extend(0..n as u32);
    seen.clear();

    let mut time: u64 = 0;
    let mut ref_completions: u64 = 0;

    loop {
        // Start phase: fire every ready actor as soon as possible. Only
        // actors whose inputs gained tokens (or whose processor just became
        // free) are on the worklist; monotonicity of firing guarantees this
        // reaches the same maximal firing set as a full rescan. Zero-time
        // actors complete immediately so their outputs can enable more
        // firings at the same instant.
        let mut started_this_instant = 0usize;
        while let Some(a32) = worklist.pop() {
            let a = a32 as usize;
            queued[a] = false;
            loop {
                if !opts.auto_concurrency && busy[a] > 0 {
                    break;
                }
                let ins = kg.incoming(a);
                if !ins.iter().all(|&(ch, cons)| tokens[ch as usize] >= cons) {
                    break;
                }
                for &(ch, cons) in ins {
                    tokens[ch as usize] -= cons;
                }
                started_this_instant += 1;
                if started_this_instant > opts.max_firings_per_instant {
                    return Err(SdfError::AnalysisLimit(format!(
                        "more than {} firings at cycle {time}; zero-delay cycle or \
                         unbounded auto-concurrency",
                        opts.max_firings_per_instant
                    )));
                }
                if kg.exec[a] == 0 {
                    for e in kg.outgoing(a) {
                        tokens[e.ch as usize] += e.prod;
                        let d = e.dst as usize;
                        if !queued[d] {
                            queued[d] = true;
                            worklist.push(e.dst);
                        }
                    }
                    if a == 0 {
                        ref_completions += 1;
                    }
                } else {
                    busy[a] += 1;
                    ongoing.push(std::cmp::Reverse((time + kg.exec[a], a32)));
                    if !opts.auto_concurrency {
                        break;
                    }
                }
            }
        }

        // Snapshot the state after all starts at this instant: channel fills
        // followed by the sorted (actor, remaining) pairs of ongoing
        // firings, encoded into the reused key buffer.
        key.clear();
        key.extend_from_slice(tokens);
        pairs.clear();
        pairs.extend(
            ongoing
                .iter()
                .map(|&std::cmp::Reverse((t, a))| (a, t - time)),
        );
        pairs.sort_unstable();
        for &(a, rem) in pairs.iter() {
            key.push(a as u64);
            key.push(rem);
        }
        if let Some((t0, c0)) = seen.get_or_insert(key, time, ref_completions) {
            let period = time - t0;
            let firings = ref_completions - c0;
            debug_assert!(period > 0, "time advances between snapshots");
            debug_assert!(firings.is_multiple_of(q_ref));
            let iterations = firings / q_ref;
            return Ok(Some(ThroughputResult {
                iterations_per_cycle: if iterations == 0 {
                    Ratio::ZERO
                } else {
                    Ratio::new(iterations as i128, period as i128)
                },
                transient_cycles: t0,
                period_cycles: period,
                iterations_per_period: iterations,
                states_explored: seen.len(),
            }));
        }
        if seen.len() > opts.max_states {
            return Err(SdfError::AnalysisLimit(format!(
                "state space exceeded {} states",
                opts.max_states
            )));
        }

        // Advance to the next completion.
        let std::cmp::Reverse((t_next, _)) = match ongoing.peek() {
            Some(&e) => e,
            None => {
                return Err(SdfError::Deadlock(format!(
                    "self-timed execution stalled at cycle {time}"
                )))
            }
        };
        time = t_next;
        while let Some(&std::cmp::Reverse((t, a32))) = ongoing.peek() {
            if t != time {
                break;
            }
            ongoing.pop();
            let a = a32 as usize;
            busy[a] -= 1;
            for e in kg.outgoing(a) {
                tokens[e.ch as usize] += e.prod;
                let d = e.dst as usize;
                if !queued[d] {
                    queued[d] = true;
                    worklist.push(e.dst);
                }
            }
            if a == 0 {
                ref_completions += 1;
            }
            // The completing actor's processor is free again.
            if !queued[a] {
                queued[a] = true;
                worklist.push(a32);
            }
        }
    }
}

/// Tarjan's strongly-connected-components algorithm (iterative).
///
/// Returns components in reverse topological order; order is irrelevant to
/// the throughput computation.
pub fn strongly_connected_components(graph: &SdfGraph) -> Vec<Vec<ActorId>> {
    let n = graph.actor_count();
    let mut index = vec![usize::MAX; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut result: Vec<Vec<ActorId>> = Vec::new();

    // Iterative Tarjan with an explicit work stack of (node, edge cursor).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut work: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&(v, cursor)) = work.last() {
            if cursor == 0 {
                index[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let out = graph.outgoing(ActorId(v));
            if cursor < out.len() {
                work.last_mut().expect("non-empty").1 += 1;
                let w = graph.channel(out[cursor]).dst().0;
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack invariant");
                        on_stack[w] = false;
                        comp.push(ActorId(w));
                        if w == v {
                            break;
                        }
                    }
                    comp.sort();
                    result.push(comp);
                }
            }
        }
    }
    result
}

/// The pre-optimization state-space implementation, retained verbatim as the
/// oracle for the optimized kernel: property tests assert both return
/// identical results on randomized live multirate graphs, and the
/// `state_space` bench measures the speedup of the fast path against it.
///
/// Differences from the fast path: the induced subgraph of each SCC is
/// materialized through [`crate::graph::SdfGraphBuilder`], every time instant rescans all
/// actors against all channels, and every snapshot allocates a fresh
/// [`StateKey`](self) with a sorted copy of the ongoing-firing multiset.
#[cfg(any(test, feature = "testkit"))]
pub mod reference {
    use std::collections::hash_map::Entry;
    use std::collections::{BinaryHeap, HashMap};

    use super::{strongly_connected_components, AnalysisOptions, ThroughputResult};
    use crate::error::SdfError;
    use crate::graph::{ActorId, SdfGraph, SdfGraphBuilder};
    use crate::liveness::check_liveness;
    use crate::ratio::Ratio;
    use crate::repetition::repetition_vector;

    /// Naive-rescan counterpart of [`super::throughput`].
    ///
    /// # Errors
    ///
    /// Identical to [`super::throughput`].
    pub fn throughput(
        graph: &SdfGraph,
        opts: &AnalysisOptions,
    ) -> Result<ThroughputResult, SdfError> {
        let q = repetition_vector(graph)?;
        if graph.actor_count() == 0 {
            return Err(SdfError::InvalidGraph("empty graph".into()));
        }
        check_liveness(graph)?;

        let sccs = strongly_connected_components(graph);
        let mut best: Option<ThroughputResult> = None;

        for scc in &sccs {
            let candidate = if scc.len() == 1 {
                let a = scc[0];
                let has_self_edge = graph
                    .outgoing(a)
                    .iter()
                    .any(|&c| graph.channel(c).is_self_edge());
                if has_self_edge {
                    scc_state_space(graph, scc, &q, opts)?
                } else {
                    let exec = graph.actor(a).execution_time();
                    if exec == 0 || opts.auto_concurrency {
                        continue;
                    }
                    Some(ThroughputResult {
                        iterations_per_cycle: Ratio::new(1, (exec * q.of(a)) as i128),
                        transient_cycles: 0,
                        period_cycles: exec * q.of(a),
                        iterations_per_period: 1,
                        states_explored: 1,
                    })
                }
            } else {
                scc_state_space(graph, scc, &q, opts)?
            };
            if let Some(c) = candidate {
                best = Some(match best {
                    None => c,
                    Some(b) => {
                        if c.iterations_per_cycle < b.iterations_per_cycle {
                            ThroughputResult {
                                states_explored: b.states_explored + c.states_explored,
                                ..c
                            }
                        } else {
                            ThroughputResult {
                                states_explored: b.states_explored + c.states_explored,
                                ..b
                            }
                        }
                    }
                });
            }
        }

        best.ok_or_else(|| {
            SdfError::AnalysisLimit(
                "throughput unbounded: no component constrains the firing rate".into(),
            )
        })
    }

    fn scc_state_space(
        graph: &SdfGraph,
        scc: &[ActorId],
        q_global: &crate::repetition::RepetitionVector,
        opts: &AnalysisOptions,
    ) -> Result<Option<ThroughputResult>, SdfError> {
        // Build the induced subgraph.
        let mut b = SdfGraphBuilder::new(format!("{}:scc", graph.name()));
        let mut local_of: HashMap<ActorId, ActorId> = HashMap::new();
        for &a in scc {
            let la = b.add_actor(graph.actor(a).name(), graph.actor(a).execution_time());
            local_of.insert(a, la);
        }
        for (_, ch) in graph.channels() {
            if let (Some(&ls), Some(&ld)) = (local_of.get(&ch.src()), local_of.get(&ch.dst())) {
                b.add_channel_full(
                    ch.name(),
                    ls,
                    ch.production_rate(),
                    ld,
                    ch.consumption_rate(),
                    ch.initial_tokens(),
                    ch.token_size(),
                );
            }
        }
        let sub = b
            .build()
            .expect("induced subgraph of a valid graph is valid");
        let q_local = repetition_vector(&sub)?;

        let local = self_timed_run(&sub, &q_local, opts)?;
        let local = match local {
            Some(l) => l,
            None => return Ok(None),
        };

        // Scale: one global iteration fires actor `a` q_global[a] times,
        // which is m local iterations with m = q_global[a] / q_local[a].
        let a0 = scc[0];
        let m = q_global.of(a0) / q_local.of(local_of[&a0]);
        debug_assert!(m >= 1 && q_global.of(a0).is_multiple_of(q_local.of(local_of[&a0])));
        Ok(Some(ThroughputResult {
            iterations_per_cycle: local.iterations_per_cycle / Ratio::from_int(m as i128),
            ..local
        }))
    }

    fn self_timed_run(
        graph: &SdfGraph,
        q: &crate::repetition::RepetitionVector,
        opts: &AnalysisOptions,
    ) -> Result<Option<ThroughputResult>, SdfError> {
        let n = graph.actor_count();
        let reference = ActorId(0);
        let q_ref = q.of(reference);
        let exec: Vec<u64> = graph.actors().map(|(_, a)| a.execution_time()).collect();
        if exec.iter().all(|&e| e == 0) {
            return Ok(None);
        }
        let mut tokens: Vec<u64> = graph.channels().map(|(_, c)| c.initial_tokens()).collect();
        let cons: Vec<u64> = graph
            .channels()
            .map(|(_, c)| c.consumption_rate())
            .collect();
        let prod: Vec<u64> = graph.channels().map(|(_, c)| c.production_rate()).collect();

        let mut ongoing: BinaryHeap<std::cmp::Reverse<(u64, usize)>> = BinaryHeap::new();
        let mut busy: Vec<u64> = vec![0; n];
        let mut time: u64 = 0;
        let mut ref_completions: u64 = 0;
        let mut seen: HashMap<StateKey, (u64, u64)> = HashMap::new();

        loop {
            let mut started_this_instant = 0usize;
            loop {
                let mut fired = false;
                for a in 0..n {
                    loop {
                        if !opts.auto_concurrency && busy[a] > 0 {
                            break;
                        }
                        let ready = graph
                            .incoming(ActorId(a))
                            .iter()
                            .all(|&cid| tokens[cid.0] >= cons[cid.0]);
                        if !ready {
                            break;
                        }
                        for &cid in graph.incoming(ActorId(a)) {
                            tokens[cid.0] -= cons[cid.0];
                        }
                        started_this_instant += 1;
                        if started_this_instant > opts.max_firings_per_instant {
                            return Err(SdfError::AnalysisLimit(format!(
                                "more than {} firings at cycle {time}; zero-delay cycle or \
                                 unbounded auto-concurrency",
                                opts.max_firings_per_instant
                            )));
                        }
                        fired = true;
                        if exec[a] == 0 {
                            for &cid in graph.outgoing(ActorId(a)) {
                                tokens[cid.0] += prod[cid.0];
                            }
                            if a == reference.0 {
                                ref_completions += 1;
                            }
                        } else {
                            busy[a] += 1;
                            ongoing.push(std::cmp::Reverse((time + exec[a], a)));
                            if !opts.auto_concurrency {
                                break;
                            }
                        }
                    }
                }
                if !fired {
                    break;
                }
            }

            let key = StateKey::capture(&tokens, &ongoing, time);
            match seen.entry(key) {
                Entry::Occupied(prev) => {
                    let (t0, c0) = *prev.get();
                    let period = time - t0;
                    let firings = ref_completions - c0;
                    debug_assert!(period > 0, "time advances between snapshots");
                    debug_assert!(firings.is_multiple_of(q_ref));
                    let iterations = firings / q_ref;
                    return Ok(Some(ThroughputResult {
                        iterations_per_cycle: if iterations == 0 {
                            Ratio::ZERO
                        } else {
                            Ratio::new(iterations as i128, period as i128)
                        },
                        transient_cycles: t0,
                        period_cycles: period,
                        iterations_per_period: iterations,
                        states_explored: seen.len(),
                    }));
                }
                Entry::Vacant(v) => {
                    v.insert((time, ref_completions));
                }
            }
            if seen.len() > opts.max_states {
                return Err(SdfError::AnalysisLimit(format!(
                    "state space exceeded {} states",
                    opts.max_states
                )));
            }

            let std::cmp::Reverse((t_next, _)) = match ongoing.peek() {
                Some(&e) => e,
                None => {
                    return Err(SdfError::Deadlock(format!(
                        "self-timed execution stalled at cycle {time}"
                    )))
                }
            };
            time = t_next;
            while let Some(&std::cmp::Reverse((t, a))) = ongoing.peek() {
                if t != time {
                    break;
                }
                ongoing.pop();
                busy[a] -= 1;
                for &cid in graph.outgoing(ActorId(a)) {
                    tokens[cid.0] += prod[cid.0];
                }
                if a == reference.0 {
                    ref_completions += 1;
                }
            }
        }
    }

    /// Hashable snapshot of an execution state: channel fill plus, per
    /// actor, the sorted multiset of remaining execution times.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct StateKey {
        tokens: Vec<u64>,
        remaining: Vec<(u32, u64)>,
    }

    impl StateKey {
        fn capture(
            tokens: &[u64],
            ongoing: &BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
            now: u64,
        ) -> StateKey {
            let mut remaining: Vec<(u32, u64)> = ongoing
                .iter()
                .map(|&std::cmp::Reverse((t, a))| (a as u32, t - now))
                .collect();
            remaining.sort_unstable();
            StateKey {
                tokens: tokens.to_vec(),
                remaining,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SdfGraphBuilder;

    fn opts() -> AnalysisOptions {
        AnalysisOptions::default()
    }

    #[test]
    fn two_actor_cycle_throughput() {
        let mut b = SdfGraphBuilder::new("pair");
        let a = b.add_actor("A", 3);
        let c = b.add_actor("B", 7);
        b.add_channel_with_tokens("f", a, 1, c, 1, 1);
        b.add_channel("r", c, 1, a, 1);
        let g = b.build().unwrap();
        let t = throughput(&g, &opts()).unwrap();
        assert_eq!(t.iterations_per_cycle, Ratio::new(1, 10));
    }

    #[test]
    fn lone_actor_cycles_overflow_is_an_error() {
        // A -> B at 2^20 : 1, so q = (1, 2^20) and B spends 2^20 * WCET
        // cycles per iteration. An unchecked product wrapped to 0 (a zero
        // denominator) at 2^50 and to 2^20 (a made-up rate) at 2^50 + 1.
        let run = |wcet: u64| {
            let mut b = SdfGraphBuilder::new("big");
            let a = b.add_actor("A", 10);
            let c = b.add_actor("B", wcet);
            b.add_channel("e", a, 1 << 20, c, 1);
            throughput(&b.build().unwrap(), &opts())
        };
        for wcet in [1 << 44, 1 << 50, (1 << 50) + 1, u64::MAX] {
            let overflow = SdfError::Overflow("cycles per iteration of actor `B`".into());
            assert_eq!(run(wcet), Err(overflow), "wcet {wcet}");
        }
        let fits = run(1 << 43).unwrap();
        assert_eq!(fits.iterations_per_cycle, Ratio::new(1, 1 << 63));
    }

    #[test]
    fn pipeline_throughput_limited_by_slowest() {
        let mut b = SdfGraphBuilder::new("pipe");
        let a = b.add_actor("A", 2);
        let c = b.add_actor("B", 9);
        let d = b.add_actor("C", 4);
        b.add_channel("e1", a, 1, c, 1);
        b.add_channel("e2", c, 1, d, 1);
        let g = b.build().unwrap();
        let t = throughput(&g, &opts()).unwrap();
        assert_eq!(t.iterations_per_cycle, Ratio::new(1, 9));
    }

    #[test]
    fn multirate_graph() {
        // A (rate 2, exec 4) -> B (rate 1, exec 3); q = (1, 2).
        // A: 1 iteration per 4 cycles; B: 2 firings * 3 = 6 cycles/iteration.
        let mut b = SdfGraphBuilder::new("mr");
        let a = b.add_actor("A", 4);
        let c = b.add_actor("B", 3);
        b.add_channel("e", a, 2, c, 1);
        let g = b.build().unwrap();
        let t = throughput(&g, &opts()).unwrap();
        assert_eq!(t.iterations_per_cycle, Ratio::new(1, 6));
    }

    #[test]
    fn deadlocked_graph_reported() {
        let mut b = SdfGraphBuilder::new("dead");
        let a = b.add_actor("A", 1);
        let c = b.add_actor("B", 1);
        b.add_channel("f", a, 1, c, 1);
        b.add_channel("r", c, 1, a, 1);
        let g = b.build().unwrap();
        assert!(matches!(
            throughput(&g, &opts()),
            Err(SdfError::Deadlock(_))
        ));
    }

    #[test]
    fn zero_time_actor_in_chain() {
        let mut b = SdfGraphBuilder::new("zt");
        let a = b.add_actor("A", 5);
        let z = b.add_actor("Z", 0);
        let c = b.add_actor("B", 5);
        b.add_channel("e1", a, 1, z, 1);
        b.add_channel("e2", z, 1, c, 1);
        let g = b.build().unwrap();
        let t = throughput(&g, &opts()).unwrap();
        assert_eq!(t.iterations_per_cycle, Ratio::new(1, 5));
    }

    #[test]
    fn zero_delay_cycle_detected() {
        let mut b = SdfGraphBuilder::new("zdc");
        let a = b.add_actor("A", 0);
        b.add_channel_with_tokens("s", a, 1, a, 1, 1);
        let g = b.build().unwrap();
        let r = throughput(
            &g,
            &AnalysisOptions {
                max_firings_per_instant: 1000,
                ..opts()
            },
        );
        assert!(matches!(r, Err(SdfError::AnalysisLimit(_))));
    }

    #[test]
    fn all_zero_time_graph_unbounded() {
        let mut b = SdfGraphBuilder::new("zeros");
        let a = b.add_actor("A", 0);
        let c = b.add_actor("B", 0);
        b.add_channel("e", a, 1, c, 1);
        let g = b.build().unwrap();
        assert!(matches!(
            throughput(&g, &opts()),
            Err(SdfError::AnalysisLimit(_))
        ));
    }

    #[test]
    fn initial_tokens_pipeline_parallelism() {
        // Cycle A->B->A with 2 tokens allows overlapping: throughput limited
        // by max(execA, execB) not the sum.
        let mut b = SdfGraphBuilder::new("2tok");
        let a = b.add_actor("A", 6);
        let c = b.add_actor("B", 4);
        b.add_channel_with_tokens("f", a, 1, c, 1, 0);
        b.add_channel_with_tokens("r", c, 1, a, 1, 2);
        let g = b.build().unwrap();
        let t = throughput(&g, &opts()).unwrap();
        assert_eq!(t.iterations_per_cycle, Ratio::new(1, 6));
    }

    #[test]
    fn single_self_loop_actor() {
        let mut b = SdfGraphBuilder::new("one");
        let a = b.add_actor("A", 12);
        b.add_channel_with_tokens("s", a, 1, a, 1, 1);
        let g = b.build().unwrap();
        let t = throughput(&g, &opts()).unwrap();
        assert_eq!(t.iterations_per_cycle, Ratio::new(1, 12));
        assert_eq!(t.cycles_per_iteration(), 12.0);
    }

    #[test]
    fn self_edge_tokens_bound_concurrency() {
        // Self-edge with 2 tokens allows two overlapping firings; the
        // pipeline rate doubles compared to 1 token.
        let mk = |tokens: u64| {
            let mut b = SdfGraphBuilder::new("se");
            let a = b.add_actor("A", 10);
            b.add_channel_with_tokens("s", a, 1, a, 1, tokens);
            b.build().unwrap()
        };
        let one = throughput(
            &mk(1),
            &AnalysisOptions {
                auto_concurrency: true,
                ..opts()
            },
        )
        .unwrap();
        let two = throughput(
            &mk(2),
            &AnalysisOptions {
                auto_concurrency: true,
                ..opts()
            },
        )
        .unwrap();
        assert_eq!(one.iterations_per_cycle, Ratio::new(1, 10));
        assert_eq!(two.iterations_per_cycle, Ratio::new(2, 10));
    }

    #[test]
    fn fig2_throughput() {
        // Paper Fig. 2 graph with chosen execution times.
        let mut b = SdfGraphBuilder::new("fig2");
        let a = b.add_actor("A", 10);
        let bb = b.add_actor("B", 5);
        let c = b.add_actor("C", 7);
        b.add_channel("a2b", a, 2, bb, 1);
        b.add_channel("a2c", a, 1, c, 1);
        b.add_channel("b2c", bb, 1, c, 2);
        b.add_channel_with_tokens("selfA", a, 1, a, 1, 1);
        let g = b.build().unwrap();
        let t = throughput(&g, &opts()).unwrap();
        // Bottlenecks: A every 10 cycles; B 2x5=10 cycles; C 7 cycles.
        assert_eq!(t.iterations_per_cycle, Ratio::new(1, 10));
    }

    #[test]
    fn scc_decomposition() {
        let mut b = SdfGraphBuilder::new("sccs");
        let a = b.add_actor("A", 1);
        let c = b.add_actor("B", 1);
        let d = b.add_actor("C", 1);
        // Cycle A<->B, then edge to C.
        b.add_channel_with_tokens("f", a, 1, c, 1, 1);
        b.add_channel("r", c, 1, a, 1);
        b.add_channel("o", c, 1, d, 1);
        let g = b.build().unwrap();
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), 2);
        let sizes: Vec<usize> = sccs.iter().map(|s| s.len()).collect();
        assert!(sizes.contains(&2) && sizes.contains(&1));
    }

    #[test]
    fn throughput_monotone_in_execution_time() {
        let mk = |eb: u64| {
            let mut b = SdfGraphBuilder::new("m");
            let a = b.add_actor("A", 3);
            let c = b.add_actor("B", eb);
            b.add_channel_with_tokens("f", a, 2, c, 3, 6);
            b.add_channel("r", c, 3, a, 2);
            b.build().unwrap()
        };
        let mut last = f64::INFINITY;
        for eb in [1, 2, 4, 8, 16] {
            let t = throughput(&mk(eb), &opts()).unwrap().as_f64();
            assert!(t <= last + 1e-12);
            last = t;
        }
    }

    #[test]
    fn fast_kernel_matches_reference_on_named_graphs() {
        let graphs: Vec<SdfGraph> = vec![
            {
                let mut b = SdfGraphBuilder::new("fig2");
                let a = b.add_actor("A", 10);
                let bb = b.add_actor("B", 5);
                let c = b.add_actor("C", 7);
                b.add_channel("a2b", a, 2, bb, 1);
                b.add_channel("a2c", a, 1, c, 1);
                b.add_channel("b2c", bb, 1, c, 2);
                b.add_channel_with_tokens("selfA", a, 1, a, 1, 1);
                b.build().unwrap()
            },
            {
                let mut b = SdfGraphBuilder::new("mr");
                let a = b.add_actor("A", 4);
                let c = b.add_actor("B", 3);
                b.add_channel("e", a, 2, c, 1);
                b.build().unwrap()
            },
            {
                let mut b = SdfGraphBuilder::new("2tok");
                let a = b.add_actor("A", 6);
                let c = b.add_actor("B", 4);
                b.add_channel_with_tokens("f", a, 1, c, 1, 0);
                b.add_channel_with_tokens("r", c, 1, a, 1, 2);
                b.build().unwrap()
            },
        ];
        for g in &graphs {
            for auto in [false, true] {
                let o = AnalysisOptions {
                    auto_concurrency: auto,
                    ..opts()
                };
                match (throughput(g, &o), reference::throughput(g, &o)) {
                    (Ok(fast), Ok(slow)) => assert_eq!(fast, slow, "graph {}", g.name()),
                    (Err(_), Err(_)) => {}
                    (f, s) => panic!("fast/reference disagree on {}: {f:?} vs {s:?}", g.name()),
                }
            }
        }
    }
}
