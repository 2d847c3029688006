//! The application model: an SDF graph joined with per-actor implementation
//! metadata (paper §3).
//!
//! Beyond the graph, the model records for each actor one or more
//! *implementations*: the C function realizing the actor for a specific
//! processor type, its WCET on that processor, its instruction- and
//! data-memory footprint (kept separate for Harvard-architecture tiles), and
//! the binding of function arguments to the explicitly implemented channels.
//! Implicit channels (self-edges for state, buffer-size or ordering
//! constraints) have no argument binding. Token sizes live on the channels
//! themselves. Multiple implementations per actor enable heterogeneous
//! mapping: the binder picks the implementation matching the tile's
//! processor type.

use std::collections::HashMap;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::error::SdfError;
use crate::graph::{ActorId, ChannelId, SdfGraph};
use crate::passes::{Fingerprint, BIND_KEY_PARTS, BUFFER_SIZE_KEY_PARTS};
use crate::ratio::Ratio;

/// Direction of a function argument relative to the actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArgDirection {
    /// The argument points to a buffer of input tokens.
    Input,
    /// The argument points to a buffer the actor writes output tokens into.
    Output,
}

/// Binds one function argument of an actor implementation to a channel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArgBinding {
    /// Zero-based argument position in the implementation function.
    pub arg_index: usize,
    /// Name of the bound channel (must be adjacent to the actor).
    pub channel: String,
    /// Whether the argument is an input or output buffer.
    pub direction: ArgDirection,
}

/// One implementation of an actor for a given processor type.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActorImplementation {
    /// Processor type this implementation runs on (e.g. `"microblaze"`).
    pub processor_type: String,
    /// Name of the C function implementing the actor.
    pub function_name: String,
    /// Worst-case execution time in cycles on this processor type.
    pub wcet: u64,
    /// Instruction-memory footprint in bytes.
    pub instruction_memory: u64,
    /// Data-memory footprint in bytes (excluding channel buffers).
    pub data_memory: u64,
    /// Explicit channel-argument bindings; implicit channels are absent.
    pub args: Vec<ArgBinding>,
}

/// A throughput constraint: at least `iterations` graph iterations per
/// `cycles` clock cycles (paper §5: throughput is defined as the long-term
/// average number of iterations per time unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThroughputConstraint {
    /// Required iterations...
    pub iterations: u64,
    /// ...per this many clock cycles.
    pub cycles: u64,
}

impl ThroughputConstraint {
    /// The constraint as an exact ratio (iterations per cycle).
    pub fn as_ratio(&self) -> Ratio {
        Ratio::new(self.iterations as i128, self.cycles as i128)
    }
}

/// The application model: graph + implementations + constraint.
#[derive(Debug, Clone, Serialize)]
pub struct ApplicationModel {
    graph: SdfGraph,
    /// Implementations keyed by actor name.
    implementations: HashMap<String, Vec<ActorImplementation>>,
    /// Optional minimum throughput the flow must guarantee.
    throughput_constraint: Option<ThroughputConstraint>,
    /// What every pass key over the model starts from, filled on first
    /// use from one `to_value()` tree. A built model never changes: its
    /// fields are private and no method takes `&mut self`. A clone
    /// carries equal values and so may carry the memo, and a
    /// deserialized model starts with an empty one. So the memo always
    /// describes the values beside it.
    #[serde(skip)]
    keys: OnceLock<ModelKeys>,
}

/// A model deserializes through [`ApplicationModel::new`]: it gets the
/// checks of a built model, as its graph gets those of a built graph.
impl<'de> Deserialize<'de> for ApplicationModel {
    fn from_value(value: &serde::Value) -> Result<ApplicationModel, serde::Error> {
        let parts = ModelParts::from_value(value)?;
        ApplicationModel::new(
            parts.graph,
            parts.implementations,
            parts.throughput_constraint,
        )
        .map_err(|e| serde::Error::custom(e.to_string()))
    }
}

/// The serialized fields of an [`ApplicationModel`], before its checks.
#[derive(Deserialize)]
struct ModelParts {
    graph: SdfGraph,
    implementations: HashMap<String, Vec<ActorImplementation>>,
    throughput_constraint: Option<ThroughputConstraint>,
}

/// The memo behind [`ApplicationModel::digest`] and
/// [`ApplicationModel::key_heads`].
#[derive(Debug, Clone)]
struct ModelKeys {
    digest: u64,
    bind: Fingerprint,
    buffer_size: Fingerprint,
}

impl ApplicationModel {
    /// Creates a model and validates it.
    ///
    /// # Errors
    ///
    /// [`SdfError::InvalidGraph`] if an actor lacks implementations, an
    /// implementation binds a channel that does not exist or is not adjacent
    /// to its actor, binds the same argument index twice, or the direction
    /// contradicts the channel orientation.
    pub fn new(
        graph: SdfGraph,
        implementations: HashMap<String, Vec<ActorImplementation>>,
        throughput_constraint: Option<ThroughputConstraint>,
    ) -> Result<ApplicationModel, SdfError> {
        // Channel names are unique (`SdfGraphBuilder::build` checks), so
        // one map resolves every argument binding.
        let channels: HashMap<&str, ChannelId> =
            graph.channels().map(|(cid, ch)| (ch.name(), cid)).collect();
        for (aid, actor) in graph.actors() {
            let impls = implementations.get(actor.name()).ok_or_else(|| {
                SdfError::InvalidGraph(format!("actor `{}` has no implementation", actor.name()))
            })?;
            if impls.is_empty() {
                return Err(SdfError::InvalidGraph(format!(
                    "actor `{}` has an empty implementation list",
                    actor.name()
                )));
            }
            for im in impls {
                let mut used = std::collections::HashSet::new();
                for binding in &im.args {
                    if !used.insert(binding.arg_index) {
                        return Err(SdfError::InvalidGraph(format!(
                            "implementation `{}` binds argument {} twice",
                            im.function_name, binding.arg_index
                        )));
                    }
                    let &cid = channels.get(binding.channel.as_str()).ok_or_else(|| {
                        SdfError::InvalidGraph(format!(
                            "implementation `{}` binds unknown channel `{}`",
                            im.function_name, binding.channel
                        ))
                    })?;
                    let ch = graph.channel(cid);
                    let ok = match binding.direction {
                        ArgDirection::Input => ch.dst() == aid,
                        ArgDirection::Output => ch.src() == aid,
                    };
                    if !ok {
                        return Err(SdfError::InvalidGraph(format!(
                            "implementation `{}`: channel `{}` is not an {} of actor `{}`",
                            im.function_name,
                            binding.channel,
                            match binding.direction {
                                ArgDirection::Input => "input",
                                ArgDirection::Output => "output",
                            },
                            actor.name()
                        )));
                    }
                }
            }
        }
        Ok(ApplicationModel {
            graph,
            implementations,
            throughput_constraint,
            keys: OnceLock::new(),
        })
    }

    /// The application graph.
    pub fn graph(&self) -> &SdfGraph {
        &self.graph
    }

    /// The throughput constraint, if any.
    pub fn throughput_constraint(&self) -> Option<ThroughputConstraint> {
        self.throughput_constraint
    }

    /// All implementations of `actor`.
    pub fn implementations(&self, actor: ActorId) -> &[ActorImplementation] {
        &self.implementations[self.graph.actor(actor).name()]
    }

    /// The implementation of `actor` for `processor_type`, if any.
    pub fn implementation_for(
        &self,
        actor: ActorId,
        processor_type: &str,
    ) -> Option<&ActorImplementation> {
        self.implementations(actor)
            .iter()
            .find(|im| im.processor_type == processor_type)
    }

    /// WCET of `actor` on `processor_type`, if supported.
    pub fn wcet(&self, actor: ActorId, processor_type: &str) -> Option<u64> {
        self.implementation_for(actor, processor_type)
            .map(|i| i.wcet)
    }

    /// The model's [`serde::stable_hash_of`] digest, computed once per
    /// model.
    pub fn digest(&self) -> u64 {
        self.keys().digest
    }

    /// The heads of the `bind` and `buffer-size` pass keys, whose first
    /// part is the model: [`Fingerprint::new`] of [`BIND_KEY_PARTS`] and
    /// of [`BUFFER_SIZE_KEY_PARTS`], each with the model's tree hashed.
    /// A head continued with the remaining parts gives the key that
    /// [`crate::passes::fingerprint`] gives over all of them.
    pub fn key_heads(&self) -> (Fingerprint, Fingerprint) {
        let keys = self.keys();
        (keys.bind.clone(), keys.buffer_size.clone())
    }

    fn keys(&self) -> &ModelKeys {
        self.keys.get_or_init(|| {
            let tree = self.to_value();
            let head = |parts| {
                let mut key = Fingerprint::new(parts);
                key.part(&tree);
                key
            };
            ModelKeys {
                digest: serde::stable_hash(&tree),
                bind: head(BIND_KEY_PARTS),
                buffer_size: head(BUFFER_SIZE_KEY_PARTS),
            }
        })
    }
}

/// Convenience builder for models where every actor has a single
/// implementation on a single processor type.
#[derive(Debug, Clone)]
pub struct HomogeneousModelBuilder {
    processor_type: String,
    implementations: HashMap<String, Vec<ActorImplementation>>,
}

impl HomogeneousModelBuilder {
    /// Starts a builder targeting `processor_type`.
    pub fn new(processor_type: impl Into<String>) -> HomogeneousModelBuilder {
        HomogeneousModelBuilder {
            processor_type: processor_type.into(),
            implementations: HashMap::new(),
        }
    }

    /// Registers an actor implementation with the given WCET and memory
    /// sizes; argument bindings are added in channel order by
    /// [`finish`](Self::finish).
    pub fn actor(
        &mut self,
        name: impl Into<String>,
        wcet: u64,
        instruction_memory: u64,
        data_memory: u64,
    ) -> &mut Self {
        let name = name.into();
        self.implementations.insert(
            name.clone(),
            vec![ActorImplementation {
                processor_type: self.processor_type.clone(),
                function_name: format!("actor_{name}"),
                wcet,
                instruction_memory,
                data_memory,
                args: Vec::new(),
            }],
        );
        self
    }

    /// Builds the model, auto-binding arguments to every non-self channel
    /// adjacent to each actor (inputs first, then outputs, in channel-id
    /// order), and overriding each actor's graph execution time with the
    /// implementation WCET.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from [`ApplicationModel::new`].
    pub fn finish(
        mut self,
        graph: SdfGraph,
        constraint: Option<ThroughputConstraint>,
    ) -> Result<ApplicationModel, SdfError> {
        for (aid, actor) in graph.actors() {
            if let Some(impls) = self.implementations.get_mut(actor.name()) {
                let im = &mut impls[0];
                let mut arg = 0usize;
                for &cid in graph.incoming(aid) {
                    let ch = graph.channel(cid);
                    if ch.is_self_edge() {
                        continue;
                    }
                    im.args.push(ArgBinding {
                        arg_index: arg,
                        channel: ch.name().to_string(),
                        direction: ArgDirection::Input,
                    });
                    arg += 1;
                }
                for &cid in graph.outgoing(aid) {
                    let ch = graph.channel(cid);
                    if ch.is_self_edge() {
                        continue;
                    }
                    im.args.push(ArgBinding {
                        arg_index: arg,
                        channel: ch.name().to_string(),
                        direction: ArgDirection::Output,
                    });
                    arg += 1;
                }
            }
        }
        let mut graph = graph;
        for (aid, _) in graph.clone().actors() {
            let name = graph.actor(aid).name().to_string();
            if let Some(impls) = self.implementations.get(&name) {
                graph.actor_mut(aid).set_execution_time(impls[0].wcet);
            }
        }
        ApplicationModel::new(graph, self.implementations, constraint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SdfGraphBuilder;

    fn simple_graph() -> SdfGraph {
        let mut b = SdfGraphBuilder::new("g");
        let a = b.add_actor("A", 1);
        let c = b.add_actor("B", 1);
        b.add_channel("e", a, 1, c, 1);
        b.add_channel_with_tokens("sa", a, 1, a, 1, 1);
        b.build().unwrap()
    }

    #[test]
    fn homogeneous_builder_binds_args() {
        let g = simple_graph();
        let mut mb = HomogeneousModelBuilder::new("microblaze");
        mb.actor("A", 10, 1024, 64).actor("B", 20, 2048, 128);
        let m = mb.finish(g, None).unwrap();
        let a = m.graph().actor_by_name("A").unwrap();
        let im = m.implementation_for(a, "microblaze").unwrap();
        // Self-edge excluded: only the output arg to `e`.
        assert_eq!(im.args.len(), 1);
        assert_eq!(im.args[0].direction, ArgDirection::Output);
        assert_eq!(im.args[0].channel, "e");
        // WCET overrides the graph execution time.
        assert_eq!(m.graph().actor(a).execution_time(), 10);
    }

    #[test]
    fn missing_implementation_rejected() {
        let g = simple_graph();
        let mut mb = HomogeneousModelBuilder::new("microblaze");
        mb.actor("A", 10, 1024, 64);
        assert!(mb.finish(g, None).is_err());
    }

    #[test]
    fn wrong_direction_rejected() {
        let g = simple_graph();
        let mut impls = HashMap::new();
        impls.insert(
            "A".to_string(),
            vec![ActorImplementation {
                processor_type: "mb".into(),
                function_name: "actor_A".into(),
                wcet: 1,
                instruction_memory: 0,
                data_memory: 0,
                args: vec![ArgBinding {
                    arg_index: 0,
                    channel: "e".into(),
                    direction: ArgDirection::Input, // wrong: A produces e
                }],
            }],
        );
        impls.insert(
            "B".to_string(),
            vec![ActorImplementation {
                processor_type: "mb".into(),
                function_name: "actor_B".into(),
                wcet: 1,
                instruction_memory: 0,
                data_memory: 0,
                args: vec![],
            }],
        );
        assert!(ApplicationModel::new(g, impls, None).is_err());
    }

    #[test]
    fn duplicate_arg_index_rejected() {
        let g = simple_graph();
        let mut impls = HashMap::new();
        impls.insert(
            "A".to_string(),
            vec![ActorImplementation {
                processor_type: "mb".into(),
                function_name: "actor_A".into(),
                wcet: 1,
                instruction_memory: 0,
                data_memory: 0,
                args: vec![
                    ArgBinding {
                        arg_index: 0,
                        channel: "e".into(),
                        direction: ArgDirection::Output,
                    },
                    ArgBinding {
                        arg_index: 0,
                        channel: "sa".into(),
                        direction: ArgDirection::Output,
                    },
                ],
            }],
        );
        impls.insert(
            "B".to_string(),
            vec![ActorImplementation {
                processor_type: "mb".into(),
                function_name: "actor_B".into(),
                wcet: 1,
                instruction_memory: 0,
                data_memory: 0,
                args: vec![],
            }],
        );
        assert!(ApplicationModel::new(g, impls, None).is_err());
    }

    #[test]
    fn heterogeneous_wcet_selection() {
        let g = simple_graph();
        let mut impls = HashMap::new();
        for (name, mb_wcet, acc_wcet) in [("A", 10, 2), ("B", 20, 5)] {
            impls.insert(
                name.to_string(),
                vec![
                    ActorImplementation {
                        processor_type: "microblaze".into(),
                        function_name: format!("actor_{name}"),
                        wcet: mb_wcet,
                        instruction_memory: 0,
                        data_memory: 0,
                        args: vec![],
                    },
                    ActorImplementation {
                        processor_type: "accelerator".into(),
                        function_name: format!("actor_{name}_hw"),
                        wcet: acc_wcet,
                        instruction_memory: 0,
                        data_memory: 0,
                        args: vec![],
                    },
                ],
            );
        }
        let m = ApplicationModel::new(g, impls, None).unwrap();
        let a = m.graph().actor_by_name("A").unwrap();
        assert_eq!(m.wcet(a, "microblaze"), Some(10));
        assert_eq!(m.wcet(a, "accelerator"), Some(2));
        assert_eq!(m.wcet(a, "dsp"), None);
    }

    #[test]
    fn filling_the_key_memo_changes_no_serialized_byte() {
        use crate::gen::{generate, Family, GenConfig};
        let m = generate(&GenConfig::new(7, Family::SplitJoin)).unwrap();
        let (tree, json) = (m.to_value(), serde::json::to_string(&m));
        m.digest();
        let clone = m.clone();
        for model in [&m, &clone] {
            assert_eq!(model.to_value(), tree);
            assert_eq!(serde::json::to_string(model), json);
        }
    }

    #[test]
    fn deserializing_checks_the_model() {
        let mut mb = HomogeneousModelBuilder::new("mb");
        mb.actor("A", 1, 0, 0).actor("B", 1, 0, 0);
        let mut tree = mb.finish(simple_graph(), None).unwrap().to_value();
        let serde::Value::Map(fields) = &mut tree else {
            panic!("a model serializes to a map")
        };
        let (_, serde::Value::Map(impls)) = fields
            .iter_mut()
            .find(|(k, _)| k == "implementations")
            .unwrap()
        else {
            panic!("implementations serialize to a map")
        };
        impls.retain(|(actor, _)| actor != "B");
        let err = ApplicationModel::from_value(&tree).unwrap_err();
        assert!(
            err.to_string().contains("actor `B` has no implementation"),
            "{err}"
        );
    }

    #[test]
    fn constraint_ratio() {
        let c = ThroughputConstraint {
            iterations: 1,
            cycles: 2000,
        };
        assert_eq!(c.as_ratio(), Ratio::new(1, 2000));
    }
}
