//! Tile templates of the MAMPS architecture (paper §4, Fig. 3).
//!
//! A tile couples a processing element (PE) with local memories and a
//! network interface (NI). Four variants appear in the template:
//!
//! * **Master** — MicroBlaze PE with peripheral access (Tile 1 in Fig. 3).
//! * **Slave** — the same without peripherals (Tile 2).
//! * **CA tile** — a slave tile whose token (de-)serialization is offloaded
//!   to a communication assist (Tile 3); modelled after CA-MPSoC \[13\].
//! * **IP tile** — a hardware actor attached directly to the NI (Tile 4).
//!
//! The paper's released flow implements master and slave tiles; CA and IP
//! tiles exist in the template and the model (they drive the §6.3 what-if
//! experiment), which this reproduction implements end-to-end.

use serde::{Deserialize, Serialize};

use crate::types::ProcessorType;

/// Maximum local memory of a MAMPS tile (paper §5.3.2: up to 256 kB).
pub const MAX_TILE_MEMORY_BYTES: u64 = 256 * 1024;

/// The tile variant (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TileKind {
    /// MicroBlaze with peripheral access.
    Master,
    /// MicroBlaze without peripheral access.
    Slave,
    /// Slave tile with a communication assist handling (de-)serialization.
    CommunicationAssist,
    /// Dedicated hardware actor directly on the NI.
    HardwareIp,
}

impl TileKind {
    /// True for master and slave tiles, whose PE runs the token
    /// (de-)serialization word loops itself and keeps channel buffers in
    /// its data memory; CA and IP tiles do both in dedicated hardware.
    pub fn pe_moves_tokens(self) -> bool {
        matches!(self, TileKind::Master | TileKind::Slave)
    }
}

/// Cost model for moving one token between local memory and the NI.
///
/// Serialization fragments a token into 32-bit words (paper §4.1). On a
/// plain tile the PE executes the loop, costing
/// `setup + words * cycles_per_word` PE cycles per token. On a CA tile the
/// PE only pays `setup` (posting the request) while the CA streams the words
/// concurrently at `cycles_per_word`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SerializationCost {
    /// Fixed cycles per token (function call, header, bookkeeping).
    pub setup_cycles: u64,
    /// Cycles per 32-bit word moved.
    pub cycles_per_word: u64,
}

impl SerializationCost {
    /// The software (de-)serialization library of the MAMPS tiles: a C
    /// loop around the MicroBlaze FSL put/get instructions with pointer
    /// arithmetic, blocking-status checks and buffer bookkeeping per word.
    /// The §6.3 experiment implies this loop dominates the PE budget on
    /// communication-heavy tiles (replacing it with a CA buys up to 300 %),
    /// which calibrates it to the order of ten cycles per word.
    pub fn software_default() -> SerializationCost {
        SerializationCost {
            setup_cycles: 48,
            cycles_per_word: 12,
        }
    }

    /// The communication assist of CA-MPSoC \[13\]: dedicated hardware
    /// streaming one word per cycle.
    pub fn ca_default() -> SerializationCost {
        SerializationCost {
            setup_cycles: 10,
            cycles_per_word: 1,
        }
    }

    /// PE cycles consumed per token of `words` words.
    pub fn pe_cycles(&self, words: u64) -> u64 {
        self.setup_cycles + words * self.cycles_per_word
    }
}

/// Configuration of one tile.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileConfig {
    name: String,
    kind: TileKind,
    processor: ProcessorType,
    /// Instruction memory in bytes (Harvard configuration).
    imem_bytes: u64,
    /// Data memory in bytes.
    dmem_bytes: u64,
    /// Software serialization cost on the PE.
    serialization: SerializationCost,
    /// Communication-assist cost (present on CA tiles).
    ca: Option<SerializationCost>,
}

impl TileConfig {
    /// Creates a master tile with default memory and serialization costs.
    pub fn master(name: impl Into<String>) -> TileConfig {
        TileConfig {
            name: name.into(),
            kind: TileKind::Master,
            processor: ProcessorType::microblaze(),
            imem_bytes: 128 * 1024,
            dmem_bytes: 128 * 1024,
            serialization: SerializationCost::software_default(),
            ca: None,
        }
    }

    /// Creates a slave tile with default memory and serialization costs.
    pub fn slave(name: impl Into<String>) -> TileConfig {
        TileConfig {
            kind: TileKind::Slave,
            ..TileConfig::master(name)
        }
    }

    /// Creates a CA tile: a slave whose serialization runs on a
    /// communication assist.
    pub fn with_communication_assist(name: impl Into<String>) -> TileConfig {
        TileConfig {
            kind: TileKind::CommunicationAssist,
            ca: Some(SerializationCost::ca_default()),
            ..TileConfig::master(name)
        }
    }

    /// Creates a hardware-IP tile for a dedicated actor.
    pub fn hardware_ip(name: impl Into<String>) -> TileConfig {
        TileConfig {
            kind: TileKind::HardwareIp,
            processor: ProcessorType::hardware_ip(),
            imem_bytes: 0,
            dmem_bytes: 0,
            serialization: SerializationCost {
                setup_cycles: 0,
                cycles_per_word: 1,
            },
            ca: None,
            name: name.into(),
        }
    }

    /// The tile's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tile variant.
    pub fn kind(&self) -> TileKind {
        self.kind
    }

    /// The processor type of the PE.
    pub fn processor(&self) -> &ProcessorType {
        &self.processor
    }

    /// Instruction memory in bytes.
    pub fn imem_bytes(&self) -> u64 {
        self.imem_bytes
    }

    /// Data memory in bytes.
    pub fn dmem_bytes(&self) -> u64 {
        self.dmem_bytes
    }

    /// Software serialization cost of the PE.
    pub fn serialization(&self) -> SerializationCost {
        self.serialization
    }

    /// Communication-assist cost, when present.
    pub fn ca(&self) -> Option<SerializationCost> {
        self.ca
    }

    /// True if the tile may access board peripherals.
    pub fn has_peripherals(&self) -> bool {
        self.kind == TileKind::Master
    }

    /// Sets the memory sizes (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the total exceeds [`MAX_TILE_MEMORY_BYTES`].
    pub fn with_memory(mut self, imem_bytes: u64, dmem_bytes: u64) -> TileConfig {
        assert!(
            imem_bytes + dmem_bytes <= MAX_TILE_MEMORY_BYTES,
            "tile memory {imem_bytes}+{dmem_bytes} exceeds the {MAX_TILE_MEMORY_BYTES}-byte limit"
        );
        self.imem_bytes = imem_bytes;
        self.dmem_bytes = dmem_bytes;
        self
    }

    /// Overrides the processor type (heterogeneous platforms).
    pub fn with_processor(mut self, processor: ProcessorType) -> TileConfig {
        self.processor = processor;
        self
    }

    /// Overrides the serialization cost model.
    pub fn with_serialization(mut self, cost: SerializationCost) -> TileConfig {
        self.serialization = cost;
        self
    }

    /// Overrides the communication-assist cost model (CA tiles only).
    ///
    /// # Panics
    ///
    /// Panics when called on a tile without a CA.
    pub fn with_ca_cost(mut self, cost: SerializationCost) -> TileConfig {
        assert!(
            self.ca.is_some(),
            "tile `{}` has no communication assist",
            self.name
        );
        self.ca = Some(cost);
        self
    }

    /// PE cycles charged for sending/receiving one token of `words` words:
    /// on CA tiles the PE pays only the setup, the CA moves the words.
    pub fn pe_token_overhead(&self, words: u64) -> u64 {
        match self.ca {
            Some(ca) => ca.setup_cycles,
            None => self.serialization.pe_cycles(words),
        }
    }

    /// Cycles per word of the loop (PE or CA) that streams tokens of
    /// `n_words` words, with the per-token setup amortized over the words
    /// and rounded up (conservative). The analysis and the simulator both
    /// charge this figure, so a WCET run reproduces the bound exactly.
    pub fn word_cycles(&self, n_words: u64) -> u64 {
        let cost = self.ca.unwrap_or(self.serialization);
        cost.cycles_per_word + cost.setup_cycles.div_ceil(n_words.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants() {
        let m = TileConfig::master("t0");
        assert_eq!(m.kind(), TileKind::Master);
        assert!(m.has_peripherals());
        let s = TileConfig::slave("t1");
        assert_eq!(s.kind(), TileKind::Slave);
        assert!(!s.has_peripherals());
        let c = TileConfig::with_communication_assist("t2");
        assert_eq!(c.kind(), TileKind::CommunicationAssist);
        assert!(c.ca().is_some());
        let h = TileConfig::hardware_ip("t3");
        assert_eq!(h.kind(), TileKind::HardwareIp);
        assert_eq!(h.processor().name(), "hardware-ip");
    }

    #[test]
    fn serialization_costs() {
        let sw = SerializationCost::software_default();
        assert_eq!(sw.pe_cycles(10), 48 + 120);
        let ca = SerializationCost::ca_default();
        assert!(ca.pe_cycles(10) < sw.pe_cycles(10));
    }

    #[test]
    fn ca_offloads_pe() {
        let plain = TileConfig::slave("p");
        let ca = TileConfig::with_communication_assist("c");
        // Large tokens: CA tile PE overhead is constant, plain grows.
        assert!(ca.pe_token_overhead(100) < plain.pe_token_overhead(100));
        assert_eq!(ca.pe_token_overhead(100), ca.pe_token_overhead(1000));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn memory_limit_enforced() {
        let _ = TileConfig::master("big").with_memory(200 * 1024, 100 * 1024);
    }

    #[test]
    fn memory_override() {
        let t = TileConfig::slave("t").with_memory(64 * 1024, 32 * 1024);
        assert_eq!(t.imem_bytes(), 64 * 1024);
        assert_eq!(t.dmem_bytes(), 32 * 1024);
    }
}
