//! # mamps-mjpeg — the MJPEG decoder case study (paper §6, Fig. 5)
//!
//! A complete MJPEG-like codec built for the evaluation of the MAMPS design
//! flow: bitstream I/O, Huffman coding, quantization, zig-zag, integer
//! DCT/IDCT, colour conversion, a sequence generator covering the paper's
//! five real-life test sequences plus the synthetic worst-case sequence,
//! and the five decoder actors (`VLD`, `IQZZ`, `IDCT`, `CC`, `Raster`)
//! instrumented with a deterministic cycle-cost model.
//!
//! The actors do real work (the decoder reconstructs frames, verified
//! against the encoder input), and every operation charges cycles through
//! [`cost`], so per-firing *actual* execution times and analytic *WCETs*
//! come from the same constants with `actual <= WCET` guaranteed — the
//! property underpinning the flow's conservative throughput bound.
//!
//! ## Example
//!
//! ```
//! use mamps_mjpeg::encoder::{encode_sequence, Content, StreamConfig};
//! use mamps_mjpeg::actors::decode_stream;
//!
//! let cfg = StreamConfig::small();
//! let stream = encode_sequence(&cfg, Content::Photo, 42);
//! let result = decode_stream(&stream).unwrap();
//! assert_eq!(result.frames.len(), cfg.frames as usize);
//! // Per-firing execution times for the platform simulator:
//! assert_eq!(result.profile.vld.len(), cfg.total_mcus());
//! ```

#![forbid(unsafe_code)]

pub mod actors;
pub mod app_model;
pub mod bitstream;
pub mod color;
pub mod cost;
pub mod dct;
pub mod encoder;
pub mod huffman;
pub mod quant;
pub mod sequences;
pub mod zigzag;

pub use actors::{decode_stream, CostProfile, DecodeError, DecodeResult};
pub use app_model::{fig5_graph, mjpeg_application};
pub use encoder::{encode_sequence, Content, Frame, StreamConfig};
pub use sequences::{profile_sequence, synthetic, test_set, TestSequence};
