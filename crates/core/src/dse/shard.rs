//! Sharded design-space exploration: split a sweep across processes,
//! serialize the partial results as JSON lines, and merge them back into
//! the exact report an unsharded run would have produced.
//!
//! [`Sweep`] is the one sweep evaluator. `mamps dse` (plain, `--shard`,
//! `--resume`), the [`crate::serve`] coordinator and its `dse-work`
//! workers all resolve their sweep into one, and [`Sweep::evaluate`] is
//! the only place design points are evaluated. Around it, in three
//! pieces:
//!
//! 1. **Partitioning.** [`ShardSpec`] `index/count` (the CLI's
//!    `--shard i/n`, an argument of [`Sweep::run`]) deterministically
//!    assigns every design point of the canonical sweep order (see
//!    [`Sweep::new`]) to exactly one shard, round-robin by sequence
//!    number. Round-robin balances load across shards even though
//!    small-tile-count points are much cheaper than large ones.
//! 2. **Serialization.** A shard run produces a [`DseShard`]: a header
//!    identifying the sweep (its [`SweepSignature`]), the shard, and the
//!    total design-point count, plus one seq-tagged record per evaluated
//!    point. [`DseShard::to_jsonl`] / [`DseShard::from_jsonl`] move it
//!    through files — one JSON object per line, first line the header.
//! 3. **Merging.** [`merge_reports`] validates that the shard files come
//!    from the same sweep and form a complete, non-overlapping partition,
//!    and restores the canonical evaluation order by sequence number — so
//!    the merged shard is equal to the unsharded one, and
//!    [`DseShard::render`] prints it byte-for-byte identically. Pareto
//!    fronts are *not* merged per shard: the merged shard carries all
//!    points, and rendering recomputes the global front per strategy.

use std::fmt;
use std::str::FromStr;

use mamps_mapping::Binder;
use mamps_platform::interconnect::Interconnect;
use mamps_sdf::model::ApplicationModel;
use serde::{Deserialize, Serialize};

use crate::dse::{
    evaluate_dse_config, evaluate_use_case_config, sort_dse_points, sort_use_case_points,
    use_case_context, DsePoint, DseReport, SkippedPoint, SweepConfig, UseCaseDseReport,
    UseCasePoint,
};
use crate::flow::FlowOptions;
use crate::parallel::dynamic_map;

/// Which slice of a sweep this process evaluates: shard `index` of
/// `count`. The full, unsharded sweep is shard 0 of 1
/// ([`ShardSpec::full`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// Zero-based shard index.
    pub index: u32,
    /// Total number of shards.
    pub count: u32,
}

impl ShardSpec {
    /// A validated shard spec.
    ///
    /// # Errors
    ///
    /// A message when `count` is zero or `index` is out of range.
    pub fn new(index: u32, count: u32) -> Result<ShardSpec, String> {
        if count == 0 {
            return Err("shard count must be at least 1".into());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range for {count} shard{}",
                if count == 1 { "" } else { "s" }
            ));
        }
        Ok(ShardSpec { index, count })
    }

    /// The whole sweep as a single shard (0 of 1).
    pub fn full() -> ShardSpec {
        ShardSpec { index: 0, count: 1 }
    }

    /// True when this shard evaluates design point `seq` of the canonical
    /// sweep order (round-robin partition). An invalid spec (`count` 0 —
    /// representable because the fields are public and deserializable)
    /// owns nothing rather than dividing by zero.
    pub fn owns(&self, seq: u64) -> bool {
        self.count != 0 && seq % u64::from(self.count) == u64::from(self.index)
    }

    /// True when `index < count` and `count > 0` — what
    /// [`ShardSpec::new`] guarantees, re-checked on specs that arrived
    /// through deserialization or literal construction.
    pub fn is_valid(&self) -> bool {
        self.count > 0 && self.index < self.count
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// `"i/n"` (e.g. `"0/3"`), the CLI syntax of `--shard`.
impl FromStr for ShardSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<ShardSpec, String> {
        let (index, count) = s
            .split_once('/')
            .ok_or_else(|| format!("shard spec `{s}` is not of the form i/n (e.g. 0/3)"))?;
        let index: u32 = index
            .trim()
            .parse()
            .map_err(|_| format!("shard index `{index}` is not a number"))?;
        let count: u32 = count
            .trim()
            .parse()
            .map_err(|_| format!("shard count `{count}` is not a number"))?;
        ShardSpec::new(index, count)
    }
}

/// What kind of sweep a shard file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepMode {
    /// Single-application sweep (`mamps dse <app.xml>`): [`DsePoint`] /
    /// [`SkippedPoint`] records.
    Binders,
    /// Use-case sweep (`mamps dse --apps`): [`UseCasePoint`] records.
    UseCases,
}

impl SweepMode {
    /// True when `outcome` is a kind of record this sweep mode produces.
    pub fn admits(self, outcome: &ShardOutcome) -> bool {
        matches!(
            (outcome, self),
            (
                ShardOutcome::Point(_) | ShardOutcome::Skipped(_),
                SweepMode::Binders
            ) | (ShardOutcome::UseCase(_), SweepMode::UseCases)
        )
    }
}

impl fmt::Display for SweepMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepMode::Binders => write!(f, "binder sweep"),
            SweepMode::UseCases => write!(f, "use-case sweep"),
        }
    }
}

/// Identity of a sweep: shards can only be merged when they were produced
/// from the same application(s), tile counts, interconnect choice and
/// binding strategies.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepSignature {
    /// Application (graph) names, in use-case admission order.
    pub apps: Vec<String>,
    /// Tile counts swept.
    pub tile_counts: Vec<usize>,
    /// Whether NoC configurations were swept alongside FSL.
    pub include_noc: bool,
    /// Binding strategy names, in sweep order.
    pub binders: Vec<String>,
}

impl fmt::Display for SweepSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "apps={}; tiles={}; noc={}; binders={}",
            self.apps.join(","),
            self.tile_counts
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(","),
            self.include_noc,
            self.binders.join(",")
        )
    }
}

/// First line of a shard file: which sweep, which shard, how many design
/// points the whole sweep has.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardHeader {
    /// The sweep kind.
    pub mode: SweepMode,
    /// This file's shard.
    pub shard: ShardSpec,
    /// Design points in the whole (unsharded) sweep.
    pub total_configs: u64,
    /// The sweep's identity.
    pub signature: SweepSignature,
}

/// One evaluated design point of a shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ShardOutcome {
    /// A feasible single-application design point.
    Point(DsePoint),
    /// An infeasible single-application design point.
    Skipped(SkippedPoint),
    /// A use-case design point.
    UseCase(UseCasePoint),
}

/// A seq-tagged outcome: `seq` is the design point's position in the
/// canonical sweep order, which the merge uses to restore the unsharded
/// evaluation order exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardRecord {
    /// Position in the canonical sweep order.
    pub seq: u64,
    /// The evaluated outcome.
    pub outcome: ShardOutcome,
}

/// One line of a shard file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum ShardLine {
    /// The header (always the first line).
    Header(ShardHeader),
    /// An evaluated design point.
    Record(ShardRecord),
}

/// The partial result of one shard run: the header plus the records of
/// every design point the shard owns, in canonical sweep order.
#[derive(Debug, Clone, PartialEq)]
pub struct DseShard {
    /// The shard's identity.
    pub header: ShardHeader,
    /// Evaluated design points, seq ascending.
    pub records: Vec<ShardRecord>,
}

impl DseShard {
    /// Renders the shard as JSON lines: one object per line, the header
    /// first. The encoding is canonical — equal shards produce identical
    /// bytes.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        push_line(&mut out, "Header", &self.header);
        for r in &self.records {
            push_line(&mut out, "Record", r);
        }
        out
    }

    /// Parses a shard back from JSON lines, tolerating a torn final line.
    ///
    /// A sweep killed mid-write leaves its shard file with a truncated
    /// last record; everything before it is intact and worth resuming
    /// from. This loader drops a final line that fails to parse (returning
    /// `true` alongside the shard) but still rejects corruption anywhere
    /// earlier — a bad line *followed by* good ones is not a crash
    /// artefact.
    ///
    /// # Errors
    ///
    /// As [`DseShard::from_jsonl`], except a parse error on the final
    /// non-empty line.
    pub fn from_jsonl_lossy(text: &str) -> Result<(DseShard, bool), ShardFileError> {
        match DseShard::from_jsonl(text) {
            Ok(s) => Ok((s, false)),
            Err(ShardFileError::Parse { line, .. })
                if Some(line)
                    == text
                        .lines()
                        .enumerate()
                        .filter(|(_, l)| !l.trim().is_empty())
                        .map(|(i, _)| i + 1)
                        .last() =>
            {
                let intact: String = text
                    .lines()
                    .take(line - 1)
                    .flat_map(|l| [l, "\n"])
                    .collect();
                DseShard::from_jsonl(&intact).map(|s| (s, true))
            }
            Err(e) => Err(e),
        }
    }

    /// Parses a shard back from JSON lines.
    ///
    /// # Errors
    ///
    /// [`ShardFileError`] on malformed JSON, a missing header, or records
    /// that do not belong to the header's shard or mode.
    pub fn from_jsonl(text: &str) -> Result<DseShard, ShardFileError> {
        let mut header: Option<ShardHeader> = None;
        let mut records = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let parsed: ShardLine =
                serde::json::from_str(line).map_err(|e| ShardFileError::Parse {
                    line: i + 1,
                    message: e.to_string(),
                })?;
            match (parsed, &header) {
                (ShardLine::Header(h), None) => header = Some(h),
                (ShardLine::Header(_), Some(_)) => {
                    return Err(ShardFileError::Parse {
                        line: i + 1,
                        message: "second header line in one shard file".into(),
                    })
                }
                (ShardLine::Record(r), Some(_)) => records.push(r),
                (ShardLine::Record(_), None) => {
                    return Err(ShardFileError::MissingHeader);
                }
            }
        }
        let header = header.ok_or(ShardFileError::MissingHeader)?;
        // The derive cannot enforce ShardSpec's invariant; a corrupt or
        // hand-edited header must fail here, not divide by zero in
        // `owns` or index out of bounds in `merge_reports`.
        if !header.shard.is_valid() {
            return Err(ShardFileError::InvalidShard {
                shard: header.shard,
            });
        }
        for r in &records {
            if !header.shard.owns(r.seq) {
                return Err(ShardFileError::ForeignRecord {
                    seq: r.seq,
                    shard: header.shard,
                });
            }
            if !header.mode.admits(&r.outcome) {
                return Err(ShardFileError::ModeMismatch { seq: r.seq });
            }
        }
        Ok(DseShard { header, records })
    }

    /// Assembles this shard's records into a [`DseReport`] (the full
    /// report when this is the 0/1 full-sweep shard, a partial one
    /// otherwise). Use-case records are ignored.
    pub fn into_dse_report(self) -> DseReport {
        let mut report = DseReport::default();
        for r in self.records {
            match r.outcome {
                ShardOutcome::Point(p) => report.points.push(p),
                ShardOutcome::Skipped(s) => report.skipped.push(s),
                ShardOutcome::UseCase(_) => {}
            }
        }
        sort_dse_points(&mut report.points);
        report
    }

    /// Assembles this shard's records into a [`UseCaseDseReport`].
    /// Single-application records are ignored.
    pub fn into_use_case_report(self) -> UseCaseDseReport {
        let mut report = UseCaseDseReport::default();
        for r in self.records {
            if let ShardOutcome::UseCase(p) = r.outcome {
                report.points.push(p);
            }
        }
        sort_use_case_points(&mut report.points);
        report
    }

    /// Renders the shard's report as `mamps dse` prints it, with the
    /// renderer of the header's sweep mode. For the full shard of a sweep
    /// — unsharded, merged, resumed or served — this is the sweep's
    /// report, its per-strategy Pareto front included.
    pub fn render(self) -> String {
        match self.header.mode {
            SweepMode::Binders => crate::report::render_dse_report(&self.into_dse_report()),
            SweepMode::UseCases => {
                crate::report::render_use_case_report(&self.into_use_case_report())
            }
        }
    }
}

/// Appends one `{"Header":…}` / `{"Record":…}` line of a shard file to
/// `out`. The lines are built by hand instead of cloning the header and
/// every record into a `ShardLine`, with identical bytes (pinned by the
/// round-trip fixpoint test). The coordinator appends its spool's record
/// lines with it too, so a spool file is a shard file.
pub(crate) fn push_line(out: &mut String, tag: &str, value: &dyn Serialize) {
    let line = serde::Value::Map(vec![(tag.to_string(), value.to_value())]);
    serde::json::emit(&line, out);
    out.push('\n');
}

/// Errors reading a single shard file.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardFileError {
    /// A line is not valid JSON or not a shard line.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The file carries no header line.
    MissingHeader,
    /// The header's shard spec violates `index < count` (corrupt or
    /// hand-edited file).
    InvalidShard {
        /// The offending spec.
        shard: ShardSpec,
    },
    /// A record's seq is not owned by the header's shard.
    ForeignRecord {
        /// The offending sequence number.
        seq: u64,
        /// The shard that does not own it.
        shard: ShardSpec,
    },
    /// A record's outcome kind contradicts the header's sweep mode.
    ModeMismatch {
        /// The offending sequence number.
        seq: u64,
    },
}

impl fmt::Display for ShardFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardFileError::Parse { line, message } => {
                write!(f, "shard file line {line}: {message}")
            }
            ShardFileError::MissingHeader => {
                write!(f, "shard file has no header line")
            }
            ShardFileError::InvalidShard { shard } => write!(
                f,
                "shard file header carries invalid shard spec {shard} \
                 (index must be below the count)"
            ),
            ShardFileError::ForeignRecord { seq, shard } => write!(
                f,
                "record seq {seq} does not belong to shard {shard} (wrongly \
                 concatenated files?)"
            ),
            ShardFileError::ModeMismatch { seq } => {
                write!(f, "record seq {seq} contradicts the header's sweep mode")
            }
        }
    }
}

impl std::error::Error for ShardFileError {}

/// Errors merging shard files.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// No shards were given.
    NoShards,
    /// Two shards disagree about the sweep (mode, signature, shard count
    /// or total design-point count).
    SweepMismatch {
        /// Rendered identity of the first shard.
        expected: String,
        /// Rendered identity of the disagreeing shard.
        found: String,
    },
    /// The same shard index appears twice (overlapping shards).
    DuplicateShard {
        /// The duplicated index.
        index: u32,
    },
    /// Not every shard of the sweep is present.
    MissingShards {
        /// The absent shard indices.
        missing: Vec<u32>,
        /// The sweep's shard count.
        count: u32,
    },
    /// The records do not cover every design point exactly once (e.g. a
    /// truncated shard file).
    IncompleteSweep {
        /// Design points covered.
        covered: u64,
        /// Design points the sweep has.
        total: u64,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::NoShards => write!(f, "no shard files to merge"),
            MergeError::SweepMismatch { expected, found } => write!(
                f,
                "shards come from different sweeps:\n  first: {expected}\n  other: {found}"
            ),
            MergeError::DuplicateShard { index } => {
                write!(
                    f,
                    "overlapping shards: index {index} appears more than once"
                )
            }
            MergeError::MissingShards { missing, count } => write!(
                f,
                "missing shard{} {}{} of {count}",
                if missing.len() == 1 { "" } else { "s" },
                missing
                    .iter()
                    .map(|i| i.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
                // The list is capped at the first few absentees.
                if missing.len() >= 8 { ", …" } else { "" }
            ),
            MergeError::IncompleteSweep { covered, total } => write!(
                f,
                "records cover {covered} of {total} design points (truncated shard file?)"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Rendered identity of a header, for mismatch reporting.
fn header_identity(h: &ShardHeader) -> String {
    format!(
        "{} over {} ({} design points, {} shards)",
        h.mode, h.signature, h.total_configs, h.shard.count
    )
}

/// Merges shard results into the full (0/1) shard of the sweep, in
/// canonical seq order. It is equal to the unsharded run's shard, so its
/// report — every global figure, the per-strategy Pareto front included,
/// is recomputed at render time — is byte-identical too.
///
/// # Errors
///
/// [`MergeError`] when the shards disagree about the sweep, overlap, are
/// incomplete, or do not cover every design point exactly once.
pub fn merge_reports(shards: &[DseShard]) -> Result<DseShard, MergeError> {
    let first = shards.first().ok_or(MergeError::NoShards)?;
    let reference = &first.header;
    for s in &shards[1..] {
        let h = &s.header;
        if h.mode != reference.mode
            || h.signature != reference.signature
            || h.total_configs != reference.total_configs
            || h.shard.count != reference.shard.count
        {
            return Err(MergeError::SweepMismatch {
                expected: header_identity(reference),
                found: header_identity(h),
            });
        }
    }

    let count = reference.shard.count;
    // A set, not a `vec![false; count]` bitmap: `count` comes from an
    // untrusted header, and a corrupt count near u32::MAX must produce a
    // structured error below, not a multi-gigabyte allocation here.
    let mut seen = std::collections::BTreeSet::new();
    for s in shards {
        // from_jsonl validates this, but DseShard values can also be
        // constructed directly — never trust `index < count`.
        if !s.header.shard.is_valid() {
            return Err(MergeError::SweepMismatch {
                expected: header_identity(reference),
                found: format!("invalid shard spec {}", s.header.shard),
            });
        }
        let idx = s.header.shard.index;
        if !seen.insert(idx) {
            return Err(MergeError::DuplicateShard { index: idx });
        }
    }
    if seen.len() as u64 != u64::from(count) {
        // Indices are distinct and below `count`, so fewer than `count`
        // of them means some are absent. Name the first few (scanning
        // from 0 finds them after at most |seen| + 8 steps) rather than
        // materializing a possibly huge list.
        let missing: Vec<u32> = (0..count).filter(|i| !seen.contains(i)).take(8).collect();
        return Err(MergeError::MissingShards { missing, count });
    }

    // Restore the canonical evaluation order and check exact coverage.
    let mut records: Vec<&ShardRecord> = shards.iter().flat_map(|s| &s.records).collect();
    records.sort_by_key(|r| r.seq);
    let total = reference.total_configs;
    let exact =
        records.len() as u64 == total && records.iter().enumerate().all(|(i, r)| r.seq == i as u64);
    if !exact {
        return Err(MergeError::IncompleteSweep {
            covered: records.len() as u64,
            total,
        });
    }

    Ok(DseShard {
        header: ShardHeader {
            shard: ShardSpec::full(),
            ..reference.clone()
        },
        records: records.into_iter().cloned().collect(),
    })
}

/// Errors seeding a sweep from partial shard files (`mamps dse --resume`).
#[derive(Debug, Clone, PartialEq)]
pub enum ResumeError {
    /// A resume file belongs to a different sweep than the one being run:
    /// its mode, [`SweepSignature`] or design-point count disagrees.
    SweepMismatch {
        /// Rendered identity of the sweep being run.
        expected: String,
        /// Rendered identity of the disagreeing resume file.
        found: String,
    },
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::SweepMismatch { expected, found } => write!(
                f,
                "resume file comes from a different sweep:\n  running: {expected}\n  \
                 resume:  {found}"
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

/// Collects the already-evaluated outcomes a resumed sweep can reuse:
/// every record of `resume` whose seq the current shard owns. The resume
/// shards' own shard specs are deliberately *not* matched against the
/// current one — resuming a `0/1` full sweep from the partials of a
/// crashed 4-way sharded run (or vice versa) is valid, because records
/// carry their canonical seq and outcomes are deterministic.
pub(crate) fn seed_outcomes(
    expected: &ShardHeader,
    resume: &[DseShard],
) -> Result<std::collections::BTreeMap<u64, ShardOutcome>, ResumeError> {
    let mut seeded = std::collections::BTreeMap::new();
    for s in resume {
        let h = &s.header;
        if h.mode != expected.mode
            || h.signature != expected.signature
            || h.total_configs != expected.total_configs
        {
            return Err(ResumeError::SweepMismatch {
                expected: header_identity(expected),
                found: header_identity(h),
            });
        }
        for r in &s.records {
            if expected.shard.owns(r.seq) {
                seeded.insert(r.seq, r.outcome.clone());
            }
        }
    }
    Ok(seeded)
}

/// A sweep resolved for evaluation: the applications, the design points
/// in canonical order (a point's index is its seq) and the full-sweep
/// header. [`Sweep::evaluate`] is the only place design points are
/// evaluated, so sharded, resumed and served runs produce the very
/// records of a plain one.
#[derive(Debug)]
pub struct Sweep {
    apps: Vec<ApplicationModel>,
    configs: Vec<SweepConfig>,
    header: ShardHeader,
}

impl Sweep {
    /// Validates and resolves a sweep of `apps` over `tile_counts` × FSL
    /// (and NoC when `include_noc`) × `strategies`. Empty `strategies`
    /// sweeps the default binder, `greedy`.
    ///
    /// # Errors
    ///
    /// A rendered reason when `apps` is empty, a [`SweepMode::Binders`]
    /// sweep does not have exactly one application, or `tile_counts` is
    /// empty. Duplicate application names are not an error here: every
    /// design point of such a use-case sweep reports them as a rejection.
    pub fn new(
        mode: SweepMode,
        apps: Vec<ApplicationModel>,
        tile_counts: &[usize],
        include_noc: bool,
        mut strategies: Vec<Binder>,
    ) -> Result<Sweep, String> {
        if apps.is_empty() {
            return Err("sweep has no applications".into());
        }
        if mode == SweepMode::Binders && apps.len() != 1 {
            return Err(format!(
                "a binder sweep takes exactly one application, got {}",
                apps.len()
            ));
        }
        if tile_counts.is_empty() {
            return Err("sweep has no tile counts".into());
        }
        if strategies.is_empty() {
            strategies.push(Binder::default());
        }
        // The canonical order — strategy outermost, then tile count, FSL
        // before NoC — is part of the shard-file contract: shards own
        // positions in it.
        let mut configs: Vec<SweepConfig> = Vec::new();
        for strategy in &strategies {
            for &tiles in tile_counts {
                configs.push((tiles, "fsl", Interconnect::fsl(), *strategy));
                if include_noc {
                    let noc = Interconnect::noc_for_tiles(tiles);
                    configs.push((tiles, "noc", noc, *strategy));
                }
            }
        }
        let header = ShardHeader {
            mode,
            shard: ShardSpec::full(),
            total_configs: configs.len() as u64,
            signature: SweepSignature {
                apps: apps.iter().map(|a| a.graph().name().to_string()).collect(),
                tile_counts: tile_counts.to_vec(),
                include_noc,
                binders: strategies.iter().map(|s| s.name().to_string()).collect(),
            },
        };
        Ok(Sweep {
            apps,
            configs,
            header,
        })
    }

    /// The full-sweep (0/1) header. Its stable hash is the coordinator's
    /// job fingerprint.
    pub fn header(&self) -> &ShardHeader {
        &self.header
    }

    /// Evaluates the design points `seqs` (those past the end of the
    /// sweep are skipped), concurrently per `opts.jobs` with results
    /// identical to a sequential run, and returns their records in the
    /// order of `seqs`.
    pub fn evaluate(
        &self,
        seqs: impl IntoIterator<Item = u64>,
        opts: &FlowOptions,
    ) -> Vec<ShardRecord> {
        let total = self.header.total_configs;
        let todo: Vec<u64> = seqs.into_iter().filter(|&seq| seq < total).collect();
        // The use-case is configuration-independent: validate it once,
        // outside the per-point fan-out.
        let use_case =
            (self.header.mode == SweepMode::UseCases).then(|| use_case_context(&self.apps));
        // Design-point cost is heavily skewed, so points are scheduled
        // dynamically rather than split statically.
        dynamic_map(opts.jobs, &todo, |_, &seq| {
            let config = &self.configs[seq as usize];
            let outcome = match &use_case {
                Some(ctx) => {
                    ShardOutcome::UseCase(evaluate_use_case_config(&self.apps, ctx, config, opts))
                }
                None => match evaluate_dse_config(&self.apps[0], config, opts) {
                    Ok(p) => ShardOutcome::Point(p),
                    Err(s) => ShardOutcome::Skipped(s),
                },
            };
            ShardRecord { seq, outcome }
        })
    }

    /// Runs the design points `shard` owns (`--shard i/n` owns the seqs
    /// with `seq % n == i`; [`ShardSpec::full`] owns them all). The owned
    /// records of `resume` — partial shard files of a crashed or killed
    /// run of the same sweep, sharded alike or not — seed the run and are
    /// not evaluated again. Outcomes are deterministic, so the result is
    /// identical to a cold run's.
    ///
    /// # Errors
    ///
    /// [`ResumeError`] when a resume shard belongs to a different sweep.
    pub fn run(
        &self,
        shard: ShardSpec,
        resume: &[DseShard],
        opts: &FlowOptions,
    ) -> Result<DseShard, ResumeError> {
        let header = ShardHeader {
            shard,
            ..self.header.clone()
        };
        let mut outcomes = seed_outcomes(&header, resume)?;
        let todo =
            (0..header.total_configs).filter(|seq| shard.owns(*seq) && !outcomes.contains_key(seq));
        for r in self.evaluate(todo, opts) {
            outcomes.insert(r.seq, r.outcome);
        }
        Ok(DseShard {
            header,
            records: outcomes
                .into_iter()
                .map(|(seq, outcome)| ShardRecord { seq, outcome })
                .collect(),
        })
    }
}

/// Runs the whole sweep of `apps` over the strategies of
/// [`FlowOptions::binders`]: the body of the library entry points.
///
/// # Panics
///
/// When [`Sweep::new`] rejects the sweep.
pub(crate) fn explore_sweep(
    mode: SweepMode,
    apps: Vec<ApplicationModel>,
    tile_counts: &[usize],
    include_noc: bool,
    opts: &FlowOptions,
) -> DseShard {
    Sweep::new(mode, apps, tile_counts, include_noc, opts.binders.clone())
        .unwrap_or_else(|e| panic!("invalid sweep: {e}"))
        .run(ShardSpec::full(), &[], opts)
        .expect("an empty resume set cannot mismatch")
}

/// The whole single-application sweep of `app` as one shard (see
/// [`crate::dse::explore_report`] for the sweep's shape).
///
/// # Panics
///
/// When `tile_counts` is empty.
pub fn explore_shard(
    app: &ApplicationModel,
    tile_counts: &[usize],
    include_noc: bool,
    opts: &FlowOptions,
) -> DseShard {
    explore_sweep(
        SweepMode::Binders,
        vec![app.clone()],
        tile_counts,
        include_noc,
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::tests::{app, named_app};

    /// The greedy binder sweep of the test app over `tiles` × FSL/NoC.
    fn sweep(tiles: &[usize]) -> Sweep {
        Sweep::new(SweepMode::Binders, vec![app()], tiles, true, Vec::new()).unwrap()
    }

    /// One sweep per mode: the properties below hold for both.
    fn both_modes() -> [Sweep; 2] {
        let binders = [Binder::Greedy, Binder::Spiral];
        let apps = vec![named_app("sa", &[70, 70]), named_app("sb", &[35, 35])];
        [
            Sweep::new(
                SweepMode::Binders,
                vec![app()],
                &[0, 1, 2, 3],
                true,
                binders.to_vec(),
            ),
            Sweep::new(SweepMode::UseCases, apps, &[1, 2, 3], true, Vec::new()),
        ]
        .map(Result::unwrap)
    }

    fn sharded(sweep: &Sweep, n: u32) -> Vec<DseShard> {
        (0..n)
            .map(|i| {
                let spec = ShardSpec::new(i, n).unwrap();
                sweep.run(spec, &[], &FlowOptions::default()).unwrap()
            })
            .collect()
    }

    fn cold(sweep: &Sweep) -> DseShard {
        sweep
            .run(ShardSpec::full(), &[], &FlowOptions::default())
            .unwrap()
    }

    #[test]
    fn shard_spec_parses_and_validates() {
        assert_eq!(
            "0/3".parse::<ShardSpec>().unwrap(),
            ShardSpec { index: 0, count: 3 }
        );
        assert_eq!("2/3".parse::<ShardSpec>().unwrap().to_string(), "2/3");
        assert!("3/3".parse::<ShardSpec>().is_err());
        assert!("1".parse::<ShardSpec>().is_err());
        assert!("a/b".parse::<ShardSpec>().is_err());
        assert!("0/0".parse::<ShardSpec>().is_err());
        assert!(ShardSpec::new(5, 2).is_err());
    }

    #[test]
    fn partition_is_disjoint_and_exhaustive() {
        for count in 1..8u32 {
            let mut owners = vec![0u32; 23];
            for i in 0..count {
                let spec = ShardSpec::new(i, count).unwrap();
                for (seq, n) in owners.iter_mut().enumerate() {
                    if spec.owns(seq as u64) {
                        *n += 1;
                    }
                }
            }
            assert!(owners.iter().all(|&n| n == 1), "count={count}: {owners:?}");
        }
    }

    #[test]
    fn sweep_new_validates_the_sweep_shape() {
        use SweepMode::{Binders, UseCases};
        let err =
            |mode, apps, tiles: &[usize]| Sweep::new(mode, apps, tiles, true, Vec::new()).err();
        let no_apps = Some("sweep has no applications".to_string());
        assert_eq!(err(UseCases, Vec::new(), &[1]), no_apps);
        assert_eq!(err(Binders, Vec::new(), &[1]), no_apps);
        let two = Some("a binder sweep takes exactly one application, got 2".into());
        assert_eq!(err(Binders, vec![app(), app()], &[1]), two);
        assert_eq!(
            err(Binders, vec![app()], &[]),
            Some("sweep has no tile counts".into())
        );
        // Duplicate names are a per-point rejection, not a malformed sweep.
        assert_eq!(err(UseCases, vec![app(), app()], &[1]), None);
        // No strategies sweeps greedy: 2 tile counts x fsl/noc.
        let header = sweep(&[1, 2]).header().clone();
        assert_eq!(header.signature.binders, vec!["greedy".to_string()]);
        assert_eq!((header.total_configs, header.shard), (4, ShardSpec::full()));
    }

    #[test]
    fn merged_shards_equal_unsharded_report() {
        for sweep in both_modes() {
            let full = cold(&sweep);
            for n in [1u32, 2, 3, 5] {
                let merged = merge_reports(&sharded(&sweep, n)).unwrap();
                let mode = sweep.header().mode;
                assert_eq!(merged, full, "{mode}, n={n}");
            }
            assert_eq!(full.header.shard, ShardSpec::full());
        }
    }

    #[test]
    fn evaluate_skips_seqs_past_the_end_of_the_sweep() {
        let s = sweep(&[1, 2]);
        let opts = FlowOptions::default();
        let records = s.evaluate([1, 7, 0, u64::MAX], &opts);
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 0]);
        assert_eq!(records[1], cold(&s).records[0]);
    }

    #[test]
    fn jsonl_round_trips_shards_exactly() {
        for shard in sharded(&sweep(&[0, 1, 2, 3]), 2) {
            let text = shard.to_jsonl();
            let back = DseShard::from_jsonl(&text).unwrap();
            assert_eq!(back, shard);
            // Canonical bytes: re-serializing is a fixpoint.
            assert_eq!(back.to_jsonl(), text);
        }
    }

    #[test]
    fn merge_rejects_missing_and_duplicate_shards() {
        let shards = sharded(&sweep(&[0, 1, 2, 3]), 3);
        assert!(matches!(
            merge_reports(&shards[..2]),
            Err(MergeError::MissingShards { ref missing, count: 3 }) if missing == &vec![2]
        ));
        let dup = vec![shards[0].clone(), shards[1].clone(), shards[1].clone()];
        assert!(matches!(
            merge_reports(&dup),
            Err(MergeError::DuplicateShard { index: 1 })
        ));
        assert_eq!(merge_reports(&[]), Err(MergeError::NoShards));
    }

    #[test]
    fn merge_rejects_mismatched_sweeps() {
        let s0 = sharded(&sweep(&[1, 2]), 2).swap_remove(0);
        let s1 = sharded(&sweep(&[1, 2, 3]), 2).swap_remove(1); // different tiles
        assert!(matches!(
            merge_reports(&[s0, s1]),
            Err(MergeError::SweepMismatch { .. })
        ));
    }

    #[test]
    fn merge_rejects_truncated_shards() {
        let mut shards = sharded(&sweep(&[0, 1, 2, 3]), 2);
        shards[1].records.pop();
        assert!(matches!(
            merge_reports(&shards),
            Err(MergeError::IncompleteSweep { .. })
        ));
    }

    #[test]
    fn corrupt_shard_specs_are_errors_not_panics() {
        // count 0 would divide by zero in `owns`; index >= count would
        // index out of bounds in `merge_reports`. Both must surface as
        // structured errors from from_jsonl.
        let good = sharded(&sweep(&[1]), 2).swap_remove(0);
        let zero = good
            .to_jsonl()
            .replace("\"index\":0,\"count\":2", "\"index\":0,\"count\":0");
        assert!(matches!(
            DseShard::from_jsonl(&zero),
            Err(ShardFileError::InvalidShard { .. })
        ));
        let oob = good
            .to_jsonl()
            .replace("\"index\":0,\"count\":2", "\"index\":9,\"count\":2");
        assert!(matches!(
            DseShard::from_jsonl(&oob),
            Err(ShardFileError::InvalidShard { .. })
        ));
        // Directly-constructed invalid specs are caught by the merge too.
        let mut bad = good.clone();
        bad.header.shard = ShardSpec { index: 9, count: 2 };
        assert!(matches!(
            merge_reports(&[good, bad]),
            Err(MergeError::SweepMismatch { .. })
        ));
        assert!(!ShardSpec { index: 0, count: 0 }.owns(0));
    }

    #[test]
    fn resumed_sweep_is_identical_to_a_cold_run() {
        let opts = FlowOptions::default();
        for sweep in both_modes() {
            let cold = cold(&sweep);
            // Simulate a crash after an arbitrary prefix of the records.
            for keep in [0, 1, cold.records.len() / 2, cold.records.len()] {
                let mut partial = cold.clone();
                partial.records.truncate(keep);
                let resumed = sweep.run(ShardSpec::full(), &[partial], &opts).unwrap();
                let mode = sweep.header().mode;
                assert_eq!(resumed, cold, "{mode}, keep={keep}");
                assert_eq!(resumed.to_jsonl(), cold.to_jsonl(), "{mode}, keep={keep}");
            }
        }
    }

    #[test]
    fn resume_reuses_partials_from_a_differently_sharded_run() {
        // A crashed 3-way sharded sweep's partials seed an unsharded
        // resume, and the unsharded run seeds a shard: every record
        // carries its canonical seq, so shard geometry does not matter.
        let s = sweep(&[0, 1, 2, 3]);
        let opts = FlowOptions::default();
        let cold = cold(&s);
        let partials = sharded(&s, 3);
        assert_eq!(s.run(ShardSpec::full(), &partials, &opts).unwrap(), cold);
        let spec = ShardSpec::new(1, 3).unwrap();
        let reseeded = s.run(spec, std::slice::from_ref(&cold), &opts).unwrap();
        assert_eq!(reseeded, partials[1]);
    }

    #[test]
    fn resume_rejects_foreign_sweeps() {
        let other = cold(&sweep(&[1, 2])); // different sweep
        assert!(matches!(
            sweep(&[0, 1, 2, 3]).run(ShardSpec::full(), &[other], &FlowOptions::default()),
            Err(ResumeError::SweepMismatch { .. })
        ));
    }

    #[test]
    fn lossy_loader_drops_only_a_torn_trailing_line() {
        let shard = cold(&sweep(&[1, 2]));
        let text = shard.to_jsonl();

        // Intact file: nothing dropped.
        let (back, dropped) = DseShard::from_jsonl_lossy(&text).unwrap();
        assert_eq!(back, shard);
        assert!(!dropped);

        // Torn mid-write: the final line is half a record.
        let torn = &text[..text.len() - text.lines().last().unwrap().len() / 2 - 1];
        let (back, dropped) = DseShard::from_jsonl_lossy(torn).unwrap();
        assert!(dropped);
        assert_eq!(back.records.len(), shard.records.len() - 1);
        assert_eq!(&back.records[..], &shard.records[..shard.records.len() - 1]);

        // Corruption before intact lines is NOT a crash artefact.
        let mut lines: Vec<&str> = text.lines().collect();
        let garbage = "{\"Record\":garbage}";
        lines.insert(1, garbage);
        let corrupt = lines.join("\n");
        assert!(matches!(
            DseShard::from_jsonl_lossy(&corrupt),
            Err(ShardFileError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn foreign_records_are_rejected_at_parse_time() {
        let shards = sharded(&sweep(&[0, 1, 2, 3]), 2);
        // Concatenating two different shards' files corrupts ownership.
        let concatenated = format!("{}{}", shards[0].to_jsonl(), shards[1].to_jsonl());
        assert!(DseShard::from_jsonl(&concatenated).is_err());
        assert!(matches!(
            DseShard::from_jsonl(""),
            Err(ShardFileError::MissingHeader)
        ));
        assert!(matches!(
            DseShard::from_jsonl("{\"nonsense\":1}\n"),
            Err(ShardFileError::Parse { line: 1, .. })
        ));
    }
}
