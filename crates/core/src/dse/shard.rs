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
//! 3. **Assembly.** Every shard a sweep produces comes out of a
//!    [`MergeLedger`]: records keyed by seq, the first outcome per seq
//!    kept, listed in canonical order. [`Sweep::run`] absorbs its resume
//!    files and inserts what it evaluates; [`merge_reports`] checks that
//!    the shard files come from one sweep and form a complete,
//!    non-overlapping partition, then absorbs them all; the
//!    [`crate::serve`] coordinator absorbs its spool and inserts its
//!    workers' completions. So merged, resumed and served shards equal
//!    the unsharded one, and [`DseShard::render`] prints them
//!    byte-for-byte identically. Pareto fronts are *not* merged per
//!    shard: the merged shard carries all points, and rendering
//!    recomputes the global front per strategy.

use std::collections::btree_map::{BTreeMap, Entry};
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
    /// Each application's [`serde::stable_hash_of`] digest
    /// ([`ApplicationModel::digest`]), in the order of `apps`: two
    /// versions of one graph name are different sweeps.
    pub digests: Vec<u64>,
    /// Tile counts swept.
    pub tile_counts: Vec<usize>,
    /// Whether NoC configurations were swept alongside FSL.
    pub include_noc: bool,
    /// Binding strategy names, in sweep order.
    pub binders: Vec<String>,
}

impl fmt::Display for SweepSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let apps = self.apps.iter().zip(&self.digests);
        let apps: Vec<String> = apps.map(|(a, d)| format!("{a}@{d:016x}")).collect();
        let tiles: Vec<String> = self.tile_counts.iter().map(usize::to_string).collect();
        write!(
            f,
            "apps={}; tiles={}; noc={}; binders={}",
            apps.join(","),
            tiles.join(","),
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
        /// The first absent shard indices, at most nine: the message names
        /// eight and marks a ninth with an ellipsis.
        missing: Vec<u32>,
        /// The sweep's shard count.
        count: u32,
    },
    /// The records do not cover every design point exactly once. At least
    /// one of `missing`, `repeated` and `past_end` is nonzero.
    IncompleteSweep {
        /// Records in the shard files.
        covered: u64,
        /// Design points the sweep has.
        total: u64,
        /// Design points no record covers (e.g. a truncated shard file).
        missing: u64,
        /// Records of a design point that an earlier record covers.
        repeated: u64,
        /// Records whose seq lies past the sweep's last design point.
        past_end: u64,
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
                    .take(8)
                    .map(|i| i.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
                if missing.len() > 8 { ", …" } else { "" }
            ),
            MergeError::IncompleteSweep {
                covered,
                total,
                missing,
                repeated,
                past_end,
            } => {
                write!(f, "records cover {covered} of {total} design points:")?;
                let plural = |n: u64| if n == 1 { "" } else { "s" };
                let causes = [
                    (*missing, "design point", " missing (truncated shard file?)"),
                    (*repeated, "record", " repeated"),
                    (*past_end, "record", " past the last design point"),
                ];
                let present = causes.into_iter().filter(|&(n, _, _)| n > 0);
                for (i, (n, what, cause)) in present.enumerate() {
                    let sep = if i == 0 { " " } else { ", " };
                    write!(f, "{sep}{n} {what}{}{cause}", plural(n))?;
                }
                Ok(())
            }
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

impl ShardHeader {
    /// True when `other` belongs to the same sweep: mode, signature and
    /// design-point count agree. The two shard specs may differ.
    fn same_sweep(&self, other: &ShardHeader) -> bool {
        self.mode == other.mode
            && self.signature == other.signature
            && self.total_configs == other.total_configs
    }
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
        if !h.same_sweep(reference) || h.shard.count != reference.shard.count {
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
        // from 0 finds them after at most |seen| + 9 steps) rather than
        // materializing a possibly huge list.
        let missing: Vec<u32> = (0..count).filter(|i| !seen.contains(i)).take(9).collect();
        return Err(MergeError::MissingShards { missing, count });
    }

    // Every design point exactly once: the full-sweep ledger holds each
    // seq, and no record was left over.
    let mut ledger = MergeLedger::new(ShardHeader {
        shard: ShardSpec::full(),
        ..reference.clone()
    });
    let total = reference.total_configs;
    let (mut covered, mut past_end) = (0, 0);
    for s in shards {
        ledger
            .absorb(s)
            .expect("every shard was checked to be of this sweep");
        covered += s.records.len() as u64;
        past_end += s.records.iter().filter(|r| r.seq >= total).count() as u64;
    }
    // The ledger holds each in-range seq once, so every other in-range
    // record repeats one.
    let (missing, repeated) = (total - ledger.len(), covered - past_end - ledger.len());
    if missing + repeated + past_end > 0 {
        return Err(MergeError::IncompleteSweep {
            covered,
            total,
            missing,
            repeated,
            past_end,
        });
    }
    Ok(ledger.into_shard())
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

/// The seq-keyed assembly of one shard's records: every [`DseShard`] a
/// sweep produces comes out of one. [`Sweep::run`] absorbs its resume
/// files and inserts what it evaluates, [`merge_reports`] absorbs every
/// shard file into a full-sweep ledger, and the [`crate::serve`]
/// coordinator absorbs its spool and inserts its workers' completions
/// ([`crate::dse::lease::LeaseTable::accept`]). The first outcome per seq
/// wins and later ones are dropped, which is safe because design-point
/// outcomes are deterministic. The shard lists its records in canonical
/// seq order, so one set of outcomes, however it arrived, gives one shard
/// and one report.
pub struct MergeLedger {
    header: ShardHeader,
    outcomes: BTreeMap<u64, ShardOutcome>,
    duplicates: u64,
}

impl MergeLedger {
    /// An empty ledger for the shard of the sweep identified by `header`.
    pub fn new(header: ShardHeader) -> MergeLedger {
        MergeLedger {
            header,
            outcomes: BTreeMap::new(),
            duplicates: 0,
        }
    }

    /// The shard this ledger assembles.
    pub fn header(&self) -> &ShardHeader {
        &self.header
    }

    /// Absorbs the records of `file` that this ledger's shard owns, seqs
    /// past the end of the sweep excluded; a seq already recorded keeps
    /// its outcome. The file's own shard spec is deliberately not matched
    /// against the ledger's: resuming a full sweep from the partials of a
    /// crashed 4-way sharded run (or vice versa) is valid, because records
    /// carry their canonical seq. A repeated seq is not counted as a
    /// [`MergeLedger::duplicates`] completion.
    ///
    /// # Errors
    ///
    /// [`ResumeError::SweepMismatch`], with nothing absorbed, when `file`
    /// belongs to a different sweep: its mode, [`SweepSignature`] or
    /// design-point count disagrees.
    pub fn absorb(&mut self, file: &DseShard) -> Result<(), ResumeError> {
        if !file.header.same_sweep(&self.header) {
            return Err(ResumeError::SweepMismatch {
                expected: header_identity(&self.header),
                found: header_identity(&file.header),
            });
        }
        let (shard, total) = (self.header.shard, self.header.total_configs);
        for r in &file.records {
            if r.seq < total && shard.owns(r.seq) {
                self.outcomes
                    .entry(r.seq)
                    .or_insert_with(|| r.outcome.clone());
            }
        }
        Ok(())
    }

    /// Records one completed design point. Returns `true` when the seq
    /// was fresh, `false` for a duplicate (which is dropped and counted).
    pub fn insert(&mut self, record: ShardRecord) -> bool {
        match self.outcomes.entry(record.seq) {
            Entry::Vacant(v) => {
                v.insert(record.outcome);
                true
            }
            Entry::Occupied(_) => {
                self.duplicates += 1;
                false
            }
        }
    }

    /// Seqs recorded so far.
    pub fn len(&self) -> u64 {
        self.outcomes.len() as u64
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Duplicate completions [`MergeLedger::insert`] dropped so far.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// True when `seq` has already been recorded.
    pub fn contains(&self, seq: u64) -> bool {
        self.outcomes.contains_key(&seq)
    }

    /// True when every design point of the sweep is recorded.
    pub fn is_complete(&self) -> bool {
        self.len() == self.header.total_configs
    }

    /// The (possibly still partial) shard: the header plus the records so
    /// far in canonical order. A complete full-sweep ledger gives exactly
    /// the shard a single-process `mamps dse` run produces, so its JSONL
    /// bytes and its report ([`DseShard::render`]) match byte for byte.
    pub fn to_shard(&self) -> DseShard {
        let records = self.outcomes.iter().map(|(&seq, outcome)| ShardRecord {
            seq,
            outcome: outcome.clone(),
        });
        DseShard {
            header: self.header.clone(),
            records: records.collect(),
        }
    }

    /// [`MergeLedger::to_shard`], moving the records out.
    pub fn into_shard(self) -> DseShard {
        let records = self.outcomes.into_iter();
        DseShard {
            header: self.header,
            records: records
                .map(|(seq, outcome)| ShardRecord { seq, outcome })
                .collect(),
        }
    }
}

/// Largest tile count a sweep may hold: the 64×64 mesh that
/// `BENCH_mesh_scaling.json` measures. Tile counts arrive from the command
/// line and from coordinator peers, and each one becomes an architecture
/// of that many tiles.
pub(crate) const MAX_SWEEP_TILES: usize = 4096;

/// Checks that `tiles` lies in `1..=MAX_SWEEP_TILES`; the error is the
/// end of a sentence whose subject the caller names.
fn check_tile_count(tiles: usize) -> Result<(), String> {
    if tiles == 0 {
        Err("must be at least 1".into())
    } else if tiles > MAX_SWEEP_TILES {
        Err(format!("must be at most {MAX_SWEEP_TILES}"))
    } else {
        Ok(())
    }
}

/// The tile counts `1..=max` that `mamps dse <app> <max>` sweeps.
///
/// # Errors
///
/// "must be at least 1" or "must be at most …" when [`Sweep::new`] would
/// reject `max`, returned before anything is allocated.
pub fn tile_counts_up_to(max: usize) -> Result<Vec<usize>, String> {
    check_tile_count(max)?;
    Ok((1..=max).collect())
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
    /// empty or holds a count of 0 or more than 4,096 tiles. Duplicate
    /// application names are not an error here: every design point of
    /// such a use-case sweep reports them as a rejection.
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
        for &tiles in tile_counts {
            check_tile_count(tiles).map_err(|e| format!("tile count {tiles} {e}"))?;
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
                configs.push((tiles, Interconnect::fsl(), *strategy));
                if include_noc {
                    configs.push((tiles, Interconnect::noc_for_tiles(tiles), *strategy));
                }
            }
        }
        let header = ShardHeader {
            mode,
            shard: ShardSpec::full(),
            total_configs: configs.len() as u64,
            signature: SweepSignature {
                apps: apps.iter().map(|a| a.graph().name().to_string()).collect(),
                digests: apps.iter().map(ApplicationModel::digest).collect(),
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
        dynamic_map(opts.jobs, &todo, |&seq| {
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
    /// with `seq % n == i`; [`ShardSpec::full`] owns them all) through a
    /// [`MergeLedger`]. It absorbs `resume` — partial shard files of a
    /// crashed or killed run of the same sweep, sharded alike or not —
    /// and evaluates only the owned seqs still missing. Outcomes are
    /// deterministic, so the result is identical to a cold run's.
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
        let mut ledger = MergeLedger::new(ShardHeader {
            shard,
            ..self.header.clone()
        });
        for file in resume {
            ledger.absorb(file)?;
        }
        let todo =
            (0..self.header.total_configs).filter(|&seq| shard.owns(seq) && !ledger.contains(seq));
        for record in self.evaluate(todo, opts) {
            ledger.insert(record);
        }
        Ok(ledger.into_shard())
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
/// When `tile_counts` is empty or holds a count outside `1..=4096`.
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
    use crate::dse::tests::{app, app_needing_two_tiles, named_app};

    /// The greedy binder sweep over `tiles` × FSL/NoC of a test app whose
    /// 1-tile points are skipped.
    fn sweep(tiles: &[usize]) -> Sweep {
        let app = app_needing_two_tiles();
        Sweep::new(SweepMode::Binders, vec![app], tiles, true, Vec::new()).unwrap()
    }

    /// One sweep per mode: the properties below hold for both.
    fn both_modes() -> [Sweep; 2] {
        let binders = [Binder::Greedy, Binder::Spiral];
        let apps = vec![named_app("sa", &[70, 70]), named_app("sb", &[35, 35])];
        [
            Sweep::new(
                SweepMode::Binders,
                vec![app_needing_two_tiles()],
                &[1, 2, 3],
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
    fn sweep_digests_are_the_stable_hash_of_each_model() {
        use mamps_sdf::gen::{generate, Family, GenConfig};
        use serde::Deserialize;
        let small = mamps_mjpeg::StreamConfig::small();
        let mjpeg = mamps_mjpeg::mjpeg_application(&small, None).unwrap();
        let generated = generate(&GenConfig::new(3, Family::Cyclic)).unwrap();
        // A clone taken after the memo filled, and a deserialized model.
        generated.digest();
        let rebuilt = ApplicationModel::from_value(&mjpeg.to_value()).unwrap();
        for app in [mjpeg, generated.clone(), generated, rebuilt] {
            let want = serde::stable_hash_of(&app);
            assert_eq!(app.digest(), want, "{}", app.graph().name());
            let sweep = Sweep::new(SweepMode::Binders, vec![app], &[1], false, Vec::new());
            assert_eq!(sweep.unwrap().header().signature.digests, [want]);
        }
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
        assert_eq!(
            err(Binders, vec![app()], &[1, 0]),
            Some("tile count 0 must be at least 1".into())
        );
        assert_eq!(
            err(UseCases, vec![app()], &[MAX_SWEEP_TILES + 1, 1]),
            Some("tile count 4097 must be at most 4096".into())
        );
        assert_eq!(err(Binders, vec![app()], &[MAX_SWEEP_TILES]), None);
        assert_eq!(tile_counts_up_to(3), Ok(vec![1, 2, 3]));
        assert_eq!(tile_counts_up_to(0), Err("must be at least 1".into()));
        for max in [MAX_SWEEP_TILES + 1, usize::MAX] {
            assert_eq!(tile_counts_up_to(max), Err("must be at most 4096".into()));
        }
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
    fn ledger_keeps_the_first_outcome_per_seq() {
        let s = sweep(&[1, 2]);
        let full = cold(&s);
        let r = &full.records;
        // Completions out of order, one seq twice with another outcome.
        let mut ledger = MergeLedger::new(s.header().clone());
        assert!(ledger.insert(r[1].clone()));
        assert!(ledger.insert(r[0].clone()));
        let again = ShardRecord {
            seq: 1,
            outcome: r[3].outcome.clone(),
        };
        assert!(!ledger.insert(again), "a duplicate seq must be dropped");
        assert_eq!((ledger.len(), ledger.duplicates()), (2, 1));
        assert!(!ledger.is_complete());
        // A file: a recorded seq keeps its outcome, a seq past the end is
        // dropped, and neither counts as a duplicate completion.
        let mut file = full.clone();
        file.records[0].outcome = r[3].outcome.clone();
        file.records.push(ShardRecord {
            seq: 4,
            outcome: r[2].outcome.clone(),
        });
        ledger.absorb(&file).unwrap();
        assert_eq!((ledger.len(), ledger.duplicates()), (4, 1));
        assert!(ledger.is_complete());
        assert_eq!(ledger.to_shard(), full);
        assert_eq!(ledger.into_shard(), full);
        // A shard's ledger keeps the seqs its shard owns.
        let odd = ShardHeader {
            shard: ShardSpec::new(1, 2).unwrap(),
            ..s.header().clone()
        };
        let mut ledger = MergeLedger::new(odd);
        ledger.absorb(&full).unwrap();
        assert_eq!(ledger.into_shard(), sharded(&s, 2).swap_remove(1));
        // Another sweep's file is refused whole.
        let mut ledger = MergeLedger::new(s.header().clone());
        let foreign = ledger.absorb(&cold(&sweep(&[1, 2, 3])));
        assert!(matches!(foreign, Err(ResumeError::SweepMismatch { .. })));
        assert!(ledger.is_empty());
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
        for shard in sharded(&sweep(&[1, 2, 3]), 2) {
            let text = shard.to_jsonl();
            let back = DseShard::from_jsonl(&text).unwrap();
            assert_eq!(back, shard);
            // Canonical bytes: re-serializing is a fixpoint.
            assert_eq!(back.to_jsonl(), text);
        }
    }

    #[test]
    fn merge_rejects_missing_and_duplicate_shards() {
        let shards = sharded(&sweep(&[1, 2, 3]), 3);
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
    fn missing_shards_are_named_up_to_eight_and_a_ninth_is_an_ellipsis() {
        for (count, message) in [
            (9, "missing shards 1, 2, 3, 4, 5, 6, 7, 8 of 9"),
            (10, "missing shards 1, 2, 3, 4, 5, 6, 7, 8, … of 10"),
        ] {
            let spec = ShardSpec::new(0, count).unwrap();
            let first = sweep(&[1, 2]).run(spec, &[], &FlowOptions::default());
            let err = merge_reports(&[first.unwrap()]).unwrap_err();
            assert_eq!(err.to_string(), message);
        }
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
        // A truncated file, a record that appears twice, a record whose
        // seq lies past the end of the sweep in place of an owned one, and
        // a repeat in one file with a loss in another: `covered` counts
        // the records passed in, and the message names each cause.
        let shards = sharded(&sweep(&[1, 2, 3]), 2);
        let total = shards[0].header.total_configs;
        let mut truncated = shards.clone();
        truncated[1].records.pop();
        let mut repeated = shards.clone();
        let again = repeated[0].records[0].clone();
        repeated[0].records.push(again);
        let mut past_end = shards.clone();
        past_end[0].records.last_mut().unwrap().seq = total;
        let mut repeat_and_loss = repeated.clone();
        repeat_and_loss[1].records.pop();
        let cover = |covered| format!("records cover {covered} of {total} design points:");
        for (bad, covered, [missing, repeated, past_end], causes) in [
            (
                truncated,
                total - 1,
                [1, 0, 0],
                "1 design point missing (truncated shard file?)",
            ),
            (repeated, total + 1, [0, 1, 0], "1 record repeated"),
            (
                past_end,
                total,
                [1, 0, 1],
                "1 design point missing (truncated shard file?), \
                 1 record past the last design point",
            ),
            (
                repeat_and_loss,
                total,
                [1, 1, 0],
                "1 design point missing (truncated shard file?), 1 record repeated",
            ),
        ] {
            let err = MergeError::IncompleteSweep {
                covered,
                total,
                missing,
                repeated,
                past_end,
            };
            assert_eq!(err.to_string(), format!("{} {causes}", cover(covered)));
            assert_eq!(merge_reports(&bad), Err(err));
        }
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
        // Nor does overlap: a truncated full run and shard 1/3 share seqs.
        let opts = FlowOptions::default();
        for s in both_modes() {
            let mode = s.header().mode;
            let cold = cold(&s);
            let partials = sharded(&s, 3);
            let resumed = s.run(ShardSpec::full(), &partials, &opts).unwrap();
            assert_eq!(resumed, cold, "{mode}");
            let spec = ShardSpec::new(1, 3).unwrap();
            let reseeded = s.run(spec, std::slice::from_ref(&cold), &opts).unwrap();
            assert_eq!(reseeded, partials[1], "{mode}");
            let mut torn = cold.clone();
            torn.records.truncate(cold.records.len() / 2);
            let overlapping = [torn, partials[1].clone()];
            let resumed = s.run(ShardSpec::full(), &overlapping, &opts).unwrap();
            assert_eq!(resumed, cold, "{mode}");
        }
    }

    #[test]
    fn resume_rejects_foreign_sweeps() {
        let other = cold(&sweep(&[1, 2])); // different sweep
        assert!(matches!(
            sweep(&[1, 2, 3]).run(ShardSpec::full(), &[other], &FlowOptions::default()),
            Err(ResumeError::SweepMismatch { .. })
        ));
    }

    #[test]
    fn an_edited_application_is_a_different_sweep() {
        // Two versions of one graph name: the second doubles a WCET.
        let [old, new] = [70, 140].map(|wcet| {
            let app = named_app("v", &[70, wcet]);
            Sweep::new(SweepMode::Binders, vec![app], &[1, 2], true, Vec::new()).unwrap()
        });
        let opts = FlowOptions::default();
        let resumed = new.run(ShardSpec::full(), &[cold(&old)], &opts);
        assert!(matches!(resumed, Err(ResumeError::SweepMismatch { .. })));
        let halves = [(&old, 0), (&new, 1)]
            .map(|(s, i)| s.run(ShardSpec::new(i, 2).unwrap(), &[], &opts).unwrap());
        let merged = merge_reports(&halves);
        assert!(matches!(merged, Err(MergeError::SweepMismatch { .. })));
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
        let shards = sharded(&sweep(&[1, 2, 3]), 2);
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
