//! Sharded-DSE contract tests: the partitioner covers every design point
//! exactly once for arbitrary `(points, shard_count)`, the JSONL encoding
//! of every result type is golden-pinned and round-trips losslessly, and
//! sharded runs merge back into the unsharded report.

use std::sync::Arc;

use mamps::flow::dse::cache::{load_cache_dir, persist_cache};
use mamps::flow::dse::shard::{
    explore_shard, merge_reports, DseShard, MergeError, ShardSpec, Sweep, SweepMode,
};
use mamps::flow::dse::{DsePoint, SkippedPoint, UseCasePoint};
use mamps::flow::report::render_dse_report;
use mamps::flow::FlowOptions;
use mamps::mapping::multi::RejectReason;
use mamps::mapping::MapError;
use mamps::sdf::cache::GlobalAnalysisCache;
use mamps::sdf::graph::SdfGraphBuilder;
use mamps::sdf::model::{ApplicationModel, HomogeneousModelBuilder};
use mamps::sdf::ratio::Ratio;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every design point of a sweep of arbitrary size is owned by
    /// exactly one shard: the partition is disjoint and exhaustive.
    #[test]
    fn shard_partitions_are_disjoint_and_exhaustive(
        points in 0u64..500,
        count in 1u32..32,
    ) {
        let specs: Vec<ShardSpec> = (0..count)
            .map(|i| ShardSpec::new(i, count).unwrap())
            .collect();
        for seq in 0..points {
            let owners = specs.iter().filter(|s| s.owns(seq)).count();
            prop_assert_eq!(owners, 1, "seq {} owned by {} shards", seq, owners);
        }
    }
}

/// One canonical value per serialized DSE type, shared by the golden and
/// round-trip assertions.
fn sample_points() -> (DsePoint, SkippedPoint, UseCasePoint) {
    let point = DsePoint {
        tiles: 2,
        interconnect: "fsl",
        strategy: "greedy",
        guaranteed: 1e-5,
        slices: 1234,
        wire_units: 3,
        per_tile_load: vec![100, 50],
    };
    let skipped = SkippedPoint {
        tiles: 9,
        interconnect: "noc",
        strategy: "spiral",
        reason: "mapping step failed: no feasible binding".into(),
    };
    let use_case = UseCasePoint {
        tiles: 3,
        interconnect: "noc",
        strategy: "genetic",
        admitted: vec!["mjpeg".into(), "pipeline".into()],
        rejected: vec![("burst".into(), "mapping failed: infeasible".into())],
        min_guarantee: 2.44e-5,
        slices: 4321,
    };
    (point, skipped, use_case)
}

/// The JSONL encodings are part of the shard-file contract: pin them
/// byte-for-byte so a change that would break cross-version merging shows
/// up as a test diff, not as a cluster mystery.
#[test]
fn golden_jsonl_encodings() {
    let (point, skipped, use_case) = sample_points();
    assert_eq!(
        serde::json::to_string(&point),
        r#"{"tiles":2,"interconnect":"fsl","strategy":"greedy","guaranteed":0.00001,"slices":1234,"wire_units":3,"per_tile_load":[100,50]}"#
    );
    assert_eq!(
        serde::json::to_string(&skipped),
        r#"{"tiles":9,"interconnect":"noc","strategy":"spiral","reason":"mapping step failed: no feasible binding"}"#
    );
    assert_eq!(
        serde::json::to_string(&use_case),
        r#"{"tiles":3,"interconnect":"noc","strategy":"genetic","admitted":["mjpeg","pipeline"],"rejected":[["burst","mapping failed: infeasible"]],"min_guarantee":0.0000244,"slices":4321}"#
    );
    let violated = RejectReason::GuaranteeViolated {
        victim: "mjpeg".into(),
        required: Ratio::new(1, 100),
        achieved: Ratio::new(1, 200),
    };
    assert_eq!(
        serde::json::to_string(&violated),
        r#"{"GuaranteeViolated":{"victim":"mjpeg","required":[1,100],"achieved":[1,200]}}"#
    );
    assert_eq!(
        serde::json::to_string(&RejectReason::Map(MapError::Infeasible("no fit".into()))),
        r#"{"Map":{"Infeasible":"no fit"}}"#
    );
}

#[test]
fn jsonl_round_trips_every_result_type() {
    let (point, skipped, use_case) = sample_points();
    let back: DsePoint = serde::json::from_str(&serde::json::to_string(&point)).unwrap();
    assert_eq!(back, point);
    let back: SkippedPoint = serde::json::from_str(&serde::json::to_string(&skipped)).unwrap();
    assert_eq!(back, skipped);
    let back: UseCasePoint = serde::json::from_str(&serde::json::to_string(&use_case)).unwrap();
    assert_eq!(back, use_case);

    for reason in [
        RejectReason::Map(MapError::Infeasible("actor x".into())),
        RejectReason::SharedAnalysis("deadlock at admitted buffers".into()),
        RejectReason::GuaranteeViolated {
            victim: "tight".into(),
            required: Ratio::new(1, 100),
            achieved: Ratio::new(3, 400),
        },
    ] {
        let text = serde::json::to_string(&reason);
        let back: RejectReason = serde::json::from_str(&text).unwrap();
        assert_eq!(back, reason, "{text}");
        // The rendered reason — what reports show — survives too.
        assert_eq!(back.to_string(), reason.to_string());
    }

    // Ratio deserialization re-normalizes, so hand-edited shard files
    // cannot smuggle in a denormalized value.
    let r: Ratio = serde::json::from_str("[2,200]").unwrap();
    assert_eq!(r, Ratio::new(1, 100));
    assert!(serde::json::from_str::<Ratio>("[1,0]").is_err());
}

fn tiny_app() -> ApplicationModel {
    let mut b = SdfGraphBuilder::new("tiny");
    let x = b.add_actor("x", 1);
    let y = b.add_actor("y", 1);
    b.add_channel_full("e", x, 1, y, 1, 0, 16);
    let g = b.build().unwrap();
    let mut mb = HomogeneousModelBuilder::new("microblaze");
    mb.actor("x", 40, 2048, 256).actor("y", 70, 2048, 256);
    mb.finish(g, None).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The analysis cache and the resume machinery are invisible in
    /// output: an uncached sweep, a cached one, one warmed from an
    /// on-disk cache directory, and one resumed from arbitrary partial
    /// shard files all produce byte-identical JSONL and rendered
    /// reports.
    #[test]
    fn cached_warm_and_resumed_sweeps_are_byte_identical(
        stride in 1usize..6,
        eighths in 0usize..=8,
    ) {
        let app = tiny_app();
        let tiles = [1usize, 2, 3];

        let cold = explore_shard(&app, &tiles, true, &FlowOptions::default());
        let jsonl = cold.to_jsonl();
        let rendered = render_dse_report(&cold.clone().into_dse_report());

        // Cached in-process: same bytes, and the cache actually filled.
        let cache = Arc::new(GlobalAnalysisCache::new());
        let mut opts = FlowOptions::default();
        opts.map.cache = Some(Arc::clone(&cache));
        let cached = explore_shard(&app, &tiles, true, &opts);
        prop_assert_eq!(&cached.to_jsonl(), &jsonl);
        prop_assert_eq!(&render_dse_report(&cached.into_dse_report()), &rendered);
        prop_assert!(cache.stats().inserts > 0, "cached sweep inserted nothing");

        // Warmed from disk: persist, reload into a fresh cache, re-sweep.
        let dir = std::env::temp_dir().join(format!(
            "mamps-sweep-equiv-{}-{stride}-{eighths}",
            std::process::id()
        ));
        persist_cache(&cache, &dir, ShardSpec::full()).unwrap();
        let warm = Arc::new(GlobalAnalysisCache::new());
        let loaded = load_cache_dir(&warm, &dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert!(loaded.imported > 0, "disk cache round-trip lost every entry");
        let mut opts = FlowOptions::default();
        opts.map.cache = Some(Arc::clone(&warm));
        let warmed = explore_shard(&app, &tiles, true, &opts);
        prop_assert_eq!(&warmed.to_jsonl(), &jsonl);
        prop_assert_eq!(&render_dse_report(&warmed.into_dse_report()), &rendered);
        prop_assert_eq!(warm.stats().misses, 0, "warm sweep missed the disk cache");

        // Resumed from partials: an arbitrary prefix of the cold run plus
        // an arbitrary strided subset (as a crashed differently-sharded
        // run would leave behind) seed the sweep; output is unchanged.
        let prefix = DseShard {
            header: cold.header.clone(),
            records: cold.records[..cold.records.len() * eighths / 8].to_vec(),
        };
        let strided = DseShard {
            header: cold.header.clone(),
            records: cold
                .records
                .iter()
                .filter(|r| (r.seq as usize).is_multiple_of(stride))
                .cloned()
                .collect(),
        };
        let sweep = Sweep::new(SweepMode::Binders, vec![app], &tiles, true, Vec::new()).unwrap();
        let resumed = sweep
            .run(ShardSpec::full(), &[prefix, strided], &FlowOptions::default())
            .unwrap();
        prop_assert_eq!(&resumed.to_jsonl(), &jsonl);
        prop_assert_eq!(&render_dse_report(&resumed.into_dse_report()), &rendered);
    }
}

/// End-to-end over the public API: shard files written and re-read as
/// JSONL merge into exactly the unsharded report, and a missing shard is
/// a hard error.
#[test]
fn sharded_jsonl_files_merge_to_the_unsharded_report() {
    let app = tiny_app();
    let opts = FlowOptions::default();
    let full = mamps::flow::dse::explore_report(&app, &[1, 2, 3], true, &opts);

    let sweep = Sweep::new(SweepMode::Binders, vec![app], &[1, 2, 3], true, Vec::new()).unwrap();
    let shards: Vec<DseShard> = (0..3)
        .map(|i| {
            let s = sweep
                .run(ShardSpec::new(i, 3).unwrap(), &[], &opts)
                .unwrap();
            DseShard::from_jsonl(&s.to_jsonl()).unwrap()
        })
        .collect();
    assert_eq!(merge_reports(&shards).unwrap().into_dse_report(), full);
    assert!(matches!(
        merge_reports(&shards[1..]),
        Err(MergeError::MissingShards { .. })
    ));
}
