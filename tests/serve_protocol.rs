//! DSE-service contract tests: under arbitrary worker join/leave/timeout
//! event sequences the lease table keeps leased ranges disjoint, drains
//! to exhaustive coverage, and treats duplicate completions as no-ops;
//! the merge ledger dedups by seq regardless of arrival order; every
//! protocol message round-trips the canonical JSON encoding; coordinators
//! run in this process, stopped by their flag, serve the report of a plain
//! sweep, also when a worker drops its lease, and warm a later coordinator
//! through their cache directory; and a worker ships back only the pass
//! entries its store gained during the range.

use std::io::BufReader;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mamps::flow::dse::lease::{ItemState, LeaseTable, SeqRange};
use mamps::flow::dse::shard::{
    MergeLedger, ShardHeader, ShardOutcome, ShardRecord, ShardSpec, SweepMode, SweepSignature,
};
use mamps::flow::dse::SkippedPoint;
use mamps::flow::serve::protocol::{read_msg, write_msg};
use mamps::flow::serve::{
    run_coordinator, run_submit, run_worker, ClientMsg, JobStats, ServeConfig, ServerMsg,
    SweepSpec, WorkerConfig,
};
use mamps::flow::FlowOptions;
use mamps::mapping::{PassCache, PassRunner};
use mamps::sdf::gen::pipeline_app;
use mamps::sdf::xml::application_to_xml;
use mamps::sdf::{GlobalAnalysisCache, PassEntry};
use proptest::prelude::*;

fn header(total: u64) -> ShardHeader {
    ShardHeader {
        mode: SweepMode::Binders,
        shard: ShardSpec::full(),
        total_configs: total,
        signature: SweepSignature {
            apps: vec!["app".into()],
            digests: vec![0],
            tile_counts: vec![1, 2, 3],
            include_noc: true,
            binders: vec!["greedy".into()],
        },
    }
}

fn outcome(seq: u64) -> ShardOutcome {
    ShardOutcome::Skipped(SkippedPoint {
        tiles: seq as usize,
        interconnect: "fsl",
        strategy: "greedy",
        reason: format!("point {seq}"),
    })
}

/// The seqs currently covered by live leases, asserting pairwise
/// disjointness on the way.
fn leased_seqs(table: &LeaseTable) -> Vec<u64> {
    let mut seen = Vec::new();
    for (range, state) in table.items() {
        if matches!(state, ItemState::Leased { .. }) {
            for seq in range.seqs() {
                assert!(!seen.contains(&seq), "seq {seq} under two live leases");
                seen.push(seq);
            }
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the interleaving of acquisitions, disconnects, expiries
    /// and (duplicate) completions, the lease table never leases a seq
    /// twice concurrently, never leases a seeded seq, and a final drain
    /// completes every non-seeded seq exactly once in a bounded number
    /// of acquisitions.
    #[test]
    fn leases_stay_disjoint_and_drain_to_exhaustive(
        total in 0u64..60,
        chunk in 1u64..10,
        seeded_mask in any::<u64>(),
        events in proptest::collection::vec((0u8..4, 0u64..8), 0..40),
    ) {
        let seeded = |seq: u64| seeded_mask & (1 << seq) != 0;
        let mut table = LeaseTable::new(total, chunk, seeded);
        let mut now = 0u64;
        let mut issued: Vec<u64> = Vec::new();
        // Event decoding: 0 = a worker acquires a lease, 1 = a worker
        // disconnects (all its leases release), 2 = time advances past
        // every current deadline (expiry), 3 = a previously issued lease
        // completes (possibly a duplicate).
        for (kind, arg) in events {
            match kind {
                0 => {
                    if let Some((lease, range)) = table.acquire(arg, now, 10) {
                        prop_assert!(range.len() <= chunk);
                        prop_assert!(range.end <= total);
                        for seq in range.seqs() {
                            prop_assert!(!seeded(seq), "leased seeded seq {seq}");
                        }
                        issued.push(lease);
                    }
                }
                1 => { table.release_owner(arg); }
                2 => {
                    now += 11; // strictly past every live deadline
                    table.expire(now);
                    prop_assert_eq!(table.leased(), 0, "expiry left live leases");
                }
                _ => {
                    if let Some(&lease) = issued.get(arg as usize % issued.len().max(1)) {
                        let first = table.complete(lease);
                        let done_after = table.pending() + table.leased();
                        // Duplicate completion: same answer, no state change.
                        prop_assert_eq!(table.complete(lease), first);
                        prop_assert_eq!(table.pending() + table.leased(), done_after);
                    }
                }
            }
            leased_seqs(&table); // asserts disjointness
        }

        // Drain: revert lost leases, then acquire+complete to the end.
        now += 11;
        table.expire(now);
        let mut completed: Vec<SeqRange> = Vec::new();
        let mut rounds = 0u64;
        while !table.is_done() {
            rounds += 1;
            prop_assert!(rounds <= total + 1, "drain did not terminate");
            let (lease, range) = table.acquire(999, now, 10).expect("work left but nothing pending");
            prop_assert_eq!(table.complete(lease), Some(range));
            completed.push(range);
        }
        // Exhaustive: drain-completed ranges are disjoint, and together
        // with earlier completions and the seeded seqs cover 0..total.
        let mut covered = vec![0u32; total as usize];
        for range in completed {
            for seq in range.seqs() {
                covered[seq as usize] += 1;
            }
        }
        for (range, state) in table.items() {
            prop_assert_eq!(state, ItemState::Done);
            for seq in range.seqs() {
                prop_assert!(covered[seq as usize] <= 1, "seq {} drained twice", seq);
                covered[seq as usize] = 1;
            }
        }
        for seq in 0..total {
            let expected = u32::from(!seeded(seq));
            prop_assert_eq!(covered[seq as usize], expected, "seq {} coverage", seq);
        }
    }

    /// The merge ledger keeps exactly one outcome per seq — first write
    /// wins, duplicates counted — and reassembles records in canonical
    /// order whatever the arrival order.
    #[test]
    fn ledger_merge_is_idempotent_and_ordered(
        total in 1u64..40,
        arrivals in proptest::collection::vec(0u64..40, 1..120),
    ) {
        let mut ledger = MergeLedger::new(header(total));
        let mut first_seen: Vec<u64> = Vec::new();
        let mut dups = 0u64;
        for seq in arrivals.into_iter().map(|s| s % total) {
            if ledger.insert(ShardRecord { seq, outcome: outcome(seq) }) {
                first_seen.push(seq);
            } else {
                dups += 1;
            }
        }
        prop_assert_eq!(ledger.len(), first_seen.len() as u64);
        prop_assert_eq!(ledger.duplicates(), dups);
        let shard = ledger.to_shard();
        let seqs: Vec<u64> = shard.records.iter().map(|r| r.seq).collect();
        let mut sorted = first_seen.clone();
        sorted.sort_unstable();
        prop_assert_eq!(seqs, sorted);
        prop_assert_eq!(ledger.is_complete(), ledger.len() == total);
    }
}

/// Every protocol message round-trips the canonical JSON encoding, and
/// the encoding is a fixpoint (serialize ∘ parse ∘ serialize is
/// identity) — the line protocol's analogue of the shard-file pin.
#[test]
fn protocol_messages_round_trip_canonical_json() {
    let spec = SweepSpec {
        mode: SweepMode::Binders,
        apps_xml: vec!["<application name='a'/>".into()],
        tile_counts: vec![1, 2, 3],
        include_noc: true,
        binders: vec!["greedy".into(), "spiral".into()],
    };
    let record = ShardRecord {
        seq: 7,
        outcome: outcome(7),
    };
    let entry = PassEntry {
        pass: "bind".into(),
        input: 0x0123_4567_89ab_cdef,
        output: serde::json::from_str(r#"{"Ok":[1,"two"]}"#).unwrap(),
    };
    let client: Vec<ClientMsg> = vec![
        ClientMsg::Submit { spec: spec.clone() },
        ClientMsg::Fetch { worker: 4242 },
        ClientMsg::Complete {
            job: 0xdead_beef,
            lease: 3,
            records: vec![record.clone()],
            passes: vec![entry.clone()],
        },
    ];
    for msg in client {
        let text = serde::json::to_string(&msg);
        let back: ClientMsg = serde::json::from_str(&text).expect("client msg parses");
        assert_eq!(back, msg);
        assert_eq!(serde::json::to_string(&back), text, "canonical fixpoint");
    }
    let server: Vec<ServerMsg> = vec![
        ServerMsg::Assign {
            job: 1,
            lease: 2,
            range: SeqRange { start: 4, end: 8 },
            spec,
            passes: vec![entry],
        },
        ServerMsg::Progress {
            job: 1,
            done: 4,
            total: 9,
        },
        ServerMsg::Done {
            job: 1,
            report: "   binder   tiles\n".into(),
            stats: JobStats {
                total: 9,
                evaluated: 5,
                seeded: 4,
                duplicates: 1,
                reassigned: 2,
            },
        },
        ServerMsg::Reject {
            reason: "unknown binder `quantum`".into(),
        },
        ServerMsg::Shutdown,
    ];
    for msg in server {
        let text = serde::json::to_string(&msg);
        let back: ServerMsg = serde::json::from_str(&text).expect("server msg parses");
        assert_eq!(back, msg);
        assert_eq!(serde::json::to_string(&back), text, "canonical fixpoint");
    }
}

/// A completed ledger's shard renders through the same path `mamps dse`
/// renders, so the service's byte-identical-report contract bottoms out
/// here: same header + same records ⇒ same bytes.
#[test]
fn complete_ledger_renders_like_the_plain_report() {
    let total = 4u64;
    let mut ledger = MergeLedger::new(header(total));
    for seq in [2, 0, 3, 1] {
        assert!(ledger.insert(ShardRecord {
            seq,
            outcome: outcome(seq),
        }));
    }
    assert!(ledger.is_complete());
    let shard = ledger.to_shard();
    let direct = mamps::flow::report::render_dse_report(&shard.clone().into_dse_report());
    assert_eq!(shard.render(), direct);
}

/// A four-point binder sweep (1 and 2 tiles, FSL and NoC) of a small
/// pipeline whose middle actor takes `wcet` cycles, and the report
/// single-process `mamps dse` prints for it.
fn small_sweep(wcet: u64) -> (SweepSpec, String) {
    let app = pipeline_app("pipe", &[40, wcet, 25], 16, &[1], None);
    let spec = SweepSpec {
        mode: SweepMode::Binders,
        apps_xml: vec![application_to_xml(&app)],
        tile_counts: vec![1, 2],
        include_noc: true,
        binders: Vec::new(),
    };
    let sweep = spec.resolve().unwrap();
    let report = sweep
        .run(ShardSpec::full(), &[], &FlowOptions::default())
        .unwrap()
        .render();
    (spec, report)
}

/// A fresh directory for one test's sockets and spools.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mamps_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Connects to the coordinator at `socket`, retrying until it listens.
fn connect(socket: &Path) -> UnixStream {
    for _ in 0..1000 {
        if let Ok(stream) = UnixStream::connect(socket) {
            return stream;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    panic!("no coordinator came up at {}", socket.display());
}

/// Sets its flag when dropped, also while a failed check unwinds, so a
/// failing test stops its coordinator instead of waiting on it forever.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Runs a coordinator with `cfg` on a scoped thread and calls `body`
/// with its socket and a closure that starts one more `run_worker`
/// thread. Then it sets the stop flag, checks that the coordinator and
/// every worker returned `Ok`, and that the socket is gone.
fn with_coordinator<T>(cfg: ServeConfig, body: impl FnOnce(&Path, &mut dyn FnMut()) -> T) -> T {
    let stop = AtomicBool::new(false);
    let socket = cfg.socket.clone();
    let worker = WorkerConfig {
        socket: socket.clone(),
        jobs: 1,
    };
    std::thread::scope(|s| {
        let coordinator = s.spawn(|| run_coordinator(cfg, &stop).map_err(|e| e.to_string()));
        let stop_on_drop = StopOnDrop(&stop);
        drop(connect(&socket)); // returns once the coordinator listens
        let mut workers = Vec::new();
        let out = body(&socket, &mut || {
            workers.push(s.spawn(|| run_worker(&worker).map(drop).map_err(|e| e.to_string())));
        });
        drop(stop_on_drop);
        coordinator.join().unwrap().unwrap();
        for w in workers {
            w.join().unwrap().unwrap();
        }
        assert!(!socket.exists(), "the stopped coordinator left its socket");
        out
    })
}

/// Two coordinators run one after the other in this process, each
/// stopped by its own flag, on the same socket path. Each serves the
/// plain report and removes its socket when stopped.
#[test]
fn served_sweeps_run_and_stop_in_process() {
    let dir = scratch_dir("sweeps");
    let (spec, expected) = small_sweep(10);
    for round in 0..2 {
        let cfg = ServeConfig {
            socket: dir.join("serve.sock"),
            state_dir: dir.join(format!("state-{round}")),
            ..ServeConfig::default()
        };
        let outcome = with_coordinator(cfg, |socket, start_worker| {
            start_worker();
            run_submit(socket, &spec, |_, _| {}).unwrap()
        });
        assert_eq!(outcome.report, expected, "round {round}");
        assert_eq!(outcome.stats.evaluated, 4, "round {round}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker that takes a lease and disconnects before completing it: the
/// coordinator reverts the range once, a real worker finishes the sweep,
/// and the report is still the plain one. The in-process counterpart of
/// the kill phase of `scripts/serve_fault.sh`.
#[test]
fn a_dropped_lease_is_reassigned_in_process() {
    let dir = scratch_dir("drop");
    let (spec, expected) = small_sweep(10);
    let cfg = ServeConfig {
        socket: dir.join("serve.sock"),
        state_dir: dir.join("state"),
        chunk: 1,
        ..ServeConfig::default()
    };
    let outcome = with_coordinator(cfg, |socket, start_worker| {
        // Not scoped: when a check below fails, the stopped coordinator
        // rejects this submission and the thread ends on its own.
        let submit = std::thread::spawn({
            let (socket, spec) = (socket.to_path_buf(), spec.clone());
            move || run_submit(&socket, &spec, |_, _| {}).map_err(|e| e.to_string())
        });
        let stream = connect(socket);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        write_msg(&mut writer, &ClientMsg::Fetch { worker: 0 }).unwrap();
        let assign = read_msg::<ServerMsg>(&mut reader).unwrap();
        assert!(
            matches!(assign, Some(ServerMsg::Assign { .. })),
            "{assign:?}"
        );
        drop((reader, writer));
        start_worker();
        submit.join().unwrap().unwrap()
    });
    assert_eq!(outcome.report, expected);
    assert_eq!(outcome.stats.reassigned, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The coordinator keys its history by the sweep header, which names each
/// application by its digest: a second version of one graph name is a new
/// job, not a replay of the first version's report.
#[test]
fn an_edited_application_is_served_as_a_new_job() {
    let dir = scratch_dir("versions");
    let cfg = ServeConfig {
        socket: dir.join("serve.sock"),
        state_dir: dir.join("state"),
        ..ServeConfig::default()
    };
    let [(spec_a, plain_a), (spec_b, plain_b)] = [10, 80].map(small_sweep);
    assert_ne!(plain_a, plain_b);
    let served = with_coordinator(cfg, |socket, start_worker| {
        start_worker();
        [&spec_a, &spec_b].map(|spec| run_submit(socket, spec, |_, _| {}).unwrap())
    });
    assert_eq!([&served[0].report, &served[1].report], [&plain_a, &plain_b]);
    assert_eq!(
        served[1].stats.evaluated, 4,
        "the second version was evaluated"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The pass entries of a fresh store that imported `warm` and then
/// evaluated `range` of `spec` with a fresh analysis cache, in key order.
fn evaluated_entries(spec: &SweepSpec, range: SeqRange, warm: &[PassEntry]) -> Vec<PassEntry> {
    let passes = Arc::new(PassCache::new());
    passes.import(warm.to_vec());
    let mut opts = FlowOptions::default();
    opts.map.cache = Some(Arc::new(GlobalAnalysisCache::new()));
    opts.map.passes = Some(Arc::new(PassRunner::with_cache(Arc::clone(&passes))));
    spec.resolve().unwrap().evaluate(range.seqs(), &opts);
    passes.export()
}

/// A worker driven by a raw test listener ships back exactly the pass
/// entries its store gained during the range: none when the `Assign`'s
/// warm entries cover the whole range 0..4, and only the entries the
/// uncovered seqs added when they cover 0..2.
#[test]
fn a_worker_does_not_echo_the_warm_entries_it_was_sent() {
    let dir = scratch_dir("echo");
    let socket = dir.join("raw.sock");
    let listener = UnixListener::bind(&socket).unwrap();
    let (spec, _) = small_sweep(10);
    let range = SeqRange { start: 0, end: 4 };
    let worker = WorkerConfig {
        socket: socket.clone(),
        jobs: 1,
    };
    for warm_end in [4, 2] {
        let warm = evaluated_entries(
            &spec,
            SeqRange {
                start: 0,
                end: warm_end,
            },
            &[],
        );
        assert!(!warm.is_empty());
        let key = |e: &PassEntry| (e.pass.clone(), e.input);
        let warm_keys: Vec<_> = warm.iter().map(key).collect();
        let mut gained = evaluated_entries(&spec, range, &warm);
        gained.retain(|e| !warm_keys.contains(&key(e)));
        assert_eq!(gained.is_empty(), warm_end == 4, "warm seqs 0..{warm_end}");
        let assign = ServerMsg::Assign {
            job: 1,
            lease: 1,
            range,
            spec: spec.clone(),
            passes: warm,
        };
        std::thread::scope(|s| {
            let handle = s.spawn(|| run_worker(&worker).map_err(|e| e.to_string()));
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut next = || read_msg::<ClientMsg>(&mut reader).unwrap();
            assert!(matches!(next(), Some(ClientMsg::Fetch { .. })));
            write_msg(&mut writer, &assign).unwrap();
            match next() {
                Some(ClientMsg::Complete {
                    records, passes, ..
                }) => {
                    assert_eq!(records.len(), 4);
                    assert_eq!(passes, gained, "warm seqs 0..{warm_end}");
                }
                other => panic!("expected a completion, got {other:?}"),
            }
            assert!(matches!(next(), Some(ClientMsg::Fetch { .. })));
            write_msg(&mut writer, &ServerMsg::Shutdown).unwrap();
            handle.join().unwrap().unwrap();
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A coordinator with a cache directory persists its pass cache there
/// and writes no analysis file. A second coordinator over that directory,
/// with a fresh state directory, sends the persisted pass entries with a
/// connection's first `Assign`, serves the plain report, lands no entry
/// of a completion for a job it does not know, and leaves an
/// analysis-cache file it finds there as it was.
#[test]
fn a_cache_dir_warms_the_next_coordinator_with_pass_entries_only() {
    let dir = scratch_dir("cache_dir");
    let cache = dir.join("cache");
    let (spec, expected) = small_sweep(10);
    let cfg = |state: &str| ServeConfig {
        socket: dir.join("serve.sock"),
        state_dir: dir.join(state),
        cache_dir: Some(cache.clone()),
        ..ServeConfig::default()
    };
    let cold = with_coordinator(cfg("state-cold"), |socket, start_worker| {
        start_worker();
        run_submit(socket, &spec, |_, _| {}).unwrap()
    });
    assert_eq!(cold.report, expected);
    let mut files: Vec<_> = std::fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    files.sort();
    assert_eq!(files, ["pass-cache-0-of-1.jsonl"]);
    let persisted = PassCache::new();
    persisted.load_dir(&cache).unwrap();
    let persisted = persisted.export();
    assert!(!persisted.is_empty());

    let planted = cache.join("analysis-cache-0-of-1.jsonl");
    std::fs::write(&planted, "not json\n").unwrap();
    let warm = with_coordinator(cfg("state-warm"), |socket, start_worker| {
        let submit = std::thread::spawn({
            let (socket, spec) = (socket.to_path_buf(), spec.clone());
            move || run_submit(&socket, &spec, |_, _| {}).map_err(|e| e.to_string())
        });
        let stream = connect(socket);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let stray = ClientMsg::Complete {
            job: 0xdead_beef,
            lease: 1,
            records: Vec::new(),
            passes: vec![PassEntry {
                pass: "bind".into(),
                input: 1,
                output: serde::Value::Null,
            }],
        };
        write_msg(&mut writer, &stray).unwrap();
        write_msg(&mut writer, &ClientMsg::Fetch { worker: 0 }).unwrap();
        match read_msg::<ServerMsg>(&mut reader).unwrap() {
            Some(ServerMsg::Assign { passes, .. }) => assert_eq!(passes, persisted),
            other => panic!("expected an assignment, got {other:?}"),
        }
        drop((reader, writer));
        start_worker();
        submit.join().unwrap().unwrap()
    });
    assert_eq!(warm.report, expected);
    let after = PassCache::new();
    after.load_dir(&cache).unwrap();
    assert_eq!(after.export(), persisted, "the stray completion landed");
    assert_eq!(std::fs::read_to_string(&planted).unwrap(), "not json\n");
    let _ = std::fs::remove_dir_all(&dir);
}
