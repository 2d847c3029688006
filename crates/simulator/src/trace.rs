//! Measurement results, execution traces, and simulator errors.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use crate::processor::{Op, WorkerKind};

/// One completed operation of a worker, for trace/Gantt output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The worker that executed the operation.
    pub worker: WorkerKind,
    /// The operation.
    pub op: Op,
    /// Start cycle.
    pub start: u64,
    /// End cycle (exclusive).
    pub end: u64,
}

/// Maps the actors and channels of a (union) graph back to the
/// applications they belong to, so multi-application Gantt charts can
/// attribute every row. Built per interference group by
/// `mamps_core::flow::MultiFlowResult::group_attribution` from the
/// member spans of the combined graph.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AppAttribution {
    /// Application names, indexed by application id.
    pub names: Vec<String>,
    /// Application id of each actor of the (union) graph.
    pub app_of_actor: Vec<usize>,
    /// Application id of each channel of the (union) graph.
    pub app_of_channel: Vec<usize>,
}

impl AppAttribution {
    /// The application an event belongs to, read off the operation (the
    /// worker alone is not enough: a shared tile's PE fires actors of
    /// several applications).
    pub fn app_of(&self, event: &TraceEvent) -> Option<usize> {
        match event.op {
            Op::Fire { actor } => self.app_of_actor.get(actor.0).copied(),
            Op::SendWord { channel } | Op::RecvWord { channel } => {
                self.app_of_channel.get(channel.0).copied()
            }
        }
    }

    /// The application's name, or `"?"` for an out-of-range id.
    pub fn name(&self, app: usize) -> &str {
        self.names.get(app).map(String::as_str).unwrap_or("?")
    }
}

/// Renders trace events up to `until_cycle` as a text Gantt chart with
/// `width` columns; each row is one worker.
pub fn render_gantt(events: &[TraceEvent], until_cycle: u64, width: usize) -> String {
    render_gantt_labeled(events, until_cycle, width, None)
}

/// Like [`render_gantt`], but with per-application row attribution: a
/// worker executing operations of several applications (a PE of a shared
/// tile in a multi-application use-case) gets one row *per application*,
/// labelled `PE tile0 [app]` — which is what makes inter-application
/// contention on a shared tile visible at a glance.
pub fn render_gantt_labeled(
    events: &[TraceEvent],
    until_cycle: u64,
    width: usize,
    apps: Option<&AppAttribution>,
) -> String {
    // Row identity: worker plus (when attributing) the application of the
    // event's operation, in first-appearance order.
    let mut rows: Vec<(WorkerKind, Option<usize>)> = Vec::new();
    for e in events {
        let key = (e.worker, apps.and_then(|a| a.app_of(e)));
        if !rows.contains(&key) {
            rows.push(key);
        }
    }
    let until = until_cycle.max(1);
    let label = |&(w, app): &(WorkerKind, Option<usize>)| {
        let base = match w {
            WorkerKind::Pe { tile } => format!("PE tile{tile}"),
            WorkerKind::EngineSend { channel } => format!("CA snd c{}", channel.0),
            WorkerKind::EngineRecv { channel } => format!("CA rcv c{}", channel.0),
            WorkerKind::Ip { actor } => format!("IP {actor}"),
        };
        match (app, apps) {
            (Some(i), Some(a)) => format!("{base} [{}]", a.name(i)),
            _ => base,
        }
    };
    let glyph = |op: Op| match op {
        Op::Fire { .. } => '#',
        Op::SendWord { .. } => '>',
        Op::RecvWord { .. } => '<',
    };
    let label_width = rows
        .iter()
        .map(|r| label(r).len())
        .max()
        .unwrap_or(0)
        .max(12);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "gantt: cycles 0..{until} ({} cycles/column; # fire, > send, < recv)",
        until.div_ceil(width as u64)
    );
    for key in &rows {
        let mut row = vec![' '; width];
        for e in events.iter().filter(|e| {
            e.worker == key.0 && e.start < until && apps.and_then(|a| a.app_of(e)) == key.1
        }) {
            let c0 = (e.start * width as u64 / until) as usize;
            let c1 = ((e.end.min(until)) * width as u64 / until) as usize;
            for cell in row.iter_mut().take((c1 + 1).min(width)).skip(c0) {
                *cell = glyph(e.op);
            }
        }
        let _ = writeln!(
            out,
            "{:<label_width$} |{}|",
            label(key),
            row.iter().collect::<String>()
        );
    }
    out
}

/// Renders events as plain text, one line per completed operation in
/// completion order: `start..end  worker  op`. Unlike the Gantt chart
/// this loses no events to column resolution, which makes it the format
/// of choice for byte-for-byte engine comparison (`scripts/sim_equiv.sh`
/// diffs it across the event and lockstep engines).
pub fn render_trace(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let worker = match e.worker {
            WorkerKind::Pe { tile } => format!("PE tile{tile}"),
            WorkerKind::EngineSend { channel } => format!("CA snd c{}", channel.0),
            WorkerKind::EngineRecv { channel } => format!("CA rcv c{}", channel.0),
            WorkerKind::Ip { actor } => format!("IP a{}", actor.0),
        };
        let op = match e.op {
            Op::Fire { actor } => format!("fire a{}", actor.0),
            Op::SendWord { channel } => format!("send c{}", channel.0),
            Op::RecvWord { channel } => format!("recv c{}", channel.0),
        };
        let _ = writeln!(out, "{:>10}..{:<10} {worker:<12} {op}", e.start, e.end);
    }
    out
}

/// Errors of the simulated platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// System construction failed; the message explains the mismatch.
    Build(String),
    /// Execution stalled before reaching the iteration target.
    Deadlock(String),
    /// The cycle budget elapsed before the iteration target.
    CycleLimit(u64),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Build(m) => write!(f, "cannot build system: {m}"),
            SimError::Deadlock(m) => write!(f, "simulated platform deadlocked: {m}"),
            SimError::CycleLimit(c) => write!(f, "cycle limit {c} reached"),
        }
    }
}

impl Error for SimError {}

/// The outcome of a simulation run.
///
/// Derives `PartialEq`/`Eq` so engine-equivalence tests can assert the
/// event kernel and the lockstep reference agree on every field exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Measurement {
    /// Completion time (cycle) of each graph iteration.
    pub iteration_times: Vec<u64>,
    /// Final simulation time.
    pub total_cycles: u64,
    /// Completed firings per actor.
    pub firings: Vec<u64>,
    /// Busy cycles per worker: every operation started before the final
    /// instant counts in full, even if it ends after it; one started at or
    /// after it does not count.
    pub worker_busy: Vec<(WorkerKind, u64)>,
    /// Platform clock in MHz (for unit conversion in reports).
    pub clock_mhz: u64,
}

impl Measurement {
    /// Assembles a measurement.
    pub fn new(
        iteration_times: Vec<u64>,
        total_cycles: u64,
        firings: Vec<u64>,
        worker_busy: Vec<(WorkerKind, u64)>,
        clock_mhz: u64,
    ) -> Measurement {
        Measurement {
            iteration_times,
            total_cycles,
            firings,
            worker_busy,
            clock_mhz,
        }
    }

    /// Long-term average throughput in iterations per cycle, discarding the
    /// first 10 % of iterations as warm-up (the paper's throughput is
    /// defined as a long-term average precisely to exclude initialization
    /// effects, §5).
    pub fn steady_throughput(&self) -> f64 {
        let n = self.iteration_times.len();
        if n < 2 {
            return 0.0;
        }
        let k = n / 10;
        let t0 = self.iteration_times[k];
        let t1 = self.iteration_times[n - 1];
        if t1 == t0 {
            return 0.0;
        }
        (n - 1 - k) as f64 / (t1 - t0) as f64
    }

    /// Average cycles per iteration in the steady phase.
    pub fn cycles_per_iteration(&self) -> f64 {
        let t = self.steady_throughput();
        if t == 0.0 {
            f64::INFINITY
        } else {
            1.0 / t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meas(times: Vec<u64>) -> Measurement {
        Measurement::new(times, 1000, vec![], vec![], 100)
    }

    #[test]
    fn steady_throughput_uniform() {
        // Iterations every 10 cycles.
        let m = meas((1..=100).map(|i| i * 10).collect());
        assert!((m.steady_throughput() - 0.1).abs() < 1e-9);
        assert!((m.cycles_per_iteration() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn warmup_discarded() {
        // Slow start (gap 100), then steady gap 10.
        let mut t = vec![100u64];
        for i in 1..100 {
            t.push(100 + i * 10);
        }
        let m = meas(t);
        assert!((m.steady_throughput() - 0.1).abs() < 0.01);
    }

    #[test]
    fn degenerate_measurements() {
        assert_eq!(meas(vec![]).steady_throughput(), 0.0);
        assert_eq!(meas(vec![5]).steady_throughput(), 0.0);
        assert!(meas(vec![]).cycles_per_iteration().is_infinite());
    }

    #[test]
    fn error_display() {
        assert!(SimError::Deadlock("x".into()).to_string().contains("x"));
        assert!(SimError::CycleLimit(7).to_string().contains('7'));
        assert!(SimError::Build("y".into()).to_string().contains("y"));
    }
}

#[cfg(test)]
mod gantt_tests {
    use super::*;
    use mamps_sdf::graph::ActorId;

    #[test]
    fn gantt_renders_rows_and_glyphs() {
        let events = vec![
            TraceEvent {
                worker: WorkerKind::Pe { tile: 0 },
                op: Op::Fire { actor: ActorId(0) },
                start: 0,
                end: 50,
            },
            TraceEvent {
                worker: WorkerKind::Pe { tile: 0 },
                op: Op::SendWord {
                    channel: mamps_sdf::graph::ChannelId(0),
                },
                start: 50,
                end: 60,
            },
            TraceEvent {
                worker: WorkerKind::Pe { tile: 1 },
                op: Op::RecvWord {
                    channel: mamps_sdf::graph::ChannelId(0),
                },
                start: 60,
                end: 70,
            },
        ];
        let g = render_gantt(&events, 100, 50);
        assert!(g.contains("PE tile0"));
        assert!(g.contains("PE tile1"));
        assert!(g.contains('#'));
        assert!(g.contains('>'));
        assert!(g.contains('<'));
    }

    #[test]
    fn gantt_empty_events() {
        let g = render_gantt(&[], 10, 20);
        assert!(g.starts_with("gantt:"));
    }

    #[test]
    fn gantt_splits_shared_tile_rows_per_application() {
        // One PE firing actors of two applications in alternation: with
        // attribution the tile gets one labelled row per application.
        let fire = |actor: usize, start: u64| TraceEvent {
            worker: WorkerKind::Pe { tile: 0 },
            op: Op::Fire {
                actor: ActorId(actor),
            },
            start,
            end: start + 10,
        };
        let events = vec![fire(0, 0), fire(1, 10), fire(0, 20), fire(1, 30)];
        let apps = AppAttribution {
            names: vec!["alpha".into(), "beta".into()],
            app_of_actor: vec![0, 1],
            app_of_channel: vec![],
        };
        let labeled = render_gantt_labeled(&events, 40, 40, Some(&apps));
        assert!(labeled.contains("PE tile0 [alpha]"), "{labeled}");
        assert!(labeled.contains("PE tile0 [beta]"), "{labeled}");
        // The two rows partition the tile's events: each shows only its
        // own firings, so alpha's row is half '#', half blank.
        let alpha_row = labeled
            .lines()
            .find(|l| l.contains("[alpha]"))
            .unwrap()
            .rsplit('|')
            .nth(1)
            .unwrap();
        assert!(alpha_row.contains('#'));
        assert!(alpha_row.contains(' '));
        // Without attribution the old single-row rendering is unchanged.
        let plain = render_gantt(&events, 40, 40);
        assert_eq!(plain.lines().count(), 2, "{plain}");
        assert!(plain.contains("PE tile0"));
        assert!(!plain.contains('['));
    }

    #[test]
    fn attribution_resolves_ops_to_apps() {
        let apps = AppAttribution {
            names: vec!["a".into(), "b".into()],
            app_of_actor: vec![0, 1],
            app_of_channel: vec![1],
        };
        let ev = |op: Op| TraceEvent {
            worker: WorkerKind::Pe { tile: 0 },
            op,
            start: 0,
            end: 1,
        };
        assert_eq!(apps.app_of(&ev(Op::Fire { actor: ActorId(1) })), Some(1));
        assert_eq!(
            apps.app_of(&ev(Op::SendWord {
                channel: mamps_sdf::graph::ChannelId(0)
            })),
            Some(1)
        );
        assert_eq!(apps.app_of(&ev(Op::Fire { actor: ActorId(9) })), None);
        assert_eq!(apps.name(0), "a");
        assert_eq!(apps.name(7), "?");
    }
}
