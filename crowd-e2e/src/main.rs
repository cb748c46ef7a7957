//! crowd-e2e: the end-to-end benchmark of the Crowd-ML system.
//!
//! ```text
//! crowd-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (all closed-loop: a device waits for each reply):
//!
//! * `checkin_stream` — checkout + dense checkin per device round over one
//!   persistent connection to a volatile `ReactorServer` (epoch size 1).
//! * `gateway_durable` — checkout + one 64-item `BatchCheckinRequest` per
//!   request to a WAL-backed server with the ε ledger on (epoch size 64).
//! * `rounds_cohort` — `DeviceClient::join_round` + `RoundSession::submit`
//!   for every cohort device of every round.
//!
//! With `--trace 0` the last line of standard output carries the end-to-end
//! metrics; with `--trace 1` it carries the per-layer metrics of a separate
//! traced run. The process exits non-zero when a correctness check fails.

mod checkin;
mod inputs;
mod rounds;
mod serve;
mod stats;
mod trace;
mod wire;

use stats::{Metric, Outcome};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Shortest slice of the timed window. Every end-to-end rate and percentile
/// is computed per slice and reported as the median over the run's slices,
/// so a burst of interference from outside the program that lasts a second
/// or two moves a few slices, not the result.
pub const SLICE_S: f64 = 1.0;

/// A slice also holds at least this many latency samples and, on a workload
/// with cohorts, this many rounds, so each p90 has ten samples beyond it.
pub const SLICE_MIN_ACKS: usize = 100;
pub const SLICE_MIN_ROUNDS: usize = 100;

/// Untimed driving before the timed window of every workload, so
/// lazily grown buffers, files and caches are in place when timing starts.
pub const WARMUP_S: f64 = 2.0;

/// What one slice of the timed window measured.
#[derive(Default)]
pub struct Slice {
    pub seconds: f64,
    /// Acknowledged device contributions.
    pub acked: u64,
    /// Training samples those contributions carried to the server.
    pub samples: u64,
    /// Per device contribution: first request sent → acknowledgement decoded.
    pub ack_us: Vec<f64>,
    /// Per cohort round (`rounds_cohort` only).
    pub round_ms: Vec<f64>,
}

/// Everything one run of a workload measured.
#[derive(Default)]
pub struct Measured {
    /// The workload runs cohort rounds. Without cohorts a round is one
    /// device round (checkout to ack), so the round figures are the ack
    /// figures in ms.
    pub cohorts: bool,
    /// Seconds from workload start until the first request was served, one
    /// entry per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Completed slices of the timed window.
    pub slices: Vec<Slice>,
    /// The slice being filled, and when it started.
    pub slice: Slice,
    slice_start: Option<std::time::Instant>,
    pub final_test_error: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Exchanges slower than [`wire::STALL`], kept out of `ack_us`.
    pub stalls: u64,
    /// Failed correctness checks.
    pub errors: Vec<String>,
    /// Per-layer values from the traced run.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Measured {
    /// Closes the current slice once it has lasted `SLICE_S` and holds
    /// enough samples; call once per completed operation.
    pub fn tick(&mut self) {
        let now = std::time::Instant::now();
        let start = *self.slice_start.get_or_insert(now);
        let seconds = (now - start).as_secs_f64();
        if seconds >= SLICE_S
            && self.slice.ack_us.len() >= SLICE_MIN_ACKS
            && (!self.cohorts || self.slice.round_ms.len() >= SLICE_MIN_ROUNDS)
        {
            let mut done = std::mem::take(&mut self.slice);
            done.seconds = seconds;
            self.slices.push(done);
            self.slice_start = Some(now);
        }
    }

    /// Ends a timed window: a partly filled slice is dropped.
    pub fn end_window(&mut self) {
        self.slice = Slice::default();
        self.slice_start = None;
    }

    /// Records a failed correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// The trained model must be clearly better than chance (0.9 for ten
    /// classes).
    pub fn check_test_error(&mut self) {
        let error = self.final_test_error;
        self.check(error.is_finite() && error < 0.5, || {
            format!("final test error {error} is not below 0.5")
        });
    }
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A layer a
/// workload does not exercise reports 0.
const LAYERS: &[(&str, &str)] = &[
    ("proto.encode_us", "us"),
    ("proto.decode_us", "us"),
    ("proto.request_bytes", "bytes"),
    ("net.checkout_exchange_us", "us"),
    ("net.checkin_exchange_us", "us"),
    ("net.transport_overhead_us", "us"),
    ("net.connect_retries", "count"),
    ("reactor.conns_accepted", "count"),
    ("reactor.parks", "count"),
    ("reactor.frame_resumes", "count"),
    ("agg.checkout_us", "us"),
    ("agg.checkin_us", "us"),
    ("agg.epoch_merge_mean_us", "us"),
    ("agg.checkins_per_epoch", "count"),
    ("agg.accepted_ratio", "fraction"),
    ("agg.busy_rejections", "count"),
    ("agg.dedup_replays", "count"),
    ("core.checkin_us", "us"),
    ("store.wal_append_mean_us", "us"),
    ("store.wal_appends", "count"),
    ("store.wal_bytes_per_checkin", "bytes"),
    ("store.snapshot_mean_us", "us"),
    ("store.snapshots", "count"),
    ("rounds.join_us", "us"),
    ("rounds.submit_us", "us"),
    ("rounds.finalize_ack_us", "us"),
    ("rounds.server_finalize_mean_us", "us"),
    ("rounds.finalized", "count"),
    ("rounds.expired", "count"),
    ("rounds.outdated", "count"),
    ("learning.minibatch_gradient_us", "us"),
    ("dp.sanitize_us", "us"),
    ("learning.eval_us", "us"),
    ("data.materialize_s", "s"),
    ("bench.generator_us", "us"),
    ("bench.gen_busy_frac", "fraction"),
    ("bench.trace_overhead_frac", "fraction"),
    ("bench.reconcile_gap_frac", "fraction"),
    ("bench.ops_failed_frac", "fraction"),
    ("bench.stalled_exchanges", "count"),
];

/// The traced run fails when its client-side spans, summed per round, differ
/// from the measured time per round by more than this share.
pub const RECONCILE_TOLERANCE: f64 = 0.05;

/// Reconciles the traced run: `spans_us` is the mean per round of the child
/// spans recorded in the traced slices; `measured_us` is the wall time per
/// round of those same slices, read from the window's own clock outside any
/// span. Work the spans miss, and the cost of recording them, both show up
/// as the gap.
pub fn reconcile(m: &mut Measured, spans_us: f64, measured_us: f64) {
    let gap = 1.0 - stats::ratio(spans_us, measured_us);
    m.layers.insert("bench.reconcile_gap_frac", gap);
    m.check(gap.abs() <= RECONCILE_TOLERANCE, || {
        format!(
            "spans sum to {spans_us:.2} µs per round, measured {measured_us:.2} µs: gap {gap:.4}"
        )
    });
}

/// The traced run alternates untraced and traced slices of this length, so
/// warm-up and drift fall on both sides of the trace-overhead comparison.
pub const TRACE_SLICE_S: f64 = 0.5;

fn end_to_end(m: &Measured) -> Vec<Metric> {
    let metric = |name, value, unit| Metric { name, value, unit };
    let over_slices =
        |f: &dyn Fn(&Slice) -> f64| stats::median(&m.slices.iter().map(f).collect::<Vec<_>>());
    let round_q = |s: &Slice, q| {
        if m.cohorts {
            stats::quantile(&s.round_ms, q)
        } else {
            stats::quantile(&s.ack_us, q) / 1e3
        }
    };
    let samples: usize = m.slices.iter().map(|s| s.ack_us.len()).sum();
    eprintln!(
        "crowd-e2e: {} slices, {samples} latency samples, {} cohort rounds",
        m.slices.len(),
        m.slices.iter().map(|s| s.round_ms.len()).sum::<usize>()
    );
    vec![
        metric("setup_s", stats::median(&m.setup_s), "s"),
        metric(
            "device_rounds_per_s",
            over_slices(&|s| s.acked as f64 / s.seconds),
            "1/s",
        ),
        metric(
            "ack_p50_us",
            over_slices(&|s| stats::quantile(&s.ack_us, 0.50)),
            "us",
        ),
        metric(
            "ack_p90_us",
            over_slices(&|s| stats::quantile(&s.ack_us, 0.90)),
            "us",
        ),
        metric("round_p50_ms", over_slices(&|s| round_q(s, 0.50)), "ms"),
        metric("round_p90_ms", over_slices(&|s| round_q(s, 0.90)), "ms"),
        metric(
            "samples_per_s",
            over_slices(&|s| s.samples as f64 / s.seconds),
            "1/s",
        ),
        metric("final_test_error", m.final_test_error, "fraction"),
        metric("peak_rss_mb", stats::peak_rss_mb(), "MB"),
    ]
}

fn per_layer(m: &mut Measured) -> Vec<Metric> {
    m.layers.insert(
        "bench.ops_failed_frac",
        stats::ratio(m.failed as f64, m.attempted as f64),
    );
    m.layers.insert("bench.stalled_exchanges", m.stalls as f64);
    LAYERS
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: m.layers.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

/// Where runs leave their scratch files (WAL directories, span dumps):
/// inside the build directory, which version control ignores.
pub fn scratch_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(base).join("crowd-e2e")
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("crowd-e2e: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "checkin_stream" => checkin::run(&args, checkin::Spec::stream()),
        "gateway_durable" => checkin::run(&args, checkin::Spec::gateway()),
        "rounds_cohort" => rounds::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let mut measured = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("crowd-e2e: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let (failed, attempted) = (measured.failed, measured.attempted);
    measured.check(failed == 0, || {
        format!("{failed} of {attempted} operations failed")
    });
    if measured.stalls > 0 {
        eprintln!(
            "crowd-e2e: STALLED: {} exchange(s) took over {:?}; kept out of the latency figures",
            measured.stalls,
            wire::STALL
        );
    }
    for e in &measured.errors {
        eprintln!("crowd-e2e: check failed: {e}");
    }
    if !args.trace && measured.slices.is_empty() {
        measured.errors.push(format!(
            "the timed window held no complete {SLICE_S} s slice"
        ));
    }
    let correct = measured.errors.is_empty();
    let metrics = if args.trace {
        per_layer(&mut measured)
    } else {
        end_to_end(&measured)
    };
    for m in &metrics {
        eprintln!("  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let outcome = Outcome {
        correct,
        attempted: measured.attempted,
        failed: measured.failed,
        metrics,
    };
    println!("{}", outcome.to_json());
    if !correct {
        std::process::exit(1);
    }
}
