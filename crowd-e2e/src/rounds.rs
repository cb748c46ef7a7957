//! `rounds_cohort`: the round protocol through its client API.
//!
//! For every round, one device joins first (its checkout publishes the round
//! and, through the round seed, the cohort); then every cohort device, in
//! sequence, calls `DeviceClient::join_round` and `RoundSession::submit`.
//! The submit that completes the cohort is answered only after the server
//! has finalized the round.

use crate::inputs::{Inputs, Shape, MINIBATCH};
use crate::serve::{remove_data_dir, start_timed, Started};
use crate::trace::Tracer;
use crate::wire::{Scrape, STALL};
use crate::{Args, Measured, TRACE_SLICE_S, WARMUP_S};
use crowd_core::config::{RoundSettings, ServerConfig};
use crowd_core::device::CheckinPayload;
use crowd_learning::metrics::error_rate;
use crowd_linalg::{GradientUpdate, Vector};
use crowd_net::{DeviceClient, RoundSession};
use std::time::{Duration, Instant};

const POPULATION: u64 = 640;
const SELECT_FRACTION: f64 = 0.1;
/// ε charged per accepted submission. A power of two, so ledger sums are
/// exact and can be compared with `==`.
const EPSILON_PER_SUBMIT: f64 = 0.125;

#[derive(Default)]
struct Window {
    rounds: u64,
    acked: u64,
    round_us: f64,
    /// Time spent inside `join_round` and `submit`.
    waiting: Duration,
    elapsed_s: f64,
}

impl Window {
    fn add(&mut self, o: Window) {
        self.rounds += o.rounds;
        self.acked += o.acked;
        self.round_us += o.round_us;
        self.waiting += o.waiting;
        self.elapsed_s += o.elapsed_s;
    }
}

struct Generator<'a> {
    inputs: &'a Inputs,
    clients: Vec<DeviceClient>,
    nonces: Vec<u64>,
    /// Accepted submissions per device, for the exactly-once ε check.
    accepted: Vec<u64>,
    next_round: u64,
    contributions: u64,
}

impl Generator<'_> {
    fn join(
        &self,
        device: u64,
        w: &mut Window,
        m: &mut Measured,
        tracer: &mut Option<&mut Tracer>,
        parent: u32,
    ) -> Option<RoundSession> {
        m.attempted += 1;
        let t0 = Instant::now();
        let joined = self.clients[device as usize].join_round();
        let t1 = Instant::now();
        w.waiting += t1 - t0;
        if t1 - t0 > STALL {
            m.stalls += 1;
        }
        if let Some(t) = tracer.as_deref_mut() {
            t.record("rounds.join", t0, t1, parent, device);
        }
        match joined {
            Ok(session) => Some(session),
            Err(e) => {
                eprintln!("crowd-e2e: join_round for device {device} failed: {e}");
                m.failed += 1;
                None
            }
        }
    }

    /// Runs whole rounds until `seconds` have passed.
    fn drive(&mut self, seconds: f64, m: &mut Measured, mut tracer: Option<&mut Tracer>) -> Window {
        let mut w = Window::default();
        let window_start = Instant::now();
        while window_start.elapsed().as_secs_f64() < seconds {
            let r = self.next_round;
            self.next_round += 1;
            let round_start = Instant::now();
            let root = tracer
                .as_deref_mut()
                .map_or(0, |t| t.open("round", round_start, 0, r));
            let probe = self.inputs.device(r);
            let Some(first) = self.join(probe, &mut w, m, &mut tracer, root) else {
                continue;
            };
            let round_id = first.round_id();
            let mut order: Vec<u64> = first.cohort().to_vec();
            let mut first = if first.cohort().contains(&probe) {
                order.retain(|&d| d != probe);
                order.insert(0, probe);
                Some(first)
            } else {
                None
            };
            let mut stalled = false;
            let last = order.len().saturating_sub(1);
            for (i, &device) in order.iter().enumerate() {
                let stalls_before = m.stalls;
                let device_start = if first.is_some() {
                    round_start
                } else {
                    Instant::now()
                };
                let session = match first.take() {
                    Some(session) => session,
                    None => match self.join(device, &mut w, m, &mut tracer, root) {
                        Some(session) => session,
                        None => continue,
                    },
                };
                m.attempted += 1;
                if session.round_id() != round_id || !session.cohort().contains(&device) {
                    eprintln!("crowd-e2e: device {device} is not in round {round_id}'s cohort");
                    m.failed += 1;
                    continue;
                }
                let t_gen = Instant::now();
                let payload = self.payload(device, session.checked_out().iteration);
                let t_submit = Instant::now();
                let outcome = session.submit(&payload);
                let t_end = Instant::now();
                w.waiting += t_end - t_submit;
                if let Some(t) = tracer.as_deref_mut() {
                    let name = if i == last {
                        "rounds.finalize_ack"
                    } else {
                        "rounds.submit"
                    };
                    t.record("bench.generator", t_gen, t_submit, root, device);
                    t.record(name, t_submit, t_end, root, device);
                }
                if t_end - t_submit > STALL {
                    m.stalls += 1;
                }
                // A replayed (deduplicated) submission also reads as applied;
                // the registry's `dedup_replays` must stay 0 (checked after
                // the window).
                match outcome {
                    Ok(outcome) if outcome.applied() => {
                        w.acked += 1;
                        m.slice.acked += 1;
                        m.slice.samples += MINIBATCH as u64;
                        self.accepted[device as usize] += 1;
                        if m.stalls > stalls_before {
                            stalled = true;
                        } else {
                            m.slice
                                .ack_us
                                .push((t_end - device_start).as_secs_f64() * 1e6);
                        }
                    }
                    other => {
                        eprintln!("crowd-e2e: submit of device {device} answered {other:?}");
                        m.failed += 1;
                    }
                }
            }
            let round_end = Instant::now();
            if let Some(t) = tracer.as_deref_mut() {
                t.close(root, round_end);
            }
            let round = round_end - round_start;
            w.rounds += 1;
            w.round_us += round.as_secs_f64() * 1e6;
            if !stalled {
                m.slice.round_ms.push(round.as_secs_f64() * 1e3);
            }
            m.tick();
        }
        m.end_window();
        w.elapsed_s = window_start.elapsed().as_secs_f64();
        w
    }

    fn payload(&mut self, device: u64, iteration: u64) -> CheckinPayload {
        let c = &self.inputs.pool[self.inputs.contribution(self.contributions)];
        self.contributions += 1;
        self.nonces[device as usize] += 1;
        CheckinPayload {
            device_id: device,
            checkout_iteration: iteration,
            nonce: self.nonces[device as usize],
            gradient: GradientUpdate::Dense(Vector::from_vec(c.gradient.clone())),
            num_samples: MINIBATCH,
            error_count: c.error_count,
            label_counts: c.label_counts.clone(),
        }
    }
}

pub fn run(args: &Args) -> Result<Measured, String> {
    let mut m = Measured {
        cohorts: true,
        ..Measured::default()
    };
    let mut tracer = args.trace.then(Tracer::new);
    let inputs = Inputs::generate(Shape::Mnist50, 1024, POPULATION, args.seed, tracer.as_mut())?;
    let rounds = RoundSettings::new(POPULATION)
        .with_select_fraction(SELECT_FRACTION)
        .with_seed(args.seed ^ 0x005E_EDC0_4027);
    let config = ServerConfig::new()
        .with_rounds(rounds)
        .with_budget(EPSILON_PER_SUBMIT, f64::INFINITY);
    let Started {
        handle,
        conn,
        data_dir,
    } = start_timed(inputs.model, &config, POPULATION, None, &mut m.setup_s)?;
    drop(conn);
    let addr = handle.addr();
    let mut generator = Generator {
        inputs: &inputs,
        clients: (0..POPULATION)
            .map(|d| {
                DeviceClient::builder(addr, d, inputs.tokens[d as usize])
                    .no_retry()
                    .build()
            })
            .collect(),
        nonces: vec![0; POPULATION as usize],
        accepted: vec![0; POPULATION as usize],
        next_round: 0,
        contributions: 0,
    };
    let start = Scrape::fetch(addr)?;
    let samples_before = handle.total_samples();
    let warmup = generator.drive(WARMUP_S, &mut m, None).rounds;
    m.slices.clear();
    let rounds_run = warmup
        + if let Some(t) = tracer.as_mut() {
            let before = Scrape::fetch(addr)?;
            let (mut plain, mut traced) = (Window::default(), Window::default());
            let start = Instant::now();
            while start.elapsed().as_secs_f64() < args.seconds {
                plain.add(generator.drive(TRACE_SLICE_S, &mut m, None));
                traced.add(generator.drive(TRACE_SLICE_S, &mut m, Some(t)));
            }
            let after = Scrape::fetch(addr)?;
            after.layers_since(&before, &mut m.layers);
            let l = &mut m.layers;
            l.insert("rounds.join_us", t.mean_us("rounds.join"));
            l.insert("rounds.submit_us", t.mean_us("rounds.submit"));
            l.insert("rounds.finalize_ack_us", t.mean_us("rounds.finalize_ack"));
            let submits =
                t.durations_us("rounds.submit").len() + t.durations_us("rounds.finalize_ack").len();
            l.insert(
                "agg.accepted_ratio",
                crate::stats::ratio(traced.acked as f64, submits as f64),
            );
            l.insert("bench.generator_us", t.mean_us("bench.generator"));
            l.insert(
                "bench.gen_busy_frac",
                1.0 - plain.waiting.as_secs_f64() / plain.elapsed_s,
            );
            l.insert(
                "bench.trace_overhead_frac",
                crate::stats::ratio(traced.round_us, traced.rounds as f64)
                    / crate::stats::ratio(plain.round_us, plain.rounds as f64)
                    - 1.0,
            );
            let spans_us = t.children_per_root_us("round");
            crate::reconcile(
                &mut m,
                spans_us,
                traced.elapsed_s * 1e6 / traced.rounds as f64,
            );
            plain.rounds + traced.rounds
        } else {
            generator.drive(args.seconds, &mut m, None).rounds
        };
    let samples = handle.total_samples() - samples_before;
    let acked: u64 = generator.accepted.iter().sum();
    m.check(samples == acked * MINIBATCH as u64, || {
        format!("server counted {samples} samples for {acked} accepted submissions")
    });
    let end = Scrape::fetch(addr)?;
    let finalized = end.counter_delta(&start, "rounds_finalized") as u64;
    m.check(finalized == rounds_run, || {
        format!("{finalized} rounds finalized, {rounds_run} run")
    });
    for name in [
        "rounds_expired",
        "round_outdated_rejections",
        "dedup_replays",
    ] {
        let n = end.counter_delta(&start, name);
        m.check(n == 0.0, || format!("{name} = {n}"));
    }
    let ledger = handle.budget_ledger();
    let charged_once = ledger
        .iter()
        .all(|&(d, eps)| eps == EPSILON_PER_SUBMIT * generator.accepted[d as usize] as f64)
        && ledger.len() == generator.accepted.iter().filter(|&&n| n > 0).count();
    m.check(charged_once, || {
        "the ε ledger does not charge each accepted submit once".into()
    });
    let t_eval = Instant::now();
    m.final_test_error = error_rate(&inputs.model, &handle.params(), &inputs.test)
        .map_err(|e| format!("test error: {e}"))?;
    if let Some(t) = tracer.as_mut() {
        t.record("learning.eval", t_eval, Instant::now(), 0, 0);
    }
    m.check_test_error();
    drop(generator);
    handle.shutdown();
    remove_data_dir(data_dir);
    if let Some(t) = tracer {
        crate::checkin::finish_trace(&t, &mut m, "rounds_cohort");
    }
    Ok(m)
}
