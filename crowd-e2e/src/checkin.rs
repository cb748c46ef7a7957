//! The two checkin workloads: `checkin_stream` (one dense checkin per
//! request, epoch size 1, volatile) and `gateway_durable` (64 checkins per
//! `BatchCheckinRequest`, epoch size 64, WAL and ε ledger on).
//!
//! One generator thread drives one persistent connection, closed-loop: each
//! request is a checkout for the request's first device, then the checkin
//! (or batch) tagged with the checked-out iteration. Device ids rotate over
//! the population in a seeded order; every device numbers its checkins with
//! a fresh nonce.

use crate::inputs::{Inputs, Shape, MINIBATCH, TOKEN_SECRET};
use crate::serve::{checkout_request, remove_data_dir, start_timed, SplitCpus, Started};
use crate::trace::Tracer;
use crate::wire::{Conn, Exchange, Scrape, STALL};
use crate::{Args, Measured, TRACE_SLICE_S, WARMUP_S};
use crowd_agg::AggRuntime;
use crowd_core::config::ServerConfig;
use crowd_core::device::CheckinPayload;
use crowd_core::server::Server;
use crowd_learning::metrics::error_rate;
use crowd_linalg::{GradientUpdate, Vector};
use crowd_net::ReactorServer;
use crowd_proto::auth::TokenRegistry;
use crowd_proto::message::{BatchCheckinRequest, CheckinRequest, GradientPayload, Message};
use std::time::{Duration, Instant};

/// ε charged per checkin on the durable gateway. A power of two, so the
/// ledger's sums are exact and can be compared with `==`.
const EPSILON_PER_CHECKIN: f64 = 0.125;

/// Checkins per gateway request, and the gateway's epoch size.
const GATEWAY_BATCH: usize = 64;

pub struct Spec {
    name: &'static str,
    shape: Shape,
    pool_size: usize,
    /// Checkins per request: 1 sends a `CheckinRequest`, more a batch.
    batch: usize,
    population: u64,
    config: ServerConfig,
    durable: bool,
    /// Server and generator each on a CPU of their own ([`SplitCpus`]).
    split_cpus: bool,
}

impl Spec {
    /// Default `ServerConfig` (epoch size 1, volatile, no budget), 50×10 model.
    pub fn stream() -> Spec {
        Spec {
            name: "checkin_stream",
            shape: Shape::Mnist50,
            pool_size: 1024,
            batch: 1,
            population: 10_000,
            config: ServerConfig::new(),
            durable: false,
            split_cpus: true,
        }
    }

    /// Epoch size 64, WAL without fsync, ε ledger with a ceiling that never
    /// refuses, 500×10 model, 64-item batches.
    pub fn gateway() -> Spec {
        Spec {
            name: "gateway_durable",
            shape: Shape::Wide500,
            pool_size: 256,
            batch: GATEWAY_BATCH,
            population: 10_000,
            config: ServerConfig::new()
                .with_epoch_size(GATEWAY_BATCH as u64)
                .with_fsync(false)
                .with_budget(EPSILON_PER_CHECKIN, f64::INFINITY),
            durable: true,
            split_cpus: false,
        }
    }
}

/// One request of the traced window, kept for the in-process replays.
struct Sent {
    template: usize,
    /// `(device, nonce)` of every checkin in the request.
    items: Vec<(u64, u64)>,
    checkin_exchange_us: f64,
}

/// Totals of one timed window.
#[derive(Default)]
struct Window {
    requests: u64,
    acked: u64,
    latency_us: f64,
    exchange: Duration,
    request_bytes: u64,
    elapsed_s: f64,
}

impl Window {
    fn add(&mut self, o: Window) {
        self.requests += o.requests;
        self.acked += o.acked;
        self.latency_us += o.latency_us;
        self.exchange += o.exchange;
        self.request_bytes += o.request_bytes;
        self.elapsed_s += o.elapsed_s;
    }
}

struct Generator<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    conn: Conn,
    /// Pre-built requests; only the header fields change per send.
    templates: Vec<Message>,
    nonces: Vec<u64>,
    next: u64,
}

fn template(contributions: &[crate::inputs::Contribution]) -> Vec<CheckinRequest> {
    contributions
        .iter()
        .map(|c| CheckinRequest {
            device_id: 0,
            token: crowd_proto::auth::AuthToken::derive(0, TOKEN_SECRET),
            checkout_iteration: 0,
            nonce: 0,
            round_id: 0,
            gradient: GradientPayload::Dense(c.gradient.clone()),
            num_samples: MINIBATCH as u32,
            error_count: c.error_count,
            label_counts: c.label_counts.clone(),
        })
        .collect()
}

impl<'a> Generator<'a> {
    fn new(spec: &'a Spec, inputs: &'a Inputs, conn: Conn) -> Self {
        let templates = if spec.batch == 1 {
            template(&inputs.pool)
                .into_iter()
                .map(Message::CheckinRequest)
                .collect()
        } else {
            inputs
                .pool
                .chunks_exact(spec.batch)
                .map(|chunk| {
                    Message::BatchCheckinRequest(BatchCheckinRequest {
                        items: template(chunk),
                    })
                })
                .collect()
        };
        Generator {
            spec,
            inputs,
            conn,
            templates,
            nonces: vec![0; spec.population as usize],
            next: 0,
        }
    }

    /// Stamps the `j`-th checkin of request `k` with its device, token, nonce
    /// and checkout iteration.
    fn fill(&mut self, req: usize, k: u64, j: usize, iteration: u64) -> (u64, u64) {
        let device = self.inputs.device(k * self.spec.batch as u64 + j as u64);
        self.nonces[device as usize] += 1;
        let nonce = self.nonces[device as usize];
        let item = match &mut self.templates[req] {
            Message::CheckinRequest(item) => item,
            Message::BatchCheckinRequest(batch) => &mut batch.items[j],
            _ => unreachable!("templates hold checkins only"),
        };
        item.device_id = device;
        item.token = self.inputs.tokens[device as usize];
        item.nonce = nonce;
        item.checkout_iteration = iteration;
        (device, nonce)
    }

    /// Drives closed-loop requests for `seconds`.
    fn drive(
        &mut self,
        seconds: f64,
        m: &mut Measured,
        mut tracer: Option<&mut Tracer>,
        mut sent: Option<&mut Vec<Sent>>,
    ) -> Window {
        let batch = self.spec.batch;
        let mut w = Window::default();
        let window_start = Instant::now();
        while window_start.elapsed().as_secs_f64() < seconds {
            let k = self.next;
            self.next += 1;
            m.attempted += 1 + batch as u64;
            let first = self.inputs.device(k * batch as u64);
            let checkout = checkout_request(first, self.inputs.tokens[first as usize]);
            let Some(co) = call(&mut self.conn, &checkout, 1 + batch as u64, m) else {
                continue;
            };
            let Message::CheckoutResponse(reply) = &co.reply else {
                m.failed += 1 + batch as u64;
                continue;
            };
            let iteration = reply.iteration;
            let req = self.inputs.contribution(k) % self.templates.len();
            let items: Vec<(u64, u64)> = (0..batch)
                .map(|j| self.fill(req, k, j, iteration))
                .collect();
            let Some(ci) = call(&mut self.conn, &self.templates[req], batch as u64, m) else {
                continue;
            };
            let accepted = match &ci.reply {
                Message::CheckinAck(ack) => usize::from(ack.accepted && !ack.deduped),
                Message::BatchCheckinAck(b) if b.acks.len() == batch => b
                    .acks
                    .iter()
                    .filter(|a| a.accepted && !a.deduped && a.reject.is_none())
                    .count(),
                _ => 0,
            };
            m.failed += (batch - accepted) as u64;
            w.acked += accepted as u64;
            m.slice.acked += accepted as u64;
            m.slice.samples += (accepted * MINIBATCH) as u64;
            w.requests += 1;
            let latency = ci.at[3] - co.at[0];
            w.latency_us += latency.as_secs_f64() * 1e6;
            w.exchange += co.exchange_time() + ci.exchange_time();
            w.request_bytes += (co.request_bytes + ci.request_bytes) as u64;
            if co.exchange_time() > STALL || ci.exchange_time() > STALL {
                m.stalls += 1;
            } else {
                // Every item of a batch carries the batch's time; one sample
                // per batch gives the same quantiles.
                m.slice.ack_us.push(latency.as_secs_f64() * 1e6);
            }
            if let Some(t) = tracer.as_deref_mut() {
                let root = t.record("round", co.at[0], ci.at[3], 0, k);
                t.record("proto.encode", co.at[0], co.at[1], root, k);
                t.record("net.checkout_exchange", co.at[1], co.at[2], root, k);
                t.record("proto.decode", co.at[2], co.at[3], root, k);
                t.record("bench.generator", co.at[3], ci.at[0], root, k);
                t.record("proto.encode", ci.at[0], ci.at[1], root, k);
                t.record("net.checkin_exchange", ci.at[1], ci.at[2], root, k);
                t.record("proto.decode", ci.at[2], ci.at[3], root, k);
            }
            if let Some(sent) = sent.as_deref_mut() {
                sent.push(Sent {
                    template: req,
                    items,
                    checkin_exchange_us: ci.exchange_time().as_secs_f64() * 1e6,
                });
            }
            m.tick();
        }
        m.end_window();
        w.elapsed_s = window_start.elapsed().as_secs_f64();
        w
    }
}

/// One exchange; a transport failure counts `ops` failed and reconnects.
fn call(conn: &mut Conn, request: &Message, ops: u64, m: &mut Measured) -> Option<Exchange> {
    match conn.call(request) {
        Ok(exchange) => Some(exchange),
        Err(e) => {
            eprintln!("crowd-e2e: exchange failed: {e}");
            m.failed += ops;
            if let Err(e) = conn.reconnect() {
                eprintln!("crowd-e2e: reconnect failed: {e}");
            }
            None
        }
    }
}

fn payloads(inputs: &Inputs, spec: &Spec, sent: &Sent, iteration: u64) -> Vec<CheckinPayload> {
    let first = sent.template * spec.batch;
    sent.items
        .iter()
        .enumerate()
        .map(|(j, &(device_id, nonce))| {
            let c = &inputs.pool[first + j];
            CheckinPayload {
                device_id,
                checkout_iteration: iteration,
                nonce,
                gradient: GradientUpdate::Dense(Vector::from_vec(c.gradient.clone())),
                num_samples: MINIBATCH,
                error_count: c.error_count,
                label_counts: c.label_counts.clone(),
            }
        })
        .collect()
}

/// Replays the traced request sequence in-process on `AggRuntime::checkout`
/// and `checkin` (a batch: every item submitted, then every ack awaited, as
/// the server does), with the same configuration as the networked server.
fn replay_runtime(
    spec: &Spec,
    inputs: &Inputs,
    sent: &[Sent],
    t: &mut Tracer,
) -> Result<Vec<f64>, String> {
    let data_dir = spec
        .durable
        .then(|| crate::scratch_dir().join(format!("replay-{}", std::process::id())));
    let runtime = match &data_dir {
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            let config = spec.config.clone().with_data_dir(dir.clone());
            let (store, server, _) = crowd_store::Store::open(inputs.model, config)
                .map_err(|e| format!("replay store: {e}"))?;
            AggRuntime::with_store(server, Some(store))
        }
        None => AggRuntime::new(
            Server::new(inputs.model, spec.config.clone()).map_err(|e| e.to_string())?,
        ),
    }
    .map_err(|e| format!("replay runtime: {e}"))?;
    let mut per_request = Vec::with_capacity(sent.len());
    for (i, s) in sent.iter().enumerate() {
        let t0 = Instant::now();
        let ticket = runtime.checkout();
        let t1 = Instant::now();
        let batch = payloads(inputs, spec, s, ticket.iteration);
        let t2 = Instant::now();
        let accepted = if spec.batch == 1 {
            let p = batch.into_iter().next().ok_or("empty request")?;
            usize::from(runtime.checkin(p).map_err(|e| e.to_string())?.accepted)
        } else {
            let handles = batch
                .into_iter()
                .map(|p| runtime.submit(p))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            let mut accepted = 0;
            for h in handles {
                accepted += usize::from(h.wait().map_err(|e| e.to_string())?.accepted);
            }
            accepted
        };
        let t3 = Instant::now();
        if accepted != s.items.len() {
            return Err("the in-process replay refused a checkin".into());
        }
        t.record("agg.checkout", t0, t1, 0, i as u64);
        let id = t.record("agg.checkin", t2, t3, 0, i as u64);
        per_request.push(t.spans()[id as usize - 1].micros());
    }
    runtime.shutdown();
    crate::serve::remove_data_dir(data_dir);
    Ok(per_request)
}

/// Replays the same sequence on a bare `Server::checkin`, one call per item.
fn replay_core(spec: &Spec, inputs: &Inputs, sent: &[Sent], t: &mut Tracer) -> Result<(), String> {
    let mut server = Server::new(inputs.model, spec.config.clone()).map_err(|e| e.to_string())?;
    for (i, s) in sent.iter().enumerate() {
        let ticket = server.checkout();
        let batch = payloads(inputs, spec, s, ticket.iteration);
        let t0 = Instant::now();
        for p in &batch {
            server.checkin(p).map_err(|e| e.to_string())?;
        }
        t.record("core.checkin", t0, Instant::now(), 0, i as u64);
    }
    Ok(())
}

pub fn run(args: &Args, spec: Spec) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut tracer = args.trace.then(Tracer::new);
    let inputs = Inputs::generate(
        spec.shape,
        spec.pool_size,
        spec.population,
        args.seed,
        tracer.as_mut(),
    )?;
    let tag = spec.durable.then_some(spec.name);
    let split = if spec.split_cpus {
        let split = SplitCpus::pin_server();
        if split.is_none() {
            eprintln!("crowd-e2e: fewer than two CPUs; server and generator share them");
        }
        split
    } else {
        None
    };
    // The connection that timed set-up is the one the generator keeps.
    let Started {
        handle,
        conn,
        data_dir,
    } = start_timed(
        inputs.model,
        &spec.config,
        spec.population,
        tag,
        &mut m.setup_s,
    )?;
    if let Some(split) = &split {
        split.pin_generator()?;
    }
    let samples_before = handle.total_samples();
    let mut generator = Generator::new(&spec, &inputs, conn);
    let warmup = generator.drive(WARMUP_S, &mut m, None, None).acked;
    m.slices.clear();
    let acked = warmup
        + if let Some(t) = tracer.as_mut() {
            let before = Scrape::fetch(handle.addr())?;
            let (mut plain, mut traced, mut sent) =
                (Window::default(), Window::default(), Vec::new());
            let start = Instant::now();
            while start.elapsed().as_secs_f64() < args.seconds {
                plain.add(generator.drive(TRACE_SLICE_S, &mut m, None, None));
                traced.add(generator.drive(TRACE_SLICE_S, &mut m, Some(t), Some(&mut sent)));
            }
            let after = Scrape::fetch(handle.addr())?;
            let agg = replay_runtime(&spec, &inputs, &sent, t)?;
            replay_core(&spec, &inputs, &sent, t)?;
            let overhead: Vec<f64> = sent
                .iter()
                .zip(&agg)
                .map(|(s, a)| s.checkin_exchange_us - a)
                .collect();
            let requests = traced.requests as f64;
            let items = (traced.requests * spec.batch as u64) as f64;
            after.layers_since(&before, &mut m.layers);
            let l = &mut m.layers;
            l.insert("proto.encode_us", t.total_us("proto.encode") / requests);
            l.insert("proto.decode_us", t.total_us("proto.decode") / requests);
            l.insert(
                "proto.request_bytes",
                traced.request_bytes as f64 / requests,
            );
            l.insert(
                "net.checkout_exchange_us",
                t.mean_us("net.checkout_exchange"),
            );
            l.insert("net.checkin_exchange_us", t.mean_us("net.checkin_exchange"));
            l.insert("net.transport_overhead_us", crate::stats::mean(&overhead));
            l.insert("net.connect_retries", generator.conn.connect_retries as f64);
            l.insert("agg.checkout_us", t.mean_us("agg.checkout"));
            l.insert("agg.checkin_us", t.mean_us("agg.checkin"));
            l.insert(
                "agg.accepted_ratio",
                crate::stats::ratio(traced.acked as f64, items),
            );
            l.insert("core.checkin_us", t.mean_us("core.checkin"));
            l.insert("bench.generator_us", t.mean_us("bench.generator"));
            l.insert(
                "bench.gen_busy_frac",
                1.0 - plain.exchange.as_secs_f64() / plain.elapsed_s,
            );
            l.insert(
                "bench.trace_overhead_frac",
                crate::stats::ratio(traced.latency_us, requests)
                    / crate::stats::ratio(plain.latency_us, plain.requests as f64)
                    - 1.0,
            );
            let spans_us = t.children_per_root_us("round");
            crate::reconcile(&mut m, spans_us, traced.elapsed_s * 1e6 / requests);
            plain.acked + traced.acked
        } else {
            generator.drive(args.seconds, &mut m, None, None).acked
        };
    drop(generator);
    let samples = handle.total_samples() - samples_before;
    m.check(samples == acked * MINIBATCH as u64, || {
        format!("server counted {samples} samples for {acked} acknowledged checkins")
    });
    let t_eval = Instant::now();
    m.final_test_error = error_rate(&inputs.model, &handle.params(), &inputs.test)
        .map_err(|e| format!("test error: {e}"))?;
    if let Some(t) = tracer.as_mut() {
        t.record("learning.eval", t_eval, Instant::now(), 0, 0);
    }
    m.check_test_error();
    if spec.durable {
        let ledger: f64 = handle.budget_ledger().iter().map(|&(_, eps)| eps).sum();
        m.check(ledger == EPSILON_PER_CHECKIN * acked as f64, || {
            format!("ε ledger total {ledger} != {EPSILON_PER_CHECKIN} × {acked} acked")
        });
        restart_check(&spec, &inputs, handle, data_dir, &mut m)?;
    } else {
        let iteration = handle.iteration();
        m.check(iteration == acked, || {
            format!("server iteration {iteration} != {acked} acknowledged checkins")
        });
        handle.shutdown();
        remove_data_dir(data_dir);
    }
    if let Some(t) = tracer {
        finish_trace(&t, &mut m, spec.name);
    }
    Ok(m)
}

/// Crash-stops the durable server (no final flush, no checkpoint) and
/// restarts it from the same directory: WAL replay must reproduce the
/// parameters bit for bit, the iteration and the ε ledger.
fn restart_check(
    spec: &Spec,
    inputs: &Inputs,
    handle: crowd_net::ReactorServerHandle,
    data_dir: Option<std::path::PathBuf>,
    m: &mut Measured,
) -> Result<(), String> {
    let dir = data_dir
        .clone()
        .ok_or("durable server without a data directory")?;
    let params = handle.params();
    let iteration = handle.iteration();
    let ledger = handle.budget_ledger();
    handle.kill();
    let tokens = TokenRegistry::with_derived_tokens(spec.population, TOKEN_SECRET);
    let restarted =
        ReactorServer::start(inputs.model, spec.config.clone().with_data_dir(dir), tokens)
            .map_err(|e| format!("restart: {e}"))?;
    let same_bits = restarted.params().len() == params.len()
        && restarted
            .params()
            .iter()
            .zip(params.iter())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    m.check(same_bits, || {
        "restarted parameters differ from the pre-crash ones".into()
    });
    m.check(restarted.iteration() == iteration, || {
        format!(
            "restarted at iteration {} != {iteration}",
            restarted.iteration()
        )
    });
    m.check(restarted.budget_ledger() == ledger, || {
        "restarted ε ledger differs from the pre-crash one".into()
    });
    restarted.shutdown();
    remove_data_dir(data_dir);
    Ok(())
}

/// Fills the layers every traced workload shares and writes the spans out,
/// over the previous traced run's file of the same workload.
pub fn finish_trace(t: &Tracer, m: &mut Measured, name: &str) {
    let l = &mut m.layers;
    l.insert(
        "learning.minibatch_gradient_us",
        t.mean_us("learning.minibatch_gradient"),
    );
    l.insert("dp.sanitize_us", t.mean_us("dp.sanitize"));
    l.insert("learning.eval_us", t.mean_us("learning.eval"));
    l.insert("data.materialize_s", t.mean_us("data.materialize") / 1e6);
    let path = crate::scratch_dir().join(format!("trace-{name}.csv"));
    if let Err(e) = t.write_csv(&path) {
        eprintln!("crowd-e2e: could not write {}: {e}", path.display());
    } else {
        eprintln!(
            "crowd-e2e: {} spans written to {}",
            t.spans().len(),
            path.display()
        );
    }
}
