//! Reproducibility guarantees: a fixed seed yields identical experiments,
//! different seeds yield different noise realizations, and the sharded
//! aggregation runtime reproduces the sequential single-lock aggregate bit for
//! bit.

use crowd_ml::agg::AggRuntime;
use crowd_ml::core::config::{AggSettings, PrivacyConfig, ServerConfig};
use crowd_ml::core::device::CheckinPayload;
use crowd_ml::core::experiment::{CrowdMlExperiment, ExperimentConfig};
use crowd_ml::core::server::Server;
use crowd_ml::data::synthetic::GaussianMixtureSpec;
use crowd_ml::learning::MulticlassLogistic;
use crowd_ml::linalg::Vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn experiment(seed: u64) -> CrowdMlExperiment {
    let spec = GaussianMixtureSpec::new(8, 3)
        .with_train_size(600)
        .with_test_size(150);
    let config = ExperimentConfig::builder()
        .devices(15)
        .minibatch(5)
        .privacy(PrivacyConfig::with_total_epsilon(2.0))
        .delay_delta(25.0)
        .eval_points(5)
        .seed(seed)
        .build();
    CrowdMlExperiment::gaussian_mixture(spec, config)
}

#[test]
fn same_seed_same_everything() {
    let a = experiment(77).run().expect("run a");
    let b = experiment(77).run().expect("run b");
    assert_eq!(a.curve, b.curve);
    assert_eq!(a.online_error, b.online_error);
    assert_eq!(a.server_iterations, b.server_iterations);

    // Baselines are deterministic too.
    let batch_a = experiment(77).run_central_batch().expect("batch a");
    let batch_b = experiment(77).run_central_batch().expect("batch b");
    assert_eq!(batch_a, batch_b);
}

#[test]
fn different_seeds_differ() {
    let a = experiment(1).run().expect("run 1");
    let b = experiment(2).run().expect("run 2");
    // Different data, partitioning, and noise: the curves should not coincide.
    assert_ne!(a.curve, b.curve);
}

const DETERMINISM_DIM: usize = 8;
const DETERMINISM_CLASSES: usize = 4;
const DETERMINISM_DEVICES: u64 = 12;
const DETERMINISM_CHECKINS: u64 = 4;

fn determinism_payload(device: u64, step: u64) -> CheckinPayload {
    let dim = DETERMINISM_DIM * DETERMINISM_CLASSES;
    let mut rng = StdRng::seed_from_u64(device * 7919 + step);
    CheckinPayload {
        device_id: device,
        checkout_iteration: step,
        nonce: 0,
        gradient: Vector::from_vec((0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()).into(),
        num_samples: 3,
        error_count: rng.gen_range(-2i64..3),
        label_counts: (0..DETERMINISM_CLASSES)
            .map(|_| rng.gen_range(0i64..3))
            .collect(),
    }
}

fn determinism_runtime(agg: AggSettings) -> AggRuntime<MulticlassLogistic> {
    let model = MulticlassLogistic::new(DETERMINISM_DIM, DETERMINISM_CLASSES).unwrap();
    let config = ServerConfig::new().with_rate_constant(1.5).with_agg(agg);
    AggRuntime::new(Server::new(model, config).unwrap()).unwrap()
}

/// The sharded runtime's epoch aggregate must equal the sequential single-lock
/// aggregate bit for bit: many shards fed from concurrent device threads end
/// in exactly the same parameters as one shard fed sequentially.
///
/// Epoch boundaries are pinned (one epoch covering every checkin, idle flush
/// disabled) so the only thing under test is what sharding can change: which
/// stripe accumulated each gradient and in which order the stripes merged.
#[test]
fn sharded_aggregation_matches_single_lock_bitwise() {
    let total = DETERMINISM_DEVICES * DETERMINISM_CHECKINS;

    // Sequential single-lock reference: one stripe, one thread, one epoch.
    let sequential = determinism_runtime(AggSettings {
        shard_count: 1,
        queue_bound: 2 * total as usize,
        epoch_size: total,
        worker_threads: 1,
        retry_after_ms: 1,
        flush_idle_ms: 0,
    });
    let mut waits = Vec::new();
    for device in 0..DETERMINISM_DEVICES {
        for step in 0..DETERMINISM_CHECKINS {
            waits.push(
                sequential
                    .submit(determinism_payload(device, step))
                    .expect("sequential submit"),
            );
        }
    }
    for wait in waits {
        assert!(wait.wait().expect("sequential outcome").accepted);
    }
    let expected_params = sequential.params();
    let expected_iteration = sequential.iteration();
    let expected_samples = sequential.total_samples();
    sequential.shutdown();

    // Concurrent sharded run: 7 stripes, one thread per device. A single
    // worker keeps each device's own checkins accumulating in submission order
    // (the guarantee the live protocol gets from devices awaiting their acks),
    // while the 12 device threads still race freely against each other — the
    // nondeterminism the per-device stripes and fixed merge order must absorb.
    let sharded = Arc::new(determinism_runtime(AggSettings {
        shard_count: 7,
        queue_bound: 2 * total as usize,
        epoch_size: total,
        worker_threads: 1,
        retry_after_ms: 1,
        flush_idle_ms: 0,
    }));
    let mut threads = Vec::new();
    for device in 0..DETERMINISM_DEVICES {
        let runtime = Arc::clone(&sharded);
        threads.push(std::thread::spawn(move || {
            // Each device's own checkins stay sequential (as the protocol
            // guarantees), but devices race freely against each other.
            let handles: Vec<_> = (0..DETERMINISM_CHECKINS)
                .map(|step| {
                    runtime
                        .submit(determinism_payload(device, step))
                        .expect("sharded submit")
                })
                .collect();
            for handle in handles {
                assert!(handle.wait().expect("sharded outcome").accepted);
            }
        }));
    }
    for thread in threads {
        thread.join().expect("device thread");
    }

    assert_eq!(sharded.iteration(), expected_iteration);
    assert_eq!(sharded.total_samples(), expected_samples);
    // Bit-for-bit: raw f64 comparison, no tolerance.
    assert_eq!(sharded.params().as_slice(), expected_params.as_slice());
    sharded.shutdown();
}

/// With the default per-checkin epochs (`epoch_size = 1`), the runtime applies
/// exactly the classic `Server::checkin` update: driving the same payloads
/// sequentially through both paths ends in bitwise identical parameters.
#[test]
fn runtime_epoch_size_one_matches_classic_server_bitwise() {
    let model = MulticlassLogistic::new(DETERMINISM_DIM, DETERMINISM_CLASSES).unwrap();
    let config = ServerConfig::new().with_rate_constant(1.5);
    let mut classic = Server::new(model, config.clone()).unwrap();
    let runtime = determinism_runtime(config.agg);

    for device in 0..DETERMINISM_DEVICES {
        for step in 0..DETERMINISM_CHECKINS {
            let payload = determinism_payload(device, step);
            let classic_outcome = classic.checkin(&payload).unwrap();
            let runtime_outcome = runtime.checkin(payload).unwrap();
            assert_eq!(classic_outcome.iteration, runtime_outcome.iteration);
            assert_eq!(classic_outcome.accepted, runtime_outcome.accepted);
        }
    }
    assert_eq!(classic.params().as_slice(), runtime.params().as_slice());
    assert_eq!(classic.total_samples(), runtime.total_samples());
    runtime.shutdown();
}

/// crowd-scope: instrumenting a deterministic run must not break its
/// determinism. Two identical seeded runs on logical-clock registries render
/// byte-identical text and JSON metric dumps — counters, gauges, and
/// histogram percentiles included.
#[test]
fn instrumented_runs_render_byte_identical_dumps() {
    use crowd_ml::telemetry::{Clock, Registry};

    fn run_once() -> (String, String) {
        let model = MulticlassLogistic::new(DETERMINISM_DIM, DETERMINISM_CLASSES).unwrap();
        let config = ServerConfig::new()
            .with_rate_constant(1.5)
            .with_budget(0.25, f64::INFINITY)
            .with_agg(AggSettings {
                shard_count: 3,
                queue_bound: 64,
                epoch_size: 1,
                worker_threads: 1,
                retry_after_ms: 1,
                flush_idle_ms: 0,
            });
        let metrics = Arc::new(Registry::with_clock(Clock::logical()));
        let runtime = AggRuntime::with_instrumentation(
            Server::new(model, config).unwrap(),
            None,
            Arc::clone(&metrics),
        )
        .unwrap();
        for device in 0..DETERMINISM_DEVICES {
            for step in 0..DETERMINISM_CHECKINS {
                // Deterministic time: tick between checkins, never while one
                // is in flight, so every measured latency is reproducible.
                metrics.clock().advance(7);
                let wait = runtime
                    .submit(determinism_payload(device, step))
                    .expect("instrumented submit");
                assert!(wait.wait().expect("instrumented outcome").accepted);
            }
        }
        runtime.shutdown();
        let snap = metrics.snapshot();
        (snap.render_text(), snap.render_json())
    }

    let (text_a, json_a) = run_once();
    let (text_b, json_b) = run_once();
    assert_eq!(text_a, text_b, "text dumps must be byte-identical");
    assert_eq!(json_a, json_b, "JSON dumps must be byte-identical");
    assert!(text_a.contains("time base: logical"));
    // The dump reflects the run, not an empty registry.
    let total = DETERMINISM_DEVICES * DETERMINISM_CHECKINS;
    assert!(text_a.contains(&format!("counter checkins_applied {total}")));
    assert!(text_a.contains(&format!("counter epoch_merges {total}")));
    assert!(text_a.contains(&format!("hist eps_spend_microeps count={total}")));
}

const PARITY_POPULATION: u64 = 16;
const PARITY_ROUNDS: u64 = 30;

/// FNV-1a over the parameters' IEEE-754 bits: a compact bitwise fingerprint.
fn params_digest(params: &Vector) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for v in params.as_slice() {
        for byte in v.to_bits().to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn parity_runtime(deadline_epochs: u32) -> AggRuntime<MulticlassLogistic> {
    use crowd_ml::core::config::RoundSettings;
    let model = MulticlassLogistic::new(DETERMINISM_DIM, DETERMINISM_CLASSES).unwrap();
    let rounds = RoundSettings::new(PARITY_POPULATION)
        .with_select_fraction(0.5)
        .with_deadline_epochs(deadline_epochs)
        .with_seed(0xA11C_E5ED);
    let config = ServerConfig::new()
        .with_rate_constant(1.0)
        .with_rounds(rounds);
    AggRuntime::new(Server::new(model, config).unwrap()).unwrap()
}

/// Device `device`'s contribution to round `round`, as a checkin payload.
fn parity_payload(device: u64, round: u64, iteration: u64) -> CheckinPayload {
    let mut payload = determinism_payload(device, round);
    payload.checkout_iteration = iteration;
    payload.nonce = round * PARITY_POPULATION + device + 1;
    payload
}

/// Submits `payload` to the runtime's open round and expects an ack.
fn parity_submit(rt: &AggRuntime<MulticlassLogistic>, payload: CheckinPayload) {
    use crowd_ml::agg::RoundSubmitOutcome;
    let round_id = rt.round_info().unwrap().round_id;
    match rt.submit_round(round_id, payload).unwrap() {
        RoundSubmitOutcome::Acked(outcome) => assert!(outcome.accepted && !outcome.deduped),
        other => panic!("expected an ack, got {other:?}"),
    }
}

/// Parity anchor for the round protocol: a fixed-seed, sequential rounds run
/// on `AggRuntime` ends in pinned parameter bits. One run completes every
/// cohort; the other drops one member out of every round, so each round ends
/// by deadline expiry, driven by free-run checkins from a non-member. Any
/// change to the round submission path, the finalize fold or the apply step
/// that moves a single bit fails here.
#[test]
fn sequential_rounds_run_matches_pinned_digest() {
    let complete = parity_runtime(8);
    for round in 0..PARITY_ROUNDS {
        let info = complete.round_info().unwrap();
        assert_eq!(info.round_id, round + 1);
        let cohort = crowd_ml::rounds::cohort(info.seed, info.population, info.select_fraction);
        for &device in &cohort {
            parity_submit(
                &complete,
                parity_payload(device, round, complete.iteration()),
            );
        }
        assert_eq!(complete.round_info().unwrap().round_id, round + 2);
    }
    assert_eq!(complete.iteration(), PARITY_ROUNDS);
    let complete_digest = params_digest(&complete.params());
    complete.shutdown();

    let dropout = parity_runtime(2);
    for round in 0..PARITY_ROUNDS {
        let info = dropout.round_info().unwrap();
        let cohort = crowd_ml::rounds::cohort(info.seed, info.population, info.select_fraction);
        let outsider = (0..PARITY_POPULATION)
            .find(|d| !cohort.contains(d))
            .expect("a fraction-0.5 cohort leaves someone out");
        // The last member drops out mid-round; the others submit.
        for &device in &cohort[..cohort.len() - 1] {
            parity_submit(&dropout, parity_payload(device, round, dropout.iteration()));
        }
        let mut step = 0;
        while dropout.round_info().unwrap().round_id == info.round_id {
            let mut free = parity_payload(outsider, round, dropout.iteration());
            free.nonce = 0;
            free.gradient = determinism_payload(outsider, 1000 + round * 8 + step).gradient;
            assert!(dropout.checkin(free).unwrap().accepted);
            step += 1;
        }
        assert!(step > 0, "only the deadline ends a round with a dropout");
    }
    let dropout_digest = params_digest(&dropout.params());
    assert_eq!(dropout.stats().get("rounds_finalized"), PARITY_ROUNDS);
    dropout.shutdown();

    assert_eq!(
        (complete_digest, dropout_digest),
        (0x92F155DF0F943B0C, 0x702069F35E4F652E),
        "pinned parameter digests moved"
    );
}

/// Parity anchor for the TCP stack: the chaos driver's sequential, fault-free
/// schedule against the reactor server ends in pinned parameter bits, free
/// running and with cohort rounds. Any change to the serving path that
/// reorders or alters an applied checkin fails here.
#[test]
fn fault_free_chaos_runs_match_pinned_digests() {
    use crowd_ml::net::chaos::ChaosCluster;
    use crowd_ml::sim::chaos::FaultPlan;

    let free = ChaosCluster::new(FaultPlan::fault_free(17)).run().unwrap();
    let rounds = ChaosCluster::new(FaultPlan::fault_free(17))
        .with_rounds()
        .run()
        .unwrap();
    for report in [&free, &rounds] {
        assert_eq!(report.acked_checkins, vec![8, 8, 8, 8]);
        assert_eq!(report.ledger, vec![(0, 2.0), (1, 2.0), (2, 2.0), (3, 2.0)]);
        assert_eq!(report.total_samples, 96);
    }
    assert_eq!((free.iterations, rounds.iterations), (32, 17));
    assert_eq!(
        (params_digest(&free.params), params_digest(&rounds.params)),
        (0xF78AA102F86577F0, 0xB6A8DF77314D5A41),
        "pinned parameter digests moved"
    );
}
