//! Property-based tests (proptest) on the core invariants the paper's guarantees
//! rest on: the gradient sensitivity bound behind Theorem 1, the projection of
//! Eq. 3, the wire-codec round trip, partition coverage, the counter
//! mechanisms of Theorem 2, and a model that no gradient bits can make
//! non-finite.

use crowd_ml::core::config::PrivacyConfig;
use crowd_ml::core::privacy::Sanitizer;
use crowd_ml::data::partition::{partition, PartitionStrategy};
use crowd_ml::data::{Dataset, Sample};
use crowd_ml::dp::{DiscreteLaplaceMechanism, Epsilon};
use crowd_ml::learning::model::{minibatch_statistics, Model};
use crowd_ml::learning::MulticlassLogistic;
use crowd_ml::linalg::ops::{normalize_l1, project_l2_ball};
use crowd_ml::linalg::Vector;
use crowd_ml::proto::auth::AuthToken;
use crowd_ml::proto::codec::{decode, encode};
use crowd_ml::proto::message::{
    BatchAck, BatchCheckinAck, BatchCheckinRequest, BusyReply, CheckinRequest, CheckoutResponse,
    ErrorCode, GradientPayload, Message, RoundParams,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Appendix A / Theorem 1: for L1-normalized features, two minibatches of size
    /// b differing in one sample have averaged gradients at most 4/b apart in L1.
    #[test]
    fn averaged_gradient_sensitivity_bound(
        seed in 0u64..1000,
        b in 1usize..12,
        labels in prop::collection::vec(0usize..5, 12),
        swap_label in 0usize..5,
    ) {
        let dim = 6;
        let classes = 5;
        let model = MulticlassLogistic::new(dim, classes).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let params = crowd_ml::linalg::random::normal_vector(&mut rng, model.param_dim());

        let make_sample = |rng: &mut StdRng, label: usize| {
            let mut x = crowd_ml::linalg::random::normal_vector(rng, dim);
            normalize_l1(&mut x);
            Sample::new(x, label)
        };
        let batch: Vec<Sample> = labels.iter().take(b).map(|&l| make_sample(&mut rng, l)).collect();
        prop_assume!(!batch.is_empty());
        let mut neighbour = batch.clone();
        neighbour[0] = make_sample(&mut rng, swap_label);

        let g1 = minibatch_statistics(&model, &params, &batch, 0.0, &[]).unwrap().gradient;
        let g2 = minibatch_statistics(&model, &params, &neighbour, 0.0, &[]).unwrap().gradient;
        let sensitivity = (&g1 - &g2).norm_l1();
        prop_assert!(sensitivity <= 4.0 / batch.len() as f64 + 1e-9,
            "sensitivity {} exceeds 4/b = {}", sensitivity, 4.0 / batch.len() as f64);
    }

    /// The projection of Eq. 3 never increases the norm, is idempotent, and leaves
    /// in-ball vectors untouched.
    #[test]
    fn projection_properties(values in prop::collection::vec(-1e3f64..1e3, 1..40), radius in 0.1f64..50.0) {
        let original = Vector::from_vec(values);
        let mut projected = original.clone();
        project_l2_ball(&mut projected, radius);
        prop_assert!(projected.norm_l2() <= radius + 1e-9);
        let mut twice = projected.clone();
        project_l2_ball(&mut twice, radius);
        prop_assert!(twice.distance(&projected).unwrap() < 1e-9);
        if original.norm_l2() <= radius {
            prop_assert_eq!(projected, original);
        }
    }

    /// Codec round trip: every well-formed checkin/checkout message survives
    /// encode → decode unchanged.
    #[test]
    fn codec_round_trip(
        device_id in any::<u64>(),
        iteration in any::<u64>(),
        gradient in prop::collection::vec(-1e6f64..1e6, 0..128),
        counts in prop::collection::vec(-1000i64..1000, 0..16),
        num_samples in 0u32..10_000,
        error_count in -1000i64..1000,
        stopped in any::<bool>(),
        round_id in any::<u64>(),
        select_fraction in 0.01f64..=1.0,
    ) {
        let checkin = Message::CheckinRequest(CheckinRequest {
            device_id,
            token: AuthToken::derive(device_id, 99),
            checkout_iteration: iteration,
            nonce: 0,
            round_id,
            gradient: GradientPayload::from_dense_auto(gradient.clone()),
            num_samples,
            error_count,
            label_counts: counts,
        });
        prop_assert_eq!(decode(&encode(&checkin)).unwrap(), checkin);

        // Alternate between free-running (no round) and round-annotated
        // checkouts so both wire shapes survive the trip.
        let round = round_id.is_multiple_of(2).then(|| RoundParams {
            round_id,
            seed: device_id,
            select_fraction,
            deadline_epochs: (iteration % 64) as u32 + 1,
            population: device_id % 100_000,
        });
        let checkout = Message::CheckoutResponse(CheckoutResponse {
            iteration,
            params: gradient,
            stopped,
            round,
        });
        prop_assert_eq!(decode(&encode(&checkout)).unwrap(), checkout);
    }

    /// Sparse ↔ dense payload equivalence: a gradient auto-encoded for the
    /// wire (sparse whenever its zeros make that smaller), shipped through
    /// encode → decode, and applied to a server produces parameters bitwise
    /// identical to the same gradient applied densely — the sparse transport
    /// is lossless to the last bit.
    #[test]
    fn sparse_roundtrip_applies_bitwise_identically_to_dense(
        seed in 0u64..1000,
        input_dim in 1usize..24,
        density_pct in 0u32..=100,
    ) {
        use crowd_ml::core::config::ServerConfig;
        use crowd_ml::core::device::CheckinPayload;
        use crowd_ml::core::server::Server;
        use crowd_ml::linalg::{GradientUpdate, SparseVector};
        use rand::Rng;

        let classes = 2;
        let dim = input_dim * classes;
        let mut rng = StdRng::seed_from_u64(seed);
        let dense: Vec<f64> = (0..dim)
            .map(|_| {
                if rng.gen_range(0u32..100) < density_pct {
                    rng.gen_range(-1.0..1.0)
                } else {
                    0.0
                }
            })
            .collect();

        // Ship the auto-selected encoding through the real codec.
        let request = CheckinRequest {
            device_id: 3,
            token: AuthToken::derive(3, 9),
            checkout_iteration: 0,
            nonce: 0,
            round_id: 0,
            gradient: GradientPayload::from_dense_auto(dense.clone()),
            num_samples: 2,
            error_count: 1,
            label_counts: vec![1, 1],
        };
        let went_sparse = matches!(request.gradient, GradientPayload::Sparse { .. });
        let decoded = match decode(&encode(&Message::CheckinRequest(request))).unwrap() {
            Message::CheckinRequest(r) => r,
            other => panic!("unexpected message {}", other.name()),
        };
        let received = match decoded.gradient {
            GradientPayload::Dense(values) => GradientUpdate::Dense(Vector::from_vec(values)),
            GradientPayload::Sparse { dim, indices, values } => GradientUpdate::Sparse(
                SparseVector::new(dim as usize, indices, values).unwrap(),
            ),
            // from_dense_auto never picks the lossy encoding.
            GradientPayload::Quantized { .. } => panic!("auto-selection produced Quantized"),
        };
        prop_assert_eq!(received.to_dense().as_slice(), &dense[..]);

        // Apply the wire-decoded gradient and the dense original to twin
        // servers: the parameter trajectories must match bit for bit.
        let payload_with = |gradient: GradientUpdate| CheckinPayload {
            device_id: 3,
            checkout_iteration: 0,
            nonce: 0,
            gradient,
            num_samples: 2,
            error_count: 1,
            label_counts: vec![1, 1],
        };
        let model = MulticlassLogistic::new(input_dim, classes).unwrap();
        let mut via_wire = Server::new(model, ServerConfig::new()).unwrap();
        let model = MulticlassLogistic::new(input_dim, classes).unwrap();
        let mut via_dense = Server::new(model, ServerConfig::new()).unwrap();
        via_wire.checkin(&payload_with(received)).unwrap();
        via_dense
            .checkin(&payload_with(GradientUpdate::Dense(Vector::from_vec(dense))))
            .unwrap();
        let wire_bits: Vec<u64> = via_wire.params().iter().map(|v| v.to_bits()).collect();
        let dense_bits: Vec<u64> = via_dense.params().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(wire_bits, dense_bits,
            "sparse={} diverged from the dense path", went_sparse);
    }

    /// Batch-checkin and retry-after messages survive encode → decode unchanged
    /// for every well-formed combination of items, acks, and reject codes.
    #[test]
    fn batch_and_busy_round_trip(
        device_ids in prop::collection::vec(any::<u64>(), 0..6),
        iteration in any::<u64>(),
        gradient in prop::collection::vec(-1e6f64..1e6, 0..48),
        counts in prop::collection::vec(-1000i64..1000, 0..8),
        num_samples in 0u32..10_000,
        error_count in -1000i64..1000,
        reject_selector in 0u8..6,
        accepted in any::<bool>(),
        stopped in any::<bool>(),
        retry_after_ms in any::<u32>(),
    ) {
        let items: Vec<CheckinRequest> = device_ids
            .iter()
            .map(|&device_id| CheckinRequest {
                device_id,
                token: AuthToken::derive(device_id, 42),
                checkout_iteration: iteration,
                nonce: 0,
                round_id: 0,
                gradient: GradientPayload::from_dense_auto(gradient.clone()),
                num_samples,
                error_count,
                label_counts: counts.clone(),
            })
            .collect();
        let batch = Message::BatchCheckinRequest(BatchCheckinRequest { items });
        prop_assert_eq!(decode(&encode(&batch)).unwrap(), batch);

        // Cycle the reject field through "processed" and every error code.
        let reject = ErrorCode::from_u8(reject_selector);
        let acks: Vec<BatchAck> = (0..device_ids.len())
            .map(|_| BatchAck { accepted, iteration, stopped, deduped: accepted ^ stopped, reject })
            .collect();
        let batch_ack = Message::BatchCheckinAck(BatchCheckinAck { acks });
        prop_assert_eq!(decode(&encode(&batch_ack)).unwrap(), batch_ack);

        let busy = Message::Busy(BusyReply { retry_after_ms });
        prop_assert_eq!(decode(&encode(&busy)).unwrap(), busy);
    }

    /// Partitioning never loses or duplicates samples and preserves class counts,
    /// for every strategy.
    #[test]
    fn partition_preserves_samples(
        seed in 0u64..500,
        n in 20usize..150,
        devices in 1usize..12,
        strategy_idx in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut samples = Vec::with_capacity(n);
        for i in 0..n {
            samples.push(Sample::new(Vector::from_vec(vec![i as f64, (i % 7) as f64]), i % 4));
        }
        let data = Dataset::new(samples, 4).unwrap();
        let strategy = match strategy_idx {
            0 => PartitionStrategy::Iid,
            1 => PartitionStrategy::LabelShards { shards_per_device: 2 },
            _ => PartitionStrategy::Dirichlet { alpha: 0.5 },
        };
        let parts = partition(&data, devices, strategy, &mut rng).unwrap();
        prop_assert_eq!(parts.len(), devices);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        prop_assert_eq!(total, data.len());
        let mut combined = vec![0usize; 4];
        for p in &parts {
            for (acc, c) in combined.iter_mut().zip(p.class_counts()) {
                *acc += c;
            }
        }
        prop_assert_eq!(combined, data.class_counts());
    }

    /// Theorem 2 machinery: discrete Laplace noise is integer-valued and the
    /// non-private sanitizer is exactly the identity.
    #[test]
    fn sanitizer_and_counter_properties(
        count in 0i64..10_000,
        eps in 0.01f64..20.0,
        gradient in prop::collection::vec(-5.0f64..5.0, 1..32),
        errors in 0usize..50,
    ) {
        let mechanism = DiscreteLaplaceMechanism::new(Epsilon::finite(eps).unwrap());
        let mut rng = StdRng::seed_from_u64(count as u64);
        let perturbed = mechanism.perturb_count(&mut rng, count);
        // Integer output by construction; difference is finite and symmetric noise
        // can take either sign, so only sanity-check the magnitude is bounded by
        // something enormous (no overflow).
        prop_assert!((perturbed - count).abs() < 1_000_000);

        let g = Vector::from_vec(gradient);
        let sanitizer = Sanitizer::new(&PrivacyConfig::non_private(), 5).unwrap();
        let out = sanitizer.sanitize(&mut rng, &g, errors, &[errors as u64, 3]);
        prop_assert_eq!(out.gradient, g);
        prop_assert_eq!(out.error_count, errors as i64);
        prop_assert_eq!(out.label_counts, vec![errors as i64, 3]);
    }
}

proptest! {
    // Each case spins up two full aggregation runtimes (worker threads and
    // all), so this sweep runs fewer cases than the pure-math properties.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Round finalization is shard-count independent: the same cohort
    /// submissions with the same dropout subset land on bitwise-identical
    /// parameters whatever the runtime's shard layout, because the pending
    /// round buffer is folded in ascending device order outside the shard
    /// path. Together with `crates/core/tests/round_finalize.rs` (finalize
    /// == ascending plain sum) this closes the loop over cohorts, dropouts,
    /// and shard counts.
    #[test]
    fn round_finalization_is_shard_count_independent(
        seed in 0u64..10_000,
        population in 2u64..10,
        shard_a in 1usize..8,
        shard_b in 1usize..8,
        drop_bits in any::<u32>(),
    ) {
        use crowd_ml::agg::AggRuntime;
        use crowd_ml::core::config::{AggSettings, RoundSettings, ServerConfig};
        use crowd_ml::core::device::CheckinPayload;
        use crowd_ml::core::server::Server;

        let dim = 4usize;
        let classes = 3usize;
        let param_dim = dim * classes;
        let gradient = |device: u64| -> Vec<f64> {
            let mut rng = StdRng::seed_from_u64(seed ^ device.wrapping_mul(0x9E37_79B9));
            crowd_ml::linalg::random::normal_vector(&mut rng, param_dim).as_slice().to_vec()
        };

        let run = |shards: usize| {
            let config = ServerConfig::new()
                .with_agg(AggSettings {
                    shard_count: shards,
                    queue_bound: 64,
                    epoch_size: 1,
                    worker_threads: 2,
                    retry_after_ms: 1,
                    flush_idle_ms: 1,
                })
                .with_rounds(
                    RoundSettings::new(population)
                        .with_select_fraction(1.0)
                        .with_deadline_epochs(1_000_000)
                        .with_seed(seed),
                );
            let model = MulticlassLogistic::new(dim, classes).unwrap();
            let runtime = AggRuntime::new(Server::new(model, config).unwrap()).unwrap();
            let info = runtime.round_info().expect("rounds are enabled");
            let members =
                crowd_ml::rounds::cohort(info.seed, info.population, info.select_fraction);
            // At least one survivor so the round finalizes with an epoch.
            let survivors: Vec<u64> = members
                .iter()
                .copied()
                .enumerate()
                .filter(|&(i, _)| i == 0 || drop_bits & (1 << (i % 32)) != 0)
                .map(|(_, d)| d)
                .collect();
            for &d in &survivors {
                runtime
                    .submit_round(info.round_id, CheckinPayload {
                        device_id: d,
                        nonce: info.round_id + 1,
                        checkout_iteration: 0,
                        gradient: Vector::from_vec(gradient(d)).into(),
                        num_samples: 2 * classes,
                        error_count: 1,
                        label_counts: vec![2; classes],
                    })
                    .unwrap();
            }
            // Dropped members never submit; settle finalizes the partial
            // cohort (a full cohort finalized inline).
            runtime.settle_rounds();
            let bits: Vec<u64> = runtime.params().iter().map(|v| v.to_bits()).collect();
            let iteration = runtime.iteration();
            runtime.shutdown();
            (bits, iteration)
        };

        let (bits_a, iter_a) = run(shard_a);
        let (bits_b, iter_b) = run(shard_b);
        prop_assert_eq!(iter_a, 1, "the finalized round applies exactly one epoch");
        prop_assert_eq!(iter_a, iter_b);
        prop_assert_eq!(bits_a, bits_b);
    }
}

/// An f64 from raw bits. `class` forces NaN (0), ±∞ (1), a positive value
/// in the largest finite binade (2–5: two of those in one sum overflow),
/// a subnormal (6), or keeps the raw pattern (7–15), so that each kind turns
/// up often in a short sweep.
fn f64_of_bits(bits: u64, class: u8) -> f64 {
    let sign = bits & (1 << 63);
    let mantissa = bits & 0x000F_FFFF_FFFF_FFFF;
    match class {
        0 => f64::from_bits(bits | 0x7FF0_0000_0000_0001),
        1 => f64::from_bits(sign | 0x7FF0_0000_0000_0000),
        2..=5 => f64::from_bits(0x7FE0_0000_0000_0000 | mantissa),
        6 => f64::from_bits(sign | mantissa),
        _ => f64::from_bits(bits),
    }
}

proptest! {
    // Each case runs a full aggregation runtime, so the sweep stays short.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No gradient bits a device can send leave a non-finite parameter
    /// behind. Sixteen submissions from four devices carry arbitrary f64 bit
    /// patterns in every encoding (dense values, sparse values, quantized
    /// scale), on the checkin path (two checkins per epoch, so a sum of
    /// finite gradients can overflow) and the round path (a cohort fold can
    /// overflow too). Admission refuses exactly the non-finite submissions
    /// and counts each in `nonfinite_rejections`; the ε ledger charges every
    /// admitted submission once, whether or not its epoch could be applied.
    #[test]
    fn arbitrary_gradient_bits_never_corrupt_the_model(
        words in prop::collection::vec(any::<u64>(), 96),
        classes in prop::collection::vec(0u8..16, 96),
        plan in prop::collection::vec((0u8..3, any::<bool>()), 16),
    ) {
        use crowd_ml::agg::{AggError, AggRuntime, RoundSubmitOutcome};
        use crowd_ml::core::config::{AggSettings, RoundSettings, ServerConfig};
        use crowd_ml::core::device::CheckinPayload;
        use crowd_ml::core::server::Server;
        use crowd_ml::linalg::{GradientUpdate, QuantizedVector, SparseVector};

        const DEVICES: u64 = 4;
        const EPSILON: f64 = 0.5;
        let dim = 6usize;
        let config = ServerConfig::new()
            .with_budget(EPSILON, f64::INFINITY)
            .with_agg(AggSettings {
                shard_count: 2,
                queue_bound: 64,
                epoch_size: 2,
                worker_threads: 1,
                retry_after_ms: 1,
                flush_idle_ms: 1,
            })
            .with_rounds(
                RoundSettings::new(DEVICES)
                    .with_select_fraction(1.0)
                    .with_deadline_epochs(1_000_000),
            );
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let rt = AggRuntime::new(Server::new(model, config).unwrap()).unwrap();

        let mut accepted = [0u64; DEVICES as usize];
        let mut nonfinite = 0u64;
        let mut in_round = [false; DEVICES as usize];
        let mut pending = Vec::new();
        for (j, &(encoding, round_path)) in plan.iter().enumerate() {
            let device = j as u64 % DEVICES;
            let values: Vec<f64> =
                (j * dim..(j + 1) * dim).map(|i| f64_of_bits(words[i], classes[i])).collect();
            let (gradient, finite) = match encoding {
                0 => {
                    let finite = values.iter().all(|v| v.is_finite());
                    (GradientUpdate::Dense(Vector::from_vec(values)), finite)
                }
                1 => {
                    let (indices, values): (Vec<u32>, Vec<f64>) = values
                        .into_iter()
                        .enumerate()
                        .filter(|&(k, _)| words[j * dim + k] & 2 != 0)
                        .map(|(k, v)| (k as u32, v))
                        .unzip();
                    let finite = values.iter().all(|v| v.is_finite());
                    let sparse = SparseVector::new(dim, indices, values).unwrap();
                    (GradientUpdate::Sparse(sparse), finite)
                }
                _ => {
                    let scale = values[0];
                    let levels: Vec<i16> =
                        words[j * dim..(j + 1) * dim].iter().map(|w| (w >> 20) as i16).collect();
                    let finite = levels.iter().all(|&l| (f64::from(l) * scale).is_finite());
                    match QuantizedVector::from_parts(scale, levels) {
                        Ok(q) => (GradientUpdate::Quantized(q), finite),
                        // Such a scale cannot be decoded off the wire either.
                        Err(_) => {
                            prop_assert!(!(scale.is_finite() && scale >= 0.0), "scale {scale}");
                            continue;
                        }
                    }
                }
            };
            let payload = CheckinPayload {
                device_id: device,
                checkout_iteration: rt.iteration(),
                nonce: j as u64 + 1,
                gradient,
                num_samples: 2,
                error_count: 1,
                label_counts: vec![1, 1, 0],
            };
            if !finite {
                nonfinite += 1;
            }
            if round_path && !in_round[device as usize] {
                let round_id = rt.round_info().unwrap().round_id;
                match rt.submit_round(round_id, payload) {
                    Ok(RoundSubmitOutcome::Acked(ack)) => {
                        prop_assert!(finite && ack.accepted && !ack.deduped);
                        accepted[device as usize] += 1;
                        in_round[device as usize] = true;
                    }
                    Err(AggError::Invalid(_)) => prop_assert!(!finite),
                    Ok(other) => panic!("unexpected round outcome {other:?}"),
                    Err(e) => panic!("unexpected round refusal {e}"),
                }
                if rt.round_info().unwrap().round_id != round_id {
                    in_round = [false; DEVICES as usize];
                }
            } else {
                match rt.submit(payload) {
                    Ok(handle) => {
                        prop_assert!(finite);
                        accepted[device as usize] += 1;
                        pending.push(handle);
                    }
                    Err(AggError::Invalid(_)) => prop_assert!(!finite),
                    Err(e) => panic!("unexpected checkin refusal {e}"),
                }
            }
        }
        for handle in pending {
            handle.wait().unwrap();
        }
        rt.settle_rounds();
        rt.shutdown();

        let params = rt.params();
        prop_assert!(params.iter().all(|v| v.is_finite()), "{params:?}");
        prop_assert_eq!(rt.stats().get("nonfinite_rejections"), nonfinite);
        let expected: Vec<(u64, f64)> = (0..DEVICES)
            .filter(|&d| accepted[d as usize] > 0)
            .map(|d| (d, EPSILON * accepted[d as usize] as f64))
            .collect();
        prop_assert_eq!(rt.budget_ledger(), expected);
    }
}

/// Well-formed frames of every message shape the decoders handle, for the
/// mutation fuzz below to corrupt.
fn fuzz_seed_messages() -> Vec<Message> {
    use crowd_ml::proto::message::{CheckinAck, HistogramReport, MetricsReport};
    let checkin = |gradient| CheckinRequest {
        device_id: 3,
        token: AuthToken::derive(3, 9),
        checkout_iteration: 2,
        nonce: 7,
        round_id: 1,
        gradient,
        num_samples: 4,
        error_count: 1,
        label_counts: vec![1, 3],
    };
    vec![
        Message::CheckinRequest(checkin(GradientPayload::Dense(vec![0.5, -1.0, 2.0]))),
        Message::CheckinRequest(checkin(GradientPayload::Sparse {
            dim: 9,
            indices: vec![1, 4],
            values: vec![0.25, -0.5],
        })),
        Message::CheckinRequest(checkin(GradientPayload::Quantized {
            scale: 0.125,
            levels: vec![3, -2, 0],
        })),
        Message::BatchCheckinRequest(BatchCheckinRequest {
            items: vec![checkin(GradientPayload::Dense(vec![1.0])); 2],
        }),
        Message::CheckoutResponse(CheckoutResponse {
            iteration: 5,
            params: vec![0.0, 1.5],
            stopped: false,
            round: Some(RoundParams {
                round_id: 2,
                seed: 11,
                select_fraction: 0.5,
                deadline_epochs: 4,
                population: 8,
            }),
        }),
        Message::CheckinAck(CheckinAck {
            accepted: true,
            iteration: 6,
            stopped: false,
            deduped: false,
        }),
        Message::BatchCheckinAck(BatchCheckinAck {
            acks: vec![
                BatchAck {
                    accepted: false,
                    iteration: 6,
                    stopped: false,
                    deduped: false,
                    reject: Some(ErrorCode::Busy),
                };
                3
            ],
        }),
        Message::MetricsReport(MetricsReport {
            counters: vec![("conns_accepted".into(), 4)],
            gauges: vec![("inflight".into(), -1)],
            histograms: vec![HistogramReport {
                name: "checkin_latency_us".into(),
                count: 1,
                sum: 2,
                max: 3,
                p50: 4,
                p90: 5,
                p99: 6,
                p999: 7,
            }],
        }),
    ]
}

/// Feeds `stream` to every frame decoder: the blocking reader (plain and
/// pooled) and the reactor's resumable reader, the latter fragmented into
/// `step`-byte reads. Each may fail, none may panic, and a frame one accepts
/// the others accept identically.
fn decode_frame_everywhere(stream: &[u8], max_frame: usize, step: usize) {
    use crowd_ml::proto::frame::{read_message_pooled, read_message_with_limit};
    use crowd_ml::proto::BufPool;
    use crowd_ml::reactor::{FrameReader, ReadEvent};
    use std::io::{Cursor, Read};
    use std::sync::Arc;

    /// Hands out at most `step` bytes per read, so the resumable reader
    /// stops and picks up again inside the prefix and the payload.
    struct Trickle<'a> {
        rest: &'a [u8],
        step: usize,
    }
    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.step).min(self.rest.len());
            buf[..n].copy_from_slice(&self.rest[..n]);
            self.rest = &self.rest[n..];
            Ok(n)
        }
    }

    let plain = read_message_with_limit(&mut Cursor::new(stream), max_frame).ok();
    let pool = Arc::new(BufPool::default());
    let pooled = read_message_pooled(&mut Cursor::new(stream), &pool, max_frame).ok();
    assert_eq!(plain, pooled);
    let mut reader = FrameReader::new(Arc::clone(&pool), max_frame);
    let mut trickle = Trickle { rest: stream, step };
    // Each successful poll consumes at least one byte, so this terminates.
    let resumable = loop {
        match reader.poll_read(&mut trickle) {
            Ok(ReadEvent::Frame(m)) => break Some(m),
            Ok(ReadEvent::NeedMore) => continue,
            Ok(ReadEvent::Closed) | Err(_) => break None,
        }
    };
    assert_eq!(plain, resumable);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes never panic the message decoder: a message tag from
    /// the known range (plus a few unknown ones) followed by random bytes.
    #[test]
    fn decoder_survives_arbitrary_bytes(
        tag in 0u8..14,
        body in prop::collection::vec(0u8..=255, 0..160),
    ) {
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&body);
        let _ = decode(&bytes);
    }

    /// Corrupted and truncated encodings of real messages never panic the
    /// message decoder or any frame reader, whatever length prefix the
    /// frame declares.
    #[test]
    fn frame_readers_survive_corrupt_frames(
        which in 0usize..8,
        flips in prop::collection::vec((any::<u32>(), 0u8..=255), 0..4),
        cut in any::<u32>(),
        declared in any::<u32>(),
        lie in 0u8..3,
        step in 1usize..9,
    ) {
        let messages = fuzz_seed_messages();
        let mut payload = encode(&messages[which % messages.len()]).to_vec();
        for &(pos, byte) in &flips {
            let i = pos as usize % payload.len();
            payload[i] = byte;
        }
        payload.truncate(cut as usize % (payload.len() + 1));
        let _ = decode(&payload);
        // The prefix tells the truth, is off by a little, or is arbitrary.
        let len = match lie {
            0 => payload.len() as u32,
            1 => (payload.len() as u32).wrapping_add(declared % 9).wrapping_sub(4),
            _ => declared,
        };
        let mut stream = len.to_le_bytes().to_vec();
        stream.extend_from_slice(&payload);
        decode_frame_everywhere(&stream, 1024, step);
        decode_frame_everywhere(&stream, 1 << 20, step);
    }
}
