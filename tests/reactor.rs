//! Reactor-server integration suite: scale, chaos through the event-driven
//! path, admission of bad gradients, and connection reuse.
//!
//! The headline claim of the reactor subsystem is capacity: a fixed pool of
//! reactor threads holds thousands of concurrent device connections without
//! an OS thread per connection. The scale test below drives 2,000 devices —
//! each holding a persistent connection for its whole checkout+checkin
//! lifetime — from one `FleetDriver` thread and requires every exchange to
//! complete.
//!
//! The chaos checks here are one-seed smokes of the seeded sweeps in
//! `tests/chaos.rs`: transport faults land bitwise on the fault-free
//! reference, and crash/recovery through the WAL-backed runtime charges ε
//! exactly once per acknowledged checkin.

use crowd_ml::learning::MulticlassLogistic;
use crowd_ml::net::chaos::ChaosCluster;
use crowd_ml::net::{DeviceClient, FleetConfig, FleetDriver, ReactorServer};
use crowd_ml::proto::auth::{AuthToken, TokenRegistry};
use crowd_ml::sim::chaos::FaultPlan;
use crowd_ml::store::testutil::temp_dir;
use std::time::Duration;

/// Watchdog wrapper: these tests drive real sockets, so a regression that
/// wedges the event loop should fail with a message, not hang CI.
fn under_watchdog(limit: Duration, body: fn()) {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    rx.recv_timeout(limit).expect("test exceeded its watchdog");
    let _ = worker.join();
}

#[test]
fn reactor_holds_2000_concurrent_devices() {
    under_watchdog(Duration::from_secs(300), || {
        let devices = 2000usize;
        let model = MulticlassLogistic::new(4, 3).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(devices as u64, 99);
        let handle =
            ReactorServer::start(model, crowd_ml::core::config::ServerConfig::new(), tokens)
                .unwrap();
        let config = FleetConfig {
            devices,
            rounds: 1,
            dim: 12,
            classes: 3,
            auth_secret: 99,
            // The whole fleet is admitted at once: 2k truly concurrent
            // connections against the fixed reactor pool.
            max_open: devices,
            ..FleetConfig::default()
        };
        let report = FleetDriver::run(handle.addr(), config).unwrap();
        assert_eq!(report.failed_devices, 0, "{report:?}");
        assert_eq!(report.acked + report.rejected, devices as u64);
        assert_eq!(report.checkouts, devices as u64);
        let stats = handle.reactor_stats().unwrap();
        assert!(
            stats.accepted >= devices as u64,
            "expected ≥{devices} accepted connections, saw {}",
            stats.accepted
        );
        assert_eq!(
            handle.runtime_stats().get("checkins_applied"),
            devices as u64
        );

        // crowd-scope acceptance: the live server under fleet load answers a
        // wire scrape with per-stage latency histograms and pressure gauges.
        let scraper = DeviceClient::builder(handle.addr(), 0, AuthToken::derive(0, 99)).build();
        // Scrape twice: a scrape's own service time is recorded after its
        // snapshot was taken, so only the second scrape can observe the first.
        scraper.scrape_metrics().unwrap();
        let report = scraper.scrape_metrics().unwrap();
        let counter = |name: &str| {
            report
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("missing counter {name}"))
        };
        assert!(counter("conns_accepted") >= devices as u64);
        assert_eq!(counter("checkins_applied"), devices as u64);
        let hist = |name: &str| {
            report
                .histograms
                .iter()
                .find(|h| h.name == name)
                .unwrap_or_else(|| panic!("missing histogram {name}"))
        };
        let checkin = hist("checkin_latency_us");
        assert_eq!(checkin.count, devices as u64);
        assert!(checkin.p50 <= checkin.p99 && checkin.p99 <= checkin.max.max(checkin.p99));
        assert!(hist("req_checkout_us").count >= devices as u64);
        // The scrape itself is instrumented, so its own histogram is live.
        assert!(hist("req_metrics_us").count >= 1);
        // Pressure gauges are present (zero once the fleet drained).
        for gauge in ["queue_depth", "conns_parked", "inflight"] {
            assert!(
                report.gauges.iter().any(|(n, _)| n == gauge),
                "missing gauge {gauge}"
            );
        }
        handle.shutdown();
    });
}

#[test]
fn chaos_transport_faults_on_reactor_land_bitwise_on_reference() {
    under_watchdog(Duration::from_secs(120), || {
        // Transport transparency (the chaos suite's strongest invariant): a
        // faulty run must land bitwise on the fault-free reference of the
        // same seed.
        let a = ChaosCluster::new(FaultPlan::fault_free(23)).run().unwrap();
        let b = ChaosCluster::new(FaultPlan::transport_only(23))
            .run()
            .unwrap();
        assert_eq!(a.params.as_slice(), b.params.as_slice());
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.ledger, b.ledger);
        assert_eq!(a.acked_checkins, b.acked_checkins);
    });
}

#[test]
fn chaos_crash_recovery_works_through_the_reactor() {
    under_watchdog(Duration::from_secs(120), || {
        // Scripted crash/restart cycles with the reactor fronting the
        // WAL-backed runtime: the run terminates and the ledger charges
        // exactly one ε per acknowledged checkin, never more.
        let dir = temp_dir("reactor-chaos-crash");
        let mut cluster = ChaosCluster::new(FaultPlan::full(3, 24));
        cluster.data_dir = Some(dir.clone());
        let report = cluster.run().unwrap();
        assert!(report.iterations > 0);
        for (device, eps) in &report.ledger {
            let expected =
                cluster.per_checkin_epsilon * report.acked_checkins[*device as usize] as f64;
            assert!(
                (eps - expected).abs() < 1e-9,
                "device {device}: charged {eps}, expected {expected}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    });
}

/// Admission refuses a NaN or infinite gradient, or one of the wrong
/// dimension, on both the free-run and the round path: each gets a typed
/// `BadRequest` on the same connection, the model stays finite, no ε is
/// charged, and `nonfinite_rejections` counts the non-finite refusals.
#[test]
fn nonfinite_and_misshapen_gradients_are_refused_on_both_paths() {
    under_watchdog(Duration::from_secs(60), || {
        use crowd_ml::core::config::{RoundSettings, ServerConfig};
        use crowd_ml::proto::frame::{read_message, write_message};
        use crowd_ml::proto::message::{CheckinRequest, ErrorCode, GradientPayload, Message};

        let model = MulticlassLogistic::new(2, 3).unwrap();
        let config = ServerConfig::new()
            .with_budget(0.5, f64::INFINITY)
            .with_rounds(
                RoundSettings::new(2)
                    .with_select_fraction(1.0)
                    .with_deadline_epochs(100),
            );
        let tokens = TokenRegistry::with_derived_tokens(2, 5);
        let handle = ReactorServer::start(model, config, tokens).unwrap();
        let mut conn = std::net::TcpStream::connect(handle.addr()).unwrap();
        let mut exchange = |round_id: u64, gradient: Vec<f64>| {
            let request = Message::CheckinRequest(CheckinRequest {
                device_id: 0,
                token: AuthToken::derive(0, 5),
                checkout_iteration: 0,
                nonce: 0,
                round_id,
                gradient: GradientPayload::Dense(gradient),
                num_samples: 2,
                error_count: 0,
                label_counts: vec![1, 1, 0],
            });
            write_message(&mut conn, &request).unwrap();
            read_message(&mut conn).unwrap()
        };
        let mut nan = vec![0.25; 6];
        nan[3] = f64::NAN;
        let mut inf = vec![0.25; 6];
        inf[0] = f64::NEG_INFINITY;
        for (round_id, gradient) in [(0, nan.clone()), (1, nan), (1, inf), (1, vec![0.25; 5])] {
            match exchange(round_id, gradient) {
                Message::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest, "{e:?}"),
                other => panic!("expected BadRequest, got {}", other.name()),
            }
        }
        assert!(handle.params().iter().all(|v| v.is_finite()));
        assert_eq!(handle.iteration(), 0);
        assert!(
            handle.budget_ledger().is_empty(),
            "refusals must not charge ε"
        );
        assert_eq!(handle.runtime_stats().get("nonfinite_rejections"), 3);
        assert_eq!(handle.runtime_stats().get("round_submissions"), 0);
        // The connection survived every refusal: a valid checkin on it applies.
        match exchange(0, vec![0.25; 6]) {
            Message::CheckinAck(ack) => assert!(ack.accepted),
            other => panic!("expected an ack, got {}", other.name()),
        }
        assert!(handle.params().iter().all(|v| v.is_finite()));
        assert_eq!(handle.budget_ledger(), vec![(0, 0.5)]);
        handle.shutdown();
    });
}

/// Round submissions carry the checkin encodings: a cohort whose members
/// submit dense, sparse and quantized gradients is accepted and finalized
/// to the same parameter bits as one whose members submit the dense forms
/// of the same gradients.
#[test]
fn sparse_and_quantized_round_submissions_are_applied() {
    under_watchdog(Duration::from_secs(60), || {
        use crowd_ml::core::config::{RoundSettings, ServerConfig};
        use crowd_ml::core::device::CheckinPayload;
        use crowd_ml::linalg::{GradientUpdate, QuantizedVector, SparseVector, Vector};

        let gradients = [
            GradientUpdate::Dense(Vector::from_vec(vec![0.5, -0.25, 0.0, 1.0, 0.125, -2.0])),
            GradientUpdate::Sparse(SparseVector::new(6, vec![1, 4], vec![0.75, -1.5]).unwrap()),
            GradientUpdate::Quantized(
                QuantizedVector::from_parts(0.0625, vec![3, -7, 0, 12, -1, 5]).unwrap(),
            ),
        ];
        let run = |as_sent: bool| {
            let model = MulticlassLogistic::new(2, 3).unwrap();
            let config = ServerConfig::new().with_rate_constant(1.0).with_rounds(
                RoundSettings::new(3)
                    .with_select_fraction(1.0)
                    .with_deadline_epochs(100),
            );
            let tokens = TokenRegistry::with_derived_tokens(3, 5);
            let handle = ReactorServer::start(model, config, tokens).unwrap();
            for (d, gradient) in gradients.iter().enumerate() {
                let client =
                    DeviceClient::builder(handle.addr(), d as u64, AuthToken::derive(d as u64, 5))
                        .build();
                let session = client.join_round().unwrap();
                let payload = CheckinPayload {
                    device_id: d as u64,
                    checkout_iteration: 0,
                    nonce: 1,
                    gradient: if as_sent {
                        gradient.clone()
                    } else {
                        gradient.to_dense().into()
                    },
                    num_samples: 2,
                    error_count: 0,
                    label_counts: vec![1, 1, 0],
                };
                assert!(session.submit(&payload).unwrap().applied());
            }
            let stats = handle.runtime_stats();
            assert_eq!(stats.get("rounds_finalized"), 1);
            assert_eq!(stats.get("checkins_applied"), 3);
            let params: Vec<u64> = handle.params().iter().map(|v| v.to_bits()).collect();
            handle.shutdown();
            params
        };
        let mixed = run(true);
        assert!(mixed.iter().any(|&b| b != 0), "the round moved the model");
        assert_eq!(mixed, run(false));
    });
}

/// A `DeviceClient` keeps its connection open across exchanges: 50 rounds
/// of `join_round` + `submit` and a metrics scrape arrive on exactly one
/// accepted connection.
#[test]
fn device_client_reuses_one_connection_across_rounds() {
    under_watchdog(Duration::from_secs(60), || {
        use crowd_ml::core::config::{RoundSettings, ServerConfig};
        use crowd_ml::core::device::CheckinPayload;
        use crowd_ml::linalg::Vector;

        let model = MulticlassLogistic::new(2, 3).unwrap();
        let config = ServerConfig::new().with_rounds(
            RoundSettings::new(1)
                .with_select_fraction(1.0)
                .with_deadline_epochs(100),
        );
        let tokens = TokenRegistry::with_derived_tokens(1, 5);
        let handle = ReactorServer::start(model, config, tokens).unwrap();
        let before = handle.reactor_stats().unwrap().accepted;
        let client = DeviceClient::builder(handle.addr(), 0, AuthToken::derive(0, 5)).build();
        for round in 1..=50u64 {
            let session = client.join_round().unwrap();
            assert_eq!(session.round_id(), round);
            let payload = CheckinPayload {
                device_id: 0,
                checkout_iteration: session.checked_out().iteration,
                nonce: round,
                gradient: Vector::from_vec(vec![0.01; 6]).into(),
                num_samples: 2,
                error_count: 0,
                label_counts: vec![1, 1, 0],
            };
            assert!(session.submit(&payload).unwrap().applied());
        }
        let report = client.scrape_metrics().unwrap();
        let accepted = report
            .counters
            .iter()
            .find(|(n, _)| n == "conns_accepted")
            .map(|&(_, v)| v)
            .expect("conns_accepted counter");
        assert_eq!(accepted - before, 1);
        assert_eq!(handle.reactor_stats().unwrap().accepted - before, 1);
        assert_eq!(handle.iteration(), 50);
        handle.shutdown();
    });
}

/// A pooled connection the server has since closed is resent past only when
/// the request is idempotent, and a chaos-faulted exchange never poisons the
/// pool.
#[test]
fn stale_pooled_connections_resend_only_idempotent_requests() {
    under_watchdog(Duration::from_secs(60), || {
        use crowd_ml::core::device::CheckinPayload;
        use crowd_ml::linalg::Vector;
        use crowd_ml::proto::frame::{read_message, write_message};
        use crowd_ml::proto::message::{CheckinAck, CheckoutResponse, Message};
        use crowd_ml::sim::chaos::{FaultAction, TransportFaults};
        use std::net::{TcpListener, TcpStream};
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Arc;

        // A server that answers one frame per connection and then hangs up,
        // so every connection the client pools is stale on its next use.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let conns = Arc::new(AtomicU64::new(0));
        let checkins = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let (conns, checkins, stop) = (conns.clone(), checkins.clone(), stop.clone());
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut conn) = conn else { continue };
                    conns.fetch_add(1, Ordering::SeqCst);
                    let reply = match read_message(&mut conn) {
                        Ok(Message::CheckoutRequest(_)) => {
                            Message::CheckoutResponse(CheckoutResponse {
                                iteration: 0,
                                params: vec![0.0; 6],
                                stopped: false,
                                round: None,
                            })
                        }
                        Ok(Message::CheckinRequest(_)) => {
                            checkins.fetch_add(1, Ordering::SeqCst);
                            Message::CheckinAck(CheckinAck {
                                accepted: true,
                                iteration: 1,
                                stopped: false,
                                deduped: false,
                            })
                        }
                        _ => continue,
                    };
                    let _ = write_message(&mut conn, &reply);
                }
            })
        };
        let client = DeviceClient::builder(addr, 0, AuthToken::derive(0, 5))
            .no_retry()
            .build();
        client.checkout().unwrap();
        // The pooled connection is closed: the checkout goes once more on a
        // new connection, outside the (empty) retry budget.
        client.checkout().unwrap();
        assert_eq!(conns.load(Ordering::SeqCst), 2);
        let payload = |nonce| CheckinPayload {
            device_id: 0,
            checkout_iteration: 0,
            nonce,
            gradient: Vector::from_vec(vec![0.5; 6]).into(),
            num_samples: 1,
            error_count: 0,
            label_counts: vec![1, 0, 0],
        };
        // Without a nonce the checkin may not be sent twice: the stale
        // connection's transport error comes back, and nothing reached the
        // server.
        assert!(client.checkin(&payload(0)).is_err());
        assert!(checkins.load(Ordering::SeqCst) <= 1);
        assert_eq!(
            conns.load(Ordering::SeqCst),
            2,
            "a nonce-0 checkin was resent"
        );
        // The failed connection was dropped, not pooled: the next nonce-0
        // checkin connects afresh and lands.
        assert!(client.checkin(&payload(0)).unwrap().applied());
        assert_eq!(checkins.load(Ordering::SeqCst), 1);
        // With a nonce the checkin is idempotent and resent past the stale
        // connection.
        assert!(client.checkin(&payload(9)).unwrap().applied());
        assert_eq!(checkins.load(Ordering::SeqCst), 2);
        stop.store(true, Ordering::SeqCst);
        drop(TcpStream::connect(addr));
        server.join().unwrap();

        // Chaos: a faulted exchange runs on its own connection and never
        // enters the pool. Find a fault schedule for device 0 whose
        // exchanges go fault-free, truncated, fault-free, dropped after
        // send, fault-free.
        let wanted = [
            FaultAction::None,
            FaultAction::TruncateFrame,
            FaultAction::None,
            FaultAction::DropAfterSend,
            FaultAction::None,
        ];
        let faults = (0..1_000_000u64)
            .map(|seed| TransportFaults::from_seed(seed, 1))
            .find(|f| (0..5).all(|op| f.decide(0, op) == wanted[op as usize]))
            .expect("a seed with the wanted fault schedule");
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(1, 5);
        let handle =
            ReactorServer::start(model, crowd_ml::core::config::ServerConfig::new(), tokens)
                .unwrap();
        let client = DeviceClient::builder(handle.addr(), 0, AuthToken::derive(0, 5))
            .no_retry()
            .transport_faults(Arc::new(faults))
            .build();
        let accepted_eventually = |want: u64| {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while handle.reactor_stats().unwrap().accepted < want
                && std::time::Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(2));
            }
            handle.reactor_stats().unwrap().accepted
        };
        client.checkout().unwrap();
        assert!(client.checkout().is_err(), "truncated frame");
        client.checkout().unwrap();
        assert_eq!(accepted_eventually(2), 2);
        assert!(client.checkout().is_err(), "dropped after send");
        client.checkout().unwrap();
        assert_eq!(accepted_eventually(3), 3);
        handle.shutdown();
    });
}
