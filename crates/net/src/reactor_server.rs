//! Event-driven Crowd-ML TCP server on the `crowd-reactor` core: Server
//! Routines 1–2 behind the `crowd-proto` wire protocol.
//!
//! A small fixed pool of reactor threads multiplexes every connection through
//! nonblocking sockets and resumable frame state machines; request handling
//! lives in [`crate::server::ServerCore`]. What matters at 10k devices:
//!
//! * **Thread count is O(reactor threads), not O(connections).** An idle or
//!   slow device costs a slab slot and a parked socket, not a stack.
//! * **Backpressure is read throttling, not Busy spam.** When the ingest
//!   queue is full, the connection is parked with read interest disarmed; TCP
//!   flow control pushes back to the device, and the parked gradient is
//!   re-admitted as soon as the queue drains, so a lone checkin is never
//!   answered `Busy`.
//! * **Blocking waits live on pump threads.** Checkin acks wait for their
//!   epoch on the per-reactor completion pump, never on an event loop.
//!
//! Devices are authenticated against a [`TokenRegistry`] before any
//! parameters are served or gradients accepted.

use crate::server::{handle_event, ServerCore};
use crate::Result;
use crowd_agg::{AggError, AggRuntime};
use crowd_core::config::ServerConfig;
use crowd_core::server::Server;
use crowd_learning::MulticlassLogistic;
use crowd_linalg::Vector;
use crowd_proto::auth::TokenRegistry;
use crowd_reactor::{Reactor, ReactorConfig, ReactorStats};
use crowd_store::{RecoveryReport, Store};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

/// Upper bound on graceful-shutdown drain: 1 ms polls until every in-flight
/// checkin has been acked and every queued reply flushed.
const DRAIN_POLLS: usize = 10_000;

/// The event-driven Crowd-ML TCP server.
pub struct ReactorServer;

/// Builds the aggregation runtime, through the store's recovery path when
/// `config.persist` names a data directory.
fn build_runtime(
    model: MulticlassLogistic,
    config: ServerConfig,
) -> Result<(AggRuntime<MulticlassLogistic>, Option<RecoveryReport>)> {
    if config.persist.is_enabled() {
        let (store, server, report) = Store::open(model, config).map_err(AggError::from)?;
        Ok((AggRuntime::with_store(server, Some(store))?, Some(report)))
    } else {
        Ok((AggRuntime::new(Server::new(model, config)?)?, None))
    }
}

impl ReactorServer {
    /// Starts a server on `127.0.0.1` (ephemeral port) for the given model,
    /// configuration, and device-token registry, with the default reactor
    /// tuning. The aggregation runtime is configured by `config.agg` (shard
    /// count, queue bound, epoch size, …).
    ///
    /// When `config.persist` names a data directory, the server binds through
    /// the recovery path: the latest snapshot is loaded, the WAL tail replayed
    /// (bitwise-identical state, including the per-device ε ledger), and every
    /// subsequently applied epoch is WAL-logged before its checkins are acked.
    /// [`ReactorServerHandle::recovery_report`] tells the caller what was found.
    pub fn start(
        model: MulticlassLogistic,
        config: ServerConfig,
        tokens: TokenRegistry,
    ) -> Result<ReactorServerHandle> {
        let (runtime, recovery) = build_runtime(model, config)?;
        let core = Arc::new(ServerCore::new(runtime, tokens));
        let service_core = Arc::clone(&core);
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let reactor = Reactor::start_with_metrics(
            listener,
            Arc::new(move |message| handle_event(&service_core, message)),
            Arc::clone(&core.pool),
            ReactorConfig::default(),
            Arc::clone(&core.metrics),
        )?;
        Ok(ReactorServerHandle {
            addr,
            core,
            reactor: Some(reactor),
            recovery,
        })
    }
}

/// A handle to a running reactor server: address, shared state, and the
/// reactor threads.
pub struct ReactorServerHandle {
    addr: SocketAddr,
    core: Arc<ServerCore>,
    reactor: Option<Reactor>,
    recovery: Option<RecoveryReport>,
}

impl ReactorServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current server iteration (number of applied epochs).
    pub fn iteration(&self) -> u64 {
        self.core.runtime.iteration()
    }

    /// A copy of the current parameters.
    pub fn params(&self) -> Vector {
        self.core.runtime.params()
    }

    /// Whether the stopping criterion has been met.
    pub fn stopped(&self) -> bool {
        self.core.runtime.stopped()
    }

    /// The total number of samples reported by devices.
    pub fn total_samples(&self) -> u64 {
        self.core.runtime.total_samples()
    }

    /// The privately estimated error rate (Eq. 14), if any samples were reported.
    pub fn error_estimate(&self) -> Option<f64> {
        self.core.runtime.error_estimate()
    }

    /// A snapshot of the server's crowd-scope metrics (`epoch_merges`,
    /// `checkins_applied`, request-latency histograms, …).
    pub fn runtime_stats(&self) -> crowd_telemetry::MetricsSnapshot {
        self.core.runtime.stats()
    }

    /// The shared metric registry backing this server's scrape surface.
    pub fn metrics(&self) -> Arc<crowd_telemetry::Registry> {
        Arc::clone(&self.core.metrics)
    }

    /// Point-in-time reactor counters (accepted/active/parked/inflight).
    pub fn reactor_stats(&self) -> Option<ReactorStats> {
        self.reactor.as_ref().map(|r| r.stats())
    }

    /// What the recovery path found at bind time (`None` for volatile servers).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The per-device ε ledger, ascending by device id.
    pub fn budget_ledger(&self) -> Vec<(u64, f64)> {
        self.core.runtime.budget_ledger()
    }

    /// Settles the open cohort round (finalizing pending submissions and
    /// charging their ε) without stopping the server. No-op when rounds are
    /// off or nothing is pending.
    pub fn settle_rounds(&self) {
        self.core.runtime.settle_rounds()
    }

    /// `true` when the device has spent its entire privacy budget.
    pub fn budget_exhausted(&self, device_id: u64) -> bool {
        self.core.runtime.budget_exhausted(device_id)
    }

    /// Gracefully stops the server: refuse new connections, flush the
    /// aggregation runtime (which resolves every pending and parked checkin),
    /// drain the reactor until all replies are on the wire, then stop it.
    pub fn shutdown(mut self) {
        self.stop_graceful();
    }

    /// Crash-stops the server, simulating a SIGKILL for recovery testing:
    /// in-flight and parked checkins are dropped unacknowledged, no final
    /// flush or checkpoint snapshot is written. Everything already
    /// acknowledged is in the WAL (appends happen before acks), so a later
    /// [`ReactorServer::start`] on the same data directory recovers to exactly
    /// the acknowledged state via snapshot load and WAL replay.
    pub fn kill(mut self) {
        self.core.runtime.kill();
        if let Some(reactor) = self.reactor.take() {
            reactor.stop();
        }
    }

    fn stop_graceful(&mut self) {
        let Some(reactor) = self.reactor.take() else {
            return;
        };
        reactor.stop_accepting();
        // Flush the runtime FIRST: pending waits resolve with their epoch
        // outcome and parked retries resolve to a shutdown refusal, so the
        // drain below cannot stall behind an epoch that would never close.
        self.core.runtime.shutdown();
        reactor.drain(DRAIN_POLLS);
        reactor.stop();
    }
}

impl Drop for ReactorServerHandle {
    fn drop(&mut self) {
        self.stop_graceful();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_proto::auth::AuthToken;
    use crowd_proto::frame::{read_message, write_message};
    use crowd_proto::message::{
        BatchCheckinRequest, CheckinRequest, CheckoutRequest, ErrorCode, ErrorReply,
        GradientPayload, Message, MetricsRequest,
    };
    use crowd_proto::PROTOCOL_VERSION;
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    fn start_test_server() -> (ReactorServerHandle, AuthToken) {
        let model = MulticlassLogistic::new(4, 3).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(4, 99);
        let handle = ReactorServer::start(model, ServerConfig::new(), tokens).unwrap();
        (handle, AuthToken::derive(0, 99))
    }

    fn roundtrip(addr: SocketAddr, msg: &Message) -> Message {
        let mut stream = TcpStream::connect(addr).unwrap();
        write_message(&mut stream, msg).unwrap();
        read_message(&mut stream).unwrap()
    }

    fn checkout(device_id: u64) -> Message {
        Message::CheckoutRequest(CheckoutRequest {
            version: PROTOCOL_VERSION,
            device_id,
            token: AuthToken::derive(device_id, 99),
        })
    }

    fn checkin_item(device_id: u64, secret: u64, gradient: Vec<f64>) -> CheckinRequest {
        CheckinRequest {
            device_id,
            token: AuthToken::derive(device_id, secret),
            checkout_iteration: 0,
            nonce: 0,
            round_id: 0,
            gradient: GradientPayload::Dense(gradient),
            num_samples: 2,
            error_count: 1,
            label_counts: vec![1, 1, 0],
        }
    }

    #[test]
    fn checkout_and_checkin_round_trip() {
        let (handle, _token) = start_test_server();
        let reply = roundtrip(handle.addr(), &checkout(0));
        assert!(matches!(
            reply,
            Message::CheckoutResponse(r) if r.iteration == 0 && r.params.len() == 12 && !r.stopped
        ));
        let reply = roundtrip(
            handle.addr(),
            &Message::CheckinRequest(checkin_item(1, 99, vec![0.1; 12])),
        );
        assert!(matches!(reply, Message::CheckinAck(ack) if ack.accepted && ack.iteration == 1));
        assert_eq!(handle.iteration(), 1);
        assert_eq!(handle.total_samples(), 2);
        assert_eq!(handle.runtime_stats().get("checkins_applied"), 1);
        handle.shutdown();
    }

    #[test]
    fn handle_reports_state() {
        let (handle, _) = start_test_server();
        assert_eq!(handle.iteration(), 0);
        assert_eq!(handle.total_samples(), 0);
        assert_eq!(handle.error_estimate(), None);
        assert!(!handle.stopped());
        assert_eq!(handle.params().len(), 12);
        assert!(handle.recovery_report().is_none());
        assert!(handle.budget_ledger().is_empty());
        handle.shutdown();
    }

    #[test]
    fn every_request_histogram_is_recorded() {
        // One of each request type, then two scrapes: a scrape's own service
        // time is recorded after its snapshot, so only the second sees the
        // first. Every `req_*` histogram the server exports must be live.
        let (handle, token) = start_test_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut exchange = |msg: Message| {
            write_message(&mut stream, &msg).unwrap();
            read_message(&mut stream).unwrap()
        };
        assert!(matches!(
            exchange(checkout(0)),
            Message::CheckoutResponse(_)
        ));
        let mut item = checkin_item(1, 99, vec![0.1; 12]);
        item.nonce = 1;
        assert!(matches!(
            exchange(Message::CheckinRequest(item)),
            Message::CheckinAck(ack) if ack.accepted
        ));
        let batch = Message::BatchCheckinRequest(BatchCheckinRequest {
            items: vec![checkin_item(2, 99, vec![0.1; 12])],
        });
        assert!(matches!(exchange(batch), Message::BatchCheckinAck(_)));
        let scrape = Message::MetricsRequest(MetricsRequest {
            version: PROTOCOL_VERSION,
            device_id: 0,
            token,
        });
        assert!(matches!(
            exchange(scrape.clone()),
            Message::MetricsReport(_)
        ));
        let report = match exchange(scrape) {
            Message::MetricsReport(report) => report,
            other => panic!("unexpected reply {other:?}"),
        };
        let requests: Vec<_> = report
            .histograms
            .iter()
            .filter(|h| h.name.starts_with("req_"))
            .collect();
        assert!(requests.len() >= 3, "{requests:?}");
        for hist in requests {
            assert!(hist.count >= 1, "{} was never recorded", hist.name);
        }
        let checkin = report
            .histograms
            .iter()
            .find(|h| h.name == "checkin_latency_us")
            .unwrap();
        assert_eq!(checkin.count, 2, "the lone and the batched checkin");
        handle.shutdown();
    }

    #[test]
    fn one_connection_many_sequential_exchanges() {
        let (handle, token) = start_test_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        for round in 0..50u64 {
            let mut item = checkin_item(1, 99, vec![0.01; 12]);
            item.nonce = round;
            item.checkout_iteration = round;
            write_message(&mut stream, &Message::CheckinRequest(item)).unwrap();
            let reply = read_message(&mut stream).unwrap();
            assert!(
                matches!(reply, Message::CheckinAck(ack) if ack.accepted),
                "round {round}: {reply:?}"
            );
            write_message(
                &mut stream,
                &Message::CheckoutRequest(CheckoutRequest {
                    version: PROTOCOL_VERSION,
                    device_id: 0,
                    token,
                }),
            )
            .unwrap();
            let reply = read_message(&mut stream).unwrap();
            assert!(matches!(reply, Message::CheckoutResponse(r) if r.iteration == round + 1));
        }
        assert_eq!(handle.iteration(), 50);
        handle.shutdown();
    }

    #[test]
    fn full_queue_throttles_instead_of_busy() {
        // A 1-deep queue that nothing drains until shutdown: the reactor
        // parks connections instead of replying Busy, and the parked checkins
        // all resolve at the shutdown flush. Devices never see a Busy frame
        // on this path.
        let model = MulticlassLogistic::new(4, 3).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(4, 99);
        let config = ServerConfig::new().with_agg(crowd_core::config::AggSettings {
            shard_count: 1,
            queue_bound: 1,
            epoch_size: u64::MAX,
            worker_threads: 1,
            retry_after_ms: 9,
            flush_idle_ms: 0,
        });
        let handle = ReactorServer::start(model, config, tokens).unwrap();
        let mut readers = Vec::new();
        for attempt in 0..12u64 {
            let mut item = checkin_item(attempt % 4, 99, vec![0.1; 12]);
            item.nonce = attempt;
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            write_message(&mut stream, &Message::CheckinRequest(item)).unwrap();
            readers.push(std::thread::spawn(move || {
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                read_message(&mut stream).ok()
            }));
        }
        // Give the burst time to saturate the 1-deep queue and park, then
        // flush via shutdown: parked gradients re-admit as the queue drains.
        std::thread::sleep(Duration::from_millis(200));
        handle.shutdown();
        let mut acked = 0;
        let mut busy = 0;
        for reader in readers {
            match reader.join().unwrap() {
                Some(Message::CheckinAck(_)) => acked += 1,
                Some(Message::Busy(_)) => busy += 1,
                // Parked connections that could not re-admit before the
                // runtime closed are refused with TaskEnded.
                Some(Message::Error(ErrorReply {
                    code: ErrorCode::TaskEnded,
                    ..
                })) => {}
                Some(other) => panic!("unexpected reply {other:?}"),
                None => {}
            }
        }
        assert_eq!(busy, 0, "reactor backpressure must not emit Busy frames");
        assert!(acked > 0, "admitted checkins resolve at the final flush");
    }

    #[test]
    fn kill_and_restart_recovers_state() {
        use crowd_store::testutil::temp_dir;
        let dir = temp_dir("reactor-restart");
        let config = ServerConfig::new()
            .with_data_dir(&dir)
            .with_snapshot_every(2)
            .with_budget(0.25, f64::INFINITY);
        let tokens = || TokenRegistry::with_derived_tokens(4, 99);
        let model = || MulticlassLogistic::new(4, 3).unwrap();

        let handle = ReactorServer::start(model(), config.clone(), tokens()).unwrap();
        assert_eq!(handle.recovery_report().map(|r| r.recovered()), Some(false));
        for step in 0..3u64 {
            let mut item = checkin_item(step % 2, 99, vec![0.1; 12]);
            item.nonce = step;
            let reply = roundtrip(handle.addr(), &Message::CheckinRequest(item));
            assert!(matches!(reply, Message::CheckinAck(ack) if ack.accepted));
        }
        let params_at_kill = handle.params();
        let ledger_at_kill = handle.budget_ledger();
        handle.kill();

        // A new server on the same data dir resumes exactly where the acked
        // checkins left it: snapshot load + WAL tail replay.
        let handle = ReactorServer::start(model(), config, tokens()).unwrap();
        let report = handle.recovery_report().unwrap();
        assert!(report.recovered());
        assert!(report.from_snapshot);
        assert_eq!(report.replayed_epochs, 1);
        assert_eq!(handle.iteration(), 3);
        assert_eq!(handle.params().as_slice(), params_at_kill.as_slice());
        assert_eq!(handle.budget_ledger(), ledger_at_kill);
        // And it keeps serving: a checkout sees the recovered iteration.
        let reply = roundtrip(handle.addr(), &checkout(0));
        assert!(matches!(reply, Message::CheckoutResponse(r) if r.iteration == 3));
        handle.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reactor_stats_are_exposed() {
        let (handle, token) = start_test_server();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut second = TcpStream::connect(handle.addr()).unwrap();
        write_message(
            &mut second,
            &Message::CheckoutRequest(CheckoutRequest {
                version: PROTOCOL_VERSION,
                device_id: 0,
                token,
            }),
        )
        .unwrap();
        let _ = read_message(&mut second).unwrap();
        let stats = handle.reactor_stats().unwrap();
        assert!(stats.accepted >= 2);
        assert!(stats.active >= 1);
        assert_eq!(stats.rejected, 0);
        drop(stream);
        drop(second);
        handle.shutdown();
    }

    #[test]
    fn shutdown_is_prompt_under_concurrent_connects() {
        // Shutdown must complete promptly even while a client thread keeps
        // opening connections (and holding a rolling window of idle ones) the
        // whole time.
        for _round in 0..5 {
            let (handle, _token) = start_test_server();
            let addr = handle.addr();
            let hammer_stop = Arc::new(AtomicBool::new(false));
            let hammer_flag = Arc::clone(&hammer_stop);
            let hammer = std::thread::spawn(move || {
                let mut opened = Vec::new();
                while !hammer_flag.load(Ordering::SeqCst) {
                    if let Ok(stream) = TcpStream::connect(addr) {
                        opened.push(stream);
                        if opened.len() > 8 {
                            opened.remove(0);
                        }
                    }
                }
            });
            // Bound the wait with a channel timeout (no wallclock reads).
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let closer = std::thread::spawn(move || {
                handle.shutdown();
                let _ = done_tx.send(());
            });
            done_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("shutdown stalled behind concurrent client connects");
            hammer_stop.store(true, Ordering::SeqCst);
            let _ = hammer.join();
            let _ = closer.join();
        }
    }
}
