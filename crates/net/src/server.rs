//! Threaded TCP server hosting Server Routines 1–2 on top of the `crowd-agg`
//! aggregation runtime.
//!
//! Every accepted connection gets its own handler thread, but — unlike the
//! original single-mutex design — handlers never serialize on a global
//! `Mutex<Server>`: checkouts clone the runtime's epoch snapshot (no lock on
//! the write path), checkins are admitted into the runtime's bounded ingest
//! queue and accumulated on per-device shards, and a full queue is answered
//! with a `Busy` reply carrying a retry hint instead of piling up threads.
//! Devices are authenticated against a [`TokenRegistry`] before any parameters
//! are served or gradients accepted. Request handling itself lives in
//! [`crate::service::ServerCore`], shared with the event-driven
//! [`crate::reactor_server::ReactorServer`].
//!
//! The accept loop parks in a [`polling::Poller`] wait on the nonblocking
//! listener; [`NetServerHandle`] wakes it with [`polling::Poller::notify`] on
//! shutdown. The wake is an in-process edge — no self-connection racing
//! against concurrent client connects, no poll-sleep latency — so shutdown is
//! deterministic even while new connections are hammering the listener.
//! Finished handler threads are reaped as connections close, so a long-lived
//! server does not accumulate one `JoinHandle` per connection it ever served.

use crate::service::ServerCore;
use crate::Result;
use crowd_agg::{AggError, AggRuntime};
use crowd_core::config::ServerConfig;
use crowd_core::server::Server;
use crowd_learning::MulticlassLogistic;
use crowd_linalg::Vector;
use crowd_proto::auth::TokenRegistry;
use crowd_proto::codec::decode;
use crowd_proto::frame::{write_message_pooled, DEFAULT_MAX_FRAME};
use crowd_proto::message::Message;
use crowd_store::{RecoveryReport, Store};
use polling::{Event, Events, Poller};
use std::io::ErrorKind;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Read timeout on handler sockets, so connections parked in `read_message`
/// notice a server shutdown instead of pinning their thread forever.
const READ_TIMEOUT: Duration = Duration::from_millis(200);

/// Poller key for the accept listener (the only registration in this poller).
const LISTENER_KEY: usize = 0;

struct Shared {
    core: Arc<ServerCore>,
    stop: AtomicBool,
    /// Wakes the accept loop's wait deterministically on shutdown.
    poller: Arc<Poller>,
}

/// The Crowd-ML TCP server.
pub struct NetServer;

/// A handle to a running server: address, shared state, and the accept thread.
pub struct NetServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    recovery: Option<RecoveryReport>,
}

pub(crate) fn build_runtime(
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

impl NetServer {
    /// Starts a server on `127.0.0.1` (ephemeral port) for the given model,
    /// configuration, and device-token registry. The aggregation runtime is
    /// configured by `config.agg` (shard count, queue bound, epoch size, …).
    ///
    /// When `config.persist` names a data directory, the server binds through
    /// the recovery path: the latest snapshot is loaded, the WAL tail replayed
    /// (bitwise-identical state, including the per-device ε ledger), and every
    /// subsequently applied epoch is WAL-logged before its checkins are acked.
    /// [`NetServerHandle::recovery_report`] tells the caller what was found.
    pub fn start(
        model: MulticlassLogistic,
        config: ServerConfig,
        tokens: TokenRegistry,
    ) -> Result<NetServerHandle> {
        let (runtime, recovery) = build_runtime(model, config)?;
        let poller = Arc::new(Poller::new()?);
        let shared = Arc::new(Shared {
            core: Arc::new(ServerCore::new(runtime, tokens)),
            stop: AtomicBool::new(false),
            poller,
        });
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        shared
            .poller
            .add(&listener, Event::readable(LISTENER_KEY))?;
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("crowd-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(std::io::Error::other)?;
        Ok(NetServerHandle {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            recovery,
        })
    }
}

struct Handler {
    done: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    /// A second handle on the connection, to end its read side at shutdown.
    wake: Option<TcpStream>,
}

/// Joins every handler whose connection has closed, keeping the live ones.
fn reap_finished(handlers: &mut Vec<Handler>) {
    handlers.retain_mut(|h| {
        if h.done.load(Ordering::SeqCst) {
            // The thread has flagged completion, so the join returns at once.
            if let Some(thread) = h.thread.take() {
                let _ = thread.join();
            }
            false
        } else {
            true
        }
    });
}

/// Spawns one handler thread for an accepted connection. On spawn failure
/// (thread exhaustion) the stream is dropped: the device sees a closed
/// connection and retries, which is non-critical per Remark 1 of the paper.
fn spawn_handler(mut stream: TcpStream, shared: &Arc<Shared>, handlers: &mut Vec<Handler>) {
    let done = Arc::new(AtomicBool::new(false));
    let conn_done = Arc::clone(&done);
    let conn_shared = Arc::clone(shared);
    let wake = stream.try_clone().ok();
    let spawned = std::thread::Builder::new()
        .name("crowd-conn".into())
        .spawn(move || {
            // Per-connection failures only affect that device (Remark 1 of
            // the paper: failed checkouts/checkins are non-critical).
            let _ = handle_connection(&mut stream, conn_shared);
            // The accept loop's `wake` handle keeps the socket open past
            // this thread, so the connection is ended explicitly.
            let _ = stream.shutdown(Shutdown::Both);
            conn_done.store(true, Ordering::SeqCst);
        });
    if let Ok(thread) = spawned {
        handlers.push(Handler {
            done,
            thread: Some(thread),
            wake,
        });
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut handlers: Vec<Handler> = Vec::new();
    let mut events = Events::new();
    'outer: loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        // Park until the listener is readable or a shutdown notify() lands.
        // The notifier is an in-process wake: unlike the old self-connection
        // it cannot lose a race against concurrent client connects.
        events.clear();
        let waited = shared.poller.wait(&mut events, None);
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        if waited.is_err() {
            break;
        }
        // Drain the accept backlog (the listener registration is oneshot, so
        // it stays disarmed while we accept).
        loop {
            match listener.accept() {
                Ok((stream, peer)) => {
                    if shared.stop.load(Ordering::SeqCst) {
                        break 'outer;
                    }
                    shared
                        .core
                        .metrics
                        .incr(crowd_telemetry::CounterId::ConnsAccepted);
                    shared
                        .core
                        .metrics
                        .span(crowd_telemetry::Stage::Accept, u64::from(peer.port()));
                    reap_finished(&mut handlers);
                    spawn_handler(stream, &shared, &mut handlers);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    if shared.stop.load(Ordering::SeqCst) {
                        break 'outer;
                    }
                    // Transient accept failures (e.g. EMFILE under connection
                    // load) are retried, but with a pause — spinning on a
                    // failing accept would pin a core and starve the handlers
                    // whose exits free the descriptors.
                    std::thread::sleep(Duration::from_millis(10));
                    reap_finished(&mut handlers);
                }
            }
        }
        if shared
            .poller
            .modify(&listener, Event::readable(LISTENER_KEY))
            .is_err()
        {
            break;
        }
    }
    let _ = shared.poller.delete(&listener);
    // Clients keep idle connections open, so most handlers sit in a read:
    // ending the read side lets each see the stop flag now rather than at
    // its next read timeout.
    for h in &handlers {
        if let Some(wake) = &h.wake {
            let _ = wake.shutdown(Shutdown::Read);
        }
    }
    for mut h in handlers {
        if let Some(thread) = h.thread.take() {
            let _ = thread.join();
        }
    }
}

fn handle_connection(stream: &mut TcpStream, shared: Arc<Shared>) -> Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(READ_TIMEOUT)).ok();
    loop {
        let message = match read_message_tolerant(stream, &shared)? {
            ConnRead::Message(m) => m,
            // No frame in flight: keep serving unless the server is stopping.
            ConnRead::Idle => {
                if shared.stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            // EOF or broken pipe: the device closed its connection.
            ConnRead::Closed => return Ok(()),
        };
        let reply = shared.core.handle_message(message);
        write_message_pooled(stream, &reply, &shared.core.pool)?;
        if shared.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
    }
}

enum ConnRead {
    Message(Message),
    Idle,
    Closed,
}

enum FillResult {
    Done,
    Idle,
    Eof,
}

/// Fills `buf` from the socket, absorbing read timeouts.
///
/// A timeout with `buf` still empty and `idle_ok` set reports [`FillResult::Idle`]
/// (nothing in flight); a timeout *mid-buffer* keeps reading, because bytes
/// already consumed by a timed-out `read` are gone — treating that as idle
/// would desynchronize the frame stream. Mid-buffer waiting only gives up when
/// the server is stopping.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], idle_ok: bool, shared: &Shared) -> FillResult {
    use std::io::Read;
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return FillResult::Eof,
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return FillResult::Eof;
                }
                if filled == 0 && idle_ok {
                    return FillResult::Idle;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // Hard transport failure: the connection is unusable.
            Err(_) => return FillResult::Eof,
        }
    }
    FillResult::Done
}

/// Reads one framed message, tolerating idle-connection read timeouts without
/// ever losing frame alignment (length prefix and payload are each read to
/// completion across timeouts).
fn read_message_tolerant(stream: &mut TcpStream, shared: &Shared) -> Result<ConnRead> {
    let mut len_buf = [0u8; 4];
    match read_full(stream, &mut len_buf, true, shared) {
        FillResult::Done => {}
        FillResult::Idle => return Ok(ConnRead::Idle),
        FillResult::Eof => return Ok(ConnRead::Closed),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > DEFAULT_MAX_FRAME {
        return Err(crowd_proto::ProtoError::FrameTooLarge {
            declared: len,
            max: DEFAULT_MAX_FRAME,
        }
        .into());
    }
    // Frame payloads land in pooled buffers: the decode reads straight from
    // the reused frame slice, and the buffer returns to the pool afterwards.
    let mut payload = shared.core.pool.take(len);
    match read_full(stream, payload.as_mut_slice(), false, shared) {
        FillResult::Done => Ok(ConnRead::Message(decode(&payload)?)),
        FillResult::Idle | FillResult::Eof => Ok(ConnRead::Closed),
    }
}

impl NetServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current server iteration (number of applied epochs).
    pub fn iteration(&self) -> u64 {
        self.shared.core.runtime.iteration()
    }

    /// A copy of the current parameters.
    pub fn params(&self) -> Vector {
        self.shared.core.runtime.params()
    }

    /// Whether the stopping criterion has been met.
    pub fn stopped(&self) -> bool {
        self.shared.core.runtime.stopped()
    }

    /// The total number of samples reported by devices.
    pub fn total_samples(&self) -> u64 {
        self.shared.core.runtime.total_samples()
    }

    /// The privately estimated error rate (Eq. 14), if any samples were reported.
    pub fn error_estimate(&self) -> Option<f64> {
        self.shared.core.runtime.error_estimate()
    }

    /// A snapshot of the server's crowd-scope metrics (`epoch_merges`,
    /// `checkins_applied`, `busy_rejections`, request-latency histograms, …).
    pub fn runtime_stats(&self) -> crowd_telemetry::MetricsSnapshot {
        self.shared.core.runtime.stats()
    }

    /// The live metric registry the server and its aggregation runtime record
    /// into — the same registry a wire [`Message::MetricsRequest`] scrapes.
    pub fn metrics(&self) -> Arc<crowd_telemetry::Registry> {
        Arc::clone(&self.shared.core.metrics)
    }

    /// What the recovery path found at bind time (`None` for volatile servers).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The per-device ε ledger, ascending by device id.
    pub fn budget_ledger(&self) -> Vec<(u64, f64)> {
        self.shared.core.runtime.budget_ledger()
    }

    /// Settles the open cohort round (finalizing pending submissions and
    /// charging their ε) without stopping the server. No-op when rounds are
    /// off or nothing is pending.
    pub fn settle_rounds(&self) {
        self.shared.core.runtime.settle_rounds()
    }

    /// `true` when the device has spent its entire privacy budget.
    pub fn budget_exhausted(&self, device_id: u64) -> bool {
        self.shared.core.runtime.budget_exhausted(device_id)
    }

    /// Signals the accept loop to stop, wakes it, and waits for it (and the
    /// aggregation workers) to finish.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Crash-stops the server, simulating a SIGKILL for recovery testing:
    /// in-flight checkins are dropped unacknowledged and no final flush or
    /// checkpoint snapshot is written. Everything already acknowledged is in
    /// the WAL (appends happen before acks), so a subsequent
    /// [`NetServer::start`] on the same data directory recovers to exactly the
    /// acknowledged state via real snapshot-load + WAL-replay.
    pub fn kill(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.core.runtime.kill();
        if let Some(handle) = self.accept_thread.take() {
            let _ = self.shared.poller.notify();
            let _ = handle.join();
        }
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Flush the runtime FIRST: any handler blocked on a partially filled
        // epoch gets its outcome and can finish, so the handler joins below
        // cannot stall behind an epoch that would never close.
        self.shared.core.runtime.shutdown();
        if let Some(handle) = self.accept_thread.take() {
            // Wake the poller wait in-process; deterministic even while
            // clients are racing connects against the shutdown.
            let _ = self.shared.poller.notify();
            let _ = handle.join();
        }
    }
}

impl Drop for NetServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_proto::auth::AuthToken;
    use crowd_proto::frame::{read_message, write_message};
    use crowd_proto::message::{
        BatchCheckinRequest, CheckinAck, CheckinRequest, CheckoutRequest, ErrorCode, ErrorReply,
        GradientPayload,
    };
    use crowd_proto::PROTOCOL_VERSION;

    fn start_test_server() -> (NetServerHandle, AuthToken) {
        let model = MulticlassLogistic::new(4, 3).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(4, 99);
        let handle = NetServer::start(model, ServerConfig::new(), tokens).unwrap();
        (handle, AuthToken::derive(0, 99))
    }

    fn roundtrip(addr: SocketAddr, msg: &Message) -> Message {
        let mut stream = TcpStream::connect(addr).unwrap();
        write_message(&mut stream, msg).unwrap();
        read_message(&mut stream).unwrap()
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
    fn checkout_round_trip_over_tcp() {
        let (handle, token) = start_test_server();
        let reply = roundtrip(
            handle.addr(),
            &Message::CheckoutRequest(CheckoutRequest {
                version: PROTOCOL_VERSION,
                device_id: 0,
                token,
            }),
        );
        match reply {
            Message::CheckoutResponse(r) => {
                assert_eq!(r.iteration, 0);
                assert_eq!(r.params.len(), 12);
                assert!(!r.stopped);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn bad_token_and_bad_version_rejected() {
        let (handle, _token) = start_test_server();
        let bad_token = roundtrip(
            handle.addr(),
            &Message::CheckoutRequest(CheckoutRequest {
                version: PROTOCOL_VERSION,
                device_id: 0,
                token: AuthToken::derive(0, 12345),
            }),
        );
        assert!(matches!(
            bad_token,
            Message::Error(ErrorReply {
                code: ErrorCode::Unauthorized,
                ..
            })
        ));
        let bad_version = roundtrip(
            handle.addr(),
            &Message::CheckoutRequest(CheckoutRequest {
                version: 999,
                device_id: 0,
                token: AuthToken::derive(0, 99),
            }),
        );
        assert!(matches!(
            bad_version,
            Message::Error(ErrorReply {
                code: ErrorCode::BadRequest,
                ..
            })
        ));
        handle.shutdown();
    }

    #[test]
    fn unexpected_message_type_is_bad_request() {
        let (handle, _) = start_test_server();
        let reply = roundtrip(
            handle.addr(),
            &Message::CheckinAck(CheckinAck {
                accepted: true,
                iteration: 0,
                stopped: false,
                deduped: false,
            }),
        );
        assert!(matches!(
            reply,
            Message::Error(ErrorReply {
                code: ErrorCode::BadRequest,
                ..
            })
        ));
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
        handle.shutdown();
    }

    #[test]
    fn checkin_over_tcp_applies_update() {
        let (handle, _) = start_test_server();
        let reply = roundtrip(
            handle.addr(),
            &Message::CheckinRequest(checkin_item(1, 99, vec![0.1; 12])),
        );
        match reply {
            Message::CheckinAck(ack) => {
                assert!(ack.accepted);
                assert_eq!(ack.iteration, 1);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(handle.iteration(), 1);
        assert_eq!(handle.total_samples(), 2);
        assert_eq!(handle.runtime_stats().get("checkins_applied"), 1);
        handle.shutdown();
    }

    #[test]
    fn batch_checkin_from_colocated_devices() {
        let (handle, _) = start_test_server();
        // Devices 1–3 share a frame; device 3 carries a bad token, device 2 a
        // malformed gradient — each item is judged independently.
        let mut bad_token = checkin_item(3, 12345, vec![0.1; 12]);
        bad_token.device_id = 3;
        let batch = Message::BatchCheckinRequest(BatchCheckinRequest {
            items: vec![
                checkin_item(1, 99, vec![0.1; 12]),
                checkin_item(2, 99, vec![0.5; 3]),
                bad_token,
            ],
        });
        let reply = roundtrip(handle.addr(), &batch);
        match reply {
            Message::BatchCheckinAck(ack) => {
                assert_eq!(ack.acks.len(), 3);
                assert!(ack.acks[0].accepted);
                assert_eq!(ack.acks[0].reject, None);
                assert!(!ack.acks[1].accepted);
                assert_eq!(ack.acks[1].reject, Some(ErrorCode::BadRequest));
                assert!(!ack.acks[2].accepted);
                assert_eq!(ack.acks[2].reject, Some(ErrorCode::Unauthorized));
            }
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(handle.iteration(), 1);
        handle.shutdown();
    }

    #[test]
    fn slow_frame_straddling_read_timeouts_stays_aligned() {
        // A frame trickling in slower than READ_TIMEOUT must not be mistaken
        // for an idle connection: a mid-frame timeout that discarded consumed
        // bytes would desynchronize the stream and corrupt every later frame.
        let (handle, token) = start_test_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let frame = {
            let payload = crowd_proto::codec::encode(&Message::CheckoutRequest(CheckoutRequest {
                version: PROTOCOL_VERSION,
                device_id: 0,
                token,
            }));
            let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
            bytes.extend_from_slice(&payload);
            bytes
        };
        // Send the length prefix and payload byte-group by byte-group with
        // gaps comfortably longer than the server's read timeout.
        use std::io::Write;
        for chunk in frame.chunks(frame.len() / 3 + 1) {
            stream.write_all(chunk).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(READ_TIMEOUT + Duration::from_millis(50));
        }
        match read_message(&mut stream).unwrap() {
            Message::CheckoutResponse(r) => assert_eq!(r.params.len(), 12),
            other => panic!("unexpected reply {other:?}"),
        }
        // The connection is still usable for a second, fast frame.
        write_message(
            &mut stream,
            &Message::CheckinRequest(checkin_item(1, 99, vec![0.1; 12])),
        )
        .unwrap();
        match read_message(&mut stream).unwrap() {
            Message::CheckinAck(ack) => assert!(ack.accepted),
            other => panic!("unexpected reply {other:?}"),
        }
        handle.shutdown();
    }

    use crowd_store::testutil::temp_dir;

    #[test]
    fn kill_and_restart_recovers_state_over_tcp() {
        let dir = temp_dir("restart");
        let config = ServerConfig::new()
            .with_data_dir(&dir)
            .with_snapshot_every(2)
            .with_budget(0.25, f64::INFINITY);
        let tokens = || TokenRegistry::with_derived_tokens(4, 99);
        let model = || MulticlassLogistic::new(4, 3).unwrap();

        let handle = NetServer::start(model(), config.clone(), tokens()).unwrap();
        assert_eq!(handle.recovery_report().map(|r| r.recovered()), Some(false));
        for step in 0..3u64 {
            let reply = roundtrip(
                handle.addr(),
                &Message::CheckinRequest(checkin_item(step % 2, 99, vec![0.1; 12])),
            );
            assert!(matches!(reply, Message::CheckinAck(ack) if ack.accepted));
        }
        let params_at_kill = handle.params();
        let ledger_at_kill = handle.budget_ledger();
        handle.kill();

        // A new server on the same data dir resumes exactly where the acked
        // checkins left it: snapshot load + WAL tail replay.
        let handle = NetServer::start(model(), config, tokens()).unwrap();
        let report = handle.recovery_report().unwrap();
        assert!(report.recovered());
        assert!(report.from_snapshot);
        assert_eq!(report.replayed_epochs, 1);
        assert_eq!(handle.iteration(), 3);
        assert_eq!(handle.params().as_slice(), params_at_kill.as_slice());
        assert_eq!(handle.budget_ledger(), ledger_at_kill);
        // And it keeps serving: a checkout sees the recovered iteration.
        let reply = roundtrip(
            handle.addr(),
            &Message::CheckoutRequest(CheckoutRequest {
                version: PROTOCOL_VERSION,
                device_id: 0,
                token: AuthToken::derive(0, 99),
            }),
        );
        assert!(matches!(
            reply,
            Message::CheckoutResponse(r) if r.iteration == 3
        ));
        handle.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exhausted_device_is_refused_checkout_and_checkin() {
        let model = MulticlassLogistic::new(4, 3).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(4, 99);
        // Two 0.6-ε checkins cross the 1.0 ceiling.
        let config = ServerConfig::new().with_budget(0.6, 1.0);
        let handle = NetServer::start(model, config, tokens).unwrap();
        for step in 0..2u64 {
            let reply = roundtrip(
                handle.addr(),
                &Message::CheckinRequest(checkin_item(1, 99, vec![0.1; 12])),
            );
            assert!(
                matches!(reply, Message::CheckinAck(ack) if ack.accepted),
                "checkin {step} should be accepted"
            );
        }
        assert!(handle.budget_exhausted(1));
        let refused_checkout = roundtrip(
            handle.addr(),
            &Message::CheckoutRequest(CheckoutRequest {
                version: PROTOCOL_VERSION,
                device_id: 1,
                token: AuthToken::derive(1, 99),
            }),
        );
        assert!(matches!(
            refused_checkout,
            Message::Error(ErrorReply {
                code: ErrorCode::BudgetExhausted,
                ..
            })
        ));
        let refused_checkin = roundtrip(
            handle.addr(),
            &Message::CheckinRequest(checkin_item(1, 99, vec![0.1; 12])),
        );
        assert!(matches!(
            refused_checkin,
            Message::Error(ErrorReply {
                code: ErrorCode::BudgetExhausted,
                ..
            })
        ));
        // Device 2 is untouched.
        assert!(!handle.budget_exhausted(2));
        let ok = roundtrip(
            handle.addr(),
            &Message::CheckinRequest(checkin_item(2, 99, vec![0.1; 12])),
        );
        assert!(matches!(ok, Message::CheckinAck(ack) if ack.accepted));
        assert_eq!(handle.budget_ledger(), vec![(1, 1.2), (2, 0.6)]);
        handle.shutdown();
    }

    #[test]
    fn full_queue_replies_busy_over_tcp() {
        let model = MulticlassLogistic::new(4, 3).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(4, 99);
        // A queue nothing drains (no workers ever beat a closed epoch of
        // u64::MAX without idle flushes) forces the busy path deterministically.
        let config = ServerConfig::new().with_agg(crowd_core::config::AggSettings {
            shard_count: 1,
            queue_bound: 1,
            epoch_size: u64::MAX,
            worker_threads: 1,
            retry_after_ms: 9,
            flush_idle_ms: 0,
        });
        let handle = NetServer::start(model, config, tokens).unwrap();
        // Saturate from 20 parallel connections. Admitted checkins only
        // resolve at the shutdown flush (the epoch never fills), so replies
        // are read on background threads while the main thread shuts down.
        let mut readers = Vec::new();
        for attempt in 0..20u64 {
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            write_message(
                &mut stream,
                &Message::CheckinRequest(checkin_item(attempt % 4, 99, vec![0.1; 12])),
            )
            .unwrap();
            readers.push(std::thread::spawn(move || {
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                read_message(&mut stream).ok()
            }));
        }
        // Give the burst time to hit the 1-deep queue, then flush via shutdown.
        std::thread::sleep(Duration::from_millis(100));
        handle.shutdown();
        let mut busy = 0;
        let mut acked = 0;
        for reader in readers {
            match reader.join().unwrap() {
                Some(Message::Busy(b)) => {
                    assert_eq!(b.retry_after_ms, 9);
                    busy += 1;
                }
                Some(Message::CheckinAck(_)) => acked += 1,
                Some(other) => panic!("unexpected reply {other:?}"),
                None => {}
            }
        }
        assert!(
            busy > 0,
            "a 1-deep queue must reject under 20 racing checkins"
        );
        assert!(
            acked > 0,
            "the admitted checkins resolve at the final flush"
        );
    }

    #[test]
    fn shutdown_is_prompt_under_concurrent_connects() {
        // Regression test for the old shutdown wake: a throwaway
        // self-connection could land *behind* a burst of client connects in
        // the accept backlog, leaving shutdown at the mercy of client
        // traffic. The poller notify() is an in-process edge that cannot be
        // displaced, so shutdown must complete promptly even while a client
        // thread is hammering connects the whole time.
        for _round in 0..5 {
            let (handle, _token) = start_test_server();
            let addr = handle.addr();
            let hammer_stop = Arc::new(AtomicBool::new(false));
            let hammer_flag = Arc::clone(&hammer_stop);
            let hammer = std::thread::spawn(move || {
                let mut opened = Vec::new();
                while !hammer_flag.load(Ordering::SeqCst) {
                    // Keep a rolling window of idle connections plus a steady
                    // stream of fresh ones, exactly the traffic shape that
                    // raced the old self-connect wake.
                    if let Ok(stream) = TcpStream::connect(addr) {
                        opened.push(stream);
                        if opened.len() > 8 {
                            opened.remove(0);
                        }
                    }
                }
            });
            // The shutdown must not wait for the hammer to stop. Run it on
            // its own thread and bound the wait with a channel timeout (no
            // wallclock reads needed).
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
