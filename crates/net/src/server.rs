//! Request handling for [`crate::reactor_server::ReactorServer`], kept apart
//! from the socket layer.
//!
//! [`handle_event`] is the reactor's entry point and never blocks an event
//! loop: checkouts, scrapes and refusals answer immediately through
//! [`ServerCore::handle_message`], a lone checkin is admitted to the ingest
//! queue and its ack resolves on the completion pump, a full ingest queue
//! *parks* the connection (read throttling) instead of emitting a Busy reply,
//! and round submissions and batches run on the pump. Inside a batch, an item
//! the queue cannot take is still acknowledged per item with `Busy`.

use crowd_agg::{AggError, AggRuntime, CompletionHandle, RoundSubmitOutcome, SubmitRejection};
use crowd_core::device::CheckinPayload;
use crowd_learning::MulticlassLogistic;
use crowd_linalg::{GradientUpdate, QuantizedVector, SparseVector, Vector};
use crowd_proto::auth::TokenRegistry;
use crowd_proto::message::{
    BatchAck, BatchCheckinAck, BusyReply, CheckinAck, CheckinRequest, CheckoutResponse, ErrorCode,
    ErrorReply, GradientPayload, HistogramReport, Message, MetricsReport, RoundParams,
};
use crowd_proto::{BufPool, PROTOCOL_VERSION};
use crowd_reactor::Response;
use crowd_telemetry::{CounterId, HistogramId, MetricsSnapshot, Registry};
use std::sync::Arc;
use std::time::Duration;

/// How long the completion pump waits for a queued checkin's epoch to be
/// applied before reporting an internal error. Epochs close on `epoch_size`
/// or the idle flush, so in practice this bound is never approached.
pub(crate) const CHECKIN_WAIT: Duration = Duration::from_secs(30);

/// Server state shared by every connection, independent of transport.
pub(crate) struct ServerCore {
    pub(crate) runtime: AggRuntime<MulticlassLogistic>,
    pub(crate) tokens: TokenRegistry,
    /// Frame buffers shared by every connection: payload reads and reply
    /// encodes reuse pooled storage instead of allocating per message.
    pub(crate) pool: Arc<BufPool>,
    /// The aggregation runtime's crowd-scope registry, shared so the serving
    /// layer's own counters and per-message-type latency land in the same
    /// scrape the `MetricsRequest` admin message answers from.
    pub(crate) metrics: Arc<Registry>,
}

impl ServerCore {
    pub(crate) fn new(runtime: AggRuntime<MulticlassLogistic>, tokens: TokenRegistry) -> Self {
        let metrics = runtime.metrics();
        ServerCore {
            runtime,
            tokens,
            pool: Arc::new(BufPool::default()),
            metrics,
        }
    }

    /// Handles a checkout, batch checkin, scrape or unexpected message,
    /// blocking until the reply is known (batches run on the completion
    /// pump). Lone checkins never come here: [`handle_event`] answers them.
    /// Request latency is recorded per message type.
    pub(crate) fn handle_message(&self, message: Message) -> Message {
        let hist = match &message {
            Message::CheckoutRequest(_) => Some(HistogramId::ReqCheckoutUs),
            Message::BatchCheckinRequest(_) => Some(HistogramId::ReqBatchCheckinUs),
            Message::MetricsRequest(_) => Some(HistogramId::ReqMetricsUs),
            _ => None,
        };
        let start = self.metrics.start();
        let reply = self.dispatch(message);
        if let Some(id) = hist {
            self.metrics.observe_since(id, start);
        }
        reply
    }

    fn dispatch(&self, message: Message) -> Message {
        match message {
            Message::CheckoutRequest(req) => {
                if req.version != PROTOCOL_VERSION {
                    return error_reply(
                        ErrorCode::BadRequest,
                        format!("unsupported protocol version {}", req.version),
                    );
                }
                if !self.tokens.verify(req.device_id, &req.token) {
                    return error_reply(ErrorCode::Unauthorized, "unknown device or bad token");
                }
                // Refusing the *checkout* is where over-querying is actually
                // prevented: a device that cannot read parameters computes no
                // further gradients on its own ε.
                if self.runtime.budget_exhausted(req.device_id) {
                    self.metrics.incr(CounterId::ExhaustionRefusals);
                    return error_reply(
                        ErrorCode::BudgetExhausted,
                        format!("device {} has exhausted its privacy budget", req.device_id),
                    );
                }
                // Lock-free read path: clone the epoch snapshot, never touching
                // the write path's locks.
                let snapshot = self.runtime.snapshot();
                self.metrics.incr(CounterId::CheckoutsServed);
                Message::CheckoutResponse(CheckoutResponse {
                    iteration: snapshot.iteration,
                    params: snapshot.params.as_slice().to_vec(),
                    stopped: snapshot.stopped,
                    round: self.round_params(),
                })
            }
            Message::BatchCheckinRequest(req) => {
                // Admit every item before waiting on any of them, so a batch
                // fills at most one epoch's worth of queue slots at a time and
                // the runtime can fold co-submitted gradients into shared
                // epochs.
                let submitted: Vec<std::result::Result<CompletionHandle, Box<Message>>> = req
                    .items
                    .into_iter()
                    .map(|item| {
                        if !self.tokens.verify(item.device_id, &item.token) {
                            return Err(Box::new(error_reply(
                                ErrorCode::Unauthorized,
                                "unknown device or bad token",
                            )));
                        }
                        note_gradient_encoding(&self.metrics, &item.gradient);
                        if item.round_id != 0 {
                            // Round submissions resolve synchronously; the
                            // reply (ack or refusal) is folded in positionally.
                            return Err(Box::new(self.round_checkin(item)));
                        }
                        self.runtime
                            .submit(payload_of(item)?)
                            .map_err(|e| Box::new(agg_error_reply(e)))
                    })
                    .collect();
                let acks = submitted
                    .into_iter()
                    .map(|entry| match entry {
                        Ok(handle) => match wait_ack(handle) {
                            Ok(ack) => BatchAck {
                                accepted: ack.accepted,
                                iteration: ack.iteration,
                                stopped: ack.stopped,
                                deduped: ack.deduped,
                                reject: None,
                            },
                            Err(reply) => batch_ack_of(&reply),
                        },
                        Err(reply) => batch_ack_of(&reply),
                    })
                    .collect();
                Message::BatchCheckinAck(BatchCheckinAck { acks })
            }
            Message::MetricsRequest(req) => {
                if req.version != PROTOCOL_VERSION {
                    return error_reply(
                        ErrorCode::BadRequest,
                        format!("unsupported protocol version {}", req.version),
                    );
                }
                // The scrape is authenticated exactly like a checkout: any
                // registered device (an operator holds one) may read the
                // registry, which carries no per-device training data.
                if !self.tokens.verify(req.device_id, &req.token) {
                    return error_reply(ErrorCode::Unauthorized, "unknown device or bad token");
                }
                Message::MetricsReport(metrics_report(&self.runtime.stats()))
            }
            other => error_reply(
                ErrorCode::BadRequest,
                format!("unexpected message {}", other.name()),
            ),
        }
    }

    /// The current round parameters, as published in every checkout when the
    /// server runs the round-based cohort protocol (wire v6).
    fn round_params(&self) -> Option<RoundParams> {
        self.runtime.round_info().map(|info| RoundParams {
            round_id: info.round_id,
            seed: info.seed,
            select_fraction: info.select_fraction,
            deadline_epochs: info.deadline_epochs,
            population: info.population,
        })
    }

    /// Handles a round submission (a checkin with `round_id != 0`): the
    /// gradient is recorded against the round it names and applied at round
    /// finalization, so the acknowledgement is immediate — no epoch wait.
    pub(crate) fn round_checkin(&self, req: CheckinRequest) -> Message {
        let round_id = req.round_id;
        let payload = match payload_of(req) {
            Ok(p) => p,
            Err(reply) => return *reply,
        };
        match self.runtime.submit_round(round_id, payload) {
            Ok(RoundSubmitOutcome::Acked(outcome)) => Message::CheckinAck(CheckinAck {
                accepted: outcome.accepted,
                iteration: outcome.iteration,
                stopped: outcome.stopped,
                deduped: outcome.deduped,
            }),
            Ok(RoundSubmitOutcome::Outdated { current_round }) => {
                round_outdated_reply(current_round)
            }
            Err(e) => agg_error_reply(e),
        }
    }
}

/// Builds the wire scrape reply from a registry snapshot: every counter and
/// gauge verbatim, histograms reduced to count/sum/max plus the four summary
/// quantiles. Sections stay name-sorted (the snapshot's order), so identical
/// registries encode byte-identically.
pub(crate) fn metrics_report(snap: &MetricsSnapshot) -> MetricsReport {
    MetricsReport {
        counters: snap
            .counters()
            .iter()
            .map(|&(name, v)| (name.to_string(), v))
            .collect(),
        gauges: snap
            .gauges()
            .iter()
            .map(|&(name, v)| (name.to_string(), v))
            .collect(),
        histograms: snap
            .histograms()
            .iter()
            .map(|(name, bins)| HistogramReport {
                name: name.to_string(),
                count: bins.count(),
                sum: bins.sum(),
                max: bins.max(),
                p50: bins.p50(),
                p90: bins.p90(),
                p99: bins.p99(),
                p999: bins.p999(),
            })
            .collect(),
    }
}

/// Handles one request for the reactor without ever blocking the event loop.
///
/// * Checkouts (and malformed traffic) answer inline — they only clone the
///   epoch snapshot.
/// * Lone checkins are admitted to the ingest queue here, their only entry
///   point; the wait for the applied epoch becomes a [`Response::Pending`]
///   closure on the completion pump. Round submissions run on the pump.
/// * A full queue becomes [`Response::Throttle`]: the payload is parked (the
///   decoded request is handed back by the runtime) and re-admission is
///   probed by the reactor while the connection's reads stay disarmed. The
///   device never sees a Busy reply on this path — it sees a quiet socket.
/// * Batch checkins block on their epochs, so they run wholesale on the pump.
pub(crate) fn handle_event(core: &Arc<ServerCore>, message: Message) -> Response {
    match message {
        Message::CheckinRequest(req) => {
            if !core.tokens.verify(req.device_id, &req.token) {
                return Response::Now(error_reply(
                    ErrorCode::Unauthorized,
                    "unknown device or bad token",
                ));
            }
            note_gradient_encoding(&core.metrics, &req.gradient);
            if req.round_id != 0 {
                // A round submission locks the aggregation core synchronously
                // (and may finalize an epoch when it completes the cohort), so
                // it runs on the completion pump, never the event loop.
                let core = Arc::clone(core);
                return Response::Pending(Box::new(move || core.round_checkin(req)));
            }
            let payload = match payload_of(req) {
                Ok(p) => p,
                Err(reply) => return Response::Now(*reply),
            };
            submit_event(core, payload)
        }
        Message::BatchCheckinRequest(_) => {
            let core = Arc::clone(core);
            Response::Pending(Box::new(move || core.handle_message(message)))
        }
        other => Response::Now(core.handle_message(other)),
    }
}

/// Turns a completion handle into a pump-side reply closure.
fn pending_ack(handle: CompletionHandle) -> Response {
    Response::Pending(Box::new(move || match wait_ack(handle) {
        Ok(ack) => Message::CheckinAck(ack),
        Err(reply) => *reply,
    }))
}

fn submit_event(core: &Arc<ServerCore>, payload: CheckinPayload) -> Response {
    match core.runtime.submit_or_return(payload) {
        Ok(handle) => pending_ack(handle),
        Err(SubmitRejection::Busy {
            payload,
            retry_after_ms,
        }) => {
            // Backpressure: park the decoded payload and let the reactor
            // probe re-admission. The dedup reservation was released by
            // `submit_or_return`, so each probe is admitted fresh.
            let core = Arc::clone(core);
            let mut parked = Some(payload);
            Response::Throttle {
                retry_after_ms,
                retry: Box::new(move || {
                    let payload = parked.take()?;
                    match core.runtime.submit_or_return(payload) {
                        Ok(handle) => Some(pending_ack(handle)),
                        Err(SubmitRejection::Busy { payload, .. }) => {
                            parked = Some(payload);
                            None
                        }
                        Err(SubmitRejection::Refused(e)) => Some(Response::Now(agg_error_reply(e))),
                    }
                }),
            }
        }
        Err(SubmitRejection::Refused(e)) => Response::Now(agg_error_reply(e)),
    }
}

/// Counts a checkin's gradient encoding: quantized uploads bump
/// `quantized_checkins` and credit `quantized_bytes_saved` with the wire bytes
/// the encoding avoided relative to a dense body of the same dimension.
pub(crate) fn note_gradient_encoding(metrics: &Registry, gradient: &GradientPayload) {
    if let GradientPayload::Quantized { levels, .. } = gradient {
        metrics.incr(CounterId::QuantizedCheckins);
        let dense_len = 1 + 4 + 8 * levels.len();
        metrics.add(
            CounterId::QuantizedBytesSaved,
            (dense_len.saturating_sub(gradient.encoded_len())) as u64,
        );
    }
}

/// Converts a decoded checkin into the runtime payload without copying the
/// gradient — a sparse upload stays sparse all the way to the shard
/// accumulators. Re-validation of the sparse structure (the codec already
/// checked it) costs O(nnz) and turns a hand-crafted bad payload into a
/// `BadRequest` reply instead of trusting the transport. The error reply is
/// boxed to keep the happy path's `Result` small.
pub(crate) fn payload_of(req: CheckinRequest) -> std::result::Result<CheckinPayload, Box<Message>> {
    let gradient = match req.gradient {
        GradientPayload::Dense(values) => GradientUpdate::Dense(Vector::from_vec(values)),
        GradientPayload::Sparse {
            dim,
            indices,
            values,
        } => match SparseVector::new(dim as usize, indices, values) {
            Ok(sparse) => GradientUpdate::Sparse(sparse),
            Err(e) => return Err(Box::new(error_reply(ErrorCode::BadRequest, e.to_string()))),
        },
        GradientPayload::Quantized { scale, levels } => {
            match QuantizedVector::from_parts(scale, levels) {
                Ok(q) => GradientUpdate::Quantized(q),
                Err(e) => return Err(Box::new(error_reply(ErrorCode::BadRequest, e.to_string()))),
            }
        }
    };
    Ok(CheckinPayload {
        device_id: req.device_id,
        checkout_iteration: req.checkout_iteration,
        nonce: req.nonce,
        gradient,
        num_samples: req.num_samples as usize,
        error_count: req.error_count,
        label_counts: req.label_counts,
    })
}

pub(crate) fn wait_ack(handle: CompletionHandle) -> std::result::Result<CheckinAck, Box<Message>> {
    match handle.wait_timeout(CHECKIN_WAIT) {
        Ok(outcome) => Ok(CheckinAck {
            accepted: outcome.accepted,
            iteration: outcome.iteration,
            stopped: outcome.stopped,
            deduped: outcome.deduped,
        }),
        Err(e) => Err(Box::new(agg_error_reply(e))),
    }
}

/// Maps a runtime refusal to its wire reply: backpressure becomes `Busy`,
/// everything else an `Error`.
pub(crate) fn agg_error_reply(e: AggError) -> Message {
    match e {
        AggError::Busy { retry_after_ms } => Message::Busy(BusyReply { retry_after_ms }),
        AggError::Invalid(detail) => error_reply(ErrorCode::BadRequest, detail),
        AggError::ShuttingDown => error_reply(ErrorCode::TaskEnded, "server is shutting down"),
        AggError::Timeout => error_reply(ErrorCode::Internal, "epoch application timed out"),
        AggError::BudgetExhausted { device_id } => error_reply(
            ErrorCode::BudgetExhausted,
            format!("device {device_id} has exhausted its privacy budget"),
        ),
        AggError::Core(e) => error_reply(ErrorCode::Internal, e.to_string()),
        AggError::Store(e) => error_reply(ErrorCode::Internal, e.to_string()),
    }
}

/// Collapses a refusal reply into a per-item batch acknowledgement.
pub(crate) fn rejected_ack(reply: &Message) -> BatchAck {
    let reject = match reply {
        Message::Busy(_) => ErrorCode::Busy,
        Message::Error(e) => e.code,
        _ => ErrorCode::Internal,
    };
    BatchAck {
        accepted: false,
        iteration: 0,
        stopped: false,
        deduped: false,
        reject: Some(reject),
    }
}

/// Folds any per-item reply into a batch acknowledgement: a checkin ack (a
/// synchronously resolved round submission) positionally as-is, a refusal via
/// [`rejected_ack`].
pub(crate) fn batch_ack_of(reply: &Message) -> BatchAck {
    match reply {
        Message::CheckinAck(ack) => BatchAck {
            accepted: ack.accepted,
            iteration: ack.iteration,
            stopped: ack.stopped,
            deduped: ack.deduped,
            reject: None,
        },
        _ => rejected_ack(reply),
    }
}

pub(crate) fn error_reply(code: ErrorCode, detail: impl Into<String>) -> Message {
    Message::Error(ErrorReply {
        code,
        detail: detail.into(),
        round_id: 0,
    })
}

/// The refusal for a checkin against a closed round, carrying the server's
/// *current* round id so the stale device can resync without an extra
/// checkout round-trip.
pub(crate) fn round_outdated_reply(current_round: u64) -> Message {
    Message::Error(ErrorReply {
        code: ErrorCode::RoundOutdated,
        detail: format!("round closed; the current round is {current_round}"),
        round_id: current_round,
    })
}

#[cfg(test)]
mod tests {
    //! The request handling above, driven over real TCP through the
    //! [`ReactorServer`](crate::reactor_server::ReactorServer): checkout and
    //! checkin replies, per-item batch acks, typed refusals, and recovery of
    //! the served state after a kill.

    use crate::reactor_server::{ReactorServer, ReactorServerHandle};
    use crowd_core::config::ServerConfig;
    use crowd_learning::MulticlassLogistic;
    use crowd_proto::auth::{AuthToken, TokenRegistry};
    use crowd_proto::frame::{read_message, write_message};
    use crowd_proto::message::{
        BatchCheckinRequest, CheckinAck, CheckinRequest, CheckoutRequest, ErrorCode, ErrorReply,
        GradientPayload, Message,
    };
    use crowd_proto::PROTOCOL_VERSION;
    use crowd_store::testutil::temp_dir;
    use std::net::{SocketAddr, TcpStream};

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

    fn checkout(device_id: u64, version: u16, token: AuthToken) -> Message {
        Message::CheckoutRequest(CheckoutRequest {
            version,
            device_id,
            token,
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

    fn is_refusal(reply: &Message, code: ErrorCode) -> bool {
        matches!(reply, Message::Error(ErrorReply { code: c, .. }) if *c == code)
    }

    #[test]
    fn checkout_round_trip_over_tcp() {
        let (handle, token) = start_test_server();
        let reply = roundtrip(handle.addr(), &checkout(0, PROTOCOL_VERSION, token));
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
        let (handle, token) = start_test_server();
        let bad_token = roundtrip(
            handle.addr(),
            &checkout(0, PROTOCOL_VERSION, AuthToken::derive(0, 12345)),
        );
        assert!(
            is_refusal(&bad_token, ErrorCode::Unauthorized),
            "{bad_token:?}"
        );
        let bad_version = roundtrip(handle.addr(), &checkout(0, 999, token));
        assert!(
            is_refusal(&bad_version, ErrorCode::BadRequest),
            "{bad_version:?}"
        );
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
        assert!(is_refusal(&reply, ErrorCode::BadRequest), "{reply:?}");
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
        let batch = Message::BatchCheckinRequest(BatchCheckinRequest {
            items: vec![
                checkin_item(1, 99, vec![0.1; 12]),
                checkin_item(2, 99, vec![0.5; 3]),
                checkin_item(3, 12345, vec![0.1; 12]),
            ],
        });
        match roundtrip(handle.addr(), &batch) {
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
    fn exhausted_device_is_refused_checkout_and_checkin() {
        let model = MulticlassLogistic::new(4, 3).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(4, 99);
        // Two 0.6-ε checkins cross the 1.0 ceiling.
        let config = ServerConfig::new().with_budget(0.6, 1.0);
        let handle = ReactorServer::start(model, config, tokens).unwrap();
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
            &checkout(1, PROTOCOL_VERSION, AuthToken::derive(1, 99)),
        );
        assert!(is_refusal(&refused_checkout, ErrorCode::BudgetExhausted));
        let refused_checkin = roundtrip(
            handle.addr(),
            &Message::CheckinRequest(checkin_item(1, 99, vec![0.1; 12])),
        );
        assert!(is_refusal(&refused_checkin, ErrorCode::BudgetExhausted));
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
    fn kill_and_restart_recovers_state_over_tcp() {
        let dir = temp_dir("restart");
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
        let reply = roundtrip(
            handle.addr(),
            &checkout(0, PROTOCOL_VERSION, AuthToken::derive(0, 99)),
        );
        assert!(matches!(reply, Message::CheckoutResponse(r) if r.iteration == 3));
        handle.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
