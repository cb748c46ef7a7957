//! Deterministic binary encoding/decoding of protocol messages.
//!
//! Layout conventions: all integers little-endian; `f64` as IEEE-754 bit patterns;
//! vectors prefixed by a `u32` element count; strings UTF-8 with a `u32` byte
//! length; booleans a single byte. The message itself is `[tag: u8][body]`; the
//! framing layer (`crate::frame`) adds the outer length prefix.

use crate::auth::{AuthToken, TOKEN_LEN};
use crate::error::ProtoError;
use crate::message::{
    BatchAck, BatchCheckinAck, BatchCheckinRequest, BusyReply, CheckinAck, CheckinRequest,
    CheckoutRequest, CheckoutResponse, ErrorCode, ErrorReply, GradientPayload, HistogramReport,
    Message, MetricsReport, MetricsRequest, RoundParams,
};
use crate::Result;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Maximum number of elements accepted in any decoded vector (gradients, label
/// counts). Prevents a malicious length prefix from triggering a huge allocation.
pub const MAX_VEC_LEN: usize = 16 * 1024 * 1024;

/// Maximum number of checkins accepted in one batch frame. Each item embeds a
/// gradient, so the cap keeps a single frame's decode cost bounded.
pub const MAX_BATCH_ITEMS: usize = 4096;

/// Fewest bytes one encoded batch item can take: the fixed checkin header
/// (device id, token, checkout iteration, nonce, round id, sample and error
/// counts), an empty dense gradient (encoding tag + count) and an empty
/// label-count vector.
const MIN_CHECKIN_BYTES: usize = 8 + TOKEN_LEN + 8 + 8 + 8 + 4 + 8 + (1 + 4) + 4;
/// Bytes of one encoded batch ack (accepted, iteration, stopped, deduped,
/// reject code).
const BATCH_ACK_BYTES: usize = 1 + 8 + 1 + 1 + 1;
/// Fewest bytes of one encoded counter or gauge: an empty name and the value.
const MIN_NAMED_VALUE_BYTES: usize = 4 + 8;
/// Fewest bytes of one encoded histogram: an empty name and seven `u64`s.
const MIN_HISTOGRAM_BYTES: usize = 4 + 7 * 8;

/// Wire tag for a dense gradient encoding inside a checkin.
const GRADIENT_DENSE: u8 = 0;
/// Wire tag for a sparse (indices + values) gradient encoding.
const GRADIENT_SPARSE: u8 = 1;
/// Wire tag for a quantized (shared scale + `i16` levels) gradient encoding
/// (wire v5).
const GRADIENT_QUANTIZED: u8 = 2;

/// Encodes a message into a standalone byte buffer (without the frame length
/// prefix).
pub fn encode(message: &Message) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    encode_into(message, &mut buf);
    buf.freeze()
}

/// Encodes a message into a caller-provided buffer (without the frame length
/// prefix), appending to whatever it already holds. Reusing one buffer across
/// messages keeps the steady-state encode path allocation-free.
pub fn encode_into<B: BufMut>(message: &Message, buf: &mut B) {
    buf.put_u8(message.tag());
    match message {
        Message::CheckoutRequest(m) => {
            buf.put_u16_le(m.version);
            buf.put_u64_le(m.device_id);
            buf.put_slice(m.token.as_bytes());
        }
        Message::CheckoutResponse(m) => {
            buf.put_u64_le(m.iteration);
            put_bool(buf, m.stopped);
            put_f64_vec(buf, &m.params);
            match &m.round {
                None => buf.put_u8(0),
                Some(r) => {
                    buf.put_u8(1);
                    buf.put_u64_le(r.round_id);
                    buf.put_u64_le(r.seed);
                    buf.put_f64_le(r.select_fraction);
                    buf.put_u32_le(r.deadline_epochs);
                    buf.put_u64_le(r.population);
                }
            }
        }
        Message::CheckinRequest(m) => {
            put_checkin(buf, m);
        }
        Message::CheckinAck(m) => {
            put_bool(buf, m.accepted);
            buf.put_u64_le(m.iteration);
            put_bool(buf, m.stopped);
            put_bool(buf, m.deduped);
        }
        Message::Error(m) => {
            buf.put_u8(m.code.as_u8());
            put_string(buf, &m.detail);
            buf.put_u64_le(m.round_id);
        }
        Message::BatchCheckinRequest(m) => {
            buf.put_u32_le(m.items.len() as u32);
            for item in &m.items {
                put_checkin(buf, item);
            }
        }
        Message::BatchCheckinAck(m) => {
            buf.put_u32_le(m.acks.len() as u32);
            for ack in &m.acks {
                put_bool(buf, ack.accepted);
                buf.put_u64_le(ack.iteration);
                put_bool(buf, ack.stopped);
                put_bool(buf, ack.deduped);
                // 0 = processed normally, otherwise the refusing error code.
                buf.put_u8(ack.reject.map_or(0, ErrorCode::as_u8));
            }
        }
        Message::Busy(m) => {
            buf.put_u32_le(m.retry_after_ms);
        }
        Message::MetricsRequest(m) => {
            buf.put_u16_le(m.version);
            buf.put_u64_le(m.device_id);
            buf.put_slice(m.token.as_bytes());
        }
        Message::MetricsReport(m) => {
            buf.put_u32_le(m.counters.len() as u32);
            for (name, value) in &m.counters {
                put_string(buf, name);
                buf.put_u64_le(*value);
            }
            buf.put_u32_le(m.gauges.len() as u32);
            for (name, value) in &m.gauges {
                put_string(buf, name);
                buf.put_i64_le(*value);
            }
            buf.put_u32_le(m.histograms.len() as u32);
            for h in &m.histograms {
                put_string(buf, &h.name);
                buf.put_u64_le(h.count);
                buf.put_u64_le(h.sum);
                buf.put_u64_le(h.max);
                buf.put_u64_le(h.p50);
                buf.put_u64_le(h.p90);
                buf.put_u64_le(h.p99);
                buf.put_u64_le(h.p999);
            }
        }
    }
}

/// Decodes a message from a byte buffer produced by [`encode`].
pub fn decode(mut buf: &[u8]) -> Result<Message> {
    let tag = get_u8(&mut buf, "message tag")?;
    let message = match tag {
        1 => {
            let version = get_u16(&mut buf, "version")?;
            let device_id = get_u64(&mut buf, "device_id")?;
            let token = get_token(&mut buf)?;
            Message::CheckoutRequest(CheckoutRequest {
                version,
                device_id,
                token,
            })
        }
        2 => {
            let iteration = get_u64(&mut buf, "iteration")?;
            let stopped = get_bool(&mut buf, "stopped")?;
            let params = get_f64_vec(&mut buf, "params")?;
            let round = match get_u8(&mut buf, "round presence")? {
                0 => None,
                1 => {
                    let round_id = get_u64(&mut buf, "round_id")?;
                    let seed = get_u64(&mut buf, "round seed")?;
                    ensure(buf, 8, "select_fraction")?;
                    let select_fraction = buf.get_f64_le();
                    if !(select_fraction.is_finite()
                        && select_fraction > 0.0
                        && select_fraction <= 1.0)
                    {
                        return Err(ProtoError::InvalidField {
                            field: "select_fraction",
                            reason: format!("{select_fraction} outside (0, 1]"),
                        });
                    }
                    let deadline_epochs = get_u32(&mut buf, "deadline_epochs")?;
                    let population = get_u64(&mut buf, "round population")?;
                    Some(RoundParams {
                        round_id,
                        seed,
                        select_fraction,
                        deadline_epochs,
                        population,
                    })
                }
                other => {
                    return Err(ProtoError::InvalidField {
                        field: "round presence",
                        reason: format!("expected 0 or 1, got {other}"),
                    })
                }
            };
            Message::CheckoutResponse(CheckoutResponse {
                iteration,
                params,
                stopped,
                round,
            })
        }
        3 => Message::CheckinRequest(get_checkin(&mut buf)?),
        4 => {
            let accepted = get_bool(&mut buf, "accepted")?;
            let iteration = get_u64(&mut buf, "iteration")?;
            let stopped = get_bool(&mut buf, "stopped")?;
            let deduped = get_bool(&mut buf, "deduped")?;
            Message::CheckinAck(CheckinAck {
                accepted,
                iteration,
                stopped,
                deduped,
            })
        }
        5 => {
            let raw_code = get_u8(&mut buf, "error code")?;
            let code = ErrorCode::from_u8(raw_code).ok_or(ProtoError::InvalidField {
                field: "error_code",
                reason: format!("unknown code {raw_code}"),
            })?;
            let detail = get_string(&mut buf, "detail")?;
            let round_id = get_u64(&mut buf, "error round_id")?;
            Message::Error(ErrorReply {
                code,
                detail,
                round_id,
            })
        }
        6 => {
            let count = get_batch_len(&mut buf, "batch items")?;
            let mut items = Vec::with_capacity(capacity_for(count, buf, MIN_CHECKIN_BYTES));
            for _ in 0..count {
                items.push(get_checkin(&mut buf)?);
            }
            Message::BatchCheckinRequest(BatchCheckinRequest { items })
        }
        7 => {
            let count = get_batch_len(&mut buf, "batch acks")?;
            let mut acks = Vec::with_capacity(capacity_for(count, buf, BATCH_ACK_BYTES));
            for _ in 0..count {
                let accepted = get_bool(&mut buf, "accepted")?;
                let iteration = get_u64(&mut buf, "iteration")?;
                let stopped = get_bool(&mut buf, "stopped")?;
                let deduped = get_bool(&mut buf, "deduped")?;
                let raw_reject = get_u8(&mut buf, "reject code")?;
                let reject = if raw_reject == 0 {
                    None
                } else {
                    Some(
                        ErrorCode::from_u8(raw_reject).ok_or(ProtoError::InvalidField {
                            field: "reject_code",
                            reason: format!("unknown code {raw_reject}"),
                        })?,
                    )
                };
                acks.push(BatchAck {
                    accepted,
                    iteration,
                    stopped,
                    deduped,
                    reject,
                });
            }
            Message::BatchCheckinAck(BatchCheckinAck { acks })
        }
        8 => {
            let retry_after_ms = get_u32(&mut buf, "retry_after_ms")?;
            Message::Busy(BusyReply { retry_after_ms })
        }
        9 => {
            let version = get_u16(&mut buf, "version")?;
            let device_id = get_u64(&mut buf, "device_id")?;
            let token = get_token(&mut buf)?;
            Message::MetricsRequest(MetricsRequest {
                version,
                device_id,
                token,
            })
        }
        10 => {
            let count = get_batch_len(&mut buf, "metric counters")?;
            let mut counters = Vec::with_capacity(capacity_for(count, buf, MIN_NAMED_VALUE_BYTES));
            for _ in 0..count {
                let name = get_string(&mut buf, "counter name")?;
                let value = get_u64(&mut buf, "counter value")?;
                counters.push((name, value));
            }
            let count = get_batch_len(&mut buf, "metric gauges")?;
            let mut gauges = Vec::with_capacity(capacity_for(count, buf, MIN_NAMED_VALUE_BYTES));
            for _ in 0..count {
                let name = get_string(&mut buf, "gauge name")?;
                let value = get_i64(&mut buf, "gauge value")?;
                gauges.push((name, value));
            }
            let count = get_batch_len(&mut buf, "metric histograms")?;
            let mut histograms = Vec::with_capacity(capacity_for(count, buf, MIN_HISTOGRAM_BYTES));
            for _ in 0..count {
                let name = get_string(&mut buf, "histogram name")?;
                ensure(buf, 7 * 8, "histogram stats")?;
                histograms.push(HistogramReport {
                    name,
                    count: buf.get_u64_le(),
                    sum: buf.get_u64_le(),
                    max: buf.get_u64_le(),
                    p50: buf.get_u64_le(),
                    p90: buf.get_u64_le(),
                    p99: buf.get_u64_le(),
                    p999: buf.get_u64_le(),
                });
            }
            Message::MetricsReport(MetricsReport {
                counters,
                gauges,
                histograms,
            })
        }
        other => return Err(ProtoError::UnknownMessageTag(other)),
    };
    if !buf.is_empty() {
        return Err(ProtoError::InvalidField {
            field: "message",
            reason: format!("{} trailing bytes after decoding", buf.len()),
        });
    }
    Ok(message)
}

fn put_checkin<B: BufMut>(buf: &mut B, m: &CheckinRequest) {
    buf.put_u64_le(m.device_id);
    buf.put_slice(m.token.as_bytes());
    buf.put_u64_le(m.checkout_iteration);
    buf.put_u64_le(m.nonce);
    buf.put_u64_le(m.round_id);
    buf.put_u32_le(m.num_samples);
    buf.put_i64_le(m.error_count);
    put_gradient(buf, &m.gradient);
    put_i64_vec(buf, &m.label_counts);
}

fn put_gradient<B: BufMut>(buf: &mut B, gradient: &GradientPayload) {
    match gradient {
        GradientPayload::Dense(values) => {
            buf.put_u8(GRADIENT_DENSE);
            put_f64_vec(buf, values);
        }
        GradientPayload::Sparse {
            dim,
            indices,
            values,
        } => {
            buf.put_u8(GRADIENT_SPARSE);
            buf.put_u32_le(*dim);
            buf.put_u32_le(indices.len() as u32);
            for &i in indices {
                buf.put_u32_le(i);
            }
            buf.put_f64_slice_le(values);
        }
        GradientPayload::Quantized { scale, levels } => {
            buf.put_u8(GRADIENT_QUANTIZED);
            buf.put_u32_le(levels.len() as u32);
            buf.put_f64_le(*scale);
            buf.put_i16_slice_le(levels);
        }
    }
}

fn get_gradient(buf: &mut &[u8]) -> Result<GradientPayload> {
    match get_u8(buf, "gradient encoding")? {
        GRADIENT_DENSE => Ok(GradientPayload::Dense(get_f64_vec(buf, "gradient")?)),
        GRADIENT_SPARSE => {
            let dim = get_u32(buf, "gradient dim")? as usize;
            if dim > MAX_VEC_LEN {
                return Err(ProtoError::InvalidField {
                    field: "gradient dim",
                    reason: format!("declared dimension {dim} exceeds maximum {MAX_VEC_LEN}"),
                });
            }
            let nnz = get_u32(buf, "gradient nnz")? as usize;
            if nnz > dim {
                return Err(ProtoError::InvalidField {
                    field: "gradient nnz",
                    reason: format!("{nnz} stored coordinates exceed dimension {dim}"),
                });
            }
            ensure(buf, nnz * 4, "gradient indices")?;
            let mut indices = Vec::with_capacity(nnz);
            let mut prev: Option<u32> = None;
            for _ in 0..nnz {
                let i = buf.get_u32_le();
                if i as usize >= dim || prev.is_some_and(|p| i <= p) {
                    return Err(ProtoError::InvalidField {
                        field: "gradient indices",
                        reason: format!("index {i} out of order or out of range for {dim}"),
                    });
                }
                prev = Some(i);
                indices.push(i);
            }
            ensure(buf, nnz * 8, "gradient values")?;
            let values = (0..nnz).map(|_| buf.get_f64_le()).collect();
            Ok(GradientPayload::Sparse {
                dim: dim as u32,
                indices,
                values,
            })
        }
        GRADIENT_QUANTIZED => {
            let dim = get_vec_len(buf, "quantized gradient")?;
            ensure(buf, 8, "quantized scale")?;
            let scale = buf.get_f64_le();
            // The scale multiplies every reconstructed coordinate; a NaN,
            // infinite, or negative scale would poison the whole aggregate.
            if !scale.is_finite() || scale < 0.0 {
                return Err(ProtoError::InvalidField {
                    field: "quantized scale",
                    reason: format!("scale {scale} is not finite and non-negative"),
                });
            }
            ensure(buf, dim * 2, "quantized levels")?;
            let levels = (0..dim).map(|_| buf.get_i16_le()).collect();
            Ok(GradientPayload::Quantized { scale, levels })
        }
        other => Err(ProtoError::InvalidField {
            field: "gradient encoding",
            reason: format!("unknown encoding {other}"),
        }),
    }
}

fn get_checkin(buf: &mut &[u8]) -> Result<CheckinRequest> {
    let device_id = get_u64(buf, "device_id")?;
    let token = get_token(buf)?;
    let checkout_iteration = get_u64(buf, "checkout_iteration")?;
    let nonce = get_u64(buf, "nonce")?;
    let round_id = get_u64(buf, "round_id")?;
    let num_samples = get_u32(buf, "num_samples")?;
    let error_count = get_i64(buf, "error_count")?;
    let gradient = get_gradient(buf)?;
    let label_counts = get_i64_vec(buf, "label_counts")?;
    Ok(CheckinRequest {
        device_id,
        token,
        checkout_iteration,
        nonce,
        round_id,
        gradient,
        num_samples,
        error_count,
        label_counts,
    })
}

fn get_batch_len(buf: &mut &[u8], context: &'static str) -> Result<usize> {
    let len = get_u32(buf, context)? as usize;
    if len > MAX_BATCH_ITEMS {
        return Err(ProtoError::InvalidField {
            field: context,
            reason: format!("declared batch size {len} exceeds maximum {MAX_BATCH_ITEMS}"),
        });
    }
    Ok(len)
}

/// Capacity to reserve for `count` declared elements of at least
/// `min_bytes` each: no more than the rest of the frame can hold, so a short
/// frame with a large declared count cannot force a large allocation.
fn capacity_for(count: usize, buf: &[u8], min_bytes: usize) -> usize {
    count.min(buf.len() / min_bytes)
}

fn put_bool<B: BufMut>(buf: &mut B, value: bool) {
    buf.put_u8(u8::from(value));
}

fn put_f64_vec<B: BufMut>(buf: &mut B, values: &[f64]) {
    buf.put_u32_le(values.len() as u32);
    buf.put_f64_slice_le(values);
}

fn put_i64_vec<B: BufMut>(buf: &mut B, values: &[i64]) {
    buf.put_u32_le(values.len() as u32);
    for &v in values {
        buf.put_i64_le(v);
    }
}

fn put_string<B: BufMut>(buf: &mut B, value: &str) {
    buf.put_u32_le(value.len() as u32);
    buf.put_slice(value.as_bytes());
}

fn ensure(buf: &[u8], needed: usize, context: &'static str) -> Result<()> {
    if buf.remaining() < needed {
        Err(ProtoError::Truncated { context })
    } else {
        Ok(())
    }
}

fn get_u8(buf: &mut &[u8], context: &'static str) -> Result<u8> {
    ensure(buf, 1, context)?;
    Ok(buf.get_u8())
}

fn get_u16(buf: &mut &[u8], context: &'static str) -> Result<u16> {
    ensure(buf, 2, context)?;
    Ok(buf.get_u16_le())
}

fn get_u32(buf: &mut &[u8], context: &'static str) -> Result<u32> {
    ensure(buf, 4, context)?;
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut &[u8], context: &'static str) -> Result<u64> {
    ensure(buf, 8, context)?;
    Ok(buf.get_u64_le())
}

fn get_i64(buf: &mut &[u8], context: &'static str) -> Result<i64> {
    ensure(buf, 8, context)?;
    Ok(buf.get_i64_le())
}

fn get_bool(buf: &mut &[u8], context: &'static str) -> Result<bool> {
    Ok(get_u8(buf, context)? != 0)
}

fn get_token(buf: &mut &[u8]) -> Result<AuthToken> {
    ensure(buf, TOKEN_LEN, "auth token")?;
    let mut raw = [0u8; TOKEN_LEN];
    buf.copy_to_slice(&mut raw);
    Ok(AuthToken::from_bytes(raw))
}

fn get_vec_len(buf: &mut &[u8], context: &'static str) -> Result<usize> {
    let len = get_u32(buf, context)? as usize;
    if len > MAX_VEC_LEN {
        return Err(ProtoError::InvalidField {
            field: context,
            reason: format!("declared length {len} exceeds maximum {MAX_VEC_LEN}"),
        });
    }
    Ok(len)
}

fn get_f64_vec(buf: &mut &[u8], context: &'static str) -> Result<Vec<f64>> {
    let len = get_vec_len(buf, context)?;
    ensure(buf, len * 8, context)?;
    Ok((0..len).map(|_| buf.get_f64_le()).collect())
}

fn get_i64_vec(buf: &mut &[u8], context: &'static str) -> Result<Vec<i64>> {
    let len = get_vec_len(buf, context)?;
    ensure(buf, len * 8, context)?;
    Ok((0..len).map(|_| buf.get_i64_le()).collect())
}

fn get_string(buf: &mut &[u8], context: &'static str) -> Result<String> {
    let len = get_vec_len(buf, context)?;
    ensure(buf, len, context)?;
    // Validate in place and copy once, straight from the frame slice — no
    // intermediate Vec<u8>.
    let s = std::str::from_utf8(&buf[..len]).map_err(|e| ProtoError::InvalidField {
        field: context,
        reason: format!("invalid UTF-8: {e}"),
    })?;
    let owned = s.to_owned();
    buf.advance(len);
    Ok(owned)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::CheckoutRequest(CheckoutRequest {
                version: 1,
                device_id: 42,
                token: AuthToken::derive(42, 7),
            }),
            Message::CheckoutResponse(CheckoutResponse {
                iteration: 1234,
                params: vec![0.5, -1.25, 3.75, f64::MIN_POSITIVE],
                stopped: true,
                round: None,
            }),
            Message::CheckoutResponse(CheckoutResponse {
                iteration: 77,
                params: vec![1.0, 2.0],
                stopped: false,
                round: Some(RoundParams {
                    round_id: 3,
                    seed: 0xDEAD_BEEF,
                    select_fraction: 0.5,
                    deadline_epochs: 12,
                    population: 64,
                }),
            }),
            Message::CheckinRequest(CheckinRequest {
                device_id: 9,
                token: AuthToken::derive(9, 7),
                checkout_iteration: 55,
                nonce: 155,
                round_id: 0,
                gradient: GradientPayload::Dense(vec![1e-9, -2.5, 0.0]),
                num_samples: 20,
                error_count: -3,
                label_counts: vec![5, -1, 0, 16],
            }),
            Message::CheckinRequest(CheckinRequest {
                device_id: 10,
                token: AuthToken::derive(10, 7),
                checkout_iteration: 56,
                nonce: 156,
                round_id: 0,
                gradient: GradientPayload::Sparse {
                    dim: 100,
                    indices: vec![0, 7, 99],
                    values: vec![0.5, -1.25, 1e-12],
                },
                num_samples: 4,
                error_count: 0,
                label_counts: vec![2, 2],
            }),
            Message::CheckinRequest(CheckinRequest {
                device_id: 11,
                token: AuthToken::derive(11, 7),
                checkout_iteration: 57,
                nonce: 157,
                round_id: 0,
                gradient: GradientPayload::Quantized {
                    scale: 3.5e-5,
                    levels: vec![0, -1, 32767, -32768, 12],
                },
                num_samples: 8,
                error_count: 2,
                label_counts: vec![4, 4],
            }),
            Message::CheckinRequest(CheckinRequest {
                device_id: 12,
                token: AuthToken::derive(12, 7),
                checkout_iteration: 58,
                nonce: 158,
                round_id: 3,
                gradient: GradientPayload::Dense(vec![0.5, -0.0, f64::MIN_POSITIVE]),
                num_samples: 16,
                error_count: 1,
                label_counts: vec![8, 8],
            }),
            Message::CheckinAck(CheckinAck {
                accepted: true,
                iteration: 56,
                stopped: false,
                deduped: true,
            }),
            Message::Error(ErrorReply {
                code: ErrorCode::Unauthorized,
                detail: "bad token".into(),
                round_id: 0,
            }),
            Message::Error(ErrorReply {
                code: ErrorCode::RoundOutdated,
                detail: "round 3 closed".into(),
                round_id: 4,
            }),
            Message::BatchCheckinRequest(BatchCheckinRequest {
                items: vec![
                    CheckinRequest {
                        device_id: 1,
                        token: AuthToken::derive(1, 7),
                        checkout_iteration: 3,
                        nonce: 103,
                        round_id: 0,
                        gradient: GradientPayload::Dense(vec![0.25, -0.5]),
                        num_samples: 4,
                        error_count: 1,
                        label_counts: vec![2, 2],
                    },
                    CheckinRequest {
                        device_id: 2,
                        token: AuthToken::derive(2, 7),
                        checkout_iteration: 3,
                        nonce: 103,
                        round_id: 0,
                        gradient: GradientPayload::Sparse {
                            dim: 8,
                            indices: vec![3],
                            values: vec![2.0],
                        },
                        num_samples: 1,
                        error_count: -1,
                        label_counts: vec![],
                    },
                ],
            }),
            Message::BatchCheckinAck(BatchCheckinAck {
                acks: vec![
                    BatchAck {
                        accepted: true,
                        iteration: 4,
                        stopped: false,
                        deduped: false,
                        reject: None,
                    },
                    BatchAck {
                        accepted: false,
                        iteration: 4,
                        stopped: true,
                        deduped: true,
                        reject: Some(ErrorCode::Unauthorized),
                    },
                ],
            }),
            Message::Busy(BusyReply { retry_after_ms: 25 }),
            Message::MetricsRequest(MetricsRequest {
                version: 4,
                device_id: 3,
                token: AuthToken::derive(3, 7),
            }),
            Message::MetricsReport(MetricsReport {
                counters: vec![("checkins_applied".into(), 64), ("dedup_replays".into(), 2)],
                gauges: vec![("queue_depth".into(), -1), ("conns_active".into(), 7)],
                histograms: vec![HistogramReport {
                    name: "req_checkin_us".into(),
                    count: 64,
                    sum: 1024,
                    max: 200,
                    p50: 15,
                    p90: 31,
                    p99: 255,
                    p999: 255,
                }],
            }),
        ]
    }

    #[test]
    fn round_trip_all_message_types() {
        for msg in sample_messages() {
            let encoded = encode(&msg);
            let decoded = decode(&encoded).unwrap();
            assert_eq!(decoded, msg, "round trip failed for {}", msg.name());
        }
    }

    #[test]
    fn empty_vectors_round_trip() {
        let msg = Message::CheckoutResponse(CheckoutResponse {
            iteration: 0,
            params: vec![],
            stopped: false,
            round: None,
        });
        assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            decode(&[0xFFu8]),
            Err(ProtoError::UnknownMessageTag(0xFF))
        ));
        assert!(matches!(decode(&[]), Err(ProtoError::Truncated { .. })));
    }

    #[test]
    fn truncated_buffers_rejected() {
        for msg in sample_messages() {
            let encoded = encode(&msg);
            // Every strict prefix must fail cleanly, never panic.
            for cut in 0..encoded.len() {
                assert!(
                    decode(&encoded[..cut]).is_err(),
                    "prefix of length {cut} of {} unexpectedly decoded",
                    msg.name()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let msg = Message::CheckinAck(CheckinAck {
            accepted: false,
            iteration: 1,
            stopped: false,
            deduped: false,
        });
        let mut bytes = encode(&msg).to_vec();
        bytes.push(0);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn oversized_vector_length_rejected() {
        // Craft a checkout response that declares a gigantic parameter vector.
        let mut buf = BytesMut::new();
        buf.put_u8(2);
        buf.put_u64_le(0);
        buf.put_u8(0);
        buf.put_u32_le(u32::MAX);
        assert!(matches!(
            decode(&buf),
            Err(ProtoError::InvalidField {
                field: "params",
                ..
            })
        ));
    }

    #[test]
    fn empty_batch_round_trips() {
        let req = Message::BatchCheckinRequest(BatchCheckinRequest { items: vec![] });
        assert_eq!(decode(&encode(&req)).unwrap(), req);
        let ack = Message::BatchCheckinAck(BatchCheckinAck { acks: vec![] });
        assert_eq!(decode(&encode(&ack)).unwrap(), ack);
    }

    /// The per-element minimums behind the capacity caps are exact: the
    /// smallest encodable element takes exactly that many bytes.
    #[test]
    fn capacity_minimums_match_the_smallest_encodings() {
        let item = CheckinRequest {
            device_id: 0,
            token: AuthToken::derive(0, 0),
            checkout_iteration: 0,
            nonce: 0,
            round_id: 0,
            gradient: GradientPayload::Dense(vec![]),
            num_samples: 0,
            error_count: 0,
            label_counts: vec![],
        };
        let batch = Message::BatchCheckinRequest(BatchCheckinRequest { items: vec![item] });
        assert_eq!(encode(&batch).len(), 1 + 4 + MIN_CHECKIN_BYTES);
        let ack = BatchAck {
            accepted: true,
            iteration: 0,
            stopped: false,
            deduped: false,
            reject: None,
        };
        let acks = Message::BatchCheckinAck(BatchCheckinAck { acks: vec![ack] });
        assert_eq!(encode(&acks).len(), 1 + 4 + BATCH_ACK_BYTES);
        let report = |counters, histograms| {
            encode(&Message::MetricsReport(MetricsReport {
                counters,
                gauges: vec![],
                histograms,
            }))
            .len()
        };
        let empty = report(vec![], vec![]);
        assert_eq!(
            report(vec![(String::new(), 1)], vec![]),
            empty + MIN_NAMED_VALUE_BYTES
        );
        let histogram = HistogramReport {
            name: String::new(),
            count: 0,
            sum: 0,
            max: 0,
            p50: 0,
            p90: 0,
            p99: 0,
            p999: 0,
        };
        assert_eq!(report(vec![], vec![histogram]), empty + MIN_HISTOGRAM_BYTES);
    }

    #[test]
    fn declared_counts_reserve_no_more_than_the_frame_holds() {
        // 4096 declared items in a 5-byte frame: no room for even one.
        let buf = [6u8, 0x00, 0x10, 0x00, 0x00];
        assert_eq!(capacity_for(4096, &buf[5..], MIN_CHECKIN_BYTES), 0);
        assert!(matches!(decode(&buf), Err(ProtoError::Truncated { .. })));
        let room = vec![0u8; 3 * MIN_CHECKIN_BYTES + 1];
        assert_eq!(capacity_for(4096, &room, MIN_CHECKIN_BYTES), 3);
        assert_eq!(capacity_for(2, &room, MIN_CHECKIN_BYTES), 2);
    }

    #[test]
    fn oversized_batch_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(6);
        buf.put_u32_le((MAX_BATCH_ITEMS + 1) as u32);
        assert!(matches!(
            decode(&buf),
            Err(ProtoError::InvalidField {
                field: "batch items",
                ..
            })
        ));
    }

    #[test]
    fn invalid_batch_reject_code_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u32_le(1);
        buf.put_u8(1); // accepted
        buf.put_u64_le(0); // iteration
        buf.put_u8(0); // stopped
        buf.put_u8(200); // unknown reject code
        assert!(decode(&buf).is_err());
    }

    #[test]
    fn invalid_error_code_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(5);
        buf.put_u8(200);
        buf.put_u32_le(0);
        assert!(decode(&buf).is_err());
    }

    fn checkin_with(gradient: GradientPayload) -> Message {
        Message::CheckinRequest(CheckinRequest {
            device_id: 1,
            token: AuthToken::derive(1, 7),
            checkout_iteration: 0,
            nonce: 0,
            round_id: 0,
            gradient,
            num_samples: 1,
            error_count: 0,
            label_counts: vec![1],
        })
    }

    /// Satellite guarantee: a 99%-zero gradient is smaller on the wire when
    /// encoded sparsely than densely.
    #[test]
    fn sparse_encoding_of_mostly_zero_gradient_is_smaller_on_the_wire() {
        let dim = 10_000;
        let mut dense = vec![0.0; dim];
        for i in (0..dim).step_by(100) {
            dense[i] = 0.1; // 1% non-zero
        }
        let dense_bytes = encode(&checkin_with(GradientPayload::Dense(dense.clone()))).len();
        let auto = GradientPayload::from_dense_auto(dense);
        assert!(matches!(auto, GradientPayload::Sparse { .. }));
        let sparse_bytes = encode(&checkin_with(auto)).len();
        assert!(
            sparse_bytes * 10 < dense_bytes,
            "sparse {sparse_bytes} B should be far below dense {dense_bytes} B"
        );
    }

    #[test]
    fn malformed_sparse_gradients_rejected() {
        let cases = [
            // Unknown encoding byte is exercised via a corrupted frame below;
            // these are structurally invalid sparse payloads.
            GradientPayload::Sparse {
                dim: 4,
                indices: vec![0, 4],
                values: vec![1.0, 2.0],
            }, // index out of range
            GradientPayload::Sparse {
                dim: 4,
                indices: vec![2, 1],
                values: vec![1.0, 2.0],
            }, // out of order
            GradientPayload::Sparse {
                dim: 4,
                indices: vec![2, 2],
                values: vec![1.0, 2.0],
            }, // duplicate
        ];
        for gradient in cases {
            let bytes = encode(&checkin_with(gradient));
            assert!(decode(&bytes).is_err(), "invalid sparse payload decoded");
        }
        // An unknown gradient-encoding byte is rejected.
        let mut bytes = encode(&checkin_with(GradientPayload::Dense(vec![]))).to_vec();
        // The encoding byte sits right after the fixed checkin header
        // (tag, device_id, token, checkout_iteration, nonce, round_id,
        // num_samples, error_count).
        let offset = 1 + 8 + TOKEN_LEN + 8 + 8 + 8 + 4 + 8;
        assert_eq!(bytes[offset], 0);
        bytes[offset] = 9;
        assert!(decode(&bytes).is_err());
    }

    /// Tentpole guarantee (wire v5): a quantized checkin body is at least 2×
    /// smaller than the dense encoding of the same gradient.
    #[test]
    fn quantized_encoding_is_at_least_twice_as_small_on_the_wire() {
        let dim = 5000;
        let dense_bytes = encode(&checkin_with(GradientPayload::Dense(vec![0.25; dim]))).len();
        let quantized_bytes = encode(&checkin_with(GradientPayload::Quantized {
            scale: 0.25 / 32767.0,
            levels: vec![32767; dim],
        }))
        .len();
        assert!(
            quantized_bytes * 2 < dense_bytes,
            "quantized {quantized_bytes} B should be under half of dense {dense_bytes} B"
        );
    }

    #[test]
    fn malformed_quantized_scale_rejected() {
        for bad_scale in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let bytes = encode(&checkin_with(GradientPayload::Quantized {
                scale: bad_scale,
                levels: vec![1, 2, 3],
            }));
            assert!(
                decode(&bytes).is_err(),
                "scale {bad_scale} unexpectedly decoded"
            );
        }
        // A zero scale (all-zero gradient) is legitimate.
        let bytes = encode(&checkin_with(GradientPayload::Quantized {
            scale: 0.0,
            levels: vec![0, 0],
        }));
        assert!(decode(&bytes).is_ok());
    }

    #[test]
    fn oversized_quantized_dim_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(3); // checkin tag
        buf.put_u64_le(1);
        buf.put_slice(AuthToken::derive(1, 7).as_bytes());
        buf.put_u64_le(0); // checkout_iteration
        buf.put_u64_le(0); // nonce
        buf.put_u64_le(0); // round_id
        buf.put_u32_le(1);
        buf.put_i64_le(0);
        buf.put_u8(2); // quantized encoding
        buf.put_u32_le(u32::MAX); // dim beyond MAX_VEC_LEN
        assert!(matches!(
            decode(&buf),
            Err(ProtoError::InvalidField {
                field: "quantized gradient",
                ..
            })
        ));
    }

    #[test]
    fn oversized_sparse_nnz_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(3); // checkin tag
        buf.put_u64_le(1);
        buf.put_slice(AuthToken::derive(1, 7).as_bytes());
        buf.put_u64_le(0); // checkout_iteration
        buf.put_u64_le(0); // nonce
        buf.put_u64_le(0); // round_id
        buf.put_u32_le(1);
        buf.put_i64_le(0);
        buf.put_u8(1); // sparse encoding
        buf.put_u32_le(8); // dim
        buf.put_u32_le(9); // nnz > dim
        assert!(matches!(
            decode(&buf),
            Err(ProtoError::InvalidField {
                field: "gradient nnz",
                ..
            })
        ));
    }

    #[test]
    fn encode_into_reused_buffer_matches_encode() {
        let mut scratch = Vec::new();
        for msg in sample_messages() {
            scratch.clear();
            encode_into(&msg, &mut scratch);
            assert_eq!(&scratch[..], &encode(&msg)[..]);
        }
    }

    #[test]
    fn special_float_values_survive() {
        let msg = Message::CheckoutResponse(CheckoutResponse {
            iteration: 7,
            params: vec![f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 1e300],
            stopped: false,
            round: None,
        });
        let decoded = decode(&encode(&msg)).unwrap();
        if let Message::CheckoutResponse(r) = decoded {
            assert_eq!(r.params[0], f64::INFINITY);
            assert_eq!(r.params[1], f64::NEG_INFINITY);
            assert_eq!(r.params[4], 1e300);
        } else {
            panic!("wrong variant");
        }
    }
}
