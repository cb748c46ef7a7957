//! Length-prefixed framing over arbitrary byte streams.
//!
//! Each frame is `[len: u32 little-endian][payload: len bytes]` where the payload
//! is an encoded [`crate::Message`]. The reader enforces a maximum frame size so a
//! corrupt or hostile peer cannot force an unbounded allocation.

use crate::codec::{decode, encode_into};
use crate::error::ProtoError;
use crate::message::Message;
use crate::pool::BufPool;
use crate::Result;
use std::io::{Read, Write};

/// Default maximum frame size: large enough for a 1M-parameter gradient
/// (8 MiB of floats) plus headers.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

/// Writes one framed message to `writer`.
pub fn write_message<W: Write>(writer: &mut W, message: &Message) -> Result<()> {
    let mut frame = Vec::with_capacity(64);
    encode_frame(message, &mut frame);
    writer.write_all(&frame)?;
    writer.flush()?;
    Ok(())
}

/// Writes one framed message, encoding into a pooled buffer instead of
/// allocating a fresh one per message.
pub fn write_message_pooled<W: Write>(
    writer: &mut W,
    message: &Message,
    pool: &BufPool,
) -> Result<()> {
    let mut frame = pool.take_empty();
    encode_frame(message, &mut frame);
    writer.write_all(&frame)?;
    writer.flush()?;
    Ok(())
}

/// Encodes `message` as one whole frame into the empty `frame`: the length
/// prefix is reserved at the head and patched in after the payload, so the
/// frame goes out in a single `write_all` (one segment under `TCP_NODELAY`
/// for small frames) instead of a prefix write followed by a payload write.
fn encode_frame(message: &Message, frame: &mut Vec<u8>) {
    frame.extend_from_slice(&[0; 4]);
    encode_into(message, frame);
    let len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&len.to_le_bytes());
}

/// Reads one framed message, filling a pooled buffer instead of allocating a
/// payload-sized `Vec` per message. Enforces `max_frame` bytes.
pub fn read_message_pooled<R: Read>(
    reader: &mut R,
    pool: &BufPool,
    max_frame: usize,
) -> Result<Message> {
    let mut len_buf = [0u8; 4];
    reader.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max_frame {
        return Err(ProtoError::FrameTooLarge {
            declared: len,
            max: max_frame,
        });
    }
    let mut payload = pool.take(len);
    reader.read_exact(&mut payload)?;
    decode(&payload)
}

/// Reads one framed message from `reader`, enforcing `max_frame` bytes.
pub fn read_message_with_limit<R: Read>(reader: &mut R, max_frame: usize) -> Result<Message> {
    let mut len_buf = [0u8; 4];
    reader.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max_frame {
        return Err(ProtoError::FrameTooLarge {
            declared: len,
            max: max_frame,
        });
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    decode(&payload)
}

/// Reads one framed message with the default size limit.
pub fn read_message<R: Read>(reader: &mut R) -> Result<Message> {
    read_message_with_limit(reader, DEFAULT_MAX_FRAME)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::AuthToken;
    use crate::codec::encode;
    use crate::message::{CheckinAck, CheckoutRequest, CheckoutResponse};
    use std::io::Cursor;

    #[test]
    fn write_then_read_round_trip() {
        let messages = vec![
            Message::CheckoutRequest(CheckoutRequest {
                version: 1,
                device_id: 3,
                token: AuthToken::derive(3, 9),
            }),
            Message::CheckoutResponse(CheckoutResponse {
                iteration: 10,
                params: vec![1.0; 500],
                stopped: false,
                round: None,
            }),
            Message::CheckinAck(CheckinAck {
                accepted: true,
                iteration: 11,
                stopped: true,
                deduped: false,
            }),
        ];
        let mut buf = Vec::new();
        for m in &messages {
            write_message(&mut buf, m).unwrap();
        }
        let mut cursor = Cursor::new(buf);
        for m in &messages {
            let read = read_message(&mut cursor).unwrap();
            assert_eq!(&read, m);
        }
        // Stream exhausted: the next read reports an I/O error.
        assert!(matches!(read_message(&mut cursor), Err(ProtoError::Io(_))));
    }

    /// Counts `write` calls, accepting every byte offered.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_leaves_in_one_write_with_unchanged_bytes() {
        let msg = Message::CheckoutResponse(CheckoutResponse {
            iteration: 4,
            params: vec![0.5; 40],
            stopped: false,
            round: None,
        });
        let payload = encode(&msg);
        let mut expected = (payload.len() as u32).to_le_bytes().to_vec();
        expected.extend_from_slice(&payload);
        let pool = BufPool::default();
        for pooled in [false, true] {
            let mut w = CountingWriter::default();
            if pooled {
                write_message_pooled(&mut w, &msg, &pool).unwrap();
            } else {
                write_message(&mut w, &msg).unwrap();
            }
            assert_eq!(w.writes, 1, "pooled = {pooled}");
            assert_eq!(w.bytes, expected, "pooled = {pooled}");
        }
        // A reused pooled buffer starts empty: the second frame is not
        // prefixed by the first.
        let mut w = CountingWriter::default();
        write_message_pooled(&mut w, &msg, &pool).unwrap();
        assert_eq!(w.bytes, expected);
    }

    #[test]
    fn oversized_frame_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = Cursor::new(buf);
        match read_message_with_limit(&mut cursor, 1024) {
            Err(ProtoError::FrameTooLarge { declared, max }) => {
                assert_eq!(declared, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_payload_is_io_error() {
        let msg = Message::CheckinAck(CheckinAck {
            accepted: true,
            iteration: 2,
            stopped: false,
            deduped: false,
        });
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).unwrap();
        buf.truncate(buf.len() - 1);
        let mut cursor = Cursor::new(buf);
        assert!(matches!(read_message(&mut cursor), Err(ProtoError::Io(_))));
    }

    #[test]
    fn corrupt_payload_is_decode_error() {
        let msg = Message::CheckinAck(CheckinAck {
            accepted: true,
            iteration: 2,
            stopped: false,
            deduped: false,
        });
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).unwrap();
        // Corrupt the message tag inside the frame.
        buf[4] = 0xEE;
        let mut cursor = Cursor::new(buf);
        assert!(matches!(
            read_message(&mut cursor),
            Err(ProtoError::UnknownMessageTag(0xEE))
        ));
    }
}
