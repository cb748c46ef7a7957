//! One persistent device connection speaking the `crowd_proto` frame format:
//! `[len: u32 LE][codec payload]`, request then reply.
//!
//! Each call is split at the layer boundaries the trace reports: the codec
//! encode, the socket exchange (write until the reply frame is read), and
//! the codec decode.

use crate::inputs::TOKEN_SECRET;
use crowd_net::DeviceClient;
use crowd_proto::auth::AuthToken;
use crowd_proto::codec;
use crowd_proto::message::{Message, MetricsReport};
use std::collections::BTreeMap;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// An exchange slower than this is reported as a stall and kept out of the
/// latency figures.
pub const STALL: Duration = Duration::from_secs(1);

/// Connection attempts before an operation is given up as failed.
const CONNECT_ATTEMPTS: u32 = 5;

/// One request/reply with the instants between its stages:
/// `[encode start, exchange start, decode start, decode end]`.
pub struct Exchange {
    pub reply: Message,
    pub at: [Instant; 4],
    pub request_bytes: usize,
}

impl Exchange {
    pub fn exchange_time(&self) -> Duration {
        self.at[2] - self.at[1]
    }
}

pub struct Conn {
    addr: SocketAddr,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
    /// Connect attempts beyond the first, over this connection's lifetime,
    /// including reconnects after a failed exchange.
    pub connect_retries: u64,
}

fn open(addr: SocketAddr, retries: &mut u64) -> std::io::Result<(TcpStream, TcpStream)> {
    let mut attempt = 0;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                let read_half = stream.try_clone()?;
                return Ok((stream, read_half));
            }
            Err(e) => {
                attempt += 1;
                if attempt >= CONNECT_ATTEMPTS {
                    return Err(e);
                }
                *retries += 1;
                std::thread::sleep(Duration::from_millis(10 << attempt));
            }
        }
    }
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let mut connect_retries = 0;
        let (writer, read_half) = open(addr, &mut connect_retries)?;
        Ok(Conn {
            addr,
            writer,
            reader: BufReader::with_capacity(1 << 16, read_half),
            wbuf: Vec::with_capacity(1 << 16),
            rbuf: Vec::with_capacity(1 << 16),
            connect_retries,
        })
    }

    /// Replaces a connection that failed mid-exchange.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        self.connect_retries += 1;
        let (writer, read_half) = open(self.addr, &mut self.connect_retries)?;
        self.writer = writer;
        self.reader = BufReader::with_capacity(1 << 16, read_half);
        Ok(())
    }

    /// Encodes `request`, sends it, reads the reply frame and decodes it.
    pub fn call(&mut self, request: &Message) -> std::io::Result<Exchange> {
        let t_encode = Instant::now();
        self.wbuf.clear();
        self.wbuf.extend_from_slice(&[0; 4]);
        codec::encode_into(request, &mut self.wbuf);
        let len = (self.wbuf.len() - 4) as u32;
        self.wbuf[..4].copy_from_slice(&len.to_le_bytes());
        let t_send = Instant::now();
        self.writer.write_all(&self.wbuf)?;
        let mut len_buf = [0u8; 4];
        self.reader.read_exact(&mut len_buf)?;
        let reply_len = u32::from_le_bytes(len_buf) as usize;
        if reply_len > crowd_proto::frame::DEFAULT_MAX_FRAME {
            return Err(std::io::Error::other("reply frame over the size limit"));
        }
        self.rbuf.resize(reply_len, 0);
        self.reader.read_exact(&mut self.rbuf)?;
        let t_decode = Instant::now();
        let reply = codec::decode(&self.rbuf).map_err(std::io::Error::other)?;
        Ok(Exchange {
            reply,
            at: [t_encode, t_send, t_decode, Instant::now()],
            request_bytes: self.wbuf.len(),
        })
    }
}

/// One authenticated metrics scrape. Histogram buckets are log₂-wide, so
/// only their count and sum are used: means and counts, never a bucket bound
/// as a percentile.
pub struct Scrape(MetricsReport);

impl Scrape {
    /// Scrapes the server at `addr`, authenticated as device 0.
    pub fn fetch(addr: SocketAddr) -> Result<Scrape, String> {
        DeviceClient::builder(addr, 0, AuthToken::derive(0, TOKEN_SECRET))
            .build()
            .scrape_metrics()
            .map(Scrape)
            .map_err(|e| format!("scrape: {e}"))
    }

    fn counter(&self, name: &str) -> u64 {
        self.0
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    fn histogram(&self, name: &str) -> (u64, u64) {
        self.0
            .histograms
            .iter()
            .find(|h| h.name == name)
            .map_or((0, 0), |h| (h.count, h.sum))
    }

    /// Change of a counter from `before` to `self`.
    pub fn counter_delta(&self, before: &Scrape, name: &str) -> f64 {
        self.counter(name).saturating_sub(before.counter(name)) as f64
    }

    /// Mean observation (`Δsum / Δcount`) of a histogram from `before` to
    /// `self`; 0 when nothing was observed.
    fn mean_delta(&self, before: &Scrape, name: &str) -> f64 {
        let (c1, s1) = self.histogram(name);
        let (c0, s0) = before.histogram(name);
        crate::stats::ratio(s1.saturating_sub(s0) as f64, c1.saturating_sub(c0) as f64)
    }

    /// Inserts the per-layer figures the server's registry gives, as changes
    /// from `before` to `self`.
    pub fn layers_since(&self, before: &Scrape, layers: &mut BTreeMap<&'static str, f64>) {
        const COUNTERS: &[(&str, &str)] = &[
            ("reactor.conns_accepted", "conns_accepted"),
            ("reactor.parks", "parks"),
            ("reactor.frame_resumes", "frame_resumes"),
            ("agg.busy_rejections", "busy_rejections"),
            ("agg.dedup_replays", "dedup_replays"),
            ("store.wal_appends", "wal_appends"),
            ("store.snapshots", "snapshots"),
            ("rounds.finalized", "rounds_finalized"),
            ("rounds.expired", "rounds_expired"),
            ("rounds.outdated", "round_outdated_rejections"),
        ];
        const MEANS: &[(&str, &str)] = &[
            ("agg.epoch_merge_mean_us", "epoch_merge_us"),
            ("store.wal_append_mean_us", "wal_append_us"),
            ("store.snapshot_mean_us", "snapshot_us"),
            ("rounds.server_finalize_mean_us", "round_finalize_us"),
        ];
        for &(layer, name) in COUNTERS {
            layers.insert(layer, self.counter_delta(before, name));
        }
        for &(layer, name) in MEANS {
            layers.insert(layer, self.mean_delta(before, name));
        }
        let applied = self.counter_delta(before, "checkins_applied");
        let merges = self.counter_delta(before, "epoch_merges");
        let wal_bytes = self.counter_delta(before, "wal_append_bytes");
        layers.insert(
            "agg.checkins_per_epoch",
            crate::stats::ratio(applied, merges),
        );
        layers.insert(
            "store.wal_bytes_per_checkin",
            crate::stats::ratio(wal_bytes, applied),
        );
    }
}
