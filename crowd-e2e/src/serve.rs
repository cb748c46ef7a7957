//! Starting the server under test and timing its set-up.

use crate::inputs::TOKEN_SECRET;
use crate::wire::Conn;
use crowd_core::config::ServerConfig;
use crowd_learning::MulticlassLogistic;
use crowd_net::{ReactorServer, ReactorServerHandle};
use crowd_proto::auth::{AuthToken, TokenRegistry};
use crowd_proto::message::{CheckoutRequest, Message};
use crowd_proto::PROTOCOL_VERSION;
use std::path::PathBuf;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 25;

/// A checkout request for `device_id`.
pub fn checkout_request(device_id: u64, token: AuthToken) -> Message {
    Message::CheckoutRequest(CheckoutRequest {
        version: PROTOCOL_VERSION,
        device_id,
        token,
    })
}

/// A running server, the persistent connection that timed its first
/// request, and the data directory it owns (durable servers only).
pub struct Started {
    pub handle: ReactorServerHandle,
    pub conn: Conn,
    pub data_dir: Option<PathBuf>,
}

/// Starts the server `SETUP_REPS` times and keeps the last one.
///
/// Each repetition is timed from before the token registry is built until
/// the first checkout reply is decoded: registry, `Store::open` (durable
/// servers, each on a fresh directory), runtime and reactor start, connect
/// and one request. Each earlier server is shut down, untimed,
/// before the next repetition starts.
pub fn start_timed(
    model: MulticlassLogistic,
    config: &ServerConfig,
    population: u64,
    durable_tag: Option<&str>,
    setup_s: &mut Vec<f64>,
) -> Result<Started, String> {
    let mut last = None;
    for rep in 0..SETUP_REPS {
        if let Some(Started {
            handle, data_dir, ..
        }) = last.take()
        {
            handle.shutdown();
            remove_data_dir(data_dir);
        }
        let mut config = config.clone();
        let data_dir = durable_tag.map(|tag| {
            crate::scratch_dir().join(format!("data-{tag}-{}-{rep}", std::process::id()))
        });
        if let Some(dir) = &data_dir {
            let _ = std::fs::remove_dir_all(dir);
            config = config.with_data_dir(dir.clone());
        }
        let t0 = Instant::now();
        let tokens = TokenRegistry::with_derived_tokens(population, TOKEN_SECRET);
        let handle = ReactorServer::start(model, config, tokens)
            .map_err(|e| format!("server start: {e}"))?;
        let mut conn = Conn::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
        let reply = conn
            .call(&checkout_request(0, AuthToken::derive(0, TOKEN_SECRET)))
            .map_err(|e| format!("first checkout: {e}"))?
            .reply;
        setup_s.push(t0.elapsed().as_secs_f64());
        if !matches!(reply, Message::CheckoutResponse(_)) {
            return Err(format!("first checkout answered with {}", reply.name()));
        }
        last = Some(Started {
            handle,
            conn,
            data_dir,
        });
    }
    last.ok_or_else(|| "no set-up repetition ran".to_string())
}

/// One CPU set as the kernel passes it: a bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Two CPUs the process may run on: one for the server's threads, one for
/// the generator, as devices and server would sit on separate machines.
///
/// Left to the scheduler on a 2-vCPU KVM guest, the one-connection
/// `checkin_stream` loop settled for the life of a process into one of two
/// speeds: in nine runs of 8–10 s its rate read 6.2k–7.9k rounds/s in seven
/// and 14.8k–17.8k in two. Split by hand, nine runs read 7.7k–9.4k. The
/// gateway is not split: its server merges epochs on both CPUs, and unsplit
/// it ran faster (12.6k–13.5k against 10.0k–12.8k checkins/s in 8 s runs).
pub struct SplitCpus {
    server: usize,
    generator: usize,
}

impl SplitCpus {
    /// Pins the calling thread to the server's CPU, so the threads the server
    /// spawns next inherit it. `None` (nothing pinned) with fewer than two
    /// CPUs.
    pub fn pin_server() -> Option<SplitCpus> {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a writable buffer of the size passed.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
            return None;
        }
        let mut cpus = (0..allowed.len() * 64).filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1);
        let split = SplitCpus {
            generator: cpus.next()?,
            server: cpus.next()?,
        };
        pin(split.server).then_some(split)
    }

    /// Pins the calling thread to the generator's CPU.
    pub fn pin_generator(&self) -> Result<(), String> {
        pin(self.generator)
            .then_some(())
            .ok_or_else(|| format!("could not pin the generator to CPU {}", self.generator))
    }
}

fn pin(cpu: usize) -> bool {
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of the size passed; pid 0 is the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) == 0 }
}

pub fn remove_data_dir(dir: Option<PathBuf>) {
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}
