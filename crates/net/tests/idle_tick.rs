//! A quiet peer must cost nothing. Alone in its test binary: it counts
//! reactor ticks in the process-global obs registry.

use esdb_core::{Database, EngineConfig};
use esdb_net::{Server, ServerConfig};
use esdb_obs::Component;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A peer that sends half a frame header and goes quiet is, without a
/// configured `stall_timeout`, just an idle session: nothing will ever act
/// on its stall clock, so it must not pull the reactor onto the 1 ms parked
/// cadence. (It did: ~300 ticks in this window instead of ~15.)
#[test]
fn half_sent_frame_without_a_stall_budget_leaves_the_reactor_idle() {
    let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
    let config = ServerConfig { reactors: 1, ..ServerConfig::default() };
    assert!(config.stall_timeout.is_none() && config.poll_interval >= Duration::from_millis(20));
    let server = Server::start(db, "127.0.0.1:0", config).unwrap();

    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut greeting = [0u8; 5];
    raw.read_exact(&mut greeting).unwrap(); // Hello
    raw.write_all(&[0x40, 0x00, 0x00]).unwrap();
    std::thread::sleep(Duration::from_millis(100)); // the reactor has seen the bytes

    let ticks = || esdb_obs::global().component(Component::ReactorTick).count;
    let before = ticks();
    std::thread::sleep(Duration::from_millis(300));
    let during = ticks() - before;
    assert!(during <= 25, "{during} ticks in 300 ms behind a quiet peer (idle cadence is ~15)");
    server.shutdown();
}
