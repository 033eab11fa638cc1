//! A client that pipelines far more requests than the server's outbound
//! queue holds, before it reads any reply, must be answered in full and in
//! order — not evicted as slow.  The queue bound counts only bytes the
//! socket refused, and a client that reads promptly refuses none.

use audiofile::device::{NullSink, SilenceSource, VirtualClock};
use audiofile::proto::message::{MessageHeader, MessageKind};
use audiofile::proto::{ByteOrder, ConnSetup, Request};
use audiofile::server::{ServerBuilder, ServerStats, OUTBOUND_QUEUE_CAPACITY};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const REQUESTS: usize = 2_000;

#[test]
fn pipelined_burst_past_the_queue_bound_is_answered_in_order() {
    const { assert!(REQUESTS > 4 * OUTBOUND_QUEUE_CAPACITY) };
    let mut builder = ServerBuilder::new().listen_tcp("127.0.0.1:0".parse().unwrap());
    builder.add_codec(
        Arc::new(VirtualClock::new(8000)),
        Box::new(NullSink),
        Box::new(SilenceSource::new(0xFF)),
    );
    let server = builder.spawn().unwrap();
    let stats = server.stats();

    let mut sock = TcpStream::connect(server.tcp_addr().unwrap()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    sock.write_all(&ConnSetup::new().encode()).unwrap();
    let mut len_buf = [0u8; 4];
    sock.read_exact(&mut len_buf).unwrap();
    let mut setup_reply = vec![0u8; u32::from_le_bytes(len_buf) as usize];
    sock.read_exact(&mut setup_reply).unwrap();

    // Every request goes out before a single reply is read.
    let order = ByteOrder::native();
    let frame = Request::GetTime { device: 0 }.encode(order);
    let burst: Vec<u8> = frame
        .iter()
        .copied()
        .cycle()
        .take(frame.len() * REQUESTS)
        .collect();
    sock.write_all(&burst).unwrap();

    let mut msg = [0u8; MessageHeader::SIZE + 4];
    for i in 1..=REQUESTS {
        sock.read_exact(&mut msg)
            .unwrap_or_else(|e| panic!("reply {i} of {REQUESTS} missing: {e}"));
        let header = MessageHeader::decode(order, &msg[..MessageHeader::SIZE]).unwrap();
        assert_eq!(header.kind, MessageKind::Reply, "reply {i}");
        assert_eq!(header.sequence, i as u16, "replies out of order");
        assert_eq!(header.payload_len(), 4, "reply {i} is not a Time reply");
    }
    assert_eq!(ServerStats::get(&stats.evicted_slow), 0);
    assert_eq!(ServerStats::get(&stats.protocol_errors), 0);
}
