//! Frame transports and the message-level [`Sender`]/[`Receiver`]
//! handles built on them.
//!
//! A [`Transport`] moves opaque length-prefixed frames; two
//! implementations exist: [`TcpTransport`] over a real socket and
//! [`LoopbackTransport`] over in-process crossbeam channels, so the
//! exact same worker/orchestrator code paths run with or without
//! networking. Splitting a transport yields independent send/receive
//! halves, which the hub needs to read worker traffic from a dedicated
//! thread while writing from another.
//!
//! A receive that times out is resumable on both transports: the TCP
//! half keeps the partly read frame and the next `recv_frame` continues
//! it, so callers that poll on [`CommsError::Timeout`] (the serving
//! connection reader, the token-pipeline hub) never lose framing.

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crossbeam_channel::{unbounded, Receiver as ChanRx, RecvTimeoutError, Sender as ChanTx};

use crate::codec::{frame_len, frame_prefix};
use crate::error::CommsError;
use crate::protocol::{decode_message, encode_message, Message};

/// Sending half of a frame transport.
pub trait FrameTx: Send {
    /// Writes one frame (length prefix + payload) to the peer.
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), CommsError>;
}

/// Receiving half of a frame transport.
pub trait FrameRx: Send {
    /// Blocks for the next frame payload.
    fn recv_frame(&mut self) -> Result<Vec<u8>, CommsError>;
    /// Sets (or clears) the receive timeout; `recv_frame` returns
    /// [`CommsError::Timeout`] when it elapses.
    fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), CommsError>;
}

/// The send and receive halves a [`Transport`] splits into.
pub type TransportHalves = (Box<dyn FrameTx>, Box<dyn FrameRx>);

/// A bidirectional frame link that can split into independent halves.
pub trait Transport: Send {
    /// Splits into send and receive halves.
    fn split(self: Box<Self>) -> Result<TransportHalves, CommsError>;
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

/// TCP frame transport. Nagle is disabled: every frame leaves in one
/// vectored write (prefix and payload together), so there is nothing
/// for the kernel to coalesce and waiting would only add latency.
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Wraps a connected stream.
    pub fn new(stream: TcpStream) -> Result<Self, CommsError> {
        stream.set_nodelay(true)?;
        Ok(TcpTransport { stream })
    }

    /// Connects to `addr`.
    pub fn connect(addr: &str) -> Result<Self, CommsError> {
        TcpTransport::new(TcpStream::connect(addr)?)
    }
}

struct TcpTx {
    stream: TcpStream,
}

/// Receive half. The frame in progress lives here, not on the stack of
/// `recv_frame`, so a receive that times out between (or inside) the
/// prefix and the payload resumes where it stopped instead of reading
/// payload bytes as the next length prefix.
struct TcpRx {
    stream: TcpStream,
    /// Length-prefix bytes of the frame in progress.
    prefix: [u8; 4],
    /// How many of them have arrived.
    prefix_len: usize,
    /// Payload bytes of the frame in progress.
    payload: Vec<u8>,
}

impl FrameTx for TcpTx {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), CommsError> {
        // One write for prefix + payload: a peer never sees the prefix
        // alone in a segment of its own, and a small frame costs one
        // syscall.
        let prefix = frame_prefix(payload.len())?;
        let mut sent = 0;
        while sent < 4 + payload.len() {
            let n = if sent < 4 {
                self.stream.write_vectored(&[IoSlice::new(&prefix[sent..]), IoSlice::new(payload)])
            } else {
                self.stream.write(&payload[sent - 4..])
            };
            match n {
                Ok(0) => return Err(CommsError::Closed),
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }
}

impl FrameRx for TcpRx {
    fn recv_frame(&mut self) -> Result<Vec<u8>, CommsError> {
        while self.prefix_len < 4 {
            match self.stream.read(&mut self.prefix[self.prefix_len..]) {
                Ok(0) => return Err(CommsError::Closed),
                Ok(n) => self.prefix_len += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        let len = frame_len(self.prefix)?;
        // `read_to_end` appends into spare capacity without zero-filling
        // it and keeps what it read when it fails, which is exactly the
        // resumable state a timeout needs.
        let missing = len - self.payload.len();
        self.payload.reserve_exact(missing);
        (&self.stream).take(missing as u64).read_to_end(&mut self.payload)?;
        if self.payload.len() < len {
            return Err(CommsError::Closed);
        }
        self.prefix_len = 0;
        Ok(std::mem::take(&mut self.payload))
    }

    fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), CommsError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }
}

impl Transport for TcpTransport {
    fn split(self: Box<Self>) -> Result<TransportHalves, CommsError> {
        let rx_stream = self.stream.try_clone()?;
        let rx = TcpRx { stream: rx_stream, prefix: [0; 4], prefix_len: 0, payload: Vec::new() };
        Ok((Box::new(TcpTx { stream: self.stream }), Box::new(rx)))
    }
}

// ---------------------------------------------------------------------------
// Loopback
// ---------------------------------------------------------------------------

/// In-process frame transport over crossbeam channels. [`loopback_pair`]
/// returns the two connected endpoints.
pub struct LoopbackTransport {
    tx: ChanTx<Vec<u8>>,
    rx: ChanRx<Vec<u8>>,
}

/// Creates a connected pair of loopback transports.
pub fn loopback_pair() -> (LoopbackTransport, LoopbackTransport) {
    let (a_tx, b_rx) = unbounded();
    let (b_tx, a_rx) = unbounded();
    (LoopbackTransport { tx: a_tx, rx: a_rx }, LoopbackTransport { tx: b_tx, rx: b_rx })
}

struct LoopbackTx {
    tx: ChanTx<Vec<u8>>,
}

struct LoopbackRx {
    rx: ChanRx<Vec<u8>>,
    timeout: Option<Duration>,
}

impl FrameTx for LoopbackTx {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), CommsError> {
        // No prefix travels in-process, but the size cap is the wire's.
        frame_prefix(payload.len())?;
        self.tx.send(payload.to_vec()).map_err(|_| CommsError::Closed)
    }
}

impl FrameRx for LoopbackRx {
    fn recv_frame(&mut self) -> Result<Vec<u8>, CommsError> {
        match self.timeout {
            None => self.rx.recv().map_err(|_| CommsError::Closed),
            Some(limit) => self.rx.recv_timeout(limit).map_err(|e| match e {
                RecvTimeoutError::Timeout => CommsError::Timeout,
                RecvTimeoutError::Disconnected => CommsError::Closed,
            }),
        }
    }

    fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), CommsError> {
        self.timeout = timeout;
        Ok(())
    }
}

impl Transport for LoopbackTransport {
    fn split(self: Box<Self>) -> Result<TransportHalves, CommsError> {
        Ok((
            Box::new(LoopbackTx { tx: self.tx }),
            Box::new(LoopbackRx { rx: self.rx, timeout: None }),
        ))
    }
}

// ---------------------------------------------------------------------------
// Message-level handles
// ---------------------------------------------------------------------------

/// Cumulative wire traffic counters for one direction of a link.
/// Payload bytes only (the 4-byte length prefix is excluded so the
/// numbers match [`crate::codec::TensorPayload::wire_bytes`] accounting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Total payload bytes.
    pub bytes: u64,
    /// Total messages.
    pub msgs: u64,
}

impl WireStats {
    fn add(&mut self, bytes: usize) {
        self.bytes += bytes as u64;
        self.msgs += 1;
    }
}

/// The `<bytes gauge, frames gauge>` pair a bound link direction keeps
/// current after every message.
type WireGauges =
    (std::sync::Arc<pipemare_telemetry::Gauge>, std::sync::Arc<pipemare_telemetry::Gauge>);

/// Blocking message sender over a frame transport.
pub struct Sender {
    tx: Box<dyn FrameTx>,
    stats: WireStats,
    gauges: Option<WireGauges>,
}

impl Sender {
    /// Wraps a frame-transport send half.
    pub fn new(tx: Box<dyn FrameTx>) -> Self {
        Sender { tx, stats: WireStats::default(), gauges: None }
    }

    /// Mirrors the cumulative send counters into `{prefix}.tx_bytes` /
    /// `{prefix}.tx_frames` gauges on `registry` (e.g. prefix
    /// `"wire.stage0"`), updated after every send, so a live scrape
    /// shows wire throughput without waiting for the final report.
    pub fn bind_gauges(&mut self, registry: &pipemare_telemetry::MetricsRegistry, prefix: &str) {
        self.gauges = Some((
            registry.gauge(&format!("{prefix}.tx_bytes")),
            registry.gauge(&format!("{prefix}.tx_frames")),
        ));
    }

    /// Encodes and sends one message.
    pub fn send(&mut self, msg: &Message) -> Result<(), CommsError> {
        self.send_frame(&encode_message(msg))
    }

    /// Sends one already-encoded frame payload — for callers that
    /// encode into a buffer they keep (see
    /// [`crate::protocol::ShardHead::encode`]).
    pub fn send_frame(&mut self, payload: &[u8]) -> Result<(), CommsError> {
        self.tx.send_frame(payload)?;
        self.stats.add(payload.len());
        if let Some((bytes, frames)) = &self.gauges {
            bytes.set(self.stats.bytes as f64);
            frames.set(self.stats.msgs as f64);
        }
        Ok(())
    }

    /// Traffic sent so far.
    pub fn stats(&self) -> WireStats {
        self.stats
    }
}

/// Blocking message receiver over a frame transport.
pub struct Receiver {
    rx: Box<dyn FrameRx>,
    stats: WireStats,
    gauges: Option<WireGauges>,
}

impl Receiver {
    /// Wraps a frame-transport receive half.
    pub fn new(rx: Box<dyn FrameRx>) -> Self {
        Receiver { rx, stats: WireStats::default(), gauges: None }
    }

    /// Mirrors the cumulative receive counters into `{prefix}.rx_bytes`
    /// / `{prefix}.rx_frames` gauges on `registry`, updated after every
    /// receive. See [`Sender::bind_gauges`].
    pub fn bind_gauges(&mut self, registry: &pipemare_telemetry::MetricsRegistry, prefix: &str) {
        self.gauges = Some((
            registry.gauge(&format!("{prefix}.rx_bytes")),
            registry.gauge(&format!("{prefix}.rx_frames")),
        ));
    }

    /// Blocks for and decodes the next message.
    pub fn recv(&mut self) -> Result<Message, CommsError> {
        Ok(decode_message(&self.recv_frame()?)?)
    }

    /// Blocks for the next frame payload, undecoded — for callers that
    /// decode a tensor straight into a buffer they keep (see
    /// [`crate::protocol::decode_shard_into`]).
    pub fn recv_frame(&mut self) -> Result<Vec<u8>, CommsError> {
        let payload = self.rx.recv_frame()?;
        self.stats.add(payload.len());
        if let Some((bytes, frames)) = &self.gauges {
            bytes.set(self.stats.bytes as f64);
            frames.set(self.stats.msgs as f64);
        }
        Ok(payload)
    }

    /// Sets (or clears) the receive timeout.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), CommsError> {
        self.rx.set_timeout(timeout)
    }

    /// Traffic received so far.
    pub fn stats(&self) -> WireStats {
        self.stats
    }
}

/// Splits a transport into message-level sender/receiver handles.
pub fn channel(transport: Box<dyn Transport>) -> Result<(Sender, Receiver), CommsError> {
    let (tx, rx) = transport.split()?;
    Ok((Sender::new(tx), Receiver::new(rx)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::MAX_FRAME;
    use crate::error::CodecError;
    use std::net::TcpListener;

    #[test]
    fn loopback_roundtrip_and_stats() {
        let (a, b) = loopback_pair();
        let (mut a_tx, _a_rx) = channel(Box::new(a)).unwrap();
        let (_b_tx, mut b_rx) = channel(Box::new(b)).unwrap();
        a_tx.send(&Message::Flush { id: 3 }).unwrap();
        assert_eq!(b_rx.recv().unwrap(), Message::Flush { id: 3 });
        assert_eq!(a_tx.stats().msgs, 1);
        assert_eq!(a_tx.stats(), b_rx.stats());
    }

    #[test]
    fn bound_gauges_mirror_wire_stats() {
        use pipemare_telemetry::MetricsRegistry;
        let reg = MetricsRegistry::new();
        let (a, b) = loopback_pair();
        let (mut a_tx, _a_rx) = channel(Box::new(a)).unwrap();
        let (_b_tx, mut b_rx) = channel(Box::new(b)).unwrap();
        a_tx.bind_gauges(&reg, "wire.peer");
        b_rx.bind_gauges(&reg, "wire.peer");
        a_tx.send(&Message::Flush { id: 1 }).unwrap();
        b_rx.recv().unwrap();
        assert_eq!(reg.gauge("wire.peer.tx_frames").get(), 1.0);
        assert_eq!(reg.gauge("wire.peer.tx_bytes").get(), a_tx.stats().bytes as f64);
        assert_eq!(reg.gauge("wire.peer.rx_frames").get(), 1.0);
        assert_eq!(reg.gauge("wire.peer.rx_bytes").get(), b_rx.stats().bytes as f64);
    }

    #[test]
    fn loopback_timeout_fires() {
        let (a, _b) = loopback_pair();
        let (_tx, mut rx) = channel(Box::new(a)).unwrap();
        rx.set_timeout(Some(Duration::from_millis(20))).unwrap();
        assert!(matches!(rx.recv(), Err(CommsError::Timeout)));
    }

    #[test]
    fn loopback_frame_arrives_promptly_inside_a_long_timeout() {
        let (a, b) = loopback_pair();
        let (_tx, mut rx) = channel(Box::new(a)).unwrap();
        let (mut b_tx, _b_rx) = channel(Box::new(b)).unwrap();
        rx.set_timeout(Some(Duration::from_secs(1))).unwrap();
        let t0 = std::time::Instant::now();
        let peer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            b_tx.send(&Message::Flush { id: 5 }).unwrap();
        });
        assert_eq!(rx.recv().unwrap(), Message::Flush { id: 5 });
        let waited = t0.elapsed();
        assert!(waited < Duration::from_millis(500), "a 5 ms frame took {waited:?}");
        peer.join().unwrap();
    }

    #[test]
    fn loopback_disconnect_is_closed() {
        let (a, b) = loopback_pair();
        let (_tx, mut rx) = channel(Box::new(a)).unwrap();
        drop(b);
        assert!(matches!(rx.recv(), Err(CommsError::Closed)));
    }

    #[test]
    fn tcp_roundtrip_timeout_and_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let t = TcpTransport::new(stream).unwrap();
            let (mut tx, mut rx) = channel(Box::new(t)).unwrap();
            let got = rx.recv().unwrap();
            tx.send(&got).unwrap();
            // Hold the connection open briefly so the client can observe
            // a timeout before the close.
            std::thread::sleep(Duration::from_millis(120));
        });
        let t = TcpTransport::connect(&addr.to_string()).unwrap();
        let (mut tx, mut rx) = channel(Box::new(t)).unwrap();
        tx.send(&Message::Flush { id: 42 }).unwrap();
        assert_eq!(rx.recv().unwrap(), Message::Flush { id: 42 });
        rx.set_timeout(Some(Duration::from_millis(30))).unwrap();
        assert!(matches!(rx.recv(), Err(CommsError::Timeout)));
        server.join().unwrap();
        rx.set_timeout(Some(Duration::from_millis(500))).unwrap();
        assert!(matches!(rx.recv(), Err(CommsError::Closed)));
    }

    #[test]
    fn tcp_receive_resumes_a_frame_across_timeouts() {
        // The peer trickles one frame three bytes at a time, pausing
        // longer than the read timeout between pieces, so timeouts fire
        // inside the length prefix, between prefix and payload, and
        // inside the payload. Polling through them must yield exactly
        // that frame, then the next one.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let first = encode_message(&Message::StatsReply { id: 9, json: "trickle".repeat(3) });
        let wire = crate::codec::frame(&first).unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            for piece in wire.chunks(3) {
                stream.write_all(piece).unwrap();
                std::thread::sleep(Duration::from_millis(12));
            }
            let (mut tx, _rx) = channel(Box::new(TcpTransport::new(stream).unwrap())).unwrap();
            tx.send(&Message::Flush { id: 1 }).unwrap();
        });
        let (_tx, mut rx) =
            channel(Box::new(TcpTransport::connect(&addr.to_string()).unwrap())).unwrap();
        rx.set_timeout(Some(Duration::from_millis(4))).unwrap();
        let mut timeouts = 0;
        let mut next = || loop {
            match rx.recv() {
                Ok(msg) => return msg,
                Err(CommsError::Timeout) => timeouts += 1,
                Err(e) => panic!("a slow peer is not a broken one: {e}"),
            }
        };
        assert_eq!(next(), decode_message(&first).unwrap());
        assert_eq!(next(), Message::Flush { id: 1 });
        assert!(timeouts >= 3, "the trickle must outlast several timeouts, saw {timeouts}");
        peer.join().unwrap();
    }

    #[test]
    fn oversize_frame_rejected_at_send() {
        let (a, _b) = loopback_pair();
        let (mut tx, _rx) = a.split_for_test();
        assert!(matches!(
            tx.send_frame(&vec![0u8; MAX_FRAME + 1]),
            Err(CommsError::Codec(CodecError::FrameTooLarge(_)))
        ));
    }

    impl LoopbackTransport {
        fn split_for_test(self) -> (Box<dyn FrameTx>, Box<dyn FrameRx>) {
            Box::new(self).split().unwrap()
        }
    }
}
