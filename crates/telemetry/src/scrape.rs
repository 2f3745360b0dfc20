//! The stats scrape: one binary frame per poll, served over plain TCP.
//!
//! A [`Scrape`] is a live process's answer to "how are you doing": a
//! short header (role, stage count, worst sample cost, firing alerts)
//! and then the live store's last one or two samples, each as the frame
//! a journal segment holds for it. The whole scrape is one
//! [`crate::codec`] frame and the only byte form a live sample has: the
//! [`StatsEndpoint`] writes it to each connection and closes (no request
//! parsing, no HTTP), the in-band `StatsReply` carries it, and `pm top`
//! decodes it (`pm top --once --json` prints it as text). The endpoint
//! only reads the store's ring, so a scrape never blocks a recording
//! thread.

use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::alert::ActiveAlert;
use crate::alert::Severity;
use crate::codec::{deframe, frame, frame_len, CodecError, Reader, Writer};
use crate::journal::{decode_sample, encode_sample};
use crate::metrics::MetricValue;
use crate::store::{LiveSample, LiveStore};

/// How long the endpoint will wait for a scraper to drain one reply
/// before dropping the connection: one stalled peer (a never-reading
/// socket filling its receive window) must not block later scrapes.
const REPLY_WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Alert severities by their wire code (the enum's declaration order).
const SEVERITIES: [Severity; 3] = [Severity::Info, Severity::Warn, Severity::Critical];

/// One decoded stats scrape: a live process's identity, its firing
/// alerts and its latest samples (oldest first; at most two, so counter
/// deltas over the last window need no history on the reader's side).
#[derive(Clone, Debug)]
pub struct Scrape {
    /// The process identity (`"orchestrator"`, `"worker-2"`, `"serve"`).
    pub role: String,
    /// The pipeline's stage count, which fixes each stage's nominal τ.
    pub n_stages: usize,
    /// Worst per-sample cost the store has seen, µs.
    pub max_sample_cost_us: u64,
    /// Currently firing alerts (empty without an alert engine).
    pub alerts: Vec<ActiveAlert>,
    /// The store's last samples, oldest first; empty before the first
    /// tick.
    pub samples: Vec<LiveSample>,
}

impl Scrape {
    /// The most recent sample, if the store has ticked.
    pub fn latest(&self) -> Option<&LiveSample> {
        self.samples.last()
    }

    /// Counter `name`'s increase over the latest window: against the
    /// previous sample, or from zero when the scrape holds only one.
    /// `None` when the latest sample has no counter of that name.
    pub fn counter_delta(&self, name: &str) -> Option<u64> {
        let (latest, earlier) = self.samples.split_last()?;
        let MetricValue::Counter(cur) = latest.metrics.get(name)? else { return None };
        let before = earlier.last().and_then(|p| p.metrics.get(name));
        let before = if let Some(MetricValue::Counter(c)) = before { *c } else { 0 };
        Some(cur.saturating_sub(before))
    }

    /// Encodes the scrape as one length-prefixed frame.
    ///
    /// # Errors
    ///
    /// [`CodecError::FrameTooLarge`] past [`crate::codec::MAX_FRAME`].
    pub fn encode(&self) -> Result<Vec<u8>, CodecError> {
        let mut w = Writer::new();
        w.put_str(&self.role);
        w.put_u32(self.n_stages as u32);
        w.put_u64(self.max_sample_cost_us);
        w.put_u32(self.alerts.len() as u32);
        for a in &self.alerts {
            w.put_str(&a.rule);
            w.put_str(&a.label);
            w.put_u8(a.severity as u8);
            w.put_u64(a.since_ts_us);
            w.put_f64(a.value);
        }
        // The rest of the payload is journal frames, back to back.
        for sample in &self.samples {
            w.put_bytes(&frame(&encode_sample(sample, false))?);
        }
        frame(&w.into_bytes())
    }

    /// Decodes one scrape frame, as [`scrape_once`] returns it.
    ///
    /// # Errors
    ///
    /// A typed [`CodecError`] for any malformed input — never a panic.
    pub fn decode(bytes: &[u8]) -> Result<Scrape, CodecError> {
        let (payload, rest) = deframe(bytes)?.ok_or(CodecError::Truncated)?;
        if !rest.is_empty() {
            return Err(CodecError::Trailing(rest.len()));
        }
        let mut r = Reader::new(payload);
        let role = r.get_str()?;
        let n_stages = r.get_u32()? as usize;
        let max_sample_cost_us = r.get_u64()?;
        let mut alerts = Vec::new();
        for _ in 0..r.get_u32()? {
            alerts.push(ActiveAlert {
                rule: r.get_str()?,
                label: r.get_str()?,
                severity: *SEVERITIES
                    .get(usize::from(r.get_u8()?))
                    .ok_or(CodecError::BadValue("unknown alert severity"))?,
                since_ts_us: r.get_u64()?,
                value: r.get_f64()?,
            });
        }
        let mut samples = Vec::new();
        let mut frames = r.get_bytes(r.remaining())?;
        while !frames.is_empty() {
            let (sample, tail) = deframe(frames)?.ok_or(CodecError::Truncated)?;
            samples.push(decode_sample(sample)?.0);
            frames = tail;
        }
        Ok(Scrape { role, n_stages, max_sample_cost_us, alerts, samples })
    }
}

/// A background TCP listener answering each connection with one
/// scrape frame. Dropping the handle stops it.
pub struct StatsEndpoint {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl StatsEndpoint {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// spawns the accept loop, which blocks in `accept` between
    /// scrapes.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: &str, store: Arc<LiveStore>) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("pm-stats-endpoint".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    // `stop` wakes this loop with a connection of its own.
                    if stop_flag.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(mut conn) = conn else { break };
                    // A bounded write: on timeout the reply is abandoned
                    // and the connection dropped, so a stalled scraper
                    // costs at most one timeout, never the whole endpoint.
                    let _ = conn.set_write_timeout(Some(REPLY_WRITE_TIMEOUT));
                    if let Ok(frame) = store.scrape() {
                        let _ = conn.write_all(&frame).and_then(|()| conn.flush());
                    }
                }
            })
            .expect("spawning the stats endpoint thread cannot fail");
        Ok(StatsEndpoint { addr: local, stop, handle: Some(handle) })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread. Idempotent.
    ///
    /// The loop is woken by one connection to the endpoint's own port
    /// (over loopback when it is bound to an unspecified address); if
    /// even that cannot connect, the thread is left to end with the
    /// process rather than joined.
    pub fn stop(&mut self) {
        let Some(handle) = self.handle.take() else { return };
        self.stop.store(true, Ordering::Release);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        if TcpStream::connect_timeout(&wake, REPLY_WRITE_TIMEOUT).is_ok() {
            let _ = handle.join();
        }
    }
}

impl Drop for StatsEndpoint {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Polls one endpoint: connects to `addr`, reads its scrape frame,
/// closes. Returns the frame's bytes (length prefix included), ready for
/// [`Scrape::decode`] or to be saved as a `pm top` baseline.
///
/// `addr` may be a socket address or a `host:port` name; every address
/// it resolves to is tried in order (so `localhost` resolving to `::1`
/// first still reaches an endpoint on `127.0.0.1`). `timeout` is one
/// deadline for the whole call, however slowly the peer sends.
///
/// # Errors
///
/// Resolution and connect failures; `InvalidData` carrying the
/// [`CodecError`] for a length prefix over [`crate::codec::MAX_FRAME`],
/// refused before reading on; `UnexpectedEof` for a reply that ends
/// inside its frame; `TimedOut` past the deadline.
pub fn scrape_once(addr: &str, timeout: Duration) -> io::Result<Vec<u8>> {
    let deadline = Instant::now() + timeout;
    let mut last_err = io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("address {addr:?} resolved to nothing"),
    );
    for candidate in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&candidate, time_left(deadline)?) {
            Ok(mut stream) => {
                let mut bytes = Vec::new();
                read_to(&mut stream, &mut bytes, 4, deadline)?;
                let len = frame_len([bytes[0], bytes[1], bytes[2], bytes[3]])
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                read_to(&mut stream, &mut bytes, 4 + len, deadline)?;
                return Ok(bytes);
            }
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

/// Time until `deadline`, or `TimedOut` once it has passed.
fn time_left(deadline: Instant) -> io::Result<Duration> {
    Some(deadline.saturating_duration_since(Instant::now()))
        .filter(|left| !left.is_zero())
        .ok_or_else(|| io::Error::new(TimedOut, "stats scrape deadline passed"))
}

/// Reads from `stream` until `bytes` holds `want` bytes. The buffer
/// grows only by what arrives, so a lying prefix costs no allocation.
fn read_to(
    s: &mut TcpStream,
    bytes: &mut Vec<u8>,
    want: usize,
    deadline: Instant,
) -> io::Result<()> {
    let mut chunk = [0u8; 8192];
    while bytes.len() < want {
        s.set_read_timeout(Some(time_left(deadline)?))?;
        match s.read(&mut chunk[..(want - bytes.len()).min(8192)]) {
            Ok(0) => {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "stats reply cut short"))
            }
            Ok(k) => bytes.extend_from_slice(&chunk[..k]),
            // A read timeout or a signal: the deadline check decides.
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::MAX_FRAME;
    use crate::metrics::MetricsRegistry;
    use proptest::prelude::*;

    #[test]
    fn endpoint_serves_one_scrape_frame_per_connection() {
        let reg = Arc::new(MetricsRegistry::new());
        reg.counter("hits").add(2);
        let store = Arc::new(LiveStore::new("endpoint-test", 1).with_registry(reg));
        store.sample();
        let mut ep = StatsEndpoint::bind("127.0.0.1:0", Arc::clone(&store)).unwrap();
        let addr = ep.addr().to_string();
        for _ in 0..3 {
            let scrape = Scrape::decode(&scrape_once(&addr, Duration::from_secs(2)).unwrap());
            let scrape = scrape.unwrap();
            assert_eq!(scrape.role, "endpoint-test");
            assert_eq!(
                scrape.latest().unwrap().metrics.get("hits"),
                Some(&MetricValue::Counter(2))
            );
        }
        ep.stop();
        // After stop, connections must fail (possibly after the OS
        // drains the backlog; give it a couple of tries).
        let mut ok = 0;
        for _ in 0..3 {
            if scrape_once(&addr, Duration::from_millis(200)).is_ok() {
                ok += 1;
            }
        }
        assert!(ok <= 1, "endpoint kept answering after stop");
    }

    #[test]
    fn stop_wakes_an_endpoint_bound_to_an_unspecified_address() {
        let store = Arc::new(LiveStore::new("any", 0));
        let mut ep = StatsEndpoint::bind("0.0.0.0:0", store).unwrap();
        let t0 = Instant::now();
        ep.stop();
        assert!(t0.elapsed() < Duration::from_secs(1), "stop took {:?}", t0.elapsed());
        assert!(ep.handle.is_none());
    }

    #[test]
    fn scrape_once_rejects_bad_addresses() {
        assert!(scrape_once("not-an-addr", Duration::from_millis(100)).is_err());
    }

    #[test]
    fn scrape_once_resolves_hostnames() {
        let store = Arc::new(LiveStore::new("hostname-test", 0));
        store.sample();
        let mut ep = StatsEndpoint::bind("127.0.0.1:0", Arc::clone(&store)).unwrap();
        // "localhost:<port>" is not a parseable SocketAddr; it must be
        // resolved — and may resolve to ::1 first, so every candidate
        // gets tried before giving up.
        let addr = format!("localhost:{}", ep.addr().port());
        let bytes = scrape_once(&addr, Duration::from_secs(2)).unwrap();
        assert_eq!(Scrape::decode(&bytes).unwrap().role, "hostname-test");
        ep.stop();
    }

    #[test]
    fn stalled_scraper_does_not_block_later_scrapes() {
        let store = Arc::new(LiveStore::new("stall-test", 0));
        store.sample();
        let mut ep = StatsEndpoint::bind("127.0.0.1:0", Arc::clone(&store)).unwrap();
        let addr = ep.addr();
        // A connected peer that never reads. A tiny receive window
        // cannot be forced portably, so this exercises the drop-on-
        // completion path; the write-timeout guard is what bounds the
        // pathological case where the reply exceeds the socket buffers.
        let stalled = TcpStream::connect(addr).unwrap();
        // Subsequent scrapes must keep answering promptly while the
        // stalled connection is still open.
        for _ in 0..3 {
            let bytes = scrape_once(&addr.to_string(), Duration::from_secs(2)).unwrap();
            assert!(!bytes.is_empty());
        }
        drop(stalled);
        ep.stop();
    }

    /// A one-connection fake endpoint: `serve` gets the accepted stream.
    fn fake_peer(
        serve: impl FnOnce(TcpStream) + Send + 'static,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || serve(listener.accept().unwrap().0));
        (addr, handle)
    }

    #[test]
    fn oversized_prefix_is_refused_at_once() {
        let (addr, peer) = fake_peer(|mut s| {
            s.write_all(&u32::MAX.to_le_bytes()).unwrap();
            // Hold the connection open: the reader must not wait for
            // the bytes the prefix promised.
            std::thread::sleep(Duration::from_millis(500));
        });
        let t0 = Instant::now();
        let err = scrape_once(&addr, Duration::from_secs(5)).unwrap_err();
        assert!(t0.elapsed() < Duration::from_millis(400), "took {:?}", t0.elapsed());
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let codec = err.get_ref().and_then(|e| e.downcast_ref::<CodecError>());
        assert_eq!(codec, Some(&CodecError::FrameTooLarge(u64::from(u32::MAX))));
        assert!(u32::MAX as usize > MAX_FRAME);
        peer.join().unwrap();
    }

    #[test]
    fn short_frame_then_close_is_unexpected_eof() {
        let (addr, peer) = fake_peer(|mut s| {
            s.write_all(&100u32.to_le_bytes()).unwrap();
            s.write_all(&[7u8; 10]).unwrap();
        });
        let err = scrape_once(&addr, Duration::from_secs(5)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        peer.join().unwrap();
    }

    #[test]
    fn trickling_peer_fails_within_the_deadline() {
        let (addr, peer) = fake_peer(|mut s| {
            // One byte every 20 ms of a 1 000-byte frame: each read
            // succeeds, only the whole-call deadline can stop it.
            let _ = s.write_all(&1000u32.to_le_bytes());
            for _ in 0..1000 {
                if s.write_all(&[0]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let t0 = Instant::now();
        let err = scrape_once(&addr, Duration::from_millis(300)).unwrap_err();
        let took = t0.elapsed();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(took < Duration::from_millis(800), "deadline overran: {took:?}");
        drop(peer);
    }

    /// A valid two-sample scrape with every metric kind.
    fn valid_scrape() -> Vec<u8> {
        let reg = Arc::new(MetricsRegistry::new());
        reg.counter("c").add(3);
        reg.gauge("g").set(f64::NAN);
        reg.histogram("h", &[1.0, 2.0]).observe(1.5);
        let store = LiveStore::new("fuzz", 2).with_registry(reg);
        store.sample();
        store.sample();
        store.scrape().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random bytes — raw, framed, or a valid scrape with one byte
        /// replaced and its tail cut — decode to a scrape or a typed
        /// error, never a panic.
        #[test]
        fn decode_never_panics(
            body in proptest::collection::vec(0u8..=255, 0..256),
            at in 0usize..1 << 16,
            byte in 0u8..=255,
            cut in 0usize..1 << 16,
        ) {
            let _ = Scrape::decode(&body);
            let _ = Scrape::decode(&frame(&body).unwrap());
            let mut valid = valid_scrape();
            let n = valid.len();
            valid[at % n] = byte;
            valid.truncate(n - cut % n);
            let _ = Scrape::decode(&valid);
        }
    }
}
