//! The serving frontend: connection readers, admission control, the
//! work-conserving batcher, and the result demultiplexer.
//!
//! Thread anatomy (all owned by [`Server`]):
//!
//! ```text
//!  client ──Infer──▶ reader ──try_send──▶ [bounded queue] ──▶ batcher ──▶ engine stages ──▶ demux ──InferResult──▶ client
//!                      │ full? InferReject(queue_full)          │ backlog up to cap                   │ per-request rows
//!                      │ draining/poisoned? typed reject        │ weight refresh (Latest)             │
//! ```
//!
//! Admission control happens at the reader: an `Infer` either enters
//! the bounded queue or is refused *immediately* with a typed
//! [`Message::InferReject`], so clients learn about overload at wire
//! speed instead of through a timeout. The batcher is work-conserving:
//! the moment a request is queued it takes it plus whatever else is
//! already queued, capped at [`ServeConfig::max_batch_rows`] input
//! rows, and submits the batch. Submission blocks while stage 0 is
//! busy, so under load arrivals pile up behind it and the next batch is
//! as large as the backlog — the serving analogue of microbatching, one
//! weight traversal amortized over every row that is waiting — while a
//! lone request never waits for company.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

use crossbeam_channel::{bounded, unbounded, Receiver as ChanRx, Sender as ChanTx};

use pipemare_comms::{
    channel, loopback_pair, CommsError, LoopbackTransport, Message, RejectReason, Sender,
    TcpTransport, TensorPayload, Transport,
};
use pipemare_nn::InferModel;
use pipemare_telemetry::{
    default_rules, AlertEngine, Counter, EventSource, Gauge, Histogram, JournalConfig,
    JournalWriter, LiveStore, MetricsRegistry, Recorder, SpanKind, StatsEndpoint, StoreTicker,
};
use pipemare_tensor::Tensor;

use crate::config::ServeConfig;
use crate::engine::{DynRecorder, StagedEngine};
use crate::weights::WeightSource;

/// Running counters, snapshotted by [`Server::stats`].
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Requests admitted into the queue.
    pub accepted: u64,
    /// Requests shed because the queue was full.
    pub shed: u64,
    /// Requests refused as malformed.
    pub rejected_invalid: u64,
    /// Requests refused because the server was draining.
    pub rejected_draining: u64,
    /// Requests refused because the weight backend failed.
    pub rejected_backend: u64,
    /// Requests whose result was sent back.
    pub served_requests: u64,
    /// Total input rows across served requests.
    pub served_rows: u64,
    /// Batches dispatched into the engine.
    pub batches: u64,
    /// Rows of every dispatched batch, in dispatch order.
    pub batch_rows: Vec<u32>,
}

/// One admitted request waiting to be batched.
struct QueuedReq {
    conn_id: u64,
    id: u64,
    rows: u32,
    data: Vec<f32>,
    enq_us: u64,
    /// The request's causal trace id (0 means the client sent none).
    trace: u64,
}

/// Registry-backed mirrors of [`ServeStats`], kept in lockstep at every
/// increment site so a live scrape (`pm top`, the stats endpoint) sees
/// the same numbers [`Server::stats`] reports — without taking the
/// stats mutex on the scrape path.
struct ServeMetrics {
    accepted: Arc<Counter>,
    shed: Arc<Counter>,
    rejected_invalid: Arc<Counter>,
    rejected_draining: Arc<Counter>,
    rejected_backend: Arc<Counter>,
    served_requests: Arc<Counter>,
    served_rows: Arc<Counter>,
    batches: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    batch_rows: Arc<Histogram>,
}

impl ServeMetrics {
    fn new(reg: &MetricsRegistry) -> Self {
        ServeMetrics {
            accepted: reg.counter("serve.accepted"),
            shed: reg.counter("serve.shed"),
            rejected_invalid: reg.counter("serve.rejected_invalid"),
            rejected_draining: reg.counter("serve.rejected_draining"),
            rejected_backend: reg.counter("serve.rejected_backend"),
            served_requests: reg.counter("serve.served_requests"),
            served_rows: reg.counter("serve.served_rows"),
            batches: reg.counter("serve.batches"),
            queue_depth: reg.gauge("serve.queue_depth"),
            batch_rows: reg
                .histogram("serve.batch_rows", &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]),
        }
    }
}

/// What the demux needs to route one batch's rows back to callers.
struct BatchMeta {
    batch_id: u64,
    members: Vec<(u64, u64, u32)>, // (conn_id, request id, rows)
}

type ConnMap = Mutex<HashMap<u64, Arc<Mutex<Sender>>>>;

struct Inner {
    cfg: ServeConfig,
    in_cols: usize,
    queue_tx: ChanTx<QueuedReq>,
    conns: ConnMap,
    next_conn: AtomicU64,
    draining: AtomicBool,
    paused: AtomicBool,
    stopping: AtomicBool,
    poisoned: Mutex<Option<String>>,
    stats: Mutex<ServeStats>,
    recorder: DynRecorder,
    metrics: ServeMetrics,
    live: Arc<LiveStore>,
    /// The batcher thread, unparked whenever it may have work.
    batcher: OnceLock<thread::Thread>,
}

impl Inner {
    fn wake_batcher(&self) {
        if let Some(batcher) = self.batcher.get() {
            batcher.unpark();
        }
    }

    /// Sends a typed reject to one connection (drops it silently if the
    /// client already went away) and bumps the matching counter.
    fn reject(&self, conn_id: u64, id: u64, reason: RejectReason, message: &str) {
        {
            let mut st = self.stats.lock().expect("stats lock poisoned");
            match reason {
                RejectReason::QueueFull => st.shed += 1,
                RejectReason::Draining => st.rejected_draining += 1,
                RejectReason::Invalid => st.rejected_invalid += 1,
                RejectReason::Backend => st.rejected_backend += 1,
            }
        }
        match reason {
            RejectReason::QueueFull => self.metrics.shed.inc(),
            RejectReason::Draining => self.metrics.rejected_draining.inc(),
            RejectReason::Invalid => self.metrics.rejected_invalid.inc(),
            RejectReason::Backend => self.metrics.rejected_backend.inc(),
        }
        let sender = self.conns.lock().expect("conns lock poisoned").get(&conn_id).cloned();
        if let Some(sender) = sender {
            let _ = sender.lock().expect("conn sender lock poisoned").send(&Message::InferReject {
                id,
                reason,
                message: message.to_string(),
            });
        }
    }
}

/// A running serving frontend over an [`InferModel`].
pub struct Server {
    inner: Arc<Inner>,
    engine: Arc<StagedEngine>,
    batcher: Option<thread::JoinHandle<Option<Box<dyn WeightSource>>>>,
    demux: Option<thread::JoinHandle<()>>,
    readers: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
    acceptors: Vec<thread::JoinHandle<()>>,
    tcp_addrs: Vec<SocketAddr>,
    stats_endpoint: Option<StatsEndpoint>,
    ticker: Option<StoreTicker>,
}

impl Server {
    /// Builds the staged engine from `model`/`params`, spawns the
    /// batcher and demux threads, and returns a server ready to accept
    /// connections via [`Server::connect_loopback`] or
    /// [`Server::listen_tcp`].
    ///
    /// `source`, when given, is consulted every
    /// [`ServeConfig::refresh_every`] batches for fresh weights; a
    /// failed refresh poisons the server, turning every subsequent (and
    /// queued) request into a typed `Backend` reject instead of a hang.
    pub fn start<M: InferModel + 'static>(
        model: Arc<M>,
        params: Vec<f32>,
        cfg: ServeConfig,
        source: Option<Box<dyn WeightSource>>,
        recorder: DynRecorder,
    ) -> Result<Server, String> {
        cfg.validate()?;
        let splits = model.serve_splits(cfg.stages);
        let in_cols = model.input_len();
        let out_cols = model.output_len();
        let param_len = model.param_len();
        let engine =
            Arc::new(StagedEngine::new(Arc::clone(&model), splits, params, Arc::clone(&recorder)));
        let (queue_tx, queue_rx) = bounded::<QueuedReq>(cfg.queue_cap);
        let (meta_tx, meta_rx) = unbounded::<BatchMeta>();
        let registry = Arc::new(MetricsRegistry::new());
        let metrics = ServeMetrics::new(&registry);
        let live = Arc::new(
            LiveStore::new("serve", cfg.stages)
                .with_registry(Arc::clone(&registry))
                .with_events(Arc::clone(&recorder) as Arc<dyn EventSource + Send + Sync>),
        );
        let inner = Arc::new(Inner {
            cfg,
            in_cols,
            queue_tx,
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            paused: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            poisoned: Mutex::new(None),
            stats: Mutex::new(ServeStats::default()),
            recorder: Arc::clone(&recorder),
            metrics,
            live,
            batcher: OnceLock::new(),
        });

        let batcher = {
            let inner = Arc::clone(&inner);
            let engine = Arc::clone(&engine);
            thread::Builder::new()
                .name("serve-batcher".into())
                .spawn(move || run_batcher(inner, engine, queue_rx, meta_tx, source, param_len))
                .expect("spawning the batcher cannot fail")
        };
        // No reader exists yet, so no wake-up can be missed.
        let _ = inner.batcher.set(batcher.thread().clone());
        let demux = {
            let inner = Arc::clone(&inner);
            let done_rx = engine.completions();
            thread::Builder::new()
                .name("serve-demux".into())
                .spawn(move || run_demux(inner, meta_rx, done_rx, out_cols))
                .expect("spawning the demux cannot fail")
        };
        Ok(Server {
            inner,
            engine,
            batcher: Some(batcher),
            demux: Some(demux),
            readers: Arc::new(Mutex::new(Vec::new())),
            acceptors: Vec::new(),
            tcp_addrs: Vec::new(),
            stats_endpoint: None,
            ticker: None,
        })
    }

    /// The server's live stats store (role `serve`): per-stage forward
    /// utilization folded from the flight recorder plus the `serve.*`
    /// admission/batching metrics. Sampled by the background ticker
    /// when [`Server::serve_stats_tcp`] is active; call
    /// [`LiveStore::sample`] yourself otherwise.
    pub fn live_store(&self) -> Arc<LiveStore> {
        Arc::clone(&self.inner.live)
    }

    /// Exposes the plain-TCP stats scrape endpoint on `addr` (port 0
    /// for ephemeral) and starts the background sampling ticker.
    /// `pm top <addr>` then renders this server live. Returns the bound
    /// address.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn serve_stats_tcp(&mut self, addr: &str) -> io::Result<SocketAddr> {
        let endpoint = StatsEndpoint::bind(addr, Arc::clone(&self.inner.live))?;
        let local = endpoint.addr();
        // One sampling ticker total: a journaling ticker started by
        // [`Server::journal_to`] already feeds the same store.
        if self.ticker.is_none() {
            self.ticker =
                Some(StoreTicker::spawn(Arc::clone(&self.inner.live), Duration::from_millis(250)));
        }
        self.stats_endpoint = Some(endpoint);
        Ok(local)
    }

    /// Attaches an [`AlertEngine`] over [`default_rules`] to the live store:
    /// every sample (background tick or on-demand scrape) is evaluated,
    /// firing rules appear as an `alerts` array in the scrape JSON
    /// (`pm top`'s ALERTS pane), and fire/resolve instants land on the
    /// serving recorder's driver track. Returns the engine so callers
    /// can add an [`AlertEngine::on_firing`] hook or poll
    /// [`AlertEngine::active`].
    pub fn alert_rules(&self) -> Arc<AlertEngine> {
        let engine = Arc::new(AlertEngine::new(default_rules()));
        let recorder = Arc::clone(&self.inner.recorder) as Arc<dyn Recorder + Send + Sync>;
        engine.attach_recorder(recorder, self.inner.cfg.stages as u32);
        self.inner.live.attach_alerts(Arc::clone(&engine));
        engine
    }

    /// Starts journaling every background-ticker sample to a durable
    /// telemetry journal in `dir` (created if absent), readable later
    /// with `pm query` even if this process dies mid-run. Replaces a
    /// plain ticker started by [`Server::serve_stats_tcp`], so the two
    /// planes share one 250 ms sampler.
    ///
    /// # Errors
    ///
    /// Propagates journal-directory creation failures.
    pub fn journal_to(&mut self, dir: impl AsRef<Path>) -> io::Result<()> {
        let mut writer = JournalWriter::create(
            dir.as_ref(),
            "serve",
            self.inner.cfg.stages,
            JournalConfig::default(),
        )?;
        self.ticker = None;
        let mut warned = false;
        self.ticker = Some(StoreTicker::spawn_with_hook(
            Arc::clone(&self.inner.live),
            Duration::from_millis(250),
            move |sample| {
                // Best-effort: a full disk must not take serving down.
                if let Err(e) = writer.append(sample) {
                    if !warned {
                        eprintln!("serve: journal append failed: {e}");
                        warned = true;
                    }
                }
            },
        ));
        Ok(())
    }

    /// Registers an in-process client connection, returning the client
    /// end of a fresh loopback pair.
    pub fn connect_loopback(&self) -> LoopbackTransport {
        let (client_end, server_end) = loopback_pair();
        self.register(Box::new(server_end));
        client_end
    }

    /// Starts accepting TCP client connections on `addr` (use port 0
    /// for an ephemeral port); returns the bound address.
    pub fn listen_tcp(&mut self, addr: &str) -> Result<SocketAddr, CommsError> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let inner = Arc::clone(&self.inner);
        let readers = Arc::clone(&self.readers);
        let handle = thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if inner.stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if let Ok(t) = TcpTransport::new(stream) {
                        register_conn(&inner, &readers, Box::new(t));
                    }
                }
            })
            .expect("spawning the acceptor cannot fail");
        self.acceptors.push(handle);
        self.tcp_addrs.push(local);
        Ok(local)
    }

    fn register(&self, transport: Box<dyn Transport>) {
        register_conn(&self.inner, &self.readers, transport);
    }

    /// A snapshot of the running counters.
    pub fn stats(&self) -> ServeStats {
        self.inner.stats.lock().expect("stats lock poisoned").clone()
    }

    /// Stops the batcher from popping the queue (admission control keeps
    /// running, so a full queue sheds deterministically). Test and
    /// drain hook.
    pub fn pause_batcher(&self) {
        self.inner.paused.store(true, Ordering::SeqCst);
    }

    /// Undoes [`Server::pause_batcher`].
    pub fn resume_batcher(&self) {
        self.inner.paused.store(false, Ordering::SeqCst);
        self.inner.wake_batcher();
    }

    /// Graceful shutdown: new requests get `Draining` rejects, queued
    /// requests are served, in-flight batches complete and reach their
    /// clients, then every thread is joined. Returns final stats.
    pub fn shutdown(mut self) -> ServeStats {
        // 0. Stop the stats and journal planes first: a scrape of a
        //    half-torn-down server is useless.
        self.stats_endpoint = None;
        self.ticker = None;
        // 1. Refuse new work, let the batcher drain what's queued.
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.paused.store(false, Ordering::SeqCst);
        self.inner.wake_batcher();
        let source = match self.batcher.take() {
            Some(h) => h.join().unwrap_or(None),
            None => None,
        };
        // 2. Batcher is gone: close the engine (joins stage threads
        //    after in-flight batches flow out) and let the demux finish
        //    routing every completed batch (its meta channel closed when
        //    the batcher exited).
        self.engine.shutdown();
        if let Some(h) = self.demux.take() {
            let _ = h.join();
        }
        // 3. Release connections: readers poll `stopping` on their
        //    receive timeout; blocked TCP acceptors are woken by a
        //    throwaway connection.
        self.inner.stopping.store(true, Ordering::SeqCst);
        for addr in &self.tcp_addrs {
            let _ = TcpStream::connect(addr);
        }
        for h in self.acceptors.drain(..) {
            let _ = h.join();
        }
        let readers: Vec<_> =
            self.readers.lock().expect("readers lock poisoned").drain(..).collect();
        for h in readers {
            let _ = h.join();
        }
        // 4. Tell shard workers (if any) to exit.
        if let Some(source) = source {
            source.shutdown();
        }
        self.stats()
    }
}

fn register_conn(
    inner: &Arc<Inner>,
    readers: &Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
    transport: Box<dyn Transport>,
) {
    let Ok((sender, mut receiver)) = channel(transport) else { return };
    if receiver.set_timeout(inner.cfg.conn_recv_timeout).is_err() {
        return;
    }
    let conn_id = inner.next_conn.fetch_add(1, Ordering::SeqCst);
    let sender = Arc::new(Mutex::new(sender));
    inner.conns.lock().expect("conns lock poisoned").insert(conn_id, Arc::clone(&sender));
    let inner = Arc::clone(inner);
    let handle = thread::Builder::new()
        .name(format!("serve-conn-{conn_id}"))
        .spawn(move || {
            run_reader(&inner, conn_id, &mut receiver);
            inner.conns.lock().expect("conns lock poisoned").remove(&conn_id);
        })
        .expect("spawning a reader cannot fail");
    readers.lock().expect("readers lock poisoned").push(handle);
}

/// One connection's read loop: admission control happens here.
fn run_reader(inner: &Inner, conn_id: u64, receiver: &mut pipemare_comms::Receiver) {
    loop {
        match receiver.recv() {
            Ok(Message::StatsRequest { id }) => {
                // A live scrape over the serving port, current as of now,
                // answered on this connection.
                let sender =
                    inner.conns.lock().expect("conns lock poisoned").get(&conn_id).cloned();
                if let (Some(sender), Ok(frame)) = (sender, inner.live.scrape_fresh()) {
                    let _ = sender
                        .lock()
                        .expect("conn sender lock poisoned")
                        .send(&Message::StatsReply { id, frame });
                }
            }
            Ok(Message::Infer { id, rows, cols, trace, data }) => {
                let expected = (rows as usize).saturating_mul(cols as usize);
                if rows == 0 || cols as usize != inner.in_cols || data.dense_len() != expected {
                    inner.reject(
                        conn_id,
                        id,
                        RejectReason::Invalid,
                        &format!(
                            "want [rows>0, {}] inputs, got [{rows}, {cols}] with {} values",
                            inner.in_cols,
                            data.dense_len()
                        ),
                    );
                    continue;
                }
                let poisoned = inner.poisoned.lock().expect("poison lock poisoned").clone();
                if let Some(cause) = poisoned {
                    inner.reject(conn_id, id, RejectReason::Backend, &cause);
                    continue;
                }
                if inner.draining.load(Ordering::SeqCst) {
                    inner.reject(conn_id, id, RejectReason::Draining, "server is draining");
                    continue;
                }
                let req = QueuedReq {
                    conn_id,
                    id,
                    rows,
                    data: data.into_dense(),
                    enq_us: inner.recorder.now_us(),
                    // Clients that predate trace ids send 0; give those
                    // requests a per-connection causal id anyway.
                    trace: if trace != 0 { trace } else { id + 1 },
                };
                match inner.queue_tx.try_send(req) {
                    Ok(()) => {
                        inner.stats.lock().expect("stats lock poisoned").accepted += 1;
                        inner.metrics.accepted.inc();
                        inner.metrics.queue_depth.set(inner.queue_tx.len() as f64);
                        inner.wake_batcher();
                    }
                    Err(crossbeam_channel::TrySendError::Full(_)) => {
                        inner.reject(
                            conn_id,
                            id,
                            RejectReason::QueueFull,
                            &format!("admission queue full ({} pending)", inner.cfg.queue_cap),
                        );
                    }
                    Err(crossbeam_channel::TrySendError::Disconnected(_)) => {
                        inner.reject(conn_id, id, RejectReason::Draining, "server is stopping");
                    }
                }
            }
            Ok(other) => {
                // The serving port speaks Infer only; anything else is a
                // protocol violation worth telling the peer about.
                let sender =
                    inner.conns.lock().expect("conns lock poisoned").get(&conn_id).cloned();
                if let Some(sender) = sender {
                    let _ =
                        sender.lock().expect("conn sender lock poisoned").send(&Message::Error {
                            code: 0,
                            message: format!("serving expects Infer, got {}", other.name()),
                        });
                }
                return;
            }
            Err(CommsError::Timeout) => {
                if inner.stopping.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// The work-conserving batcher: takes the first queued request plus
/// whatever else is already queued, refreshes weights, submits to the
/// engine. With nothing to do, or while paused, it parks until a reader,
/// [`Server::resume_batcher`] or [`Server::shutdown`] unparks it.
fn run_batcher(
    inner: Arc<Inner>,
    engine: Arc<StagedEngine>,
    queue_rx: ChanRx<QueuedReq>,
    meta_tx: ChanTx<BatchMeta>,
    mut source: Option<Box<dyn WeightSource>>,
    param_len: usize,
) -> Option<Box<dyn WeightSource>> {
    let cfg = &inner.cfg;
    let rec = &inner.recorder;
    let driver_track = cfg.stages as u32;
    let mut held: Option<QueuedReq> = None;
    let mut batch_id: u64 = 0;
    // The refresh target, made at the first refresh, filled outside the
    // engine's lock and swapped in: without a source none exists.
    let mut spare: Option<Vec<f32>> = None;
    loop {
        if inner.paused.load(Ordering::SeqCst) {
            thread::park();
            continue;
        }
        let Some(first) = held.take().or_else(|| queue_rx.try_recv().ok()) else {
            if inner.draining.load(Ordering::SeqCst) {
                // Drained: nothing held, nothing queued.
                return source;
            }
            thread::park();
            continue;
        };
        let open_us = rec.now_us();
        let mut members = vec![first];
        let mut rows = members[0].rows;
        // Everything already queued joins, up to the row cap; a request
        // that would overflow it is held for the next batch.
        while rows < cfg.max_batch_rows {
            let Ok(req) = queue_rx.try_recv() else { break };
            if rows + req.rows > cfg.max_batch_rows {
                held = Some(req);
                break;
            }
            rows += req.rows;
            members.push(req);
        }
        // Weight refresh rides the batch boundary so a batch never
        // mixes two weight versions.
        if let (Some(src), Some(every)) = (source.as_mut(), cfg.refresh_every) {
            if batch_id.is_multiple_of(every) {
                let mut fresh = spare.take().unwrap_or_else(|| vec![0.0; param_len]);
                if let Err(e) = src.fetch_latest(&mut fresh) {
                    let cause = format!("weight refresh failed: {e}");
                    *inner.poisoned.lock().expect("poison lock poisoned") = Some(cause.clone());
                    for m in members.drain(..) {
                        inner.reject(m.conn_id, m.id, RejectReason::Backend, &cause);
                    }
                    for m in held.take().into_iter().chain(queue_rx.try_iter()) {
                        inner.reject(m.conn_id, m.id, RejectReason::Backend, &cause);
                    }
                    continue;
                }
                spare = Some(engine.swap_weights(fresh));
            }
        }
        let dispatch_us = rec.now_us();
        rec.record_span(
            SpanKind::Coalesce,
            driver_track,
            driver_track,
            batch_id as u32,
            open_us,
            dispatch_us,
        );
        let mut data = Vec::with_capacity(rows as usize * inner.in_cols);
        let mut meta = Vec::with_capacity(members.len());
        for m in &members {
            // The queue-wait span carries the request's trace id, tying
            // the request to the batch (the span's end instant equals
            // the batch's coalesce end) for `pm trace path`.
            rec.record_span_traced(
                SpanKind::QueueWaitFwd,
                driver_track,
                driver_track,
                m.id as u32,
                m.trace,
                m.enq_us,
                dispatch_us,
            );
            data.extend_from_slice(&m.data);
            meta.push((m.conn_id, m.id, m.rows));
        }
        {
            let mut st = inner.stats.lock().expect("stats lock poisoned");
            st.batches += 1;
            st.batch_rows.push(rows);
        }
        inner.metrics.batches.inc();
        inner.metrics.batch_rows.observe(rows as f64);
        inner.metrics.queue_depth.set(queue_rx.len() as f64);
        let x = Tensor::from_vec(data, &[rows as usize, inner.in_cols]);
        // Meta first so the demux never sees an orphan completion.
        let _ = meta_tx.send(BatchMeta { batch_id, members: meta });
        engine.submit(batch_id, x);
        batch_id += 1;
    }
}

/// The demux: splits each completed batch back into per-request
/// results and writes them to the owning connections.
fn run_demux(
    inner: Arc<Inner>,
    meta_rx: ChanRx<BatchMeta>,
    done_rx: ChanRx<(u64, Tensor)>,
    out_cols: usize,
) {
    for meta in meta_rx.iter() {
        let Ok((bid, out)) = done_rx.recv() else { return };
        debug_assert_eq!(bid, meta.batch_id, "engine must preserve submission order");
        let values = out.data();
        let mut row = 0usize;
        for (conn_id, id, rows) in meta.members {
            let lo = row * out_cols;
            let hi = lo + rows as usize * out_cols;
            row += rows as usize;
            let sender = inner.conns.lock().expect("conns lock poisoned").get(&conn_id).cloned();
            if let Some(sender) = sender {
                let msg = Message::InferResult {
                    id,
                    rows,
                    cols: out_cols as u32,
                    data: TensorPayload::Dense(values[lo..hi].to_vec()),
                };
                let _ = sender.lock().expect("conn sender lock poisoned").send(&msg);
            }
            let mut st = inner.stats.lock().expect("stats lock poisoned");
            st.served_requests += 1;
            st.served_rows += rows as u64;
            drop(st);
            inner.metrics.served_requests.inc();
            inner.metrics.served_rows.add(rows as u64);
        }
    }
}
