//! The traced run's instrumentation: in-memory spans around every call
//! the benchmark can see into a layer, plus the `Transport` and
//! `StableStore` wrappers that produce them.
//!
//! A span records its layer, start, end, the span that was open on the
//! same thread when it began (its parent) and its self time (duration
//! minus the time covered by its children). Totals per layer are kept
//! for every span; the individual spans are kept up to a cap and written
//! out when the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use aaa_base::{Result, ServerId};
use aaa_net::{Incoming, PeerState, ReadyNotifier, Transport};
use aaa_obs::Meter;
use aaa_storage::{StableStore, StorageStats};
use bytes::Bytes;

/// A layer boundary the benchmark wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// A client call into `Mom` (`send`, `send_batch`, `relay_connect`…).
    Client,
    /// `Transport::send` / `send_batch`.
    TransportSend,
    /// `Transport::poll_recv`.
    TransportPoll,
    /// `StableStore::put` / `remove`.
    StorePut,
    /// `StableStore::get` / `keys`.
    StoreGet,
    /// A reaction of one of the benchmark's own agents.
    Agent,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Client,
        Layer::TransportSend,
        Layer::TransportPoll,
        Layer::StorePut,
        Layer::StoreGet,
        Layer::Agent,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Client => "mom.client",
            Layer::TransportSend => "net.transport.send",
            Layer::TransportPoll => "net.transport.poll",
            Layer::StorePut => "storage.put",
            Layer::StoreGet => "storage.get",
            Layer::Agent => "engine.agent",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    thread: u64,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
}

/// Running totals of one layer.
#[derive(Debug, Default)]
struct Totals {
    count: AtomicU64,
    total_ns: AtomicU64,
    self_ns: AtomicU64,
    /// Layer-specific count: frames or bytes sent, polls that returned a
    /// datagram, bytes put.
    aux: AtomicU64,
}

/// A copy of one layer's totals at a point in time.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub aux: u64,
}

impl LayerTotals {
    pub fn minus(self, earlier: LayerTotals) -> LayerTotals {
        LayerTotals {
            count: self.count - earlier.count,
            total_ns: self.total_ns - earlier.total_ns,
            self_ns: self.self_ns - earlier.self_ns,
            aux: self.aux - earlier.aux,
        }
    }
}

/// Most spans kept for the dump; totals cover every span regardless.
const SPAN_CAP: usize = 200_000;

/// The span recorder shared by every wrapper and agent of a traced leg.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    totals: [Totals; 6],
    spans: Mutex<Vec<Span>>,
}

struct Open {
    id: u64,
    child_ns: u64,
}

thread_local! {
    /// Spans open on this thread, innermost last.
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = next_thread_id();
}

fn next_thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Ends its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    layer: Layer,
    id: u64,
    start: Instant,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            totals: Default::default(),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Opens a span on the calling thread.
    pub fn span(&self, layer: Layer) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().push(Open { id, child_ns: 0 }));
        SpanGuard {
            tracer: self,
            layer,
            id,
            start: Instant::now(),
        }
    }

    /// Adds to a layer's layer-specific count.
    pub fn add_aux(&self, layer: Layer, n: u64) {
        self.totals[layer.index()]
            .aux
            .fetch_add(n, Ordering::Relaxed);
    }

    pub fn totals(&self, layer: Layer) -> LayerTotals {
        let t = &self.totals[layer.index()];
        LayerTotals {
            count: t.count.load(Ordering::Relaxed),
            total_ns: t.total_ns.load(Ordering::Relaxed),
            self_ns: t.self_ns.load(Ordering::Relaxed),
            aux: t.aux.load(Ordering::Relaxed),
        }
    }

    pub fn all_totals(&self) -> [LayerTotals; 6] {
        Layer::ALL.map(|l| self.totals(l))
    }

    pub fn span_count(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed) - 1
    }

    fn end(&self, guard: &SpanGuard<'_>) {
        let end = Instant::now();
        let dur = u64::try_from(end.duration_since(guard.start).as_nanos()).unwrap_or(u64::MAX);
        let (child_ns, parent) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let open = s.pop();
            debug_assert!(open.as_ref().is_some_and(|o| o.id == guard.id));
            let parent = s.last_mut().map_or(0, |p| {
                p.child_ns += dur;
                p.id
            });
            (open.map_or(0, |o| o.child_ns), parent)
        });
        let t = &self.totals[guard.layer.index()];
        t.count.fetch_add(1, Ordering::Relaxed);
        t.total_ns.fetch_add(dur, Ordering::Relaxed);
        t.self_ns
            .fetch_add(dur.saturating_sub(child_ns), Ordering::Relaxed);
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        if spans.len() < SPAN_CAP {
            let ns =
                |i: Instant| u64::try_from(i.duration_since(self.epoch).as_nanos()).unwrap_or(0);
            spans.push(Span {
                id: guard.id,
                parent,
                thread: THREAD.with(|t| *t),
                layer: guard.layer,
                start_ns: ns(guard.start),
                end_ns: ns(end),
            });
        }
    }

    /// The kept spans as tab-separated lines:
    /// `id parent thread layer start_ns end_ns`.
    pub fn dump(&self) -> String {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut out = String::from("id\tparent\tthread\tlayer\tstart_ns\tend_ns\n");
        for s in spans.iter() {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.thread,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.end(self);
    }
}

/// Opens a span if tracing is on.
pub fn span(tracer: &Option<Arc<Tracer>>, layer: Layer) -> Option<SpanGuard<'_>> {
    tracer.as_ref().map(|t| t.span(layer))
}

/// A `Transport` that records a span around every send and poll.
pub struct TracedTransport {
    inner: Box<dyn Transport>,
    tracer: Arc<Tracer>,
}

impl TracedTransport {
    pub fn wrap(inner: Box<dyn Transport>, tracer: Arc<Tracer>) -> Box<dyn Transport> {
        Box::new(TracedTransport { inner, tracer })
    }
}

impl Transport for TracedTransport {
    fn me(&self) -> ServerId {
        self.inner.me()
    }

    fn send(&self, to: ServerId, bytes: Bytes) -> Result<()> {
        let _s = self.tracer.span(Layer::TransportSend);
        self.tracer
            .add_aux(Layer::TransportSend, bytes.len() as u64);
        self.inner.send(to, bytes)
    }

    fn send_batch(&self, to: ServerId, batch: &[Bytes]) -> Result<()> {
        let _s = self.tracer.span(Layer::TransportSend);
        let bytes: usize = batch.iter().map(Bytes::len).sum();
        self.tracer.add_aux(Layer::TransportSend, bytes as u64);
        self.inner.send_batch(to, batch)
    }

    fn poll_recv(&self) -> Result<Option<Incoming>> {
        let _s = self.tracer.span(Layer::TransportPoll);
        let got = self.inner.poll_recv();
        if matches!(got, Ok(Some(_))) {
            self.tracer.add_aux(Layer::TransportPoll, 1);
        }
        got
    }

    fn set_ready_notifier(&mut self, notifier: ReadyNotifier) {
        self.inner.set_ready_notifier(notifier);
    }

    fn attach_meter(&mut self, meter: &Meter) {
        self.inner.attach_meter(meter);
    }

    fn peer_state(&self, to: ServerId) -> PeerState {
        self.inner.peer_state(to)
    }
}

/// A `StableStore` that records a span around every call.
pub struct TracedStore {
    inner: Arc<dyn StableStore>,
    tracer: Arc<Tracer>,
}

impl TracedStore {
    pub fn wrap(inner: Arc<dyn StableStore>, tracer: Arc<Tracer>) -> Arc<dyn StableStore> {
        Arc::new(TracedStore { inner, tracer })
    }
}

impl StableStore for TracedStore {
    fn put(&self, key: &str, value: &[u8]) -> Result<()> {
        let _s = self.tracer.span(Layer::StorePut);
        self.tracer.add_aux(Layer::StorePut, value.len() as u64);
        self.inner.put(key, value)
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        let _s = self.tracer.span(Layer::StoreGet);
        self.inner.get(key)
    }

    fn remove(&self, key: &str) -> Result<()> {
        let _s = self.tracer.span(Layer::StorePut);
        self.inner.remove(key)
    }

    fn keys(&self) -> Result<Vec<String>> {
        let _s = self.tracer.span(Layer::StoreGet);
        self.inner.keys()
    }

    fn stats(&self) -> &StorageStats {
        self.inner.stats()
    }
}
