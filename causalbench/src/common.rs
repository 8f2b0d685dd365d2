//! Pieces every workload shares: how a leg is configured, how the bus is
//! built, the payload format, the bus counters read for the per-layer
//! report, and the result of one round.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use aaa_base::{AgentId, Error, Result, ServerId};
use aaa_clocks::StampMode;
use aaa_mom::{ClockConfig, Mom, MomBuilder, NetConfig, RelayConfig, RuntimeConfig};
use aaa_net::MemoryNetwork;
use aaa_obs::{MetricsSnapshot, SampleValue};
use aaa_storage::StableStore;
use aaa_topology::TopologySpec;

use crate::procfs;
use crate::trace::{span, Layer, LayerTotals, Tracer};

/// Local id of every benchmark client (the `from` of client sends).
pub const CLIENT: u32 = 9;

/// Phases after warm-up (0), as seen by the benchmark's agents: the
/// live window at full load, a stop, and the lightly loaded window in
/// which latency is sampled (one message in flight).
pub const MEASURE: u8 = 1;
pub const STOP: u8 = 2;
pub const LIGHT: u8 = 3;

/// How one leg of a run is instrumented.
#[derive(Clone)]
pub struct Leg {
    /// Spans around wrapped calls (the traced leg only).
    pub tracer: Option<Arc<Tracer>>,
    /// The bus's own metrics registry (off only in the metrics-off leg).
    pub metrics: bool,
    /// Read the bus counters and process figures the per-layer report
    /// needs.
    pub layers: bool,
}

impl Leg {
    pub fn plain() -> Leg {
        Leg {
            tracer: None,
            metrics: true,
            layers: false,
        }
    }
}

pub fn aid(server: u16, local: u32) -> AgentId {
    AgentId::new(ServerId::new(server), local)
}

/// Builds a bus on the evented runtime with one shard, the in-memory
/// transport, `Updates` stamps, metrics as the leg says and trace
/// recording off. A traced leg wraps every transport endpoint and store.
pub fn build_mom(
    spec: TopologySpec,
    n: usize,
    leg: &Leg,
    stores: Option<Vec<Arc<dyn StableStore>>>,
    relay: Option<RelayConfig>,
) -> Result<Mom> {
    let mut b = MomBuilder::new(spec)
        .runtime(
            RuntimeConfig::evented(1)
                .record_trace(false)
                .metrics(leg.metrics)
                .persist(stores.is_some()),
        )
        .clock(ClockConfig::mode(StampMode::Updates))
        .net(NetConfig::memory());
    let mut stores = stores;
    if let Some(tracer) = &leg.tracer {
        b = b.transports(
            MemoryNetwork::create(n)
                .into_iter()
                .map(|e| crate::trace::TracedTransport::wrap(Box::new(e), tracer.clone()))
                .collect(),
        );
        stores = stores.map(|s| {
            s.into_iter()
                .map(|s| crate::trace::TracedStore::wrap(s, tracer.clone()))
                .collect()
        });
    }
    if let Some(stores) = stores {
        b = b.stores(stores);
    }
    if let Some(relay) = relay {
        b = b.relay(relay);
    }
    b.build()
}

/// Runs a client call, inside a `mom.client` span on a traced leg, and
/// retries while the server reports backpressure.
pub fn client<T>(leg: &Leg, mut op: impl FnMut() -> Result<T>) -> Result<T> {
    let _s = span(&leg.tracer, Layer::Client);
    loop {
        match op() {
            Err(Error::Backpressure) => std::thread::sleep(Duration::from_micros(200)),
            other => return other,
        }
    }
}

/// Nanoseconds since the first call in this process; payload timestamps
/// use it, so send and receipt times share one clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Payload of every benchmark message: two identifiers and the send
/// timestamp, padded to 32 bytes.
pub fn payload(a: u64, b: u64, ts_ns: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&a.to_le_bytes());
    out.extend_from_slice(&b.to_le_bytes());
    out.extend_from_slice(&ts_ns.to_le_bytes());
    out.extend_from_slice(&[0; 8]);
    out
}

/// Decodes [`payload`]; `None` if the body is not 32 bytes.
pub fn parse(body: &[u8]) -> Option<(u64, u64, u64)> {
    let word = |i: usize| {
        body.get(i * 8..i * 8 + 8)
            .and_then(|w| <[u8; 8]>::try_from(w).ok())
            .map(u64::from_le_bytes)
    };
    (body.len() == 32).then_some(())?;
    Some((word(0)?, word(1)?, word(2)?))
}

/// Waits until `done` holds, polling every `poll`; `false` on timeout.
pub fn wait_until(timeout: Duration, poll: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if done() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(poll);
    }
}

/// Splitmix64: the benchmark's only source of pseudo-random choices.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shared counters of the benchmark's agents.
#[derive(Debug, Default)]
pub struct Counters {
    pub phase: AtomicU8,
    /// Messages of the live phase delivered to benchmark agents.
    pub delivered: AtomicU64,
    /// Messages of the drain phase delivered.
    pub drained: AtomicU64,
    /// Closed-loop operations ended after the stop.
    pub absorbed: AtomicU64,
    /// Settle probes delivered.
    pub probes: AtomicU64,
    /// Check violations seen by the agents themselves.
    pub failures: AtomicU64,
}

impl Counters {
    pub fn phase(&self) -> u8 {
        self.phase.load(Ordering::Acquire)
    }

    pub fn set_phase(&self, phase: u8) {
        self.phase.store(phase, Ordering::Release);
    }
}

/// Set-up time of one bus, split into its three steps.
#[derive(Debug, Default, Clone, Copy)]
pub struct Setup {
    pub build_s: f64,
    pub register_s: f64,
    pub settle_s: f64,
}

impl Setup {
    pub fn total(&self) -> f64 {
        self.build_s + self.register_s + self.settle_s
    }
}

/// Times the three set-up steps.
pub struct SetupClock {
    start: Instant,
    marks: Vec<f64>,
}

impl SetupClock {
    pub fn start() -> SetupClock {
        SetupClock {
            start: Instant::now(),
            marks: Vec::new(),
        }
    }

    pub fn mark(&mut self) {
        self.marks.push(self.start.elapsed().as_secs_f64());
    }

    pub fn finish(self) -> Setup {
        let m = |i: usize| self.marks.get(i).copied().unwrap_or(0.0);
        Setup {
            build_s: m(0),
            register_s: m(1) - m(0),
            settle_s: m(2) - m(1),
        }
    }
}

/// Sums of the bus counters and histograms the per-layer report reads.
#[derive(Debug, Default, Clone, Copy)]
pub struct BusCounts {
    pub forwarded: u64,
    pub postponed: u64,
    pub postponed_us: u64,
    pub cell_ops: u64,
    pub stamp_bytes: u64,
    pub flushes: u64,
    pub batches: u64,
    pub batch_frames: u64,
    pub retransmissions: u64,
    pub tx_bytes: u64,
    pub relay_enqueued: u64,
    pub relay_redeliveries: u64,
    pub relay_handoff_dup: u64,
    pub relay_compactions: u64,
}

/// `(count, sum)` of a histogram family summed over every server.
fn hist(snap: &MetricsSnapshot, name: &str) -> (u64, u64) {
    snap.families
        .iter()
        .filter(|f| f.name == name)
        .flat_map(|f| &f.samples)
        .fold((0, 0), |(c, s), sample| match &sample.value {
            SampleValue::Histogram(h) => (c + h.count, s + h.sum),
            _ => (c, s),
        })
}

impl BusCounts {
    pub fn read(mom: &Mom) -> BusCounts {
        let snap = mom.metrics();
        let c = |name: &str| snap.sum_counter(name);
        let (postponed, postponed_us) = hist(&snap, "aaa_channel_postponement_us");
        let (batches, batch_frames) = hist(&snap, "aaa_link_batch_frames");
        BusCounts {
            forwarded: c("aaa_channel_forwarded_total"),
            postponed,
            postponed_us,
            cell_ops: c("aaa_channel_cell_ops_total"),
            stamp_bytes: c("aaa_channel_stamp_bytes_total"),
            flushes: c("aaa_link_flushes_total"),
            batches,
            batch_frames,
            retransmissions: c("aaa_server_retransmissions_total"),
            tx_bytes: c("aaa_net_tx_bytes_total"),
            relay_enqueued: c("aaa_relay_enqueued_total"),
            relay_redeliveries: c("aaa_relay_redeliveries_total"),
            relay_handoff_dup: c("aaa_relay_handoff_dup_total"),
            relay_compactions: c("aaa_relay_compactions_total"),
        }
    }

    pub fn minus(&self, e: &BusCounts) -> BusCounts {
        BusCounts {
            forwarded: self.forwarded - e.forwarded,
            postponed: self.postponed - e.postponed,
            postponed_us: self.postponed_us - e.postponed_us,
            cell_ops: self.cell_ops - e.cell_ops,
            stamp_bytes: self.stamp_bytes - e.stamp_bytes,
            flushes: self.flushes - e.flushes,
            batches: self.batches - e.batches,
            batch_frames: self.batch_frames - e.batch_frames,
            retransmissions: self.retransmissions - e.retransmissions,
            tx_bytes: self.tx_bytes - e.tx_bytes,
            relay_enqueued: self.relay_enqueued - e.relay_enqueued,
            relay_redeliveries: self.relay_redeliveries - e.relay_redeliveries,
            relay_handoff_dup: self.relay_handoff_dup - e.relay_handoff_dup,
            relay_compactions: self.relay_compactions - e.relay_compactions,
        }
    }
}

/// What the per-layer report needs from one round's live window.
#[derive(Debug, Default, Clone)]
pub struct LayerWindow {
    pub bus: BusCounts,
    pub trace: Option<[LayerTotals; 6]>,
    pub threads: u64,
    pub queue_depth_max: i64,
}

/// Figures taken at the start of a live window.
pub struct WindowStart {
    at: Instant,
    cpu_s: f64,
    delivered: u64,
    bus: Option<BusCounts>,
    trace: Option<[LayerTotals; 6]>,
}

impl WindowStart {
    pub fn take(mom: &Mom, leg: &Leg, delivered: u64) -> WindowStart {
        WindowStart {
            bus: leg.layers.then(|| BusCounts::read(mom)),
            trace: leg.tracer.as_ref().map(|t| t.all_totals()),
            at: Instant::now(),
            cpu_s: procfs::cpu_seconds(),
            delivered,
        }
    }

    /// Closes the window: fills the round's live figures and, on a leg
    /// that reads layers, its layer window.
    pub fn finish(self, mom: &Mom, leg: &Leg, delivered: u64, depth_max: i64, round: &mut Round) {
        round.live_s = self.at.elapsed().as_secs_f64();
        round.live_cpu_s = procfs::cpu_seconds() - self.cpu_s;
        round.live_msgs = delivered - self.delivered;
        if let Some(bus0) = self.bus {
            round.layers = Some(LayerWindow {
                bus: BusCounts::read(mom).minus(&bus0),
                trace: leg.tracer.as_ref().zip(self.trace).map(|(t, t0)| {
                    let now = t.all_totals();
                    std::array::from_fn(|i| now[i].minus(t0[i]))
                }),
                threads: procfs::threads(),
                queue_depth_max: depth_max,
            });
        }
    }
}

/// Sleeps through a live window of `len`; if `sample_depth`, samples
/// the relay queue-depth gauge every 50 ms and returns its maximum.
pub fn sleep_window(mom: &Mom, sample_depth: bool, len: Duration) -> i64 {
    let end = Instant::now() + len;
    let mut depth_max = 0;
    loop {
        let now = Instant::now();
        if now >= end {
            return depth_max;
        }
        if sample_depth {
            depth_max = depth_max.max(mom.metrics().sum_gauge("aaa_relay_queue_depth"));
            std::thread::sleep((end - now).min(Duration::from_millis(50)));
        } else {
            std::thread::sleep(end - now);
        }
    }
}

/// The timed windows of one round.
#[derive(Debug, Clone, Copy)]
pub struct Windows {
    /// The live window, at full load.
    pub live: Duration,
    /// The lightly loaded window, in which latency is sampled.
    pub light: Duration,
    /// Whether the round ends with a timed backlog drain.
    pub drain: bool,
}

/// The outcome of one round: one bus, set up, warmed, measured, drained,
/// checked and shut down.
#[derive(Debug, Default, Clone)]
pub struct Round {
    pub setup: Setup,
    /// Benchmark-counted deliveries in the live window.
    pub live_msgs: u64,
    pub live_s: f64,
    pub live_cpu_s: f64,
    /// Median and 99th percentile of the latency samples of the lightly
    /// loaded window, in µs.
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
    pub drain_msgs: u64,
    pub drain_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub layers: Option<LayerWindow>,
    /// Bus counters over the drain, on a layer-reading leg.
    pub drain_bus: Option<BusCounts>,
    /// Client calls made during the round (count, total ns), traced leg.
    pub client_calls: Option<LayerTotals>,
}

impl Round {
    pub fn throughput(&self) -> f64 {
        self.live_msgs as f64 / self.live_s
    }

    /// Deliveries per second of the drain; 0 if the round did not drain.
    pub fn drain_rate(&self) -> f64 {
        if self.drain_msgs == 0 {
            return 0.0;
        }
        self.drain_msgs as f64 / self.drain_s
    }

    pub fn cpu_us_per_msg(&self) -> f64 {
        self.live_cpu_s * 1e6 / self.live_msgs.max(1) as f64
    }
}

/// Sets the round's latency figures from samples in nanoseconds.
pub fn set_latency(round: &mut Round, mut samples_ns: Vec<u64>) {
    samples_ns.sort_unstable();
    // Nearest rank.
    let at = |q: f64| {
        let rank = ((q * samples_ns.len() as f64).ceil() as usize).clamp(1, samples_ns.len());
        samples_ns[rank - 1] as f64 / 1e3
    };
    if !samples_ns.is_empty() {
        round.latency_p50_us = at(0.50);
        round.latency_p99_us = at(0.99);
    }
}

/// Counts a failure, with its reason on stderr, unless `ok`.
pub fn expect_ok(ok: bool, what: &str, failed: &mut u64) {
    if !ok {
        eprintln!("check failed: {what}");
        *failed += 1;
    }
}
