//! `relay-mem`: a relayed topic on server 0 of two servers fans out to
//! `SUBSCRIBERS` subscribers on server 1, with persistence on. Server
//! images go to a `MemoryStore` per server and the relay keeps its
//! subscriber queues in memory.
//!
//! Live phase: a publisher agent on server 0 keeps a fixed number of
//! publications in flight, releasing one more per publication's worth of
//! subscriber deliveries. Lightly loaded phase: the same with one
//! publication in flight; each delivery is a latency sample, timed from
//! the publish timestamp in its payload. Cold phase, in a round that
//! drains (the first of a run): every subscriber disconnects, the publisher agent publishes a fixed backlog in one
//! reaction (below the relay's default depth bound of 4096, so nothing
//! is dropped), and the drain is timed from reconnecting the subscribers
//! until every one has the whole backlog. Checks: each subscriber
//! received exactly publications 1..P, in publish order, across every
//! phase, and the relay dropped nothing (`aaa_pubsub_dropped_total`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use aaa_base::{AgentId, Result, ServerId};
use aaa_mom::pubsub::{publication, subscription, TopicAgent};
use aaa_mom::{relay_agent, Agent, Mom, Notification, ReactionContext, RelayConfig};
use aaa_storage::{MemoryStore, StableStore};
use aaa_topology::TopologySpec;

use crate::common::{
    aid, build_mom, client, expect_ok, now_ns, parse, payload, set_latency, sleep_window,
    wait_until, BusCounts, Counters, Leg, Round, SetupClock, WindowStart, Windows, CLIENT, LIGHT,
    MEASURE, STOP,
};
use crate::trace::{span, Layer, Tracer};

/// Subscribers on server 1.
pub const SUBSCRIBERS: u32 = 64;
/// Publications in flight in the live phase.
pub const IN_FLIGHT: u64 = 4;
/// Publications journaled while every subscriber is disconnected.
pub const BACKLOG: u64 = 1000;
const TOPIC: u32 = 500_000;
const PUBLISHER: u32 = 2;

#[derive(Debug, Default, Clone)]
struct SubLog {
    /// Next publication sequence number expected.
    next: u64,
    probed: bool,
    latency_ns: Vec<u64>,
}

struct Subscriber {
    index: usize,
    topic: AgentId,
    logs: Arc<Mutex<Vec<SubLog>>>,
    counters: Arc<Counters>,
    publisher: AgentId,
    tracer: Option<Arc<Tracer>>,
}

impl Agent for Subscriber {
    fn react(&mut self, ctx: &mut ReactionContext<'_>, _from: AgentId, note: &Notification) {
        let _s = span(&self.tracer, Layer::Agent);
        let mut logs = self.logs.lock().expect("subscriber logs poisoned");
        let Some(log) = logs.get_mut(self.index) else {
            return;
        };
        let c = &self.counters;
        match (note.kind(), parse(note.body())) {
            // Set-up: subscribe, then pass the turn to the next
            // subscriber; the last one publishes a probe, which reaches
            // the topic after every subscription, since all of them come
            // from server 1 in causal order.
            ("join", _) => {
                ctx.send(self.topic, subscription());
                let next = self.index as u32 + 1;
                if next < SUBSCRIBERS {
                    ctx.send(aid(1, next + 1), Notification::signal("join"));
                } else {
                    ctx.send(self.topic, publication("probe", Vec::new()));
                }
            }
            ("probe", _) => {
                if !log.probed {
                    log.probed = true;
                    c.probes.fetch_add(1, Ordering::Relaxed);
                }
            }
            ("px", Some((seq, _, sent))) => {
                if seq == log.next {
                    log.next += 1;
                } else {
                    c.failures.fetch_add(1, Ordering::Relaxed);
                }
                if c.phase() == LIGHT {
                    log.latency_ns.push(now_ns().saturating_sub(sent));
                }
                // Every SUBSCRIBERS deliveries complete one publication's
                // worth of fan-out: release the next one.
                let done = c.delivered.fetch_add(1, Ordering::Relaxed) + 1;
                if done.is_multiple_of(u64::from(SUBSCRIBERS)) {
                    ctx.send(self.publisher, Notification::signal("next"));
                }
            }
            _ => {
                c.failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The publisher, on server 0: publishes `IN_FLIGHT` publications on
/// `start`, one on `solo`, one more on every `next` until the stop, and
/// the whole cold-phase backlog on `flood`.
struct PublisherAgent {
    topic: AgentId,
    published: Arc<AtomicU64>,
    counters: Arc<Counters>,
    tracer: Option<Arc<Tracer>>,
}

impl Agent for PublisherAgent {
    fn react(&mut self, ctx: &mut ReactionContext<'_>, _from: AgentId, note: &Notification) {
        let _s = span(&self.tracer, Layer::Agent);
        let count = match note.kind() {
            "start" => IN_FLIGHT,
            "solo" => 1,
            "next" if self.counters.phase() != STOP => 1,
            "next" => 0,
            "flood" => BACKLOG,
            _ => {
                self.counters.failures.fetch_add(1, Ordering::Relaxed);
                0
            }
        };
        for _ in 0..count {
            let seq = self.published.fetch_add(1, Ordering::Relaxed) + 1;
            ctx.send(self.topic, publication("px", payload(seq, 0, now_ns())));
        }
    }
}

/// Runs one round of the relay workload; with no windows, only its
/// set-up.
pub fn round(warm: Duration, windows: Option<Windows>, leg: &Leg) -> Result<Round> {
    let subs = u64::from(SUBSCRIBERS);
    let counters = Arc::new(Counters::default());
    let logs = Arc::new(Mutex::new(vec![
        SubLog {
            next: 1,
            ..SubLog::default()
        };
        SUBSCRIBERS as usize
    ]));
    let mut round = Round::default();

    let mut clock = SetupClock::start();
    let stores = (0..2)
        .map(|_| Arc::new(MemoryStore::new()) as Arc<dyn StableStore>)
        .collect();
    let mom = build_mom(
        TopologySpec::single_domain(2),
        2,
        leg,
        Some(stores),
        Some(RelayConfig::default()),
    )?;
    clock.mark();
    let topic = mom.register_agent(
        ServerId::new(0),
        TOPIC,
        Box::new(TopicAgent::with_relay(relay_agent(ServerId::new(0)))),
    )?;
    let published = Arc::new(AtomicU64::new(0));
    let agent = PublisherAgent {
        topic,
        published: published.clone(),
        counters: counters.clone(),
        tracer: leg.tracer.clone(),
    };
    let publisher_agent = mom.register_agent(ServerId::new(0), PUBLISHER, Box::new(agent))?;
    let mut handles = Vec::with_capacity(SUBSCRIBERS as usize);
    for i in 0..SUBSCRIBERS {
        let sub = Subscriber {
            index: i as usize,
            topic,
            logs: logs.clone(),
            counters: counters.clone(),
            publisher: publisher_agent,
            tracer: leg.tracer.clone(),
        };
        handles.push(mom.register_agent(ServerId::new(1), i + 1, Box::new(sub))?);
    }
    clock.mark();
    // Subscriptions have settled once a probe publication reached every
    // subscriber.
    client(leg, || {
        mom.send(aid(1, CLIENT), handles[0], Notification::signal("join"))
    })?;
    let settled = wait_until(Duration::from_secs(30), Duration::from_micros(200), || {
        counters.probes.load(Ordering::Relaxed) == subs
    });
    clock.mark();
    round.setup = clock.finish();
    expect_ok(settled, "relay: subscriptions settle", &mut round.failed);
    let Some(windows) = windows else {
        mom.shutdown();
        return Ok(round);
    };

    // Live phase: the publisher agent keeps a fixed number of
    // publications outstanding.
    client(leg, || {
        mom.send(
            aid(0, CLIENT),
            publisher_agent,
            Notification::signal("start"),
        )
    })?;
    std::thread::sleep(warm);
    counters.set_phase(MEASURE);
    let start = WindowStart::take(&mom, leg, counters.delivered.load(Ordering::Relaxed));
    let depth = sleep_window(&mom, leg.layers, windows.live);
    start.finish(
        &mom,
        leg,
        counters.delivered.load(Ordering::Relaxed),
        depth,
        &mut round,
    );
    counters.set_phase(STOP);
    let live_ok = caught_up(&mom, &counters, &published);
    expect_ok(
        live_ok,
        "relay: live phase delivered to every subscriber",
        &mut round.failed,
    );

    // Lightly loaded phase: one publication in flight.
    counters.set_phase(LIGHT);
    client(leg, || {
        mom.send(
            aid(0, CLIENT),
            publisher_agent,
            Notification::signal("solo"),
        )
    })?;
    std::thread::sleep(windows.light);
    counters.set_phase(STOP);
    let light_ok = caught_up(&mom, &counters, &published);
    expect_ok(
        light_ok,
        "relay: lightly loaded phase delivered to every subscriber",
        &mut round.failed,
    );
    if windows.drain {
        cold_phase(&mom, leg, &handles, publisher_agent, &counters, &mut round)?;
    }
    let total = published.load(Ordering::Relaxed) * subs;
    let dropped = mom.metrics().sum_counter("aaa_pubsub_dropped_total");
    round.client_calls = leg.tracer.as_ref().map(|t| t.totals(Layer::Client));
    let published = published.load(Ordering::Relaxed);
    mom.shutdown();

    let logs = std::mem::take(&mut *logs.lock().expect("subscriber logs poisoned"));
    let samples = logs.iter().flat_map(|l| l.latency_ns.iter().copied());
    set_latency(&mut round, samples.collect());
    round.attempted = total;
    // Publications a subscriber is missing, or got out of order.
    let missing: u64 = logs.iter().map(|l| (published + 1).abs_diff(l.next)).sum();
    let failures = counters.failures.load(Ordering::Relaxed);
    round.failed += missing + failures + dropped;
    if missing + failures + dropped > 0 {
        eprintln!(
            "check failed: relay: {missing} missing, {failures} out of order, {dropped} dropped"
        );
    }
    Ok(round)
}

/// After a stop: waits until the publisher agent has stopped (a `next`
/// in flight may still publish once) and every subscriber has caught up,
/// then until the bus is quiet.
fn caught_up(mom: &Mom, counters: &Counters, published: &AtomicU64) -> bool {
    let subs = u64::from(SUBSCRIBERS);
    wait_until(Duration::from_secs(60), Duration::from_millis(1), || {
        counters.delivered.load(Ordering::Relaxed) == published.load(Ordering::Relaxed) * subs
    }) && mom.quiesce(Duration::from_secs(60))
        && counters.delivered.load(Ordering::Relaxed) == published.load(Ordering::Relaxed) * subs
}

/// The cold phase: every subscriber disconnects, the publisher agent
/// journals the backlog, and the drain is timed from reconnecting them
/// until every subscriber has it.
fn cold_phase(
    mom: &Mom,
    leg: &Leg,
    handles: &[AgentId],
    publisher_agent: AgentId,
    counters: &Counters,
    round: &mut Round,
) -> Result<()> {
    let before_cold = counters.delivered.load(Ordering::Relaxed);
    let total = before_cold + BACKLOG * u64::from(SUBSCRIBERS);
    for sub in handles {
        client(leg, || mom.relay_disconnect(*sub))?;
    }
    client(leg, || {
        mom.send(
            aid(0, CLIENT),
            publisher_agent,
            Notification::signal("flood"),
        )
    })?;
    expect_ok(
        mom.quiesce(Duration::from_secs(120)),
        "relay: backlog journaled",
        &mut round.failed,
    );
    expect_ok(
        counters.delivered.load(Ordering::Relaxed) == before_cold,
        "relay: nothing delivered to disconnected subscribers",
        &mut round.failed,
    );
    let bus0 = leg.layers.then(|| BusCounts::read(mom));
    let drain_start = Instant::now();
    for sub in handles {
        client(leg, || mom.relay_connect(*sub))?;
    }
    let drained = wait_until(Duration::from_secs(120), Duration::from_micros(200), || {
        counters.delivered.load(Ordering::Relaxed) >= total
    });
    round.drain_s = drain_start.elapsed().as_secs_f64();
    round.drain_msgs = counters.delivered.load(Ordering::Relaxed) - before_cold;
    round.drain_bus = bus0.map(|b| BusCounts::read(mom).minus(&b));
    expect_ok(drained, "relay: backlog drained", &mut round.failed);
    Ok(())
}
