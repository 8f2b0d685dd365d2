//! `walk-bus64` and `walk-flat32`: a closed loop of tokens, each hopping
//! on every delivery to a seeded pseudo-random other server.
//!
//! Every server hosts one walker agent. A round sets up the bus, starts
//! `TOKENS_PER_SERVER` tokens on every server, warms up, measures a live
//! window and stops the loop (each token is absorbed at its next
//! delivery). Latency is sampled apart from the loaded loop, which would
//! only give tokens ÷ throughput: in a lightly loaded window one more
//! token walks alone from server 0, and each of its hops is timed from
//! the send timestamp in its payload. A round that drains (the first of
//! a run) then times a drain: on one client command each walker queues a
//! fixed backlog of burst messages for the next server's walker in a
//! single reaction, and the bus empties it. Afterwards the round checks,
//! apart from the program, that
//!
//! - every hop of every token was delivered exactly once, at the server
//!   the seeded function chose, and triggered exactly the next hop;
//! - no server delivered a hop before a causally earlier hop addressed
//!   to it (a replay of the per-server logs, below);
//! - every burst message arrived once, in its sender's order (if the
//!   round drained).

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use aaa_base::{AgentId, Result, ServerId};
use aaa_mom::{Agent, Mom, Notification, ReactionContext};
use aaa_topology::TopologySpec;

use crate::common::{
    aid, build_mom, client, expect_ok, mix, now_ns, parse, payload, set_latency, sleep_window,
    wait_until, Counters, Leg, Round, SetupClock, WindowStart, Windows, CLIENT, LIGHT, MEASURE,
    STOP,
};
use crate::trace::{span, Layer, Tracer};

/// Local id of the walker agent on every server.
const WALKER: u32 = 1;
/// Tokens started on every server.
pub const TOKENS_PER_SERVER: u32 = 8;
/// Drain backlog, split evenly: each walker queues its share for the
/// next server.
pub const BURST_TOTAL: u32 = 131_072;

const HOP: &str = "hop";
const START: &str = "start";
const SOLO: &str = "solo";
const SETTLE: &str = "settle";
const PROBE: &str = "probe";
const BURST: &str = "burst";
const FLOOD: &str = "flood";

/// The walk's topology.
#[derive(Clone, Copy)]
pub enum Shape {
    /// `bus(8,8)`: 8 leaf domains of 8 servers and a backbone of routers.
    Bus64,
    /// One flat domain of 32 servers.
    Flat32,
}

impl Shape {
    fn servers(self) -> u16 {
        match self {
            Shape::Bus64 => 64,
            Shape::Flat32 => 32,
        }
    }

    fn spec(self) -> TopologySpec {
        match self {
            Shape::Bus64 => TopologySpec::bus(8, 8),
            Shape::Flat32 => TopologySpec::single_domain(32),
        }
    }

    /// Servers per causal domain (the clock size a stamp covers).
    pub fn domain_size(self) -> usize {
        match self {
            Shape::Bus64 => 8,
            Shape::Flat32 => 32,
        }
    }
}

/// The server hop `hop` of `token` goes to, from server `from`: a
/// seeded pseudo-random server other than `from`.
pub fn target(seed: u64, token: u32, hop: u32, from: u16, n: u16) -> u16 {
    let r = mix(seed ^ (u64::from(token) << 32) ^ u64::from(hop));
    let step = 1 + (r % u64::from(n - 1)) as u16;
    (from + step) % n
}

/// One entry of a walker's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    token: u32,
    hop: u32,
    /// Destination server of a send; `None` for a delivery.
    to: Option<u16>,
}

#[derive(Debug, Default)]
struct WalkerLog {
    events: Vec<Event>,
    latency_ns: Vec<u64>,
    /// Last burst sequence number seen, per sending server.
    burst_last: Vec<u64>,
}

struct Walker {
    me: u16,
    n: u16,
    seed: u64,
    counters: Arc<Counters>,
    log: Arc<Mutex<WalkerLog>>,
    tracer: Option<Arc<Tracer>>,
}

impl Walker {
    fn hop(&self, ctx: &mut ReactionContext<'_>, log: &mut WalkerLog, token: u32, hop: u32) {
        let to = target(self.seed, token, hop, self.me, self.n);
        let body = payload(u64::from(token), u64::from(hop), now_ns());
        ctx.send(aid(to, WALKER), Notification::new(HOP, body));
        log.events.push(Event {
            token,
            hop,
            to: Some(to),
        });
    }
}

impl Agent for Walker {
    fn react(&mut self, ctx: &mut ReactionContext<'_>, _from: AgentId, note: &Notification) {
        let _s = span(&self.tracer, Layer::Agent);
        let mut log = self.log.lock().expect("walker log poisoned");
        let c = &self.counters;
        match note.kind() {
            HOP => {
                let Some((token, hop, sent)) = parse(note.body()) else {
                    c.failures.fetch_add(1, Ordering::Relaxed);
                    return;
                };
                let (token, hop) = (token as u32, hop as u32);
                log.events.push(Event {
                    token,
                    hop,
                    to: None,
                });
                let phase = c.phase();
                if phase == LIGHT {
                    log.latency_ns.push(now_ns().saturating_sub(sent));
                }
                c.delivered.fetch_add(1, Ordering::Relaxed);
                if phase == STOP {
                    c.absorbed.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.hop(ctx, &mut log, token, hop + 1);
                }
            }
            START => {
                for token in
                    (0..TOKENS_PER_SERVER).map(|k| k * u32::from(self.n) + u32::from(self.me))
                {
                    self.hop(ctx, &mut log, token, 0);
                }
            }
            // The lone token of the lightly loaded window, numbered after
            // the loop's tokens, so it starts on server 0.
            SOLO => {
                let token = TOKENS_PER_SERVER * u32::from(self.n);
                self.hop(ctx, &mut log, token, 0);
            }
            // Set-up: walker 0 probes every other walker in one reaction.
            SETTLE => {
                c.probes.fetch_add(1, Ordering::Relaxed);
                for s in (0..self.n).filter(|&s| s != self.me) {
                    ctx.send(aid(s, WALKER), Notification::signal(PROBE));
                }
            }
            PROBE => {
                c.probes.fetch_add(1, Ordering::Relaxed);
            }
            FLOOD => {
                let to = aid((self.me + 1) % self.n, WALKER);
                for seq in 1..=u64::from(BURST_TOTAL / u32::from(self.n)) {
                    let body = payload(u64::from(self.me), seq, now_ns());
                    ctx.send(to, Notification::new(BURST, body));
                }
            }
            BURST => {
                let Some((sender, seq, _)) = parse(note.body()) else {
                    c.failures.fetch_add(1, Ordering::Relaxed);
                    return;
                };
                let last = log.burst_last.get_mut(sender as usize);
                match last {
                    Some(last) if seq == *last + 1 => *last = seq,
                    _ => {
                        c.failures.fetch_add(1, Ordering::Relaxed);
                    }
                }
                c.drained.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                c.failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Runs one round of the walk; with no windows, only its set-up.
pub fn round(
    shape: Shape,
    seed: u64,
    warm: Duration,
    windows: Option<Windows>,
    leg: &Leg,
) -> Result<Round> {
    let n = shape.servers();
    let counters = Arc::new(Counters::default());
    let logs: Vec<Arc<Mutex<WalkerLog>>> = (0..n)
        .map(|_| {
            Arc::new(Mutex::new(WalkerLog {
                burst_last: vec![0; usize::from(n)],
                ..WalkerLog::default()
            }))
        })
        .collect();
    let mut round = Round::default();

    let mut clock = SetupClock::start();
    let mom = build_mom(shape.spec(), usize::from(n), leg, None, None)?;
    clock.mark();
    for s in 0..n {
        let walker = Walker {
            me: s,
            n,
            seed,
            counters: counters.clone(),
            log: logs[usize::from(s)].clone(),
            tracer: leg.tracer.clone(),
        };
        mom.register_agent(ServerId::new(s), WALKER, Box::new(walker))?;
    }
    clock.mark();
    client(leg, || {
        mom.send(aid(0, CLIENT), aid(0, WALKER), Notification::signal(SETTLE))
    })?;
    let settled = wait_until(Duration::from_secs(30), Duration::from_micros(200), || {
        counters.probes.load(Ordering::Relaxed) == u64::from(n)
    });
    clock.mark();
    round.setup = clock.finish();
    expect_ok(settled, "walk: settle probes delivered", &mut round.failed);
    let Some(windows) = windows else {
        mom.shutdown();
        return Ok(round);
    };

    for s in 0..n {
        client(leg, || {
            mom.send(aid(s, CLIENT), aid(s, WALKER), Notification::signal(START))
        })?;
    }
    std::thread::sleep(warm);
    counters.set_phase(MEASURE);
    let start = WindowStart::take(&mom, leg, counters.delivered.load(Ordering::Relaxed));
    let depth = sleep_window(&mom, false, windows.live);
    start.finish(
        &mom,
        leg,
        counters.delivered.load(Ordering::Relaxed),
        depth,
        &mut round,
    );
    counters.set_phase(STOP);

    // Every token is absorbed at its next delivery once the phase is STOP.
    let tokens = u64::from(TOKENS_PER_SERVER) * u64::from(n);
    let absorbed = wait_until(Duration::from_secs(60), Duration::from_millis(1), || {
        counters.absorbed.load(Ordering::Relaxed) == tokens
    });
    expect_ok(
        absorbed,
        "walk: every token absorbed after stop",
        &mut round.failed,
    );
    expect_ok(
        mom.quiesce(Duration::from_secs(60)),
        "walk: bus quiesces after stop",
        &mut round.failed,
    );

    counters.set_phase(LIGHT);
    client(leg, || {
        mom.send(aid(0, CLIENT), aid(0, WALKER), Notification::signal(SOLO))
    })?;
    std::thread::sleep(windows.light);
    counters.set_phase(STOP);
    let absorbed = wait_until(Duration::from_secs(60), Duration::from_millis(1), || {
        counters.absorbed.load(Ordering::Relaxed) == tokens + 1
    });
    expect_ok(
        absorbed && mom.quiesce(Duration::from_secs(60)),
        "walk: lone token absorbed after the lightly loaded window",
        &mut round.failed,
    );

    if windows.drain {
        drain(&mom, leg, n, &counters, &mut round)?;
    }
    let calls = leg.tracer.as_ref().map(|t| t.totals(Layer::Client));
    mom.shutdown();
    round.client_calls = calls;

    let logs: Vec<WalkerLog> = logs
        .into_iter()
        .map(|l| std::mem::take(&mut *l.lock().expect("walker log poisoned")))
        .collect();
    let samples = logs.iter().flat_map(|l| l.latency_ns.iter().copied());
    set_latency(&mut round, samples.collect());
    check(&logs, seed, n, windows.drain, &counters, &mut round);
    Ok(round)
}

/// Times the drain: one client command per server makes its walker
/// queue its share of `BURST_TOTAL` messages for the next server's walker.
fn drain(mom: &Mom, leg: &Leg, n: u16, counters: &Counters, round: &mut Round) -> Result<()> {
    let total = u64::from(BURST_TOTAL);
    let start = std::time::Instant::now();
    for s in 0..n {
        client(leg, || {
            mom.send(aid(s, CLIENT), aid(s, WALKER), Notification::signal(FLOOD))
        })?;
    }
    let done = wait_until(Duration::from_secs(60), Duration::from_micros(100), || {
        counters.drained.load(Ordering::Relaxed) >= total
    });
    round.drain_s = start.elapsed().as_secs_f64();
    round.drain_msgs = counters.drained.load(Ordering::Relaxed);
    expect_ok(done, "walk: drain backlog delivered", &mut round.failed);
    Ok(())
}

/// The checks of the module docs. Sets `attempted` (hops sent plus
/// burst messages, if the round `drained`) and adds every violation to
/// `failed`.
fn check(
    logs: &[WalkerLog],
    seed: u64,
    n: u16,
    drained: bool,
    counters: &Counters,
    round: &mut Round,
) {
    let sends: u64 = logs
        .iter()
        .map(|l| l.events.iter().filter(|e| e.to.is_some()).count() as u64)
        .sum();
    let bursts = if drained {
        BURST_TOTAL / u32::from(n)
    } else {
        0
    };
    round.attempted = sends + u64::from(bursts * u32::from(n));
    let mut failed = counters.failures.load(Ordering::Relaxed);
    for (s, log) in logs.iter().enumerate() {
        let from = (usize::from(n) + s - 1) % usize::from(n);
        if log.burst_last.get(from) != Some(&u64::from(bursts)) {
            eprintln!("check failed: walk: burst from server {from} incomplete at server {s}");
            failed += 1;
        }
    }
    failed += check_hops(logs, seed, n);
    failed += causal_replay(logs, usize::from(n));
    if failed > 0 {
        eprintln!("check failed: walk: {failed} violations");
    }
    round.failed += failed;
}

/// Exactly-once hop delivery at the seeded server, each delivered hop
/// triggering exactly the next one (except the absorbed last hop).
fn check_hops(logs: &[WalkerLog], seed: u64, n: u16) -> u64 {
    // The loop's tokens and the lone token of the lightly loaded window.
    let tokens = (TOKENS_PER_SERVER * u32::from(n)) as usize + 1;
    // Per token: (hop, is_send, server) of every event.
    let mut per_token: Vec<Vec<(u32, bool, u16)>> = vec![Vec::new(); tokens];
    let mut bad = 0;
    for (s, log) in logs.iter().enumerate() {
        for e in &log.events {
            match per_token.get_mut(e.token as usize) {
                Some(list) => list.push((e.hop, e.to.is_some(), s as u16)),
                None => bad += 1,
            }
        }
    }
    for (token, mut events) in per_token.into_iter().enumerate() {
        events.sort_unstable();
        // Hop h is sent from `at` and delivered at its seeded target;
        // sorted, the delivery (false) precedes the send (true).
        let mut at = (token % usize::from(n)) as u16;
        let mut ok = !events.is_empty() && events.len() % 2 == 0;
        for (hop, pair) in events.chunks(2).enumerate() {
            let hop = hop as u32;
            let want = target(seed, token as u32, hop, at, n);
            if !ok || pair != [(hop, false, want), (hop, true, at)] {
                ok = false;
                break;
            }
            at = want;
        }
        if !ok {
            bad += 1;
        }
    }
    bad
}

/// Replays the per-server logs with vector clocks and checks, at every
/// delivery, the matrix-clock delivery condition for the destination's
/// column: every hop addressed to this server whose send causally
/// precedes the delivered hop's send was delivered before it, and hops
/// from one sender arrive in send order.
///
/// `sends_to[k][j]` lists the local event index (1-based) of each send
/// from `k` to `j`, so "messages from k to j sent causally before
/// vector time V" is the number of entries `<= V[k]`.
fn causal_replay(logs: &[WalkerLog], n: usize) -> u64 {
    let mut sends_to: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); n]; n];
    for (k, log) in logs.iter().enumerate() {
        for (i, e) in log.events.iter().enumerate() {
            if let Some(to) = e.to {
                sends_to[k][usize::from(to)].push(i as u32 + 1);
            }
        }
    }
    let mut vc = vec![vec![0u32; n]; n];
    let mut delivered = vec![vec![0u32; n]; n];
    let mut in_flight: HashMap<(u32, u32), (usize, Vec<u32>)> = HashMap::new();
    let mut pos = vec![0usize; n];
    let mut violations = 0;
    loop {
        let mut progressed = false;
        for s in 0..n {
            while let Some(e) = logs[s].events.get(pos[s]) {
                if e.to.is_some() {
                    vc[s][s] += 1;
                    in_flight.insert((e.token, e.hop), (s, vc[s].clone()));
                } else {
                    let Some((from, v)) = in_flight.remove(&(e.token, e.hop)) else {
                        break;
                    };
                    vc[s][s] += 1;
                    let ok = (0..n).all(|k| {
                        let before = sends_to[k][s].partition_point(|&x| x <= v[k]) as u32;
                        let need = if k == from {
                            before.saturating_sub(1)
                        } else {
                            before
                        };
                        delivered[s][k] >= need
                    }) && sends_to[from][s].get(delivered[s][from] as usize)
                        == Some(&v[from]);
                    if !ok {
                        violations += 1;
                    }
                    delivered[s][from] += 1;
                    for (mine, theirs) in vc[s].iter_mut().zip(&v) {
                        *mine = (*mine).max(*theirs);
                    }
                }
                pos[s] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    // Deliveries never matched by a send (duplicates, or hops nobody sent).
    let stuck: usize = (0..n).map(|s| logs[s].events.len() - pos[s]).sum();
    if stuck > 0 || violations > 0 {
        eprintln!("check failed: causal replay: {violations} violations, {stuck} events unmatched");
    }
    violations + stuck as u64
}
