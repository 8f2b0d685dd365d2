//! `causalbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! causalbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!             [--out-dir <dir>]
//! ```
//!
//! Runs one workload (see README.md) in this process, driving a `Mom`
//! only through its public API, and prints one JSON object as the last
//! line of standard output: `correct`, `attempted`, `failed` and the
//! metrics — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.

mod common;
mod procfs;
mod relay;
mod replay;
mod trace;
mod walk;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use common::{Leg, Round, Windows};
use trace::{Layer, Tracer};
use walk::Shape;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    WalkBus64,
    WalkFlat32,
    RelayMem,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::WalkBus64,
        Workload::WalkFlat32,
        Workload::RelayMem,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::WalkBus64 => "walk-bus64",
            Workload::WalkFlat32 => "walk-flat32",
            Workload::RelayMem => "relay-mem",
        }
    }

    /// Servers per causal domain, for the clock and codec replays.
    fn domain_size(self) -> usize {
        match self {
            Workload::WalkBus64 => Shape::Bus64.domain_size(),
            Workload::WalkFlat32 => Shape::Flat32.domain_size(),
            Workload::RelayMem => 2,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out_dir = PathBuf::from(".bench_out");
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => trace = Some(value == "1"),
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        out_dir,
    })
}

/// Warm-up before each live window.
const WARM: Duration = Duration::from_millis(250);
/// Cycles of the traced run; each runs an untraced, a traced and a
/// metrics-off round.
const TRACE_CYCLES: u32 = 5;
/// Length of a lightly loaded window against its round's live window.
const LIGHT_SHARE: f64 = 0.2;

impl Workload {
    /// Rounds per untraced run, the share of `--seconds` each live
    /// window takes, and the set-ups timed per run. Each round is a fresh
    /// bus, and instances differ more than one instance over time
    /// (README.md: Noise), so a run measures many short-lived buses. Each
    /// round's set-up is timed; the other set-ups build, settle and shut
    /// down a bus without running it, spread evenly between the rounds.
    /// A set-up takes milliseconds, so many are timed and their median
    /// reported.
    fn plan(self) -> (u32, f64, u32) {
        match self {
            Workload::RelayMem => (16, 0.8 / 16.0, 64),
            _ => (24, 1.0 / 24.0, 48),
        }
    }
}

/// The windows of round `index`; only the first round of a run drains.
fn windows(live_s: f64, index: u32) -> Windows {
    Windows {
        live: Duration::from_secs_f64(live_s),
        light: Duration::from_secs_f64(live_s * LIGHT_SHARE),
        drain: index == 0,
    }
}

fn run_round(
    args: &Args,
    windows: Option<Windows>,
    leg: &Leg,
    index: u32,
) -> aaa_base::Result<Round> {
    // Each round gets its own seed, derived from the run's.
    let seed = common::mix(args.seed ^ u64::from(index));
    match args.workload {
        Workload::WalkBus64 => walk::round(Shape::Bus64, seed, WARM, windows, leg),
        Workload::WalkFlat32 => walk::round(Shape::Flat32, seed, WARM, windows, leg),
        Workload::RelayMem => relay::round(WARM, windows, leg),
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Metrics in print order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The `q`-quantile of `v` by linear interpolation between ranks.
fn interpolated(mut v: Vec<f64>, q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q * last as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `f` of every round.
fn each(rounds: &[Round], f: impl Fn(&Round) -> f64) -> Vec<f64> {
    rounds.iter().map(f).collect()
}

/// End-to-end metrics of a run. Per-round figures are the rounds'
/// quartile on the worse side (lower quartile of throughput, upper of
/// latency and CPU): bus instances of one loop fall into a slow and a
/// fast mode whose mix changes from run to run (README.md: Noise), and
/// the worse quartile follows the slow mode where the median flips
/// between them. The set-up figure is a median.
fn end_to_end(rounds: &[Round], setup: f64) -> Metrics {
    vec![
        (
            "throughput_msgs_s",
            interpolated(each(rounds, Round::throughput), 0.25),
            "msgs/s",
        ),
        (
            "latency_p50_us",
            interpolated(each(rounds, |r| r.latency_p50_us), 0.75),
            "us",
        ),
        (
            "cpu_us_per_msg",
            interpolated(each(rounds, Round::cpu_us_per_msg), 0.75),
            "us",
        ),
        ("setup_s", setup, "s"),
        ("peak_rss_mb", procfs::peak_rss_mb(), "MB"),
    ]
}

/// Per-layer metrics. Counters come from the first untraced round and
/// spans from the first traced round; the two differences between legs
/// (`obs.cost_us_per_msg`, `trace.overhead_pct`) are differences of the
/// legs' medians over every cycle.
fn per_layer(args: &Args, plain: &[Round], traced: &[Round], off: &[Round]) -> Metrics {
    let (first, first_traced) = (&plain[0], &traced[0]);
    let l = first.layers.clone().unwrap_or_default();
    let b = l.bus;
    let drain = first.drain_bus.unwrap_or_default();
    let msgs = first.live_msgs.max(1) as f64;
    let tmsgs = first_traced.live_msgs.max(1) as f64;
    let t = first_traced
        .layers
        .as_ref()
        .and_then(|w| w.trace)
        .unwrap_or_default();
    let span = |layer: Layer| t[layer.index()];
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let send = span(Layer::TransportSend);
    let poll = span(Layer::TransportPoll);
    let put = span(Layer::StorePut);
    let agent = span(Layer::Agent);
    let calls = first_traced.client_calls.unwrap_or_default();
    let frames_per_flush = ratio(b.batch_frames as f64, b.batches as f64);
    let d = args.workload.domain_size();
    let (stamp_ns, deliver_ns) = replay::clocks(d, 20_000, args.seed);
    let frames = (frames_per_flush.round() as usize).clamp(1, 256);
    let (encode_ns, decode_ns) =
        replay::codec(d, frames, (20_000 / frames as u32).max(50), args.seed);
    let tx_bytes = if b.tx_bytes > 0 { b.tx_bytes } else { send.aux };
    let self_us = |layer: Layer| span(layer).self_ns as f64 / 1e3 / tmsgs;
    // Client calls wait on the worker; the other spans are CPU-bound
    // in-memory calls.
    let spans_us: f64 = [
        Layer::TransportSend,
        Layer::TransportPoll,
        Layer::StorePut,
        Layer::StoreGet,
        Layer::Agent,
    ]
    .iter()
    .map(|&x| self_us(x))
    .sum();
    vec![
        ("latency.p99_us", first.latency_p99_us, "us"),
        ("drain.msgs_s", first.drain_rate(), "msgs/s"),
        (
            "runtime.cpu_busy",
            ratio(first.live_cpu_s, first.live_s),
            "cpu_s/s",
        ),
        ("runtime.threads", l.threads as f64, "count"),
        (
            "runtime.client_call_us",
            ratio(calls.total_ns as f64 / 1e3, calls.count as f64),
            "us",
        ),
        (
            "channel.forwarded_per_msg",
            b.forwarded as f64 / msgs,
            "ratio",
        ),
        (
            "channel.postponed_per_msg",
            b.postponed as f64 / msgs,
            "ratio",
        ),
        (
            "channel.postponed_wait_us",
            ratio(b.postponed_us as f64, b.postponed as f64),
            "us",
        ),
        ("clocks.cell_ops_per_msg", b.cell_ops as f64 / msgs, "count"),
        (
            "clocks.stamp_bytes_per_msg",
            b.stamp_bytes as f64 / msgs,
            "bytes",
        ),
        ("clocks.stamp_ns", stamp_ns, "ns"),
        ("clocks.deliver_ns", deliver_ns, "ns"),
        ("link.frames_per_flush", frames_per_flush, "count"),
        ("link.flushes_per_msg", b.flushes as f64 / msgs, "ratio"),
        ("link.retransmissions", b.retransmissions as f64, "count"),
        ("link.encode_ns", encode_ns, "ns"),
        ("link.decode_ns", decode_ns, "ns"),
        ("transport.bytes_per_msg", tx_bytes as f64 / msgs, "bytes"),
        (
            "transport.send_us",
            ratio(send.total_ns as f64 / 1e3, send.count as f64),
            "us",
        ),
        (
            "transport.sends_per_msg",
            send.count as f64 / tmsgs,
            "ratio",
        ),
        (
            "transport.poll_hit_ratio",
            ratio(poll.aux as f64, poll.count as f64),
            "ratio",
        ),
        (
            "engine.agent_us",
            ratio(agent.self_ns as f64 / 1e3, agent.count as f64),
            "us",
        ),
        ("storage.puts_per_msg", put.count as f64 / tmsgs, "ratio"),
        (
            "storage.put_us",
            ratio(put.total_ns as f64 / 1e3, put.count as f64),
            "us",
        ),
        (
            "storage.bytes_per_put",
            ratio(put.aux as f64, put.count as f64),
            "bytes",
        ),
        (
            "relay.enqueued_per_msg",
            b.relay_enqueued as f64 / msgs,
            "ratio",
        ),
        (
            "relay.redeliveries_per_msg",
            b.relay_redeliveries as f64 / msgs,
            "ratio",
        ),
        (
            "relay.handoff_dup_per_msg",
            b.relay_handoff_dup as f64 / msgs,
            "ratio",
        ),
        (
            "relay.drain_redeliveries_per_msg",
            ratio(drain.relay_redeliveries as f64, first.drain_msgs as f64),
            "ratio",
        ),
        ("relay.queue_depth_max", l.queue_depth_max as f64, "count"),
        ("relay.compactions", b.relay_compactions as f64, "count"),
        (
            "obs.cost_us_per_msg",
            median(each(plain, Round::cpu_us_per_msg)) - median(each(off, Round::cpu_us_per_msg)),
            "us",
        ),
        (
            "setup.build_s",
            median(each(plain, |r| r.setup.build_s)),
            "s",
        ),
        (
            "setup.register_s",
            median(each(plain, |r| r.setup.register_s)),
            "s",
        ),
        (
            "setup.settle_s",
            median(each(plain, |r| r.setup.settle_s)),
            "s",
        ),
        ("self.client_us_per_msg", self_us(Layer::Client), "us"),
        (
            "self.transport_send_us_per_msg",
            self_us(Layer::TransportSend),
            "us",
        ),
        (
            "self.transport_poll_us_per_msg",
            self_us(Layer::TransportPoll),
            "us",
        ),
        (
            "self.storage_put_us_per_msg",
            self_us(Layer::StorePut),
            "us",
        ),
        (
            "self.storage_get_us_per_msg",
            self_us(Layer::StoreGet),
            "us",
        ),
        ("self.agent_us_per_msg", self_us(Layer::Agent), "us"),
        (
            "self.unspanned_us_per_msg",
            first_traced.cpu_us_per_msg() - spans_us,
            "us",
        ),
        (
            "trace.overhead_pct",
            100.0
                * (1.0
                    - ratio(
                        median(each(traced, Round::throughput)),
                        median(each(plain, Round::throughput)),
                    )),
            "%",
        ),
    ]
}

/// Human-readable per-layer report on stderr.
fn report(workload: Workload, metrics: &Metrics) {
    let mut out = format!("per-layer report, {}:\n", workload.name());
    for (name, value, unit) in metrics {
        let _ = writeln!(out, "  {name:<34} {value:>14.4} {unit}");
    }
    eprint!("{out}");
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> aaa_base::Result<String> {
    let mut rounds = Vec::new();
    let metrics = if args.trace {
        // Cycles of three legs, interleaved so that slow and fast spells
        // of the machine fall on every leg: untraced with the bus's
        // counters read, traced, and untraced with metrics off.
        let live_s = args.seconds / f64::from(3 * TRACE_CYCLES);
        let plain = Leg {
            layers: true,
            ..Leg::plain()
        };
        let off = Leg {
            metrics: false,
            ..Leg::plain()
        };
        let mut tracers = Vec::new();
        let (mut plains, mut traceds, mut offs) = (Vec::new(), Vec::new(), Vec::new());
        for c in 0..TRACE_CYCLES {
            let tracer = Tracer::new();
            let traced = Leg {
                tracer: Some(tracer.clone()),
                metrics: true,
                layers: true,
            };
            tracers.push(tracer);
            let round = |leg: &Leg, i: u32| run_round(args, Some(windows(live_s, i)), leg, i);
            plains.push(round(&plain, 3 * c)?);
            traceds.push(round(&traced, 3 * c + 1)?);
            offs.push(round(&off, 3 * c + 2)?);
            for (leg, r) in [
                ("untraced", &plains),
                ("traced", &traceds),
                ("metrics off", &offs),
            ] {
                let r = &r[r.len() - 1];
                eprintln!(
                    "cycle {c}, {leg}: {:.0} msgs/s, {:.2} µs cpu/msg",
                    r.throughput(),
                    r.cpu_us_per_msg()
                );
            }
        }
        let metrics = per_layer(args, &plains, &traceds, &offs);
        report(args.workload, &metrics);
        let path = args.out_dir.join(format!(
            "spans-{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
        let tracer = &tracers[0];
        let written = std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(&path, tracer.dump()));
        match written {
            Ok(()) => eprintln!(
                "{} spans recorded in the first traced round, the first written to {}",
                tracer.span_count(),
                path.display()
            ),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        rounds.extend(plains.into_iter().chain(traceds).chain(offs));
        metrics
    } else {
        let (count, share, setup_count) = args.workload.plan();
        let live_s = args.seconds * share;
        let mut setups = Vec::new();
        let mut timed = Vec::new();
        for i in 0..count {
            let r = run_round(args, Some(windows(live_s, i)), &Leg::plain(), i)?;
            eprintln!(
                "round {i}: {:.0} msgs/s, {:.2} µs cpu/msg, drain {:.0} msgs/s, \
                 light p50 {:.1} µs, p99 {:.1} µs, setup {:.4} s",
                r.throughput(),
                r.cpu_us_per_msg(),
                r.drain_rate(),
                r.latency_p50_us,
                r.latency_p99_us,
                r.setup.total()
            );
            setups.push(r.setup.total());
            timed.push(r);
            // This round's share of the set-up-only rounds.
            let extra = setup_count * (i + 1) / count - setup_count * i / count - 1;
            for _ in 0..extra {
                let index = count + setups.len() as u32;
                let r = run_round(args, None, &Leg::plain(), index)?;
                setups.push(r.setup.total());
                rounds.push(Round { attempted: 0, ..r });
            }
        }
        eprintln!(
            "set-ups: median {:.4} s of {}",
            median(setups.clone()),
            setups.len()
        );
        let metrics = end_to_end(&timed, median(setups));
        rounds.extend(timed);
        metrics
    };
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    Ok(json(failed == 0, attempted, failed, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("causalbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("causalbench: {} failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
