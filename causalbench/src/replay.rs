//! Replays of public library calls that the bus makes on every message,
//! timed outside the bus: the clock engine's stamp and delivery steps at
//! a given domain size, and the wire codec on the workload's frame shape.

use std::hint::black_box;
use std::time::Instant;

use aaa_base::{AgentId, DomainId, DomainServerId, MessageId, ServerId};
use aaa_clocks::{Batching, CausalState, Stamp, StampMode};
use aaa_net::{Datagram, LinkFrame, WireMessage};
use bytes::Bytes;

use crate::common::{mix, payload};

/// Mean ns per stamp and per delivery (frame check, delivery condition,
/// delivery) in an `Updates`-mode domain of `n` servers exchanging
/// `ops` seeded point-to-point messages, each delivered on arrival.
pub fn clocks(n: usize, ops: u32, seed: u64) -> (f64, f64) {
    let id = |i: usize| DomainServerId::new(u16::try_from(i).expect("domain fits u16"));
    let mut states: Vec<CausalState> = (0..n)
        .map(|i| CausalState::new(id(i), n, StampMode::Updates))
        .collect();
    let (mut stamp_ns, mut deliver_ns) = (0u128, 0u128);
    for k in 0..ops {
        let r = mix(seed ^ u64::from(k));
        let from = (r % n as u64) as usize;
        let to = (from + 1 + ((r >> 32) % (n as u64 - 1)) as usize) % n;
        let t0 = Instant::now();
        let stamp = states[from].stamp_send(id(to), Batching::Single);
        let t1 = Instant::now();
        let pending = states[to].on_frame(id(from), black_box(stamp));
        let ok = states[to].can_deliver(id(from), &pending);
        states[to].deliver(id(from), &pending);
        let t2 = Instant::now();
        assert!(ok, "a message delivered on arrival is always deliverable");
        stamp_ns += (t1 - t0).as_nanos();
        deliver_ns += (t2 - t1).as_nanos();
    }
    let per = |ns: u128| ns as f64 / f64::from(ops);
    (per(stamp_ns), per(deliver_ns))
}

/// A stamp as the bus would put on a hop of an `n`-server domain after
/// some traffic.
fn sample_stamp(n: usize, seed: u64) -> Stamp {
    let id = |i: usize| DomainServerId::new(u16::try_from(i).expect("domain fits u16"));
    let mut states: Vec<CausalState> = (0..n)
        .map(|i| CausalState::new(id(i), n, StampMode::Updates))
        .collect();
    for k in 0..(4 * n as u64) {
        let r = mix(seed ^ k);
        let from = (r % n as u64) as usize;
        let to = (from + 1) % n;
        let stamp = states[from].stamp_send(id(to), Batching::Single);
        let pending = states[to].on_frame(id(from), stamp);
        states[to].deliver(id(from), &pending);
    }
    states[0].stamp_send(id(1), Batching::Single)
}

/// Mean ns per frame to encode and to decode a link batch of `frames`
/// hop messages (32-byte payload, a real stamp of an `n`-server domain).
pub fn codec(n: usize, frames: usize, rounds: u32, seed: u64) -> (f64, f64) {
    let stamp = sample_stamp(n, seed);
    let msgs: Vec<WireMessage> = (0..frames)
        .map(|i| WireMessage {
            id: MessageId::new(ServerId::new(0), i as u64 + 1),
            from_agent: AgentId::new(ServerId::new(0), 1),
            to_agent: AgentId::new(ServerId::new(1), 1),
            src_server: ServerId::new(0),
            dest_server: ServerId::new(1),
            domain: DomainId::new(1),
            stamp: Some(stamp.clone()),
            kind: "hop".to_owned(),
            body: Bytes::from(payload(i as u64, 1, 0)),
        })
        .collect();
    let (mut enc_ns, mut dec_ns) = (0u128, 0u128);
    for r in 0..rounds {
        let t0 = Instant::now();
        let batch: Vec<LinkFrame> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| LinkFrame {
                seq: u64::from(r) * frames as u64 + i as u64 + 1,
                payload: m.encode(),
            })
            .collect();
        let wire = Datagram::for_frames(batch)
            .expect("at least one frame")
            .encode();
        let t1 = Instant::now();
        let decoded = Datagram::decode(black_box(wire)).expect("own encoding decodes");
        let frames_back = match decoded {
            Datagram::Data(f) => vec![f],
            Datagram::Batch(fs) => fs,
            Datagram::Ack { .. } => Vec::new(),
        };
        let mut n_ok = 0;
        for f in frames_back {
            n_ok += usize::from(WireMessage::decode(f.payload).is_ok());
        }
        let t2 = Instant::now();
        assert_eq!(n_ok, frames, "every frame round-trips");
        enc_ns += (t1 - t0).as_nanos();
        dec_ns += (t2 - t1).as_nanos();
    }
    let per = |ns: u128| ns as f64 / (f64::from(rounds) * frames as f64);
    (per(enc_ns), per(dec_ns))
}
