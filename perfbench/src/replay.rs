//! Replays: drive one layer's public data structure with the shape of
//! work a traced run observed, and time it alone. Each returns host
//! nanoseconds per operation.

use crate::inputs::mix;
use det_sim::{Scheduler, SimDuration, SimTime};
use mps_sim::{Application, Inbox, Message, PbMeta, Rank, Tag};
use net_model::Topology;
use std::hint::black_box;
use std::time::Instant;

fn per_op(started: Instant, ops: u64) -> f64 {
    started.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// `schedule_keyed` + `pop_keyed` pairs on a scheduler held at `depth`
/// live events (a hold model of the engine queue).
pub fn scheduler_hold_ns(depth: usize, holds: u64) -> f64 {
    const SPREAD_PS: u64 = 10_000_000;
    let mut q: Scheduler<u32> = Scheduler::new();
    let mut r = 0u64;
    let mut next = || {
        r = mix(r);
        r
    };
    for i in 0..depth.max(1) {
        q.schedule_keyed(SimTime::from_ps(next() % SPREAD_PS), i as u64, i as u32);
    }
    let started = Instant::now();
    for _ in 0..holds {
        let (t, key, ev) = q.pop_keyed().expect("hold keeps the queue non-empty");
        let at = t + SimDuration::from_ps(1 + next() % SPREAD_PS);
        q.schedule_keyed(at, black_box(key), ev);
    }
    per_op(started, holds)
}

/// Largest number of distinct senders any rank receives from.
pub fn fan_in(app: &Application) -> usize {
    let n = app.n_ranks();
    let mut senders: Vec<Vec<u32>> = vec![Vec::new(); n];
    for src in 0..n as u32 {
        app.rank(Rank(src)).send_summary(&mut |dst, _, _| {
            let s = &mut senders[dst.0 as usize];
            if !s.contains(&src) {
                s.push(src);
            }
        });
    }
    senders.iter().map(Vec::len).max().unwrap_or(0)
}

/// One `Inbox::push` + `take_specific` pair, `fan_in` senders per round.
pub fn inbox_ns(fan_in: usize, pairs: u64) -> f64 {
    let fan_in = fan_in.max(1) as u64;
    let rounds = pairs / fan_in;
    let mut inbox = Inbox::new();
    let mut seq = 0u64;
    let started = Instant::now();
    for round in 0..rounds {
        for s in 0..fan_in {
            seq += 1;
            let msg = Message {
                src: Rank(s as u32 + 1),
                dst: Rank(0),
                tag: Tag(0),
                bytes: 4096,
                payload: seq,
                channel_seq: round + 1,
                meta: PbMeta::default(),
                replayed: false,
            };
            inbox.push(msg, seq, SimDuration::ZERO);
        }
        for s in 0..fan_in {
            black_box(inbox.take_specific(Rank(s as u32 + 1), Tag(0)));
        }
    }
    per_op(started, rounds * fan_in)
}

/// `Topology::cost` over every `(src, dst, mean message size)` of the
/// application's send summaries, repeated to at least `min_calls` calls.
pub fn topology_cost_ns(topology: &Topology, app: &Application, min_calls: u64) -> f64 {
    let mut pairs: Vec<(u32, u32, u64)> = Vec::new();
    for src in 0..app.n_ranks() as u32 {
        app.rank(Rank(src)).send_summary(&mut |dst, bytes, msgs| {
            pairs.push((src, dst.0, bytes / msgs.max(1)));
        });
    }
    if pairs.is_empty() {
        return 0.0;
    }
    let rounds = min_calls.div_ceil(pairs.len() as u64).max(1);
    let started = Instant::now();
    for _ in 0..rounds {
        for &(s, d, b) in &pairs {
            black_box(topology.cost(s, d, black_box(b)));
        }
    }
    per_op(started, rounds * pairs.len() as u64)
}

/// A full walk of every rank's `op_at`, in ns per call.
pub fn op_at_ns(app: &Application) -> f64 {
    let mut calls = 0u64;
    let started = Instant::now();
    for r in 0..app.n_ranks() as u32 {
        let program = app.rank(Rank(r));
        let len = program.len();
        for pc in 0..len {
            black_box(program.op_at(black_box(pc)));
        }
        calls += len as u64;
    }
    per_op(started, calls)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_report_positive_costs() {
        let app = workloads::WorkloadSpec::parse("stencil:16x3:face=64:compute_us=1")
            .unwrap()
            .build();
        assert_eq!(fan_in(&app), 4);
        assert!(scheduler_hold_ns(64, 1000) > 0.0);
        assert!(inbox_ns(4, 1000) > 0.0);
        assert!(op_at_ns(&app) > 0.0);
        let topo = Topology::flat(
            std::sync::Arc::new(net_model::MxModel::default()),
            vec![0; 16],
        );
        assert!(topology_cost_ns(&topo, &app, 100) > 0.0);
    }
}
