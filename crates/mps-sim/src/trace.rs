//! Communication tracing and execution oracles.
//!
//! Two consumers:
//!
//! * the **clustering** crate builds its communication graph from the
//!   [`CommMatrix`] (bytes and message counts per directed channel) — the
//!   same information the paper extracts by instrumenting MPICH2;
//! * the **correctness oracles** use the identity map: every application
//!   send is recorded under its stable identity `(channel, channel_seq)`.
//!   A recovered execution re-emits some sends; if any re-emission differs
//!   in size or payload from the original, the execution violated
//!   send-determinism (or the protocol replayed the wrong thing) and the
//!   conflict is recorded.

use crate::types::{ChannelId, Message, Rank};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Dense per-channel traffic counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CommMatrix {
    n: usize,
    bytes: Vec<u64>,
    msgs: Vec<u64>,
}

impl CommMatrix {
    pub fn new(n: usize) -> Self {
        CommMatrix {
            n,
            bytes: vec![0; n * n],
            msgs: vec![0; n * n],
        }
    }

    pub fn n_ranks(&self) -> usize {
        self.n
    }

    #[inline]
    fn idx(&self, src: Rank, dst: Rank) -> usize {
        src.idx() * self.n + dst.idx()
    }

    pub fn record(&mut self, src: Rank, dst: Rank, bytes: u64) {
        let i = self.idx(src, dst);
        self.bytes[i] += bytes;
        self.msgs[i] += 1;
    }

    pub fn bytes_between(&self, src: Rank, dst: Rank) -> u64 {
        self.bytes[self.idx(src, dst)]
    }

    pub fn msgs_between(&self, src: Rank, dst: Rank) -> u64 {
        self.msgs[self.idx(src, dst)]
    }

    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().sum()
    }

    /// Iterate non-empty directed channels as `(src, dst, bytes, msgs)`.
    pub fn channels(&self) -> impl Iterator<Item = (Rank, Rank, u64, u64)> + '_ {
        (0..self.n).flat_map(move |s| {
            (0..self.n).filter_map(move |d| {
                let i = s * self.n + d;
                if self.msgs[i] == 0 {
                    None
                } else {
                    Some((Rank(s as u32), Rank(d as u32), self.bytes[i], self.msgs[i]))
                }
            })
        })
    }
}

/// Identity record of one application send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SendIdentity {
    pub bytes: u64,
    pub payload: u64,
}

/// Execution trace with built-in determinism oracle.
///
/// Identities are **interned per channel**: `channel_seq` is consecutive
/// from 1 on every directed channel, so each channel's identities live in
/// a dense arena indexed by `seq - 1` — an O(1) append on first emission
/// and an O(1) probe on re-emission, instead of a per-message tree node
/// (one `BTreeMap` entry per message for the whole run was both the
/// allocation hot spot and the memory hog of large sims). `sparse` catches
/// the out-of-sequence case (a replay racing ahead of the recorded
/// prefix), which cannot happen under the engine's FIFO channels but keeps
/// the oracle total.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    pub matrix: CommMatrix,
    /// First-seen identity of each message, densely interned per channel:
    /// `dense[channel][seq - 1]`.
    dense: BTreeMap<ChannelId, Vec<SendIdentity>>,
    /// Identities whose `channel_seq` arrived beyond the dense prefix.
    sparse: BTreeMap<(ChannelId, u64), SendIdentity>,
    /// Oracle violations discovered during the run.
    pub violations: Vec<String>,
    /// Count of re-emissions that matched their original (replays and
    /// re-executed sends during recovery).
    pub consistent_reemissions: u64,
}

impl Trace {
    pub fn new(n: usize) -> Self {
        Trace {
            matrix: CommMatrix::new(n),
            dense: BTreeMap::new(),
            sparse: BTreeMap::new(),
            violations: Vec::new(),
            consistent_reemissions: 0,
        }
    }

    /// Look up the first-seen identity of `(channel, seq)`.
    fn identity(&self, channel: ChannelId, seq: u64) -> Option<&SendIdentity> {
        if seq == 0 {
            return self.sparse.get(&(channel, seq));
        }
        match self.dense.get(&channel) {
            Some(v) if (seq as usize) <= v.len() => Some(&v[seq as usize - 1]),
            _ => self.sparse.get(&(channel, seq)),
        }
    }

    /// Intern a first emission.
    fn intern(&mut self, channel: ChannelId, seq: u64, id: SendIdentity) {
        if seq >= 1 {
            let v = self.dense.entry(channel).or_default();
            if seq as usize == v.len() + 1 {
                v.push(id);
                return;
            }
        }
        self.sparse.insert((channel, seq), id);
    }

    /// Record a send (fresh, re-executed, or suppressed-as-orphan; replayed
    /// log deliveries are *not* recorded here — they are copies, checked on
    /// delivery instead). Only first emissions count toward the comm
    /// matrix, so the matrix reflects the failure-free communication
    /// pattern.
    pub fn record_send(&mut self, msg: &Message) {
        let channel = msg.channel();
        match self.identity(channel, msg.channel_seq).copied() {
            None => {
                self.intern(
                    channel,
                    msg.channel_seq,
                    SendIdentity {
                        bytes: msg.bytes,
                        payload: msg.payload,
                    },
                );
                self.matrix.record(msg.src, msg.dst, msg.bytes);
            }
            Some(orig) => {
                if orig.bytes == msg.bytes && orig.payload == msg.payload {
                    self.consistent_reemissions += 1;
                } else {
                    self.violations.push(format!(
                        "send-determinism violation on {src}->{dst} seq {seq}: \
                         original ({ob} B, payload {op:#x}), re-emission ({nb} B, payload {np:#x})",
                        src = msg.src,
                        dst = msg.dst,
                        seq = msg.channel_seq,
                        ob = orig.bytes,
                        op = orig.payload,
                        nb = msg.bytes,
                        np = msg.payload,
                    ));
                }
            }
        }
    }

    /// Verify a replayed (logged) message against the original emission.
    pub fn check_replay(&mut self, msg: &Message) {
        match self.identity(msg.channel(), msg.channel_seq).copied() {
            Some(orig) if orig.bytes == msg.bytes && orig.payload == msg.payload => {
                self.consistent_reemissions += 1;
            }
            Some(orig) => self.violations.push(format!(
                "replay mismatch on {src}->{dst} seq {seq}: logged ({nb} B, {np:#x}) vs \
                 original ({ob} B, {op:#x})",
                src = msg.src,
                dst = msg.dst,
                seq = msg.channel_seq,
                nb = msg.bytes,
                np = msg.payload,
                ob = orig.bytes,
                op = orig.payload,
            )),
            None => self.violations.push(format!(
                "replay of never-sent message {src}->{dst} seq {seq}",
                src = msg.src,
                dst = msg.dst,
                seq = msg.channel_seq,
            )),
        }
    }

    /// Merge another shard's trace into this one (sharded runs,
    /// DESIGN.md §2.8). Sends are recorded on the *sender's* shard, and
    /// every directed channel has exactly one sender, so the per-channel
    /// identity maps of two shards are disjoint — the merge is a union,
    /// never a conflict resolution. Matrix cells sum (disjoint channels:
    /// one side is zero), violations concatenate, and re-emission counts
    /// add.
    pub fn absorb(&mut self, other: Trace) {
        assert_eq!(self.matrix.n, other.matrix.n);
        // Only cells that saw a message carry anything (a zero-byte send
        // still counts one message); skipping the rest leaves untouched
        // pages of the destination unwritten.
        for (i, &msgs) in other.matrix.msgs.iter().enumerate() {
            if msgs != 0 {
                self.matrix.bytes[i] += other.matrix.bytes[i];
                self.matrix.msgs[i] += msgs;
            }
        }
        for (channel, v) in other.dense {
            let prev = self.dense.insert(channel, v);
            debug_assert!(prev.is_none(), "channel {channel:?} recorded on two shards");
        }
        for (k, id) in other.sparse {
            let prev = self.sparse.insert(k, id);
            debug_assert!(prev.is_none(), "sparse identity {k:?} on two shards");
        }
        self.violations.extend(other.violations);
        self.consistent_reemissions += other.consistent_reemissions;
    }

    /// Number of distinct application messages observed.
    pub fn distinct_messages(&self) -> usize {
        self.dense.values().map(Vec::len).sum::<usize>() + self.sparse.len()
    }

    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{PbMeta, Tag};

    fn msg(seq: u64, bytes: u64, payload: u64) -> Message {
        Message {
            src: Rank(0),
            dst: Rank(1),
            tag: Tag(0),
            bytes,
            payload,
            channel_seq: seq,
            meta: PbMeta::default(),
            replayed: false,
        }
    }

    #[test]
    fn matrix_accumulates() {
        let mut m = CommMatrix::new(3);
        m.record(Rank(0), Rank(1), 100);
        m.record(Rank(0), Rank(1), 50);
        m.record(Rank(2), Rank(0), 7);
        assert_eq!(m.bytes_between(Rank(0), Rank(1)), 150);
        assert_eq!(m.msgs_between(Rank(0), Rank(1)), 2);
        assert_eq!(m.total_bytes(), 157);
        assert_eq!(m.total_msgs(), 3);
        let chans: Vec<_> = m.channels().collect();
        assert_eq!(chans.len(), 2);
    }

    #[test]
    fn reemission_identical_is_consistent() {
        let mut t = Trace::new(2);
        t.record_send(&msg(1, 100, 0xAB));
        t.record_send(&msg(1, 100, 0xAB));
        assert!(t.is_consistent());
        assert_eq!(t.consistent_reemissions, 1);
        // matrix counts the message once
        assert_eq!(t.matrix.msgs_between(Rank(0), Rank(1)), 1);
    }

    #[test]
    fn reemission_differing_payload_is_violation() {
        let mut t = Trace::new(2);
        t.record_send(&msg(1, 100, 0xAB));
        t.record_send(&msg(1, 100, 0xCD));
        assert!(!t.is_consistent());
        assert!(t.violations[0].contains("send-determinism violation"));
    }

    #[test]
    fn replay_checks_against_original() {
        let mut t = Trace::new(2);
        t.record_send(&msg(3, 64, 0x1));
        t.check_replay(&msg(3, 64, 0x1));
        assert!(t.is_consistent());
        t.check_replay(&msg(3, 64, 0x2));
        assert!(!t.is_consistent());
    }

    #[test]
    fn replay_of_unknown_message_flagged() {
        let mut t = Trace::new(2);
        t.check_replay(&msg(9, 8, 0x9));
        assert!(t.violations[0].contains("never-sent"));
    }

    #[test]
    fn sequential_sends_intern_densely() {
        let mut t = Trace::new(2);
        for seq in 1..=1000u64 {
            t.record_send(&msg(seq, 8, seq));
        }
        assert_eq!(t.distinct_messages(), 1000);
        assert!(t.sparse.is_empty(), "FIFO seqs must stay in the arena");
        // Re-emissions of interned identities are matched exactly.
        t.record_send(&msg(500, 8, 500));
        assert!(t.is_consistent());
        assert_eq!(t.consistent_reemissions, 1);
        t.record_send(&msg(500, 8, 999));
        assert!(!t.is_consistent());
    }

    #[test]
    fn absorb_unions_disjoint_shard_traces() {
        let mut a = Trace::new(3);
        a.record_send(&msg(1, 100, 0xA));
        a.record_send(&msg(1, 100, 0xA)); // re-emission
        let mut b = Trace::new(3);
        b.record_send(&Message {
            src: Rank(2),
            dst: Rank(0),
            tag: Tag(0),
            bytes: 7,
            payload: 0xB,
            channel_seq: 1,
            meta: PbMeta::default(),
            replayed: false,
        });
        b.violations.push("shard-local violation".into());
        a.absorb(b);
        assert_eq!(a.distinct_messages(), 2);
        assert_eq!(a.consistent_reemissions, 1);
        assert_eq!(a.matrix.total_bytes(), 107);
        assert_eq!(a.matrix.msgs_between(Rank(2), Rank(0)), 1);
        assert_eq!(a.violations.len(), 1);
    }

    #[test]
    fn out_of_sequence_seq_falls_back_to_sparse() {
        let mut t = Trace::new(2);
        t.record_send(&msg(1, 8, 0xA));
        t.record_send(&msg(7, 8, 0xB)); // gap: seqs 2..=6 never seen
        assert_eq!(t.distinct_messages(), 2);
        assert_eq!(t.sparse.len(), 1);
        // Both identities remain addressable.
        t.check_replay(&msg(1, 8, 0xA));
        t.check_replay(&msg(7, 8, 0xB));
        assert!(t.is_consistent());
        t.check_replay(&msg(7, 8, 0xC));
        assert!(!t.is_consistent());
    }
}
