//! Host-speed calibration: a fixed reference workload, run between
//! passes, that tells how fast the host is running right now.
//!
//! On a shared virtual machine the same pass runs up to twice as fast in
//! one minute as in the next, because of what other guests do to the
//! shared cores and caches. The reference kernels below stand for the
//! kinds of work the simulator does — arithmetic, pointer chasing, an
//! event queue with hashed inboxes and allocation, sorting and an ordered
//! map — and use none of the repository's crates, so a change to the
//! program never changes their time. Their time relative to a fixed
//! nominal time is the host's *slowdown*; the end-to-end metrics are
//! reported at nominal host speed by scaling with it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::time::Instant;

/// Nominal seconds of each kernel: medians on a calm 2-vCPU KVM guest
/// (Intel Xeon, 2 MiB private cache per core). Only their ratio to the
/// measured times matters; a slowdown of 1 means "as fast as that host,
/// calm".
const NOMINAL_S: [f64; 5] = [0.0226, 0.0445, 0.0429, 0.0202, 0.0522];

/// xorshift64 step.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A dependent multiply-xor chain: core speed only.
fn arith() {
    let mut h = 1u64;
    for i in 0..10_000_000u64 {
        h = h.wrapping_mul(6364136223846793005).wrapping_add(i) ^ (h >> 29);
    }
    std::hint::black_box(h);
}

/// A random cyclic walk over 4 MiB: beyond the private cache, so it
/// reads the shared cache's latency.
fn chase() {
    const N: usize = 1 << 20;
    let mut order: Vec<u32> = (0..N as u32).collect();
    let mut x = 12345u64;
    for i in (1..N).rev() {
        order.swap(i, (next(&mut x) % i as u64) as usize);
    }
    let mut succ = vec![0u32; N];
    for i in 0..N {
        succ[order[i] as usize] = order[(i + 1) % N];
    }
    let mut p = 0u32;
    for _ in 0..300_000 {
        p = succ[p as usize];
    }
    std::hint::black_box(p);
}

/// A discrete-event loop over 4096 entities: a binary-heap queue, a hash
/// map inbox per entity and a small allocation per message.
fn events() {
    const N: u32 = 4096;
    let mut x = 0x1234_5678_9abc_def0u64;
    let mut queue: BinaryHeap<Reverse<(u64, u32, u32)>> = BinaryHeap::new();
    let mut inbox: Vec<HashMap<u32, Vec<u8>>> = (0..N).map(|_| HashMap::new()).collect();
    for r in 0..N {
        for k in 0..4 {
            queue.push(Reverse((next(&mut x) % 1000, r, (r + 1 + k) % N)));
        }
    }
    for _ in 0..100_000 {
        let Reverse((now, src, dst)) = queue.pop().expect("the queue never drains");
        let held = &mut inbox[dst as usize];
        if held.remove(&src).is_none() {
            held.insert(src, vec![0u8; 64]);
        }
        let k = next(&mut x);
        let peers = [
            (dst + 1) % N,
            (dst + N - 1) % N,
            (dst + 64) % N,
            (dst + N - 64) % N,
        ];
        queue.push(Reverse((
            now + 1 + k % 100,
            dst,
            peers[(k >> 8) as usize % 4],
        )));
    }
    std::hint::black_box(&inbox);
}

/// Unstable sort of 500k random words: branches and streaming access.
fn sort() {
    let mut x = 5u64;
    let mut v: Vec<u64> = (0..500_000).map(|_| next(&mut x)).collect();
    v.sort_unstable();
    std::hint::black_box(v);
}

/// Inserts and removals in an ordered map of up to 50k boxed values.
fn ordered_map() {
    let mut x = 99u64;
    let mut m = BTreeMap::new();
    for _ in 0..150_000 {
        let k = next(&mut x) % 50_000;
        if m.remove(&k).is_none() {
            m.insert(k, vec![k; 4]);
        }
    }
    std::hint::black_box(m);
}

const KERNELS: [fn(); 5] = [arith, chase, events, sort, ordered_map];

/// The slowdown of the core this runs on: the geometric mean over the
/// kernels of measured over nominal time (above 1 when it runs slow).
fn core_slowdown() -> f64 {
    let logs: f64 = KERNELS
        .iter()
        .zip(NOMINAL_S)
        .map(|(kernel, nominal)| {
            let started = Instant::now();
            kernel();
            (started.elapsed().as_secs_f64() / nominal).ln()
        })
        .sum();
    (logs / KERNELS.len() as f64).exp()
}

/// The host's slowdown now, for a run on `threads` threads: the kernels
/// run on that many threads at once, and the slowest thread counts,
/// because a sharded run waits at every barrier for its slowest shard.
/// A single thread would miss a slow core that the scheduler keeps it off.
pub fn slowdown(threads: usize) -> f64 {
    if threads <= 1 {
        return core_slowdown();
    }
    std::thread::scope(|scope| {
        let running: Vec<_> = (0..threads).map(|_| scope.spawn(core_slowdown)).collect();
        running
            .into_iter()
            .map(|t| t.join().expect("calibration kernels do not panic"))
            .fold(0.0, f64::max)
    })
}
