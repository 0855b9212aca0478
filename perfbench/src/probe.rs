//! Probes that observe a layer through its public interface: a counting
//! network model, a timing protocol wrapper and a recorder. None of them
//! changes what the wrapped code computes, so a traced run must produce
//! byte-identical records.

use det_sim::{SimDuration, SimTime};
use mps_sim::StorageDir;
use mps_sim::{Ctx, Endpoint, Gauges, Message, Protocol, Rank, Recorder, SendDirective, SendInfo};
use net_model::{MsgCost, NetworkModel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Forwards to a base network model, counting the calls that reach it and
/// the host time they take. Passed as `SimConfig.network` and as the
/// topology's base model, it sees exactly the pricing the cost cache missed.
pub struct CountingModel {
    inner: Arc<dyn NetworkModel>,
    calls: AtomicU64,
    ns: AtomicU64,
}

impl CountingModel {
    pub fn new(inner: Arc<dyn NetworkModel>) -> Self {
        CountingModel {
            inner,
            calls: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        }
    }

    /// `(calls, host ns)` so far.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
        )
    }

    fn counted<R>(&self, f: impl FnOnce(&dyn NetworkModel) -> R) -> R {
        let started = Instant::now();
        let out = f(self.inner.as_ref());
        self.ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl NetworkModel for CountingModel {
    fn cost(&self, wire_bytes: u64) -> MsgCost {
        self.counted(|m| m.cost(wire_bytes))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn latency(&self, wire_bytes: u64) -> SimDuration {
        self.counted(|m| m.latency(wire_bytes))
    }

    fn min_transit(&self) -> SimDuration {
        self.counted(|m| m.min_transit())
    }

    fn bandwidth(&self, wire_bytes: u64) -> f64 {
        self.counted(|m| m.bandwidth(wire_bytes))
    }
}

/// Calls of one protocol hook and the host time spent in them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HookStat {
    pub calls: u64,
    pub ns: u64,
}

/// Names of the timed hooks, in [`Timed::hooks`] order.
pub const HOOKS: [&str; 5] = [
    "on_send",
    "on_deliver",
    "on_control",
    "on_timer",
    "on_failure",
];

/// Times every fault-tolerance hook of the wrapped protocol.
pub struct Timed<P> {
    pub inner: P,
    pub hooks: [HookStat; 5],
}

impl<P> Timed<P> {
    pub fn new(inner: P) -> Self {
        Timed {
            inner,
            hooks: [HookStat::default(); 5],
        }
    }

    fn add(&mut self, hook: usize, started: Instant) {
        let h = &mut self.hooks[hook];
        h.calls += 1;
        h.ns += started.elapsed().as_nanos() as u64;
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Ctl = P::Ctl;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, ctx: &mut Ctx<'_, Self::Ctl>) {
        self.inner.init(ctx)
    }

    fn on_send(&mut self, ctx: &mut Ctx<'_, Self::Ctl>, info: &SendInfo) -> SendDirective {
        let started = Instant::now();
        let directive = self.inner.on_send(ctx, info);
        self.add(0, started);
        directive
    }

    fn on_deliver(&mut self, ctx: &mut Ctx<'_, Self::Ctl>, msg: &Message) {
        let started = Instant::now();
        self.inner.on_deliver(ctx, msg);
        self.add(1, started);
    }

    fn on_control(
        &mut self,
        ctx: &mut Ctx<'_, Self::Ctl>,
        to: Endpoint,
        from: Endpoint,
        ctl: Self::Ctl,
    ) {
        let started = Instant::now();
        self.inner.on_control(ctx, to, from, ctl);
        self.add(2, started);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Ctl>, id: u64) {
        let started = Instant::now();
        self.inner.on_timer(ctx, id);
        self.add(3, started);
    }

    fn on_failure(&mut self, ctx: &mut Ctx<'_, Self::Ctl>, failed: &[Rank]) {
        let started = Instant::now();
        self.inner.on_failure(ctx, failed);
        self.add(4, started);
    }

    fn on_done(&mut self, ctx: &mut Ctx<'_, Self::Ctl>, rank: Rank) {
        self.inner.on_done(ctx, rank)
    }
}

/// What [`LayerRecorder`] saw over one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecStats {
    pub queue_depth_max: u64,
    pub inflight_max: u64,
    pub logged_bytes_max: u64,
    pub replayed_sends: u64,
    pub checkpoints: u64,
    pub storage_batches: u64,
    pub storage_bytes: u64,
    pub storage_queued_ps: u64,
}

/// Reads engine gauges, checkpoints, storage batches and sends. The
/// caller keeps a clone of the handle and reads it after the run.
pub struct LayerRecorder(pub Arc<Mutex<RecStats>>);

impl LayerRecorder {
    fn stats(&self) -> std::sync::MutexGuard<'_, RecStats> {
        self.0
            .lock()
            .expect("recorder stats poisoned by a panicking run")
    }
}

impl Recorder for LayerRecorder {
    fn on_tick(&mut self, _now: SimTime, g: &Gauges) {
        let mut s = self.stats();
        s.queue_depth_max = s.queue_depth_max.max(g.queue_depth as u64);
        s.inflight_max = s.inflight_max.max(g.inflight_msgs as u64);
        s.logged_bytes_max = s.logged_bytes_max.max(g.logged_bytes);
    }

    fn on_send(&mut self, _now: SimTime, _src: u32, _dst: u32, _bytes: u64, replayed: bool) {
        self.stats().replayed_sends += replayed as u64;
    }

    fn on_checkpoint(&mut self, _cluster: u32, _begin: SimTime, _end: SimTime, _bytes: u64) {
        self.stats().checkpoints += 1;
    }

    fn on_storage(
        &mut self,
        _dir: StorageDir,
        _begin: SimTime,
        queued: SimDuration,
        _service: SimDuration,
        bytes: u64,
    ) {
        let mut s = self.stats();
        s.storage_batches += 1;
        s.storage_bytes += bytes;
        s.storage_queued_ps += queued.as_ps();
    }
}
