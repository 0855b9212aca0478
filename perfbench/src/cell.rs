//! One cell, run the way `scenario::Executor::run_one` runs it, with the
//! set-up and the simulation timed apart.
//!
//! Untraced, the simulation goes through the protocol's public factory —
//! the product path. Traced, the benchmark builds the protocol through its
//! public constructor inside a [`Timed`] wrapper, prices through a
//! [`CountingModel`] and attaches a [`LayerRecorder`]; the record must come
//! out byte-identical either way, which the caller checks.

use crate::inputs::Cell;
use crate::probe::{CountingModel, HookStat, LayerRecorder, RecStats, Timed, HOOKS};
use crate::spans::Spans;
use clustering::ClusteringStats;
use det_sim::SimDuration;
use hydee::Hydee;
use mps_sim::{
    Application, ClusterMap, FailureModel, Metrics, Protocol, Recorder, RunReport, Sim, SimConfig,
};
use protocols::{
    CoordinatedConfig, DeterminantCost, EventLogged, GlobalCoordinated, HydeeParams, RunRequest,
};
use scenario::{FailureModelSpec, ProtocolSpec, RunRecord, ScenarioSpec};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What the benchmark keeps of one cell run.
pub struct CellRun {
    pub record: RunRecord,
    /// Correctness checks this run failed (empty when it passed).
    pub problems: Vec<String>,
    pub setup_s: f64,
    pub sim_s: f64,
    /// Process CPU seconds over the simulation, all threads.
    pub cpu_s: f64,
    pub shards: u32,
    pub layers: Option<CellLayers>,
}

/// Per-layer observations of a traced cell run.
pub struct CellLayers {
    /// Local spans: `setup` and the simulation, with their children.
    pub spans: Spans,
    pub build_s: f64,
    pub resolve_s: f64,
    pub evaluate_s: f64,
    pub model_calls: u64,
    pub model_ns: u64,
    pub hooks: [HookStat; 5],
    pub rec: RecStats,
    pub metrics: Metrics,
    pub barrier_rounds: u64,
    pub distinct_messages: u64,
    pub resident_bytes: u64,
    /// Rank → cluster assignment, for replaying topology pricing.
    pub cluster_of: Vec<u32>,
}

/// The record fields known before simulating, as the executor fills them.
fn static_record(
    spec: &ScenarioSpec,
    app: &Application,
    map: &ClusterMap,
    stats: &ClusteringStats,
) -> RunRecord {
    RunRecord {
        scenario: spec.label(),
        workload: spec.workload.name(),
        protocol: spec.protocol.name(),
        clusters: spec.clusters.name(),
        network: spec.network.name().into(),
        topology: spec.topology.name(),
        n_ranks: app.n_ranks(),
        n_clusters: map.n_clusters(),
        n_failures: spec.failure_model.scheduled_failures(),
        failure_model: spec.failure_model.name(),
        checkpoint_policy: spec.protocol.checkpoint_policy().name(),
        avg_rollback_pct: stats.avg_rollback_pct,
        static_logged_bytes: stats.logged_bytes,
        static_total_bytes: stats.total_bytes,
        static_logged_pct: stats.logged_pct(),
        program_resident_bytes: app.resident_bytes(),
        program_unrolled_bytes: app.unrolled_bytes(),
        completed: false,
        status: "static".into(),
        makespan_ps: 0,
        makespan_s: 0.0,
        digest: 0,
        trace_consistent: true,
        trace_violations: 0,
        rollback_rank_fraction: 0.0,
        lost_work_s: 0.0,
        recovery_s: 0.0,
        checkpoint_overhead_s: 0.0,
        waste_fraction: 0.0,
        metrics: Metrics::default(),
        shards: 1,
        barrier_rounds: 0,
        pair_lookahead: String::new(),
    }
}

fn hydee_params(
    checkpoint: scenario::CheckpointPolicySpec,
    image_bytes: u64,
    storage: scenario::StorageSpec,
    gc: bool,
) -> HydeeParams {
    HydeeParams {
        checkpoint_policy: Some(checkpoint.to_config()),
        image_bytes: Some(image_bytes),
        storage: Some(storage.build()),
        disable_gc: !gc,
        ..Default::default()
    }
}

fn run_timed<P: Protocol>(req: RunRequest, protocol: P) -> (RunReport, [HookStat; 5]) {
    let mut sim = Sim::new(req.app, req.sim_config, Timed::new(protocol));
    sim.set_failure_model(req.failure_model);
    if let Some(recorder) = req.recorder {
        sim.set_recorder(recorder);
    }
    let (report, timed) = sim.run_with_protocol();
    (report, timed.hooks)
}

/// Run the request with the protocol built through its public
/// constructor and timed. Sharded and native runs go through the factory:
/// the native protocol has no hooks, and sharded runs build one protocol
/// per shard inside `par-sim`.
fn run_traced(spec: &ScenarioSpec, req: RunRequest) -> (RunReport, [HookStat; 5]) {
    let (drain_lat, drain_pb) = req
        .sim_config
        .topology
        .as_deref()
        .map_or((SimDuration::ZERO, 0), |t| t.drain_surcharge());
    let clusters = req.clusters.clone();
    match spec.protocol {
        _ if spec.shards > 1 => (spec.protocol.to_factory().run(req), Default::default()),
        ProtocolSpec::Native => (spec.protocol.to_factory().run(req), Default::default()),
        ProtocolSpec::Hydee {
            checkpoint,
            image_bytes,
            storage,
            gc,
        } => {
            let mut p =
                Hydee::new(hydee_params(checkpoint, image_bytes, storage, gc).config_for(clusters));
            p.set_drain_surcharge(drain_lat, drain_pb);
            run_timed(req, p)
        }
        ProtocolSpec::Coordinated {
            checkpoint,
            image_bytes,
            storage,
        } => {
            let mut p = GlobalCoordinated::new(CoordinatedConfig {
                checkpoint_policy: Some(checkpoint.to_config()),
                image_bytes,
                storage: storage.build(),
                ..Default::default()
            });
            p.set_drain_surcharge(drain_lat, drain_pb);
            run_timed(req, p)
        }
        ProtocolSpec::EventLogged {
            checkpoint,
            image_bytes,
            storage,
        } => {
            let mut inner = Hydee::new(
                hydee_params(checkpoint, image_bytes, storage, true).config_for(clusters),
            );
            inner.set_drain_surcharge(drain_lat, drain_pb);
            run_timed(req, EventLogged::new(inner, DeterminantCost::default()))
        }
    }
}

/// The checks every run must pass: it completed, the trace oracle holds,
/// every inbox drained, a cell built with failures saw at least one (so a
/// matching digest shows a recovery), and the digest (and event count,
/// where pinned) matches the cell's pin.
fn check_report(cell: &Cell, report: &RunReport) -> Vec<String> {
    let mut problems = Vec::new();
    let label = cell.spec.label();
    if cell.spec.failure_model != FailureModelSpec::none() && report.metrics.failures == 0 {
        problems.push(format!("{label}: no failure struck, so nothing recovered"));
    }
    if !report.completed() {
        problems.push(format!(
            "{label}: run did not complete ({:?})",
            report.status
        ));
    }
    if !report.trace.is_consistent() {
        problems.push(format!("{label}: trace oracle found violations"));
    }
    if report.inbox_leftover.iter().any(|&n| n != 0) {
        problems.push(format!("{label}: messages left in inboxes"));
    }
    let digest = scenario::fold_digests(&report.digests);
    if digest != cell.pin.digest {
        problems.push(format!(
            "{label}: digest {digest} != pinned {}",
            cell.pin.digest
        ));
    }
    if let Some(events) = cell.pin.events {
        if report.metrics.events != events {
            problems.push(format!(
                "{label}: {} events != pinned {events}",
                report.metrics.events
            ));
        }
    }
    problems
}

/// Set-ups shorter than this are repeated by [`setup_median`], so that
/// `setup_s` is a median over several samples rather than one
/// millisecond-scale reading.
const SETUP_SAMPLE_S: f64 = 0.05;
const SETUP_MAX_REPEATS: usize = 16;

/// A cell made ready to run: spec to engine request.
struct Setup {
    req: RunRequest,
    record: RunRecord,
    counting: Option<Arc<CountingModel>>,
    rec_stats: Arc<Mutex<RecStats>>,
    resident_bytes: u64,
    cluster_of: Vec<u32>,
    /// Instants: start, built, resolved, evaluated, topology start,
    /// topology end, ready.
    marks: [Instant; 7],
}

fn setup(cell: &Cell, traced: bool) -> Setup {
    let spec = &cell.spec;
    let start = Instant::now();
    let app = spec.workload.build();
    let built = Instant::now();
    let map = spec.clusters.resolve(&app);
    let resolved = Instant::now();
    let stats = ClusteringStats::evaluate(&app, &map);
    let evaluated = Instant::now();
    let record = static_record(spec, &app, &map, &stats);
    let resident_bytes = app.resident_bytes();

    let mut cfg: SimConfig = spec.sim_config();
    cfg.perturb_seed = cell.perturb_seed;
    let counting = traced.then(|| Arc::new(CountingModel::new(cfg.network.clone())));
    if let Some(c) = &counting {
        cfg.network = c.clone();
    }
    let topo_start = Instant::now();
    cfg.topology = Some(Arc::new(
        spec.topology
            .build(cfg.network.clone(), map.assignment().to_vec()),
    ));
    let topo_end = Instant::now();
    let cluster_of = if traced {
        map.assignment().to_vec()
    } else {
        Vec::new()
    };
    let failure_model: Box<dyn FailureModel> = spec.failure_model.build(&map);
    let rec_stats = Arc::new(Mutex::new(RecStats::default()));
    let mut req = RunRequest::new(app)
        .sim_config(cfg)
        .failure_model(failure_model)
        .clusters(map)
        .shards(spec.shards);
    if traced {
        let recorder: Box<dyn Recorder> = Box::new(LayerRecorder(rec_stats.clone()));
        req = req.recorder(recorder);
    }
    Setup {
        req,
        record,
        counting,
        rec_stats,
        resident_bytes,
        cluster_of,
        marks: [
            start,
            built,
            resolved,
            evaluated,
            topo_start,
            topo_end,
            Instant::now(),
        ],
    }
}

/// Run one cell, traced or not.
pub fn run_cell(cell: &Cell, traced: bool) -> CellRun {
    let spec = &cell.spec;
    let s = setup(cell, traced);
    let Setup {
        req,
        record,
        counting,
        rec_stats,
        resident_bytes,
        cluster_of,
        marks: [setup_start, built, resolved, evaluated, topo_start, topo_end, setup_end],
    } = s;
    let setup_model = counting.as_ref().map_or((0, 0), |c| c.totals());

    let cpu_start = crate::host::cpu_seconds();
    let sim_start = Instant::now();
    let (report, hooks) = if traced {
        run_traced(spec, req)
    } else {
        (spec.protocol.to_factory().run(req), Default::default())
    };
    let sim_end = Instant::now();
    let cpu_s = crate::host::cpu_seconds() - cpu_start;

    let problems = check_report(cell, &report);
    let layers = counting.map(|c| {
        let mut spans = Spans::new(setup_start);
        let setup = spans.push("scenario", "setup", None, None, setup_start, setup_end);
        spans.push("workloads", "build", Some(setup), None, setup_start, built);
        spans.push("clustering", "resolve", Some(setup), None, built, resolved);
        spans.push(
            "clustering",
            "evaluate",
            Some(setup),
            None,
            resolved,
            evaluated,
        );
        let topo = spans.push(
            "net_model",
            "topology",
            Some(setup),
            None,
            topo_start,
            topo_end,
        );
        spans.aggregate(
            "net_model",
            "base_model",
            topo,
            setup_model.0,
            setup_model.1,
        );
        let layer = if report.shards > 1 {
            "par_sim"
        } else {
            "mps_sim"
        };
        let sim = spans.push(layer, "run", None, None, sim_start, sim_end);
        let (calls, ns) = c.totals();
        let (model_calls, model_ns) = (calls - setup_model.0, ns - setup_model.1);
        spans.aggregate("net_model", "base_model", sim, model_calls, model_ns);
        for (name, h) in HOOKS.iter().zip(&hooks) {
            spans.aggregate("protocol", name, sim, h.calls, h.ns);
        }
        CellLayers {
            spans,
            build_s: (built - setup_start).as_secs_f64(),
            resolve_s: (resolved - built).as_secs_f64(),
            evaluate_s: (evaluated - resolved).as_secs_f64(),
            model_calls,
            model_ns,
            hooks,
            rec: *rec_stats
                .lock()
                .expect("recorder stats poisoned by a panicking run"),
            metrics: report.metrics.clone(),
            barrier_rounds: report.barrier_rounds,
            distinct_messages: report.trace.distinct_messages() as u64,
            resident_bytes,
            cluster_of,
        }
    });
    CellRun {
        record: record.with_report(&report),
        problems,
        setup_s: (setup_end - setup_start).as_secs_f64(),
        sim_s: (sim_end - sim_start).as_secs_f64(),
        cpu_s,
        shards: report.shards,
        layers,
    }
}

/// Median set-up time of an untraced `cell`, given its first sample
/// `first_s`: while the samples sum to under [`SETUP_SAMPLE_S`], set the
/// cell up again, up to [`SETUP_MAX_REPEATS`] samples in all. Called after
/// a pass's cold cells, so the repeats stay out of the timed cold wall.
pub fn setup_median(cell: &Cell, first_s: f64) -> f64 {
    let mut samples = vec![first_s];
    while samples.iter().sum::<f64>() < SETUP_SAMPLE_S && samples.len() < SETUP_MAX_REPEATS {
        let s = setup(cell, false);
        samples.push((s.marks[6] - s.marks[0]).as_secs_f64());
    }
    crate::measure::median(&samples)
}
