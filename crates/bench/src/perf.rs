//! # bench::perf — the CI-gated engine performance baseline
//!
//! A fixed macro matrix — checked in as `suites/perf_baseline.suite`
//! and compiled by [`macro_matrix`] — exercising the simulation hot path at
//! the scale the paper's headline experiments need (thousand-rank
//! stencils, clustered HydEE, checkpoint + failure recovery, and a
//! long-horizon 4096-rank cell that only the streaming `RankProgram`
//! representation makes memory-feasible). Each cell separates *setup*
//! (workload generation, cluster resolution — not the engine) from the
//! *timed simulation*, and reports events/second of simulated execution,
//! the program-representation memory win, and the determinism digest.
//!
//! The [`PerfReport`] serializes to `BENCH_engine.json` in a stable,
//! line-diffable schema. CI runs [`check_against`] with the committed
//! baseline: a >20 % events/sec regression or *any* digest drift fails the
//! build. Timing wobbles with runner load — digests never do — so the
//! tolerance applies only to throughput.
//!
//! The schema is versioned: bump [`SCHEMA_VERSION`] (and regenerate the
//! committed baseline) when fields change meaning.

use scenario::{
    CheckpointPolicySpec, ClusterStrategy, FailureModelSpec, ProtocolSpec, ScenarioSpec,
    StorageSpec,
};
use serde::Serialize;
use serde_json::Value;
use std::time::Instant;
use workloads::WorkloadSpec;

/// v3: added per-cell containment metrics (`failures`,
/// `ranks_rolled_back`, `rollback_rank_fraction`, `lost_work_s`,
/// `recovery_s` — the failure/rollback columns the `FailureModel` regimes
/// make meaningful) and the `stencil1024_poisson` stochastic-failure
/// cell. `failures` and `ranks_rolled_back` are deterministic integers
/// and gated for drift exactly like the digests.
///
/// v4: added per-cell checkpoint-policy columns (`checkpoint_policy`,
/// `checkpoints`, `checkpoint_overhead_s`, `waste_fraction` — the §VI
/// waste/efficiency frontier) and the two `waste_frontier_*` cells
/// (stencil1024 × Poisson failures with checkpoints actually firing:
/// an aggressive fixed interval vs. the adaptive Young/Daly policy).
/// `checkpoints` and `waste_fraction` are deterministic (pure functions
/// of integer virtual time) and gated for drift like the digests.
///
/// v5: added the telemetry-overhead columns (`sim_wall_recorder_s`,
/// `events_per_sec_recorder`, `recorder_overhead_pct` per cell plus the
/// aggregate `recorder_overhead_pct`): every cell is timed twice, with
/// the recorder slot empty and with a [`mps_sim::NoopRecorder`]
/// attached. The digests of the two modes must be bit-for-bit identical
/// (recorders are observers); the aggregate overhead is gated at
/// [`MAX_RECORDER_OVERHEAD_PCT`] by `perf_baseline`. Overhead is
/// wall-clock and is *not* compared against the committed baseline.
///
/// v6: added the parallel-engine columns (`shards`, `barrier_rounds` per
/// cell — the effective shard count the run executed with and the
/// time-window barriers the coordinator ran, both 0/1 for serial cells)
/// and the `stencil4096_long_par` cell: the long-horizon stencil on the
/// conservative sharded engine (DESIGN.md §2.8), whose digest must be
/// bit-for-bit equal to the serial `stencil4096_long` cell
/// ([`check_parallel_speedup`]). Also fixed a measurement artifact in
/// `run_cell`: bare and recorder-attached repeats are now interleaved
/// after a shared warm-up run instead of running all-bare-then-all-
/// recorder, so `recorder_overhead_pct` no longer compares a cold mode
/// against a warm one.
///
/// v7: added the per-cell `topology` column (canonical `TopologySpec`
/// name — endpoint-aware pricing, DESIGN.md §2.9) and the
/// [`PAR_TOPOLOGY_CELL`] cell: the sharded long-horizon stencil again,
/// now under a `fat-tree:4` topology. Flat-topology pricing is a
/// bit-for-bit oracle of the legacy size-only models, so every pre-v7
/// cell's digest, containment integers, checkpoint count and waste
/// fraction are unchanged from the v6 baseline. The fat-tree cell is
/// gated by [`check_topology_lookahead`]: the per-link-class lookahead
/// must buy strictly fewer barrier rounds than the v6 scalar lookahead
/// of the flat [`PAR_SHARDED_CELL`].
pub const SCHEMA_VERSION: u32 = 7;

/// Ceiling on the aggregate throughput cost of the recorder hooks when
/// no recorder does any work: one `Option` check per instrumented site
/// plus gauge assembly per event loop iteration must stay in the noise.
pub const MAX_RECORDER_OVERHEAD_PCT: f64 = 3.0;

/// The serial half of the parallel-engine acceptance pair.
pub const PAR_SERIAL_CELL: &str = "stencil4096_long";
/// The sharded half — same workload on the conservative parallel engine.
pub const PAR_SHARDED_CELL: &str = "stencil4096_long_par";
/// The sharded cell again under a fat-tree topology (schema v7): tiered
/// inter-cluster transit raises the per-pair lookahead floor, so the
/// coordinator must need strictly fewer barrier rounds than the flat
/// cell's scalar lookahead ([`check_topology_lookahead`]).
pub const PAR_TOPOLOGY_CELL: &str = "stencil4096_long_par_fattree";
/// Minimum `events_per_sec` ratio of [`PAR_SHARDED_CELL`] over
/// [`PAR_SERIAL_CELL`] — enforced only when the host exposes at least as
/// many cores as the cell has shards ([`check_parallel_speedup`]).
pub const MIN_PAR_SPEEDUP: f64 = 2.5;

/// The macro matrix as a checked-in suite file: eight single-cell
/// scenarios whose names ARE the gated cell names of
/// `BENCH_engine.json`. [`macro_matrix`] compiles this text; `sweep
/// --suite suites/perf_baseline.suite` runs the identical specs.
pub const SUITE: &str = include_str!("../../../suites/perf_baseline.suite");

/// One point of the macro matrix.
pub struct Cell {
    pub name: String,
    pub spec: ScenarioSpec,
}

/// The shared shape of the `waste_frontier_*` cells: stencil1024 under
/// HydEE/64 clusters with seed-driven Poisson failures, varying only
/// the checkpoint policy.
pub fn waste_frontier_spec(policy: CheckpointPolicySpec) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        WorkloadSpec::Stencil {
            n_ranks: 1024,
            iterations: 200,
            face_bytes: 4096,
            compute_us: 100,
            wildcard_recv: false,
        },
        ProtocolSpec::Hydee {
            checkpoint: policy,
            image_bytes: 1 << 20,
            storage: StorageSpec::ParallelFs,
            gc: true,
        },
        ClusterStrategy::Partitioned(64),
    );
    spec.failure_model = FailureModelSpec::Poisson {
        mtbf_ms: 10_000,
        seed: 7,
        max_failures: 3,
    };
    spec
}

/// The fixed macro matrix, compiled from [`SUITE`]
/// (`suites/perf_baseline.suite`): every scenario there is exactly one
/// cell, and the scenario name is the cell name. Changing a cell
/// invalidates the committed baseline — regenerate `BENCH_engine.json`
/// in the same PR.
pub fn macro_matrix() -> Vec<Cell> {
    let suite = scenario::Suite::parse_str(SUITE, "suites/perf_baseline.suite")
        .unwrap_or_else(|e| panic!("perf_baseline suite is malformed: {e}"));
    let cells: Vec<Cell> = suite
        .cells()
        .into_iter()
        .map(|c| Cell {
            name: c.scenario,
            spec: c.spec,
        })
        .collect();
    assert_eq!(
        cells.len(),
        suite.scenarios.len(),
        "perf_baseline suite scenarios must be single-cell (names are the gated cell names)"
    );
    cells
}

/// Outcome of one timed cell.
#[derive(Debug, Clone, Serialize)]
pub struct CellResult {
    pub name: String,
    pub n_ranks: usize,
    pub completed: bool,
    pub trace_consistent: bool,
    /// Engine events processed by the timed simulation.
    pub events: u64,
    /// Untimed setup (workload generation + cluster resolution), seconds.
    pub setup_s: f64,
    /// Heap bytes resident in the streamed program representation.
    pub program_resident_bytes: u64,
    /// Heap bytes a fully materialised `Vec<Op>` representation of the
    /// same application would hold (computed in closed form, never
    /// allocated). `program_unrolled_bytes / program_resident_bytes` is
    /// the streaming API's memory win for this cell.
    pub program_unrolled_bytes: u64,
    /// Wall-clock seconds of the timed simulation (best of `repeat`).
    pub sim_wall_s: f64,
    /// `events / sim_wall_s` — the gated throughput metric.
    pub events_per_sec: f64,
    /// Wall-clock seconds with a no-op recorder attached (best of
    /// `repeat`; same digest as the untraced run, asserted).
    pub sim_wall_recorder_s: f64,
    /// `events / sim_wall_recorder_s`.
    pub events_per_sec_recorder: f64,
    /// `100 × (1 − events_per_sec_recorder / events_per_sec)`: the cost
    /// of the recorder plumbing when no recorder does any work. Signed —
    /// small negative values are timing noise.
    pub recorder_overhead_pct: f64,
    /// Failure events injected — deterministic, gated for drift.
    pub failures: u64,
    /// Ranks rolled back across all failures — deterministic, gated.
    pub ranks_rolled_back: u64,
    /// `ranks_rolled_back / (failures * n_ranks)` (0 for clean cells):
    /// the containment headline number.
    pub rollback_rank_fraction: f64,
    /// Simulated compute discarded by rollbacks, seconds.
    pub lost_work_s: f64,
    /// Simulated recovery-orchestration time, seconds.
    pub recovery_s: f64,
    /// Canonical checkpoint-policy name of the cell's protocol.
    pub checkpoint_policy: String,
    /// Checkpoints taken (per-rank count) — deterministic, gated.
    pub checkpoints: u64,
    /// Rank-seconds spent taking checkpoints.
    pub checkpoint_overhead_s: f64,
    /// `(checkpoint_time + lost_work) / (n_ranks × makespan)` — the §VI
    /// waste frontier number; a pure ratio of integer virtual times,
    /// deterministic and gated for drift.
    pub waste_fraction: f64,
    /// Exact integer makespan — determinism golden value.
    pub makespan_ps: u64,
    /// Order-sensitive fold of per-rank state digests — determinism golden
    /// value; must be bit-for-bit stable across machines.
    pub digest: u64,
    /// Canonical topology name of the cell (`flat` unless the cell opts
    /// into tiered endpoint-aware pricing, DESIGN.md §2.9).
    pub topology: String,
    /// Scheduler shards the run actually executed with (1 = serial; the
    /// effective count after clamping, DESIGN.md §2.8).
    pub shards: u32,
    /// Time-window barriers the parallel coordinator ran (0 for serial).
    pub barrier_rounds: u64,
}

/// The whole report, serialized to `BENCH_engine.json`.
#[derive(Debug, Clone, Serialize)]
pub struct PerfReport {
    pub schema_version: u32,
    pub cells: Vec<CellResult>,
    pub total_events: u64,
    pub total_sim_wall_s: f64,
    /// `total_events / total_sim_wall_s` over the whole matrix.
    pub aggregate_events_per_sec: f64,
    /// Wall time over the whole matrix with a no-op recorder attached.
    pub total_sim_wall_recorder_s: f64,
    /// Aggregate recorder-plumbing cost:
    /// `100 × (1 − total_sim_wall_s / total_sim_wall_recorder_s)`.
    /// Gated at [`MAX_RECORDER_OVERHEAD_PCT`] by `perf_baseline`.
    pub recorder_overhead_pct: f64,
    /// Peak resident set of the whole process, bytes (0 where unsupported).
    pub peak_rss_bytes: u64,
}

/// Run one cell: untimed setup, one untimed warm-up simulation, then
/// `repeat` *interleaved* bare/recorder simulation pairs keeping the
/// fastest wall time of each mode (every run must produce the identical
/// digest — a mismatch panics, because a nondeterministic engine
/// invalidates every other number in the report).
///
/// The warm-up plus interleaving is load-bearing for
/// `recorder_overhead_pct`: timing all bare repeats first and all
/// recorder repeats second hands the recorder mode a fully warmed
/// process (allocator arenas grown, pages faulted in, branch predictors
/// trained), which systematically biased the overhead low — often
/// negative — instead of measuring the hooks.
pub fn run_cell(cell: &Cell, repeat: u32) -> CellResult {
    let spec = &cell.spec;
    let setup_started = Instant::now();
    // Scope the setup app so only one application image is resident while
    // the timed simulation runs.
    let (map, n_ranks, program_resident_bytes, program_unrolled_bytes) = {
        let app = spec.workload.build();
        (
            spec.clusters.resolve(&app),
            app.n_ranks(),
            app.resident_bytes(),
            app.unrolled_bytes(),
        )
    };
    let setup_s = setup_started.elapsed().as_secs_f64();

    let run_once = |with_recorder: bool| -> (f64, mps_sim::RunReport) {
        let app = spec.workload.build();
        let factory = spec.protocol.to_factory();
        // Same contract as the executor: every run carries its built
        // topology (`Flat` included — the bit-for-bit oracle of the
        // size-only models), so tiered cells price by endpoint here too.
        let mut cfg = spec.sim_config();
        cfg.topology = Some(std::sync::Arc::new(
            spec.topology
                .build(cfg.network.clone(), map.assignment().to_vec()),
        ));
        let mut req = protocols::RunRequest::new(app)
            .sim_config(cfg)
            .failure_model(spec.failure_model.build(&map))
            .clusters(map.clone())
            .shards(spec.shards);
        if with_recorder {
            req = req.recorder(Box::new(mps_sim::NoopRecorder));
        }
        let started = Instant::now();
        let report = factory.run(req);
        (started.elapsed().as_secs_f64(), report)
    };

    // Untimed warm-up; its report is the digest oracle for every timed run.
    let (_, warmup) = run_once(false);

    let mut best: Option<(f64, mps_sim::RunReport)> = None;
    let mut best_recorder: Option<f64> = None;
    for _ in 0..repeat.max(1) {
        let (wall, report) = run_once(false);
        assert_eq!(
            warmup.digests, report.digests,
            "{}: nondeterministic digest across repeats",
            cell.name
        );
        if best.as_ref().is_none_or(|(w, _)| wall < *w) {
            best = Some((wall, report));
        }
        // The recorder run of the same pair: measures what merely
        // *threading* the telemetry hooks costs. A recorder is an
        // observer, so the digests (and event counts) must not move.
        let (wall, traced) = run_once(true);
        assert_eq!(
            warmup.digests, traced.digests,
            "{}: attaching a recorder changed the digest",
            cell.name
        );
        assert_eq!(
            warmup.metrics.events, traced.metrics.events,
            "{}: attaching a recorder changed the event count",
            cell.name
        );
        best_recorder = Some(best_recorder.map_or(wall, |w: f64| w.min(wall)));
    }
    let (sim_wall_s, report) = best.expect("at least one repeat");
    let sim_wall_recorder_s = best_recorder.expect("at least one recorder repeat");

    let events = report.metrics.events;
    let events_per_sec = events as f64 / sim_wall_s.max(1e-9);
    let events_per_sec_recorder = events as f64 / sim_wall_recorder_s.max(1e-9);
    let m = &report.metrics;
    CellResult {
        name: cell.name.clone(),
        n_ranks,
        completed: report.completed(),
        trace_consistent: report.trace.is_consistent(),
        events,
        setup_s,
        program_resident_bytes,
        program_unrolled_bytes,
        sim_wall_s,
        events_per_sec,
        sim_wall_recorder_s,
        events_per_sec_recorder,
        recorder_overhead_pct: 100.0 * (1.0 - events_per_sec_recorder / events_per_sec.max(1e-9)),
        failures: m.failures,
        ranks_rolled_back: m.ranks_rolled_back,
        rollback_rank_fraction: m.rollback_rank_fraction(n_ranks),
        lost_work_s: m.lost_work.as_secs_f64(),
        recovery_s: m.recovery_time.as_secs_f64(),
        checkpoint_policy: spec.protocol.checkpoint_policy().name(),
        checkpoints: m.checkpoints,
        checkpoint_overhead_s: m.checkpoint_time.as_secs_f64(),
        waste_fraction: m.waste_fraction(n_ranks),
        makespan_ps: report.makespan.as_ps(),
        digest: scenario::fold_digests(&report.digests),
        topology: spec.topology.name(),
        shards: report.shards,
        barrier_rounds: report.barrier_rounds,
    }
}

/// Run the whole matrix and assemble the report.
pub fn run_matrix(cells: &[Cell], repeat: u32) -> PerfReport {
    let results: Vec<CellResult> = cells.iter().map(|c| run_cell(c, repeat)).collect();
    let total_events: u64 = results.iter().map(|r| r.events).sum();
    let total_sim_wall_s: f64 = results.iter().map(|r| r.sim_wall_s).sum();
    let total_sim_wall_recorder_s: f64 = results.iter().map(|r| r.sim_wall_recorder_s).sum();
    PerfReport {
        schema_version: SCHEMA_VERSION,
        cells: results,
        total_events,
        total_sim_wall_s,
        aggregate_events_per_sec: total_events as f64 / total_sim_wall_s.max(1e-9),
        total_sim_wall_recorder_s,
        recorder_overhead_pct: 100.0
            * (1.0 - total_sim_wall_s / total_sim_wall_recorder_s.max(1e-9)),
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// Gate the no-op recorder overhead: `Some(violation)` when the
/// aggregate cost of the disabled telemetry hooks exceeds `max_pct`
/// percent of events/sec throughput.
pub fn check_recorder_overhead(report: &PerfReport, max_pct: f64) -> Option<String> {
    if report.recorder_overhead_pct > max_pct {
        Some(format!(
            "disabled-recorder overhead {:.2}% exceeds the {max_pct:.1}% gate \
             ({:.3}s untraced vs {:.3}s with a no-op recorder attached)",
            report.recorder_overhead_pct, report.total_sim_wall_s, report.total_sim_wall_recorder_s
        ))
    } else {
        None
    }
}

/// Gate the parallel engine against its serial oracle (DESIGN.md §2.8).
///
/// The digest leg is machine-independent and always enforced: the
/// sharded [`PAR_SHARDED_CELL`] must reproduce the serial
/// [`PAR_SERIAL_CELL`] digest (and makespan) bit-for-bit, and must have
/// actually run sharded. The throughput leg — the sharded cell at least
/// `min_speedup`× the serial cell's events/sec — only means something
/// when the host can run the shards concurrently, so it is skipped when
/// `cores` is below the cell's shard count (a 1-core CI runner would
/// time four shards multiplexed onto one core and fail vacuously).
pub fn check_parallel_speedup(report: &PerfReport, min_speedup: f64, cores: usize) -> Vec<String> {
    let cell = |name: &str| report.cells.iter().find(|c| c.name == name);
    let (Some(serial), Some(par)) = (cell(PAR_SERIAL_CELL), cell(PAR_SHARDED_CELL)) else {
        return vec![format!(
            "parallel gate: matrix is missing `{PAR_SERIAL_CELL}` and/or `{PAR_SHARDED_CELL}`"
        )];
    };
    let mut violations = Vec::new();
    if par.shards < 2 {
        violations.push(format!(
            "parallel gate: `{}` ran with {} shard(s) — it fell back to the serial engine",
            par.name, par.shards
        ));
    }
    if (par.digest, par.makespan_ps) != (serial.digest, serial.makespan_ps) {
        violations.push(format!(
            "parallel gate: sharded digest/makespan {:#x}/{} != serial {:#x}/{} — the \
             parallel engine must be bit-for-bit equal to the serial oracle",
            par.digest, par.makespan_ps, serial.digest, serial.makespan_ps
        ));
    }
    if cores >= par.shards.max(1) as usize {
        let speedup = par.events_per_sec / serial.events_per_sec.max(1e-9);
        if speedup < min_speedup {
            violations.push(format!(
                "parallel gate: {:.2}x speedup at {} shards is below the {min_speedup:.1}x \
                 floor ({:.0} vs {:.0} events/s)",
                speedup, par.shards, par.events_per_sec, serial.events_per_sec
            ));
        }
    }
    violations
}

/// Gate the per-link-class lookahead (schema v7, DESIGN.md §2.9).
///
/// [`PAR_TOPOLOGY_CELL`] runs the same sharded workload as
/// [`PAR_SHARDED_CELL`] under a fat-tree topology: tiered inter-cluster
/// links have a strictly higher transit floor than the flat network, so
/// the per-pair lookahead matrix must let every shard advance further
/// between barriers. Machine-independent (barrier rounds are a pure
/// function of integer virtual time), so always enforced: the topology
/// cell must have actually run sharded and must need strictly fewer
/// barrier rounds than the flat cell's scalar lookahead.
pub fn check_topology_lookahead(report: &PerfReport) -> Vec<String> {
    let cell = |name: &str| report.cells.iter().find(|c| c.name == name);
    let (Some(flat), Some(tiered)) = (cell(PAR_SHARDED_CELL), cell(PAR_TOPOLOGY_CELL)) else {
        return vec![format!(
            "topology gate: matrix is missing `{PAR_SHARDED_CELL}` and/or `{PAR_TOPOLOGY_CELL}`"
        )];
    };
    let mut violations = Vec::new();
    if tiered.topology == "flat" {
        violations.push(format!(
            "topology gate: `{}` ran on the flat topology — the cell must opt into a tiered one",
            tiered.name
        ));
    }
    if tiered.shards < 2 {
        violations.push(format!(
            "topology gate: `{}` ran with {} shard(s) — it fell back to the serial engine",
            tiered.name, tiered.shards
        ));
    }
    if tiered.barrier_rounds >= flat.barrier_rounds {
        violations.push(format!(
            "topology gate: {} barrier rounds under `{}` is not strictly below the flat \
             cell's {} — the per-class lookahead matrix is not buying coordination slack",
            tiered.barrier_rounds, tiered.topology, flat.barrier_rounds
        ));
    }
    violations
}

/// Peak resident set size of this process in bytes (`VmHWM`), 0 where the
/// procfs interface is unavailable.
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb: u64 = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
    }
    0
}

/// A cell's gated numbers as extracted from a baseline JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineCell {
    pub name: String,
    pub events_per_sec: f64,
    /// Deterministic containment integers (schema v3): gated for drift
    /// like the digest.
    pub failures: u64,
    pub ranks_rolled_back: u64,
    /// Deterministic checkpoint-policy columns (schema v4): gated for
    /// drift like the digest.
    pub checkpoints: u64,
    pub waste_fraction: f64,
    pub digest: u64,
}

/// A committed baseline as extracted from `BENCH_engine.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// `schema_version` of the committed file (`None` if unparseable —
    /// the gate treats that as a mismatch).
    pub schema_version: Option<u32>,
    pub cells: Vec<BaselineCell>,
}

/// Extract the gated fields from a `BENCH_engine.json`. A document that
/// does not parse yields `schema_version: None` and no cells; a cell
/// missing a gated field is skipped (the gate then reports it as absent).
pub fn parse_baseline(text: &str) -> Baseline {
    let Ok(doc) = serde_json::from_str(text) else {
        return Baseline {
            schema_version: None,
            cells: Vec::new(),
        };
    };
    let schema_version = doc
        .get("schema_version")
        .and_then(Value::as_u64)
        .and_then(|v| u32::try_from(v).ok());
    let cell = |c: &Value| -> Option<BaselineCell> {
        let int = |k: &str| c.get(k).and_then(Value::as_u64);
        // `as_f64` reads `null` as NaN; a gated float must be a number.
        let float = |k: &str| c.get(k).and_then(Value::as_f64).filter(|x| !x.is_nan());
        Some(BaselineCell {
            name: c.get("name")?.as_str()?.to_owned(),
            events_per_sec: float("events_per_sec")?,
            failures: int("failures")?,
            ranks_rolled_back: int("ranks_rolled_back")?,
            checkpoints: int("checkpoints")?,
            waste_fraction: float("waste_fraction")?,
            digest: int("digest")?,
        })
    };
    let cells = doc
        .get("cells")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(cell)
        .collect();
    Baseline {
        schema_version,
        cells,
    }
}

/// Compare `report` against a committed baseline. Returns the list of
/// violations (empty = pass): schema-version mismatch, throughput
/// regressions beyond `tolerance` (fractional, e.g. 0.20), and any
/// digest drift.
pub fn check_against(baseline: &Baseline, report: &PerfReport, tolerance: f64) -> Vec<String> {
    let mut violations = Vec::new();
    if baseline.schema_version != Some(report.schema_version) {
        violations.push(format!(
            "baseline schema_version {:?} != current {} — fields may have changed \
             meaning; regenerate the committed BENCH_engine.json",
            baseline.schema_version, report.schema_version
        ));
        // Cell-level comparisons against an incommensurable schema would
        // only add noise.
        return violations;
    }
    for base in &baseline.cells {
        let Some(cur) = report.cells.iter().find(|c| c.name == base.name) else {
            violations.push(format!(
                "cell `{}` present in baseline but not produced (matrix drift — \
                 regenerate the baseline deliberately)",
                base.name
            ));
            continue;
        };
        if cur.digest != base.digest {
            violations.push(format!(
                "cell `{}`: digest {:#x} != baseline {:#x} — determinism broken or \
                 timing model changed without regenerating the baseline",
                base.name, cur.digest, base.digest
            ));
        }
        if (cur.failures, cur.ranks_rolled_back) != (base.failures, base.ranks_rolled_back) {
            violations.push(format!(
                "cell `{}`: containment drift — failures/rolled {}/{} != baseline {}/{} \
                 (failure injection or rollback scope changed without regenerating the baseline)",
                base.name,
                cur.failures,
                cur.ranks_rolled_back,
                base.failures,
                base.ranks_rolled_back
            ));
        }
        // waste_fraction is a pure ratio of integer virtual times: it
        // reproduces exactly, modulo the JSON float round-trip.
        if cur.checkpoints != base.checkpoints
            || (cur.waste_fraction - base.waste_fraction).abs() > 1e-9
        {
            violations.push(format!(
                "cell `{}`: checkpoint drift — checkpoints/waste {}/{:.6} != baseline {}/{:.6} \
                 (checkpoint scheduling or cost model changed without regenerating the baseline)",
                base.name,
                cur.checkpoints,
                cur.waste_fraction,
                base.checkpoints,
                base.waste_fraction
            ));
        }
        let floor = base.events_per_sec * (1.0 - tolerance);
        if cur.events_per_sec < floor {
            violations.push(format!(
                "cell `{}`: {:.0} events/s is below the gate ({:.0} = baseline {:.0} - {:.0}%)",
                base.name,
                cur.events_per_sec,
                floor,
                base.events_per_sec,
                tolerance * 100.0
            ));
        }
    }
    // Matrix drift in the other direction: a cell the baseline has never
    // seen would otherwise ship permanently ungated.
    for cur in &report.cells {
        if !baseline.cells.iter().any(|b| b.name == cur.name) {
            violations.push(format!(
                "cell `{}` produced but absent from the baseline (matrix grew — \
                 regenerate the baseline in the same change)",
                cur.name
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::FailureSpec;
    use workloads::NasBench;

    fn report_with(name: &str, eps: f64, digest: u64) -> PerfReport {
        PerfReport {
            schema_version: SCHEMA_VERSION,
            cells: vec![CellResult {
                name: name.into(),
                n_ranks: 2,
                completed: true,
                trace_consistent: true,
                events: 1000,
                setup_s: 0.0,
                program_resident_bytes: 100,
                program_unrolled_bytes: 10_000,
                sim_wall_s: 0.001,
                events_per_sec: eps,
                sim_wall_recorder_s: 0.001,
                events_per_sec_recorder: eps,
                recorder_overhead_pct: 0.0,
                failures: 1,
                ranks_rolled_back: 2,
                rollback_rank_fraction: 1.0,
                lost_work_s: 0.0,
                recovery_s: 0.0,
                checkpoint_policy: "periodic:interval=5".into(),
                checkpoints: 4,
                checkpoint_overhead_s: 0.25,
                waste_fraction: 0.125,
                makespan_ps: 1,
                digest,
                topology: "flat".into(),
                shards: 1,
                barrier_rounds: 0,
            }],
            total_events: 1000,
            total_sim_wall_s: 0.001,
            aggregate_events_per_sec: eps,
            total_sim_wall_recorder_s: 0.001,
            recorder_overhead_pct: 0.0,
            peak_rss_bytes: 0,
        }
    }

    #[test]
    fn recorder_overhead_gate_trips_above_the_ceiling() {
        let mut report = report_with("c", 1000.0, 7);
        assert!(check_recorder_overhead(&report, MAX_RECORDER_OVERHEAD_PCT).is_none());
        // 5% slower with the no-op recorder attached.
        report.total_sim_wall_recorder_s = report.total_sim_wall_s / 0.95;
        report.recorder_overhead_pct =
            100.0 * (1.0 - report.total_sim_wall_s / report.total_sim_wall_recorder_s);
        let violation = check_recorder_overhead(&report, MAX_RECORDER_OVERHEAD_PCT)
            .expect("5% overhead must trip the 3% gate");
        assert!(violation.contains("overhead"), "{violation}");
        // Negative overhead (recorder run was faster — noise) passes.
        report.recorder_overhead_pct = -1.0;
        assert!(check_recorder_overhead(&report, MAX_RECORDER_OVERHEAD_PCT).is_none());
    }

    #[test]
    fn report_roundtrips_through_parse_baseline() {
        let report = report_with("cell_a", 123456.0, 0xDEAD);
        let json = serde_json::to_string(&report).unwrap();
        let parsed = parse_baseline(&json);
        assert_eq!(parsed.schema_version, Some(SCHEMA_VERSION));
        assert_eq!(parsed.cells.len(), 1);
        assert_eq!(parsed.cells[0].name, "cell_a");
        assert_eq!(parsed.cells[0].digest, 0xDEAD);
        assert!((parsed.cells[0].events_per_sec - 123456.0).abs() < 1e-6);
        assert_eq!(parse_baseline("{\"schema_version\":").schema_version, None);
    }

    #[test]
    fn parse_baseline_ignores_field_order() {
        let mut report = report_with("cell_a", 123456.0, 0xDEAD);
        let mut second = report_with("cell_b", 654321.0, u64::MAX).cells;
        second[0].failures = 3;
        second[0].waste_fraction = 0.5;
        report.cells.append(&mut second);
        let json = serde_json::to_string(&report).unwrap();
        // Move each cell's `"name"` member to the end of its object.
        let mut doc = serde_json::from_str(&json).unwrap();
        let Value::Object(top) = &mut doc else {
            panic!("report is an object")
        };
        let (_, Value::Array(cells)) = top.iter_mut().find(|(k, _)| k == "cells").unwrap() else {
            panic!("cells is an array")
        };
        for cell in cells.iter_mut() {
            let Value::Object(members) = cell else {
                panic!("cell is an object")
            };
            let name = members.remove(0);
            assert_eq!(name.0, "name");
            members.push(name);
        }
        let reordered = doc.to_json();
        assert_ne!(reordered, json);
        let expected = parse_baseline(&json);
        assert_eq!(expected.cells.len(), 2);
        assert_eq!(parse_baseline(&reordered), expected);
    }

    #[test]
    fn gate_fails_on_schema_version_mismatch() {
        let mut base =
            parse_baseline(&serde_json::to_string(&report_with("c", 1000.0, 7)).unwrap());
        base.schema_version = Some(SCHEMA_VERSION + 1);
        let violations = check_against(&base, &report_with("c", 1000.0, 7), 0.20);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("schema_version"));
        // An unparseable version is a mismatch too, not a silent pass.
        base.schema_version = None;
        assert!(!check_against(&base, &report_with("c", 1000.0, 7), 0.20).is_empty());
    }

    #[test]
    fn gate_passes_within_tolerance() {
        let base = parse_baseline(&serde_json::to_string(&report_with("c", 1000.0, 7)).unwrap());
        let current = report_with("c", 850.0, 7); // -15% < 20% gate
        assert!(check_against(&base, &current, 0.20).is_empty());
    }

    #[test]
    fn gate_fails_on_regression_and_digest_drift() {
        let base = parse_baseline(&serde_json::to_string(&report_with("c", 1000.0, 7)).unwrap());
        let slow = report_with("c", 700.0, 7); // -30%
        assert_eq!(check_against(&base, &slow, 0.20).len(), 1);
        let drifted = report_with("c", 1000.0, 8);
        let violations = check_against(&base, &drifted, 0.20);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("digest"));
    }

    #[test]
    fn gate_fails_on_matrix_drift_in_either_direction() {
        let base = parse_baseline(&serde_json::to_string(&report_with("old", 1000.0, 7)).unwrap());
        let current = report_with("new", 1000.0, 7);
        // Renamed cell: flagged both as a dropped baseline cell and as an
        // ungated fresh cell.
        let violations = check_against(&base, &current, 0.20);
        assert_eq!(violations.len(), 2);
        assert!(violations.iter().any(|v| v.contains("not produced")));
        assert!(violations
            .iter()
            .any(|v| v.contains("absent from the baseline")));
    }

    #[test]
    fn macro_matrix_is_nine_cells_with_the_scale_points() {
        let cells = macro_matrix();
        assert_eq!(cells.len(), 9);
        assert_eq!(cells[0].spec.workload.n_ranks(), 1024);
        assert!(cells
            .iter()
            .any(|c| c.spec.failure_model.scheduled_failures() > 0));
        assert!(cells
            .iter()
            .any(|c| matches!(c.spec.failure_model, FailureModelSpec::Poisson { .. })));
        assert!(cells.iter().any(|c| c.spec.workload.n_ranks() == 4096));
        // The parallel acceptance pair: same 4096-rank workload, one
        // serial, one sharded 4 ways.
        let par = cells
            .iter()
            .find(|c| c.name == PAR_SHARDED_CELL)
            .expect("sharded long-horizon cell");
        let serial = cells
            .iter()
            .find(|c| c.name == PAR_SERIAL_CELL)
            .expect("serial long-horizon cell");
        assert_eq!(par.spec.shards, 4);
        assert_eq!(serial.spec.shards, 1);
        assert_eq!(par.spec.workload, serial.spec.workload);
        // The v7 topology cell: the sharded spec under fat-tree pricing.
        let tiered = cells
            .iter()
            .find(|c| c.name == PAR_TOPOLOGY_CELL)
            .expect("fat-tree long-horizon cell");
        assert_eq!(
            tiered.spec.topology,
            scenario::TopologySpec::FatTree { k: 4 }
        );
        assert_eq!(tiered.spec.shards, par.spec.shards);
        assert_eq!(tiered.spec.workload, par.spec.workload);
        assert_eq!(par.spec.topology, scenario::TopologySpec::Flat);
        // The waste-frontier pair varies only the checkpoint policy.
        let frontier: Vec<&Cell> = cells
            .iter()
            .filter(|c| c.name.starts_with("waste_frontier"))
            .collect();
        assert_eq!(frontier.len(), 2);
        let policies: std::collections::BTreeSet<String> = frontier
            .iter()
            .map(|c| c.spec.protocol.checkpoint_policy().name())
            .collect();
        assert_eq!(policies.len(), 2);
        assert!(policies.iter().any(|p| p.starts_with("young-daly")));
        for c in &frontier {
            assert_eq!(c.spec.workload.n_ranks(), 1024);
            assert!(matches!(
                c.spec.failure_model,
                FailureModelSpec::Poisson { .. }
            ));
        }
    }

    /// The suite file must reproduce the pre-suite hand-built matrix
    /// spec-for-spec: spec equality implies digest equality (the engine
    /// is deterministic per spec), so this pins `BENCH_engine.json`
    /// against drift introduced by editing `suites/perf_baseline.suite`.
    #[test]
    fn suite_cells_match_the_handwritten_matrix() {
        let stencil_1024 = WorkloadSpec::Stencil {
            n_ranks: 1024,
            iterations: 200,
            face_bytes: 4096,
            compute_us: 100,
            wildcard_recv: false,
        };
        let cg_failure = {
            let mut spec = ScenarioSpec::new(
                WorkloadSpec::Nas {
                    bench: NasBench::CG,
                    scale: 1.0 / 64.0,
                    iterations: None,
                },
                ProtocolSpec::Hydee {
                    checkpoint: CheckpointPolicySpec::periodic(100),
                    image_bytes: 1 << 20,
                    storage: StorageSpec::ParallelFs,
                    gc: true,
                },
                ClusterStrategy::Partitioned(16),
            );
            spec.failure_model = FailureModelSpec::Fixed(vec![FailureSpec::at_ms(195, vec![7])]);
            spec
        };
        let poisson_5ms = {
            let mut spec = ScenarioSpec::new(
                stencil_1024.clone(),
                ProtocolSpec::Hydee {
                    checkpoint: CheckpointPolicySpec::periodic(5),
                    image_bytes: 1 << 20,
                    storage: StorageSpec::ParallelFs,
                    gc: true,
                },
                ClusterStrategy::Partitioned(64),
            );
            spec.failure_model = FailureModelSpec::Poisson {
                mtbf_ms: 10_000,
                seed: 7,
                max_failures: 3,
            };
            spec
        };
        let oracle: Vec<(&str, ScenarioSpec)> = vec![
            (
                "stencil1024_native",
                ScenarioSpec::new(
                    stencil_1024.clone(),
                    ProtocolSpec::Native,
                    ClusterStrategy::Single,
                ),
            ),
            (
                "stencil1024_hydee64",
                ScenarioSpec::new(
                    stencil_1024,
                    ProtocolSpec::hydee(),
                    ClusterStrategy::Partitioned(64),
                ),
            ),
            ("cg256_hydee16_failure", cg_failure),
            ("stencil1024_poisson", poisson_5ms),
            (
                "waste_frontier_fixed1ms",
                waste_frontier_spec(CheckpointPolicySpec::Periodic {
                    interval_ms: 1,
                    first_ms: Some(1),
                    stagger_ms: Some(0),
                }),
            ),
            (
                "waste_frontier_young_daly",
                waste_frontier_spec(CheckpointPolicySpec::YoungDaly {
                    first_ms: Some(1),
                    stagger_ms: Some(0),
                }),
            ),
            (
                "stencil4096_long",
                ScenarioSpec::new(
                    WorkloadSpec::Stencil {
                        n_ranks: 4096,
                        iterations: 2000,
                        face_bytes: 4096,
                        compute_us: 100,
                        wildcard_recv: false,
                    },
                    ProtocolSpec::Native,
                    ClusterStrategy::Single,
                ),
            ),
            (
                "stencil4096_long_par",
                ScenarioSpec::new(
                    WorkloadSpec::Stencil {
                        n_ranks: 4096,
                        iterations: 2000,
                        face_bytes: 4096,
                        compute_us: 100,
                        wildcard_recv: false,
                    },
                    ProtocolSpec::Native,
                    ClusterStrategy::Blocks(64),
                )
                .with_shards(4),
            ),
            (
                "stencil4096_long_par_fattree",
                ScenarioSpec::new(
                    WorkloadSpec::Stencil {
                        n_ranks: 4096,
                        iterations: 2000,
                        face_bytes: 4096,
                        compute_us: 100,
                        wildcard_recv: false,
                    },
                    ProtocolSpec::Native,
                    ClusterStrategy::Blocks(64),
                )
                .with_shards(4)
                .with_topology(scenario::TopologySpec::FatTree { k: 4 }),
            ),
        ];
        let cells = macro_matrix();
        assert_eq!(cells.len(), oracle.len());
        for (cell, (name, spec)) in cells.iter().zip(&oracle) {
            assert_eq!(&cell.name, name);
            assert_eq!(&cell.spec, spec, "cell `{name}` drifted from the oracle");
        }
    }

    #[test]
    fn gate_fails_on_checkpoint_drift() {
        let base = parse_baseline(&serde_json::to_string(&report_with("c", 1000.0, 7)).unwrap());
        assert_eq!(base.cells[0].checkpoints, 4);
        assert!((base.cells[0].waste_fraction - 0.125).abs() < 1e-12);
        let mut drifted = report_with("c", 1000.0, 7);
        drifted.cells[0].waste_fraction = 0.5;
        let violations = check_against(&base, &drifted, 0.20);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("checkpoint drift"), "{violations:?}");
        let mut drifted = report_with("c", 1000.0, 7);
        drifted.cells[0].checkpoints = 5;
        assert_eq!(check_against(&base, &drifted, 0.20).len(), 1);
    }

    #[test]
    fn gate_fails_on_containment_drift() {
        let base = parse_baseline(&serde_json::to_string(&report_with("c", 1000.0, 7)).unwrap());
        assert_eq!(base.cells[0].failures, 1);
        assert_eq!(base.cells[0].ranks_rolled_back, 2);
        let mut drifted = report_with("c", 1000.0, 7);
        drifted.cells[0].ranks_rolled_back = 64;
        let violations = check_against(&base, &drifted, 0.20);
        assert_eq!(violations.len(), 1);
        assert!(
            violations[0].contains("containment drift"),
            "{violations:?}"
        );
    }

    #[test]
    fn parallel_gate_checks_digest_always_and_speedup_only_with_cores() {
        let with_pair = |par_eps: f64, par_digest: u64, par_shards: u32| {
            let mut report = report_with(PAR_SERIAL_CELL, 1000.0, 7);
            let mut par = report.cells[0].clone();
            par.name = PAR_SHARDED_CELL.into();
            par.events_per_sec = par_eps;
            par.digest = par_digest;
            par.shards = par_shards;
            par.barrier_rounds = 12;
            report.cells.push(par);
            report
        };
        // Healthy pair: 3x at 4 shards, same digest.
        let healthy = with_pair(3000.0, 7, 4);
        assert!(check_parallel_speedup(&healthy, MIN_PAR_SPEEDUP, 8).is_empty());
        // Too slow: trips only when the host has >= 4 cores.
        let slow = with_pair(1100.0, 7, 4);
        assert_eq!(check_parallel_speedup(&slow, MIN_PAR_SPEEDUP, 8).len(), 1);
        assert!(check_parallel_speedup(&slow, MIN_PAR_SPEEDUP, 1).is_empty());
        // Digest drift trips regardless of core count.
        let drifted = with_pair(3000.0, 8, 4);
        assert!(!check_parallel_speedup(&drifted, MIN_PAR_SPEEDUP, 1).is_empty());
        // A silent serial fallback is a violation even when fast.
        let serial_fallback = with_pair(3000.0, 7, 1);
        assert!(!check_parallel_speedup(&serial_fallback, MIN_PAR_SPEEDUP, 1).is_empty());
        // A matrix without the pair cannot pass.
        let lone = report_with(PAR_SERIAL_CELL, 1000.0, 7);
        assert!(!check_parallel_speedup(&lone, MIN_PAR_SPEEDUP, 8).is_empty());
    }

    #[test]
    fn topology_gate_requires_sharded_tiered_barrier_reduction() {
        let with_cells = |tiered_topology: &str, tiered_shards: u32, tiered_rounds: u64| {
            let mut report = report_with(PAR_SHARDED_CELL, 1000.0, 7);
            report.cells[0].shards = 4;
            report.cells[0].barrier_rounds = 100;
            let mut tiered = report.cells[0].clone();
            tiered.name = PAR_TOPOLOGY_CELL.into();
            tiered.topology = tiered_topology.into();
            tiered.shards = tiered_shards;
            tiered.barrier_rounds = tiered_rounds;
            report.cells.push(tiered);
            report
        };
        // Healthy: tiered, sharded, strictly fewer rounds.
        assert!(check_topology_lookahead(&with_cells("fat-tree:4", 4, 60)).is_empty());
        // Equal rounds is a violation — the gate demands strict reduction.
        assert_eq!(
            check_topology_lookahead(&with_cells("fat-tree:4", 4, 100)).len(),
            1
        );
        // A flat topology or a serial fallback defeats the measurement.
        assert_eq!(
            check_topology_lookahead(&with_cells("flat", 4, 60)).len(),
            1
        );
        assert_eq!(
            check_topology_lookahead(&with_cells("fat-tree:4", 1, 60)).len(),
            1
        );
        // A matrix without the pair cannot pass.
        let lone = report_with(PAR_SHARDED_CELL, 1000.0, 7);
        assert!(!check_topology_lookahead(&lone).is_empty());
    }

    /// The tentpole's acceptance criterion: for every ≥1024-rank cell the
    /// streamed program representation is at least 10× smaller than the
    /// unrolled `Vec<Op>` form it replaced. Machine-independent — computed
    /// from the representations, no timing involved.
    #[test]
    fn streamed_programs_shrink_resident_memory_10x() {
        for cell in macro_matrix() {
            let app = cell.spec.workload.build();
            if app.n_ranks() < 1024 {
                continue;
            }
            let resident = app.resident_bytes();
            let unrolled = app.unrolled_bytes();
            assert!(
                resident * 10 <= unrolled,
                "{}: resident {resident} B vs unrolled {unrolled} B (< 10x win)",
                cell.name
            );
        }
    }
}
