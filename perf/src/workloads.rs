//! The six workloads: two per execution path, each pair stressing the
//! same layers in opposite ways (see README.md for the why of each).
//!
//! A workload is set up once from a seed and then runs *repeats*. A repeat
//! is a fixed sequence of *legs* (simulator cells, sync families, or one
//! `train_proc` call); every call a leg makes into a repo crate goes
//! through [`Recorder::scope`] when the repeat is traced and through the
//! identical untraced entry point when it is not.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dtrain_algos::{cost, run, run_observed, run_traced, RunConfig, RunOutput, SyntheticTask};
use dtrain_cluster::NetworkConfig;
use dtrain_core::presets::{self, AccuracyScale, PaperModel};
use dtrain_data::{prototype_images, teacher_task, Dataset, ImageTaskConfig, TeacherTaskConfig};
use dtrain_models::{default_mlp, mlp_classifier, small_cnn};
use dtrain_nn::ParamSet;
use dtrain_obs::ObsSink;
use dtrain_proc::{train_proc, ProcConfig, ProcReport};
use dtrain_runtime::{
    train_threaded, train_threaded_observed, RunPlan, Strategy, ThreadedConfig, ThreadedReport,
};

use crate::spans::{compute_is_nn, durations_us, from_rows, Clock, Recorder, SpanId};

/// Workers on the real paths: fixed so numbers compare across hosts
/// (`host.parallelism` is recorded beside them). They share the one CPU
/// the workload child pins itself to (see `runner::child`).
pub const REAL_WORKERS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SimSweep,
    SimMath,
    ThrCnn,
    ThrSync,
    ProcRounds,
    ProcBulk,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::SimSweep,
        Workload::SimMath,
        Workload::ThrCnn,
        Workload::ThrSync,
        Workload::ProcRounds,
        Workload::ProcBulk,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimSweep => "sim_sweep",
            Workload::SimMath => "sim_math",
            Workload::ThrCnn => "thr_cnn",
            Workload::ThrSync => "thr_sync",
            Workload::ProcRounds => "proc_rounds",
            Workload::ProcBulk => "proc_bulk",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`: what the workload stresses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SimSweep => {
                "cost-only simulator sweep, 7 algorithms x 2 models at 24 workers: \
                 desim hand-off, NetModel and algorithm bodies do all the work, tensor/nn none"
            }
            Workload::SimMath => {
                "simulator with real SmallCnn SGD, 8 workers, 4 cells incl. DGC: a few hundred \
                 events with milliseconds of math between hand-offs, so tensor/nn/compress dominate"
            }
            Workload::ThrCnn => {
                "threaded BSP on SmallCnn 3x32x32, 2 worker threads on one CPU: compute-bound real \
                 path, train_batch is >=80% of a step and the exchange is a rounding error"
            }
            Workload::ThrSync => {
                "threaded BSP+ASP+AD-PSGD legs on a tiny MLP, 2 worker threads on one CPU: \
                 exchange-bound real path, barrier, PS lock, peer channels and ParamSet clones dominate"
            }
            Workload::ProcRounds => {
                "proc BSP, 2 worker processes on one CPU, 5k-param MLP, 1536 rounds: latency-bound \
                 wire path, per-frame codec/CRC/session/dispatch and wake-ups set the number"
            }
            Workload::ProcBulk => {
                "proc BSP, 2 worker processes on one CPU, 1.09M-param MLP (4.4 MB frames): byte-bound \
                 wire path, params encode/decode, CRC over megabytes and aggregation dominate"
            }
        }
    }

    pub fn build(self, seed: u64, smoke: bool, exes: &WorkerExes) -> Box<dyn Bench> {
        match self {
            Workload::SimSweep => Box::new(SimCells::sweep(seed, smoke)),
            Workload::SimMath => Box::new(SimCells::math(seed, smoke)),
            Workload::ThrCnn => Box::new(ThrCnn::new(seed)),
            Workload::ThrSync => Box::new(ThrSync::new(seed, smoke)),
            Workload::ProcRounds => Box::new(ProcBench::rounds(seed, smoke, exes)),
            Workload::ProcBulk => Box::new(ProcBench::bulk(seed, smoke, exes)),
        }
    }
}

/// Where the two worker binaries live (both are built into the directory
/// of the running `perf` binary by `run.sh`).
#[derive(Clone, Debug)]
pub struct WorkerExes {
    /// The repo's `dtrain-proc-worker`: every untraced run.
    pub stock: PathBuf,
    /// `perf-proc-worker`: traced runs only.
    pub timed: PathBuf,
    /// Directory traced workers leave their span files in.
    pub span_dir: PathBuf,
}

/// Distinct sub-seeds for datasets, models and simulator streams.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One leg of one repeat.
#[derive(Clone, Debug, Default)]
pub struct Leg {
    pub name: String,
    /// Wall time of the run itself as the path reports it
    /// (`ThreadedReport.wall_time`, `ProcReport.wall_time`, host time of
    /// `run()`): what throughput and round latency are computed from.
    pub run_wall_s: f64,
    /// Training samples processed (`total_iterations × batch`).
    pub samples: u64,
    /// Steps each worker took (BSP rounds on the synchronous legs).
    pub rounds: u64,
    /// Traced repeats only: host microseconds of every step.
    pub step_us: Vec<f64>,
    /// Traced proc repeats only: host microseconds of backend primitives.
    pub prims: Vec<(&'static str, Vec<f64>)>,
}

/// What one repeat produced.
#[derive(Clone, Debug, Default)]
pub struct Repeat {
    /// Wall time of the whole repeat (for proc: spawn and teardown too),
    /// less `harness_s`.
    pub wall_s: f64,
    /// Traced repeats only: time the harness spent turning events into
    /// spans between calls. Not the program's, so not in `wall_s`.
    pub harness_s: f64,
    pub legs: Vec<Leg>,
    pub scheduled_steps: u64,
    pub executed_steps: u64,
    /// Evictions + partial rounds + retries + restarts observed.
    pub disruptions: u64,
    /// Traced repeats only: events an obs ring overwrote (must be 0).
    pub dropped_events: u64,
    /// Output checks that failed, in words.
    pub failures: Vec<String>,
    /// Simulator only: digest of every cell's `RunOutput`; must repeat.
    pub digest: Option<u64>,
    /// Payload bytes the workers pushed (proc paths).
    pub logical_bytes: u64,
}

/// Exact facts about a workload that do not vary between repeats.
#[derive(Clone, Debug, Default)]
pub struct Facts {
    /// desim events of one repeat (simulator workloads).
    pub events: u64,
    /// Simulated wire bytes of one repeat (simulator workloads).
    pub sim_wire_bytes: u64,
    /// max |cost::throughput − simulated| / simulated over the cost-only
    /// cells, in % (virtual clock, exact).
    pub cost_err_pct_max: f64,
    /// Digest every repeat of a simulator workload must reproduce.
    pub digest: Option<u64>,
}

pub trait Bench {
    /// The untimed warm-up: one full repeat, so the first timed one finds
    /// binaries paged in, pools spun up and the allocator settled (a
    /// shortened warm-up left `thr_cnn`'s first timed repeat 5–25 % slow).
    /// Simulator workloads also take their exact facts (event counts,
    /// reference digest) here.
    fn warm_up(&mut self) -> Repeat {
        self.repeat(None)
    }
    /// One repeat; traced when `rec` is given.
    fn repeat(&mut self, rec: Option<&mut Recorder>) -> Repeat;
    fn facts(&self) -> Facts {
        Facts::default()
    }
}

// ---------------------------------------------------------------- sims --

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Digest of what a simulated run is: end time, throughput bits,
/// iterations, traffic, and (when known) the kernel's event count.
pub fn digest_output(out: &RunOutput, events: u64) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    fnv(&mut h, out.end_time.as_nanos());
    fnv(&mut h, out.throughput.to_bits());
    fnv(&mut h, out.total_iterations);
    fnv(&mut h, out.traffic.inter_messages);
    fnv(&mut h, out.traffic.inter_bytes);
    fnv(&mut h, out.traffic.intra_messages);
    fnv(&mut h, out.traffic.intra_bytes);
    for b in out.traffic.class_bytes {
        fnv(&mut h, b);
    }
    if let Some(acc) = out.final_accuracy {
        fnv(&mut h, u64::from(acc.to_bits()));
    }
    fnv(&mut h, events);
    h
}

struct Cell {
    name: String,
    cfg: RunConfig,
    /// Samples one iteration processes (timing batch for cost-only cells,
    /// the real batch for math cells).
    batch: u64,
    events: u64,
    digest: u64,
}

/// Shared machinery of the two simulator workloads.
struct SimCells {
    cells: Vec<Cell>,
    warm: bool,
    facts: Facts,
}

/// Obs ring capacity for simulator cells: the kernel track takes one
/// event per desim event, and nothing may be dropped.
const SIM_RING: usize = 1 << 21;

impl SimCells {
    fn new(cells: Vec<(String, RunConfig, u64)>) -> Self {
        SimCells {
            cells: cells
                .into_iter()
                .map(|(name, cfg, batch)| Cell {
                    name,
                    cfg,
                    batch,
                    events: 0,
                    digest: 0,
                })
                .collect(),
            warm: false,
            facts: Facts::default(),
        }
    }

    /// Run every cell once with kernel tracing on: that is the only public
    /// way to count desim events, and it doubles as the warm-up.
    fn count_events(&mut self) -> Repeat {
        let mut rep = Repeat::default();
        let started = Instant::now();
        let mut all = 0xCBF2_9CE4_8422_2325u64;
        for cell in &mut self.cells {
            let t = Instant::now();
            let (out, trace) = run_traced(&cell.cfg);
            let wall = t.elapsed().as_secs_f64();
            cell.events = trace.len() as u64;
            cell.digest = digest_output(&out, 0);
            fnv(&mut all, digest_output(&out, cell.events));
            self.facts.events += cell.events;
            self.facts.sim_wire_bytes += out.traffic.total_bytes();
            if cell.cfg.real.is_none() {
                let cluster = &cell.cfg.cluster;
                let model =
                    cost::throughput(cluster, &cell.cfg.algo, &cell.cfg.profile, cell.cfg.batch);
                let err = (model - out.throughput).abs() / out.throughput * 100.0;
                self.facts.cost_err_pct_max = self.facts.cost_err_pct_max.max(err);
            }
            rep.legs.push(leg_of_sim(cell, &out, wall));
        }
        self.facts.digest = Some(all);
        self.warm = true;
        rep.wall_s = started.elapsed().as_secs_f64();
        rep
    }

    fn timed(&mut self, mut rec: Option<&mut Recorder>) -> Repeat {
        assert!(self.warm, "warm_up takes the reference digests first");
        let mut rep = Repeat::default();
        let started = Instant::now();
        let mut all = 0xCBF2_9CE4_8422_2325u64;
        for cell in &self.cells {
            let t = Instant::now();
            let (out, wall) = match rec.as_deref_mut() {
                None => {
                    let out = run(&cell.cfg);
                    (out, t.elapsed().as_secs_f64())
                }
                Some(rec) => {
                    let sink = ObsSink::with_capacity(SIM_RING);
                    let name = format!("algos::run_observed {}", cell.name);
                    let (call, out) = rec.scope(name, "algos", |_| run_observed(&cell.cfg, &sink));
                    let wall = t.elapsed().as_secs_f64();
                    rep.dropped_events += sink.dropped();
                    // Simulated-time spans ride along for the trace file;
                    // they never enter a host-time sum.
                    rec.import_obs(
                        &sink.snapshot(),
                        call,
                        Clock::Virtual,
                        0,
                        compute_is_nn("algos"),
                    );
                    drop(sink);
                    rep.harness_s += t.elapsed().as_secs_f64() - wall;
                    (out, wall)
                }
            };
            if digest_output(&out, 0) != cell.digest {
                rep.failures.push(format!(
                    "{}: RunOutput digest differs from the warm-up's",
                    cell.name
                ));
            }
            fnv(&mut all, digest_output(&out, cell.events));
            rep.scheduled_steps += scheduled_sim_steps(&cell.cfg);
            rep.executed_steps += out.total_iterations;
            // Synchronous replicas must stay identical at every evaluated
            // point (the repo's own tests allow the same 1e-5).
            if cell.cfg.algo.is_synchronous() {
                if let Some(p) = out.curve.iter().find(|p| p.drift > 1e-5) {
                    rep.failures
                        .push(format!("{}: replicas drifted by {}", cell.name, p.drift));
                }
            }
            let mut leg = leg_of_sim(cell, &out, wall);
            if rec.is_some() {
                // One sample per cell: host time per simulated round.
                leg.step_us.push(wall * 1e6 / leg.rounds.max(1) as f64);
            }
            rep.legs.push(leg);
        }
        rep.digest = Some(all);
        rep.wall_s = started.elapsed().as_secs_f64() - rep.harness_s;
        rep
    }
}

fn scheduled_sim_steps(cfg: &RunConfig) -> u64 {
    let per_worker = match (cfg.stop, &cfg.real) {
        (dtrain_algos::StopCondition::Iterations(n), _) => n,
        (dtrain_algos::StopCondition::Epochs(e), Some(real)) => {
            e * (real.task.train_size() / cfg.workers / real.batch) as u64
        }
        (dtrain_algos::StopCondition::Epochs(_), None) => 0,
    };
    per_worker * cfg.workers as u64
}

fn leg_of_sim(cell: &Cell, out: &RunOutput, wall: f64) -> Leg {
    Leg {
        name: cell.name.clone(),
        run_wall_s: wall,
        samples: out.total_iterations * cell.batch,
        rounds: out.total_iterations / cell.cfg.workers as u64,
        ..Default::default()
    }
}

fn algo_slug(algo: &dtrain_algos::Algo) -> String {
    algo.name().replace('-', "").to_lowercase()
}

impl SimCells {
    /// `sim_sweep`: 24 workers per cell, as in the paper's scalability
    /// study.
    fn sweep(seed: u64, smoke: bool) -> Self {
        const WORKERS: usize = 24;
        let iterations = if smoke { 4 } else { 10 };
        let mut cells = Vec::new();
        for (m, model) in [PaperModel::ResNet50, PaperModel::Vgg16]
            .into_iter()
            .enumerate()
        {
            for (a, algo) in presets::paper_algorithms().into_iter().enumerate() {
                let mut cfg = presets::scalability_run(
                    algo,
                    model,
                    WORKERS,
                    NetworkConfig::TEN_GBPS,
                    iterations,
                );
                cfg.seed = derive_seed(seed, (m * 16 + a) as u64);
                let slug = model.name().replace('-', "").to_lowercase();
                let batch = cfg.batch as u64;
                cells.push((format!("{}_{slug}", algo_slug(&algo)), cfg, batch));
            }
        }
        SimCells::new(cells)
    }
}

/// Classes of the prototype-image task (also SmallCnn's output width).
pub const IMAGE_CLASSES: usize = 8;

/// Single-worker base learning rate of both CNN workloads. With noise 0.5
/// on the prototypes, `thr_cnn` ends at accuracy 1.0 on 98 % of seeds and
/// never below 0.83 in 470 tried; 0.01 leaves one seed in ~80 at 0.4, and
/// 0.02 (the MLP default) one in six.
const CNN_BASE_LR: f32 = 0.005;

/// The 3×32×32 prototype-image task both CNN workloads train on.
pub fn image_task(train: usize, test: usize, seed: u64) -> ImageTaskConfig {
    ImageTaskConfig {
        channels: 3,
        side: 32,
        num_classes: IMAGE_CLASSES,
        train_size: train,
        test_size: test,
        seed,
        noise: 0.5,
    }
}

impl SimCells {
    /// `sim_math`: four cells of real SmallCnn SGD on 8 workers.
    fn math(seed: u64, smoke: bool) -> Self {
        const WORKERS: usize = 8;
        let scale = AccuracyScale {
            epochs: 1,
            train_size: if smoke { 256 } else { 512 },
            test_size: 128,
            batch: 32,
            base_lr: CNN_BASE_LR,
            seed: derive_seed(seed, 1),
        };
        let algos = [
            ("bsp", dtrain_algos::Algo::Bsp, false),
            ("asp", dtrain_algos::Algo::Asp, false),
            ("adpsgd", dtrain_algos::Algo::AdPsgd, false),
            ("bsp_dgc", dtrain_algos::Algo::Bsp, true),
        ];
        let cells = algos
            .into_iter()
            .map(|(name, algo, dgc)| {
                let mut cfg = if dgc {
                    presets::accuracy_run_with_dgc(algo, WORKERS, &scale)
                } else {
                    presets::accuracy_run(algo, WORKERS, &scale)
                };
                let real = cfg.real.as_mut().expect("accuracy runs train for real");
                real.task = SyntheticTask::Images(image_task(
                    scale.train_size,
                    scale.test_size,
                    scale.seed,
                ));
                real.model_seed = derive_seed(seed, 2);
                let batch = real.batch as u64;
                (name.to_string(), cfg, batch)
            })
            .collect();
        SimCells::new(cells)
    }
}

impl Bench for SimCells {
    fn warm_up(&mut self) -> Repeat {
        self.count_events()
    }
    fn repeat(&mut self, rec: Option<&mut Recorder>) -> Repeat {
        self.timed(rec)
    }
    fn facts(&self) -> Facts {
        self.facts.clone()
    }
}

// ------------------------------------------------------------- threads --

/// Events one threaded iteration records on its worker's track (enter,
/// compute span, byte counter, exit) with headroom for markers.
const EVENTS_PER_ITER: usize = 6;

fn threaded_leg(
    name: &str,
    factory: &(dyn Fn() -> dtrain_nn::Network + Send + Sync),
    train: &Arc<Dataset>,
    test: &Dataset,
    cfg: &ThreadedConfig,
    rec: Option<&mut Recorder>,
    rep: &mut Repeat,
) -> ThreadedReport {
    let per_worker = cfg.epochs * (train.len() / cfg.workers / cfg.batch) as u64;
    let mut step_us = Vec::new();
    let report = match rec {
        None => train_threaded(factory, train, test, cfg),
        Some(rec) => {
            let sink = ObsSink::with_capacity(EVENTS_PER_ITER * per_worker as usize + 64);
            let first = rec.spans().len();
            let (call, report) =
                rec.scope(format!("runtime::train_threaded {name}"), "runtime", |_| {
                    train_threaded_observed(factory, train, test, cfg, &sink)
                });
            let post = Instant::now();
            rep.dropped_events += sink.dropped();
            // The sink's clock starts inside the call, after the shared
            // state is built; the call's own start is the closest public
            // anchor (the offset is sub-millisecond).
            let base = rec.spans()[call].start_ns;
            rec.import_obs(
                &sink.snapshot(),
                call,
                Clock::Host,
                base,
                compute_is_nn("runtime"),
            );
            step_us = durations_us(&rec.spans()[first..], "iter");
            drop(sink);
            rep.harness_s += post.elapsed().as_secs_f64();
            report
        }
    };
    rep.scheduled_steps += per_worker * cfg.workers as u64;
    rep.executed_steps += report.total_iterations;
    rep.disruptions += report.restarts
        + report.abandoned_restarts
        + report.evictions
        + report.missed_heartbeats
        + report.ps_recoveries;
    rep.legs.push(Leg {
        name: name.to_string(),
        run_wall_s: report.wall_time.as_secs_f64(),
        samples: report.total_iterations * cfg.batch as u64,
        rounds: per_worker,
        step_us,
        prims: Vec::new(),
    });
    report
}

pub struct ThrCnn {
    train: Arc<Dataset>,
    test: Dataset,
    cfg: ThreadedConfig,
    model_seed: u64,
}

impl ThrCnn {
    /// Four times chance. A floor nearer the usual 1.0 would sooner or
    /// later meet a seed that trains slowly, and a check that fails on some
    /// seeds makes the benchmark flaky; broken math ends near chance.
    const MIN_ACCURACY: f32 = 0.5;

    /// The same size in smoke runs: a repeat is under a second already,
    /// and fewer than its 48 steps per worker do not train reliably.
    pub fn new(seed: u64) -> Self {
        let (train, test) = prototype_images(&image_task(1024, 256, derive_seed(seed, 3)));
        ThrCnn {
            train: Arc::new(train),
            test,
            cfg: ThreadedConfig {
                workers: REAL_WORKERS,
                epochs: 3,
                batch: 32,
                strategy: Strategy::Bsp,
                base_lr: CNN_BASE_LR,
                seed: derive_seed(seed, 4),
                ..Default::default()
            },
            model_seed: derive_seed(seed, 5),
        }
    }
}

impl Bench for ThrCnn {
    fn repeat(&mut self, rec: Option<&mut Recorder>) -> Repeat {
        let mut rep = Repeat::default();
        let started = Instant::now();
        let seed = self.model_seed;
        let factory = move || small_cnn(3, 32, IMAGE_CLASSES, seed);
        let report = threaded_leg(
            "bsp",
            &factory,
            &self.train,
            &self.test,
            &self.cfg,
            rec,
            &mut rep,
        );
        rep.wall_s = started.elapsed().as_secs_f64() - rep.harness_s;
        if report.final_drift != 0.0 {
            rep.failures
                .push(format!("bsp: replicas drifted by {}", report.final_drift));
        }
        if report.final_accuracy < Self::MIN_ACCURACY {
            rep.failures.push(format!(
                "bsp: accuracy {:.3} below {}",
                report.final_accuracy,
                Self::MIN_ACCURACY
            ));
        }
        rep
    }
}

pub struct ThrSync {
    train: Arc<Dataset>,
    test: Dataset,
    cfg: ThreadedConfig,
    model_seed: u64,
}

impl ThrSync {
    const LEGS: [(&'static str, Strategy); 3] = [
        ("bsp", Strategy::Bsp),
        ("asp", Strategy::Asp),
        ("adpsgd", Strategy::AdPsgd),
    ];

    pub fn new(seed: u64, smoke: bool) -> Self {
        let (train, test) = teacher_task(&TeacherTaskConfig {
            train_size: 4096,
            test_size: 512,
            seed: derive_seed(seed, 6),
            ..Default::default()
        });
        ThrSync {
            train: Arc::new(train),
            test,
            cfg: ThreadedConfig {
                workers: REAL_WORKERS,
                epochs: if smoke { 40 } else { 80 },
                batch: 32,
                seed: derive_seed(seed, 7),
                ..Default::default()
            },
            model_seed: derive_seed(seed, 8),
        }
    }
}

impl Bench for ThrSync {
    fn repeat(&mut self, mut rec: Option<&mut Recorder>) -> Repeat {
        let mut rep = Repeat::default();
        let started = Instant::now();
        let seed = self.model_seed;
        let factory = move || default_mlp(10, seed);
        for (name, strategy) in Self::LEGS {
            let cfg = ThreadedConfig {
                strategy,
                ..self.cfg.clone()
            };
            let report = threaded_leg(
                name,
                &factory,
                &self.train,
                &self.test,
                &cfg,
                rec.as_deref_mut(),
                &mut rep,
            );
            if strategy == Strategy::Bsp && report.final_drift != 0.0 {
                rep.failures
                    .push(format!("bsp: replicas drifted by {}", report.final_drift));
            }
            if !report.final_params.all_finite() {
                rep.failures.push(format!("{name}: non-finite parameters"));
            }
        }
        rep.wall_s = started.elapsed().as_secs_f64() - rep.harness_s;
        rep
    }
}

// ----------------------------------------------------------- processes --

/// Supervision timeout of one `train_proc` call; a run that needs it has
/// failed, and is counted as such.
const PROC_TIMEOUT: Duration = Duration::from_secs(60);

pub struct ProcBench {
    cfg: ProcConfig,
    exes: WorkerExes,
    /// Also run the threaded-vs-proc conformance pair in the warm-up.
    pair_check: bool,
}

impl ProcBench {
    fn new(seed: u64, hidden: &[usize], train: usize, epochs: u64, exes: &WorkerExes) -> Self {
        ProcBench {
            cfg: ProcConfig {
                plan: RunPlan {
                    workers: REAL_WORKERS,
                    epochs,
                    batch: 16,
                    strategy: Strategy::Bsp,
                    seed: derive_seed(seed, 9),
                    ..Default::default()
                },
                task: TeacherTaskConfig {
                    train_size: train,
                    test_size: 256,
                    seed: derive_seed(seed, 10),
                    ..Default::default()
                },
                hidden: hidden.to_vec(),
                model_seed: derive_seed(seed, 11),
                worker_exe: Some(exes.stock.clone()),
                ..Default::default()
            },
            exes: exes.clone(),
            pair_check: false,
        }
    }

    /// Small frames, many rounds: 2048 samples / 2 workers / batch 16 =
    /// 64 rounds per epoch.
    pub fn rounds(seed: u64, smoke: bool, exes: &WorkerExes) -> Self {
        let mut b = Self::new(seed, &[64, 32], 2048, if smoke { 6 } else { 24 }, exes);
        b.pair_check = true;
        b
    }

    /// 4.4 MB frames, few rounds.
    pub fn bulk(seed: u64, smoke: bool, exes: &WorkerExes) -> Self {
        Self::new(seed, &[1024, 1024], if smoke { 128 } else { 192 }, 1, exes)
    }

    fn run(&self, rec: Option<&mut Recorder>) -> Repeat {
        let mut rep = Repeat::default();
        let cfg = self.cfg.clone();
        let rounds =
            cfg.plan.epochs * (cfg.task.train_size / cfg.plan.workers / cfg.plan.batch) as u64;
        rep.scheduled_steps = rounds * cfg.plan.workers as u64;
        let started = Instant::now();
        let mut leg = Leg {
            name: "bsp".into(),
            rounds,
            ..Default::default()
        };
        let outcome = match rec {
            None => train_proc(cfg, PROC_TIMEOUT),
            Some(rec) => {
                let cfg = ProcConfig {
                    worker_exe: Some(self.exes.timed.clone()),
                    ..cfg
                };
                let first = rec.spans().len();
                let (call, outcome) = rec.scope("proc::train_proc", "proc", |_| {
                    train_proc(cfg, PROC_TIMEOUT)
                });
                let post = Instant::now();
                if let Err(e) = adopt_worker_spans(rec, call, &self.exes.span_dir) {
                    rep.failures.push(e);
                }
                let new = &rec.spans()[first..];
                leg.step_us = durations_us(new, "iter");
                for prim in ["bsp_exchange", "iter_end"] {
                    leg.prims.push((prim, durations_us(new, prim)));
                }
                rep.harness_s = post.elapsed().as_secs_f64();
                outcome
            }
        };
        rep.wall_s = started.elapsed().as_secs_f64() - rep.harness_s;
        match outcome {
            Ok(report) => self.account(&report, &mut leg, &mut rep),
            Err(e) => rep.failures.push(format!("train_proc: {e}")),
        }
        rep.legs.push(leg);
        rep
    }

    fn account(&self, report: &ProcReport, leg: &mut Leg, rep: &mut Repeat) {
        leg.run_wall_s = report.wall_time.as_secs_f64();
        leg.samples = report.total_iterations * self.cfg.plan.batch as u64;
        rep.executed_steps = report.total_iterations;
        rep.disruptions =
            report.evictions + report.rejoins + report.partial_rounds + report.retries;
        rep.logical_bytes = report.per_worker.iter().map(|w| w.logical_bytes).sum();
        if !report.final_params.all_finite() {
            rep.failures.push("bsp: non-finite parameters".into());
        }
    }
}

/// Read, merge and remove the span files traced workers left behind.
fn adopt_worker_spans(
    rec: &mut Recorder,
    call: SpanId,
    dir: &std::path::Path,
) -> Result<(), String> {
    let mut found = 0;
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let _ = std::fs::remove_file(&path);
        let spans = serde_json::from_str(&text)
            .ok()
            .and_then(|doc| from_rows(&doc))
            .ok_or_else(|| format!("{}: not a span file", path.display()))?;
        rec.adopt(spans, Some(call));
        found += 1;
    }
    if found == REAL_WORKERS {
        Ok(())
    } else {
        Err(format!(
            "expected {REAL_WORKERS} worker span files, found {found}"
        ))
    }
}

impl Bench for ProcBench {
    fn warm_up(&mut self) -> Repeat {
        let mut rep = self.run(None);
        if self.pair_check {
            if let Err(e) = threaded_proc_pair(&self.cfg, &self.exes.stock) {
                rep.failures.push(e);
            }
        }
        rep
    }

    fn repeat(&mut self, rec: Option<&mut Recorder>) -> Repeat {
        self.run(rec)
    }
}

/// The cross-path conformance pin, at benchmark time: threaded BSP and
/// proc BSP on one plan, one dataset and one model must end with
/// bit-identical parameters. Sub-second (8 rounds).
pub fn threaded_proc_pair(like: &ProcConfig, stock_worker: &std::path::Path) -> Result<(), String> {
    let mut cfg = like.clone();
    cfg.plan.epochs = 2;
    cfg.task.train_size = 4 * cfg.plan.workers * cfg.plan.batch;
    cfg.worker_exe = Some(stock_worker.to_path_buf());
    let (train, test) = teacher_task(&cfg.task);
    let (task, hidden, seed) = (cfg.task.clone(), cfg.hidden.clone(), cfg.model_seed);
    let threaded = train_threaded(
        move || mlp_classifier(task.input_dim, &hidden, task.num_classes, seed),
        &Arc::new(train),
        &test,
        &ThreadedConfig {
            workers: cfg.plan.workers,
            epochs: cfg.plan.epochs,
            batch: cfg.plan.batch,
            strategy: cfg.plan.strategy,
            base_lr: cfg.plan.base_lr,
            momentum: cfg.plan.momentum,
            weight_decay: cfg.plan.weight_decay,
            seed: cfg.plan.seed,
            ..Default::default()
        },
    );
    let procs = train_proc(cfg, PROC_TIMEOUT).map_err(|e| format!("pair check: {e}"))?;
    if bits(&threaded.final_params) == bits(&procs.final_params) {
        Ok(())
    } else {
        Err("pair check: threaded and proc BSP final_params differ".into())
    }
}

fn bits(p: &ParamSet) -> Vec<u32> {
    p.0.iter()
        .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_back_and_are_unique() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{}: why is one short line", w.name());
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn derived_seeds_differ_by_salt_and_by_seed() {
        let a: Vec<u64> = (0..12).map(|s| derive_seed(11, s)).collect();
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len());
        assert_ne!(derive_seed(11, 3), derive_seed(12, 3));
        assert_eq!(derive_seed(11, 3), derive_seed(11, 3));
    }

    /// A cost-only cell repeats bit-for-bit and the sweep names its cells
    /// the way later issues refer to them.
    #[test]
    fn sim_sweep_smoke_is_deterministic() {
        let mut w = SimCells::sweep(5, true);
        w.cells.truncate(2);
        let warm = w.warm_up();
        assert_eq!(warm.legs[0].name, "bsp_resnet50");
        assert_eq!(warm.legs[1].name, "asp_resnet50");
        let facts = w.facts();
        assert!(facts.events > 0 && facts.sim_wire_bytes > 0);
        let a = w.repeat(None);
        let mut rec = Recorder::new();
        let b = w.repeat(Some(&mut rec));
        assert!(
            a.failures.is_empty() && b.failures.is_empty(),
            "{:?} {:?}",
            a.failures,
            b.failures
        );
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.digest, facts.digest);
        assert_eq!(a.executed_steps, a.scheduled_steps);
        assert_eq!(a.legs[0].rounds, 4);
        assert_eq!(b.legs[0].step_us.len(), 1);
        assert!(rec
            .spans()
            .iter()
            .any(|s| s.clock == Clock::Virtual && s.name == "iter"));
        assert_eq!(b.dropped_events, 0, "no obs event may be dropped");
    }
}
