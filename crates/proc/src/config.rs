//! Process-path run configuration and its argv encoding for worker
//! processes.
//!
//! The coordinator and its workers are separate OS processes, so the run
//! configuration crosses an `argv` boundary: [`encode_worker_cfg`] packs
//! the path-agnostic subset (plan + task + model) into one `key=value`
//! string and [`decode_worker_cfg`] restores it in the worker `main`.
//! Floats travel as bit patterns (`to_bits` hex) so both sides construct
//! bit-identical models and schedules — the cross-path pins depend on it.

use std::path::PathBuf;
use std::time::Duration;

use dtrain_cluster::CollectiveSchedule;
use dtrain_data::TeacherTaskConfig;
use dtrain_faults::{Algo, ChaosSpec};
use dtrain_runtime::RunPlan;

use crate::codec::{params_wire_len, MAX_PAYLOAD};
use crate::coordinator::HEARTBEAT_INTERVAL;

/// A scheduled late rejoin: when rank `worker`'s process death is
/// recorded, the coordinator spawns a replacement process for the same
/// rank that re-enters the cohort at `at_round` (pinned, so iteration
/// counts stay deterministic).
#[derive(Clone, Copy, Debug)]
pub struct RejoinSpec {
    pub worker: usize,
    pub at_round: u64,
}

/// Configuration for a process-path training run.
#[derive(Clone, Debug)]
pub struct ProcConfig {
    /// The path-agnostic slice shared with the threaded runtime.
    pub plan: RunPlan,
    /// The synthetic task both sides rebuild deterministically.
    pub task: TeacherTaskConfig,
    /// MLP hidden layer widths (the model every worker builds).
    pub hidden: Vec<usize>,
    /// Seed for the model's parameter init.
    pub model_seed: u64,
    /// Local iterations between coordinator checkpoint directives
    /// (0 = no periodic checkpoints).
    pub checkpoint_interval: u64,
    /// A BSP round that cannot fill within this window force-closes
    /// partially (the degrade-to-partial-barrier path).
    pub barrier_deadline: Duration,
    /// Socket read timeout on worker connections — a transfer that stalls
    /// longer than this counts as a dead peer.
    pub transfer_deadline: Duration,
    /// Test hook: freeze rank `.0` when its heartbeat announces round `.1`
    /// (before the round executes; for a BSP rank, the deposit for round
    /// `.1 − 1` announces it), holding back the answer it waits for, so a
    /// test can `SIGKILL` the process at a pinned point.
    pub pause_at: Option<(usize, u64)>,
    /// Scheduled late rejoin after a real process death.
    pub rejoin: Option<RejoinSpec>,
    /// How long a disconnected rank may take to reconnect-with-resume
    /// before it is declared dead and evicted. Must exceed the reaper's
    /// 25 ms poll period (validated at launch). Default 1 s.
    pub reconnect_window: Duration,
    /// Seeded chaos interposer applied on every worker's send path
    /// (inactive by default).
    pub chaos: ChaosSpec,
    /// Confine `chaos` to a single rank (`None` = every rank). Lets a test
    /// sever one link while the rest of the cohort trains on.
    pub chaos_rank: Option<usize>,
    /// Injected straggler: rank `.0` sleeps `.1` extra milliseconds per
    /// iteration (the adaptive-degradation controller's test signal).
    pub straggler: Option<(usize, u64)>,
    /// Override the seed-derived starting weights. Coordinator-side only —
    /// it never crosses the argv boundary; workers adopt it through the
    /// `HelloAck` snapshot they already apply. The adaptive controller
    /// uses this to carry parameters across a mid-run strategy switch.
    pub initial_params: Option<dtrain_nn::ParamSet>,
    /// Worker binary override; default is the `DTRAIN_PROC_WORKER` env
    /// var, else discovery next to the current executable.
    pub worker_exe: Option<PathBuf>,
}

impl ProcConfig {
    /// Reject, before anything is spawned, configurations that cannot run.
    ///
    /// * No worker, or a dataset that does not split into whole batches
    ///   per worker.
    /// * Hyperparameters the algorithm cannot run with ([`Algo::validate`]):
    ///   a worker would otherwise never average, or panic, and its death
    ///   would be reported as an eviction.
    /// * A failure detector that cannot work: the reconnect window must
    ///   exceed the liveness-poll period, or a disconnected rank could be
    ///   swept before it ever had a poll's worth of time to come back.
    /// * A model that does not fit a frame: past [`MAX_PAYLOAD`] the
    ///   receiver answers `Oversized` and drops the link, and the sender
    ///   would spend its whole reconnect window learning nothing from it.
    pub fn validate(&self) -> Result<(), String> {
        let (n, workers, batch) = (self.task.train_size, self.plan.workers, self.plan.batch);
        if workers == 0 {
            return Err("need at least one worker".into());
        }
        self.plan.strategy.validate(workers)?;
        if !n.is_multiple_of(workers) || !(n / workers).is_multiple_of(batch) {
            return Err(format!(
                "dataset ({n}) must divide evenly into workers x batch ({workers} x {batch})"
            ));
        }
        if self.reconnect_window <= HEARTBEAT_INTERVAL {
            return Err(format!(
                "reconnect_window ({:?}) must exceed the heartbeat interval ({HEARTBEAT_INTERVAL:?})",
                self.reconnect_window
            ));
        }
        let frame = self.largest_payload();
        if frame > MAX_PAYLOAD as u64 {
            return Err(format!(
                "model {}-{:?}-{} needs a {frame}-byte parameter frame, over the \
                 {MAX_PAYLOAD}-byte MAX_PAYLOAD cap",
                self.task.input_dim, self.hidden, self.task.num_classes
            ));
        }
        Ok(())
    }

    /// Payload bytes of the largest single-set frame of a run: the MLP's
    /// parameters (per dense layer a rank-2 weight and a rank-1 bias)
    /// behind the widest fixed prefix any message puts before a set,
    /// `RunComplete`'s three `u64`s. A gossip drain that finds several
    /// peers' sets queued is the one frame that can be larger; it is bounded
    /// by the traffic, not the model.
    fn largest_payload(&self) -> u64 {
        let mut fan_in = self.task.input_dim as u64;
        let widths = self.hidden.iter().chain([&self.task.num_classes]);
        let tensors = widths.flat_map(|&fan_out| {
            let fan_out = fan_out as u64;
            let weight = (2, fan_out.saturating_mul(fan_in));
            fan_in = fan_out;
            [weight, (1, fan_out)]
        });
        params_wire_len(tensors).saturating_add(3 * 8)
    }
}

impl Default for ProcConfig {
    fn default() -> Self {
        ProcConfig {
            plan: RunPlan::default(),
            task: TeacherTaskConfig::default(),
            hidden: vec![64, 32],
            model_seed: 7,
            checkpoint_interval: 10,
            barrier_deadline: Duration::from_millis(1500),
            transfer_deadline: Duration::from_secs(60),
            pause_at: None,
            rejoin: None,
            reconnect_window: Duration::from_millis(1000),
            chaos: ChaosSpec::default(),
            chaos_rank: None,
            straggler: None,
            initial_params: None,
            worker_exe: None,
        }
    }
}

fn strategy_str(s: Algo) -> String {
    match s {
        Algo::Bsp => "bsp".into(),
        Algo::Asp => "asp".into(),
        Algo::Ssp { staleness } => format!("ssp:{staleness}"),
        Algo::Easgd { tau, alpha: None } => format!("easgd:{tau}"),
        Algo::Easgd {
            tau,
            alpha: Some(a),
        } => format!("easgd:{tau}:{:08x}", a.to_bits()),
        Algo::ArSgd => "arsgd".into(),
        Algo::GoSgd { p } => format!("gossip:{:016x}", p.to_bits()),
        Algo::AdPsgd => "adpsgd".into(),
    }
}

fn parse_strategy(s: &str) -> Result<Algo, String> {
    let mut parts = s.split(':');
    let head = parts.next().unwrap_or("");
    fn hex(part: Option<&str>, s: &str, what: &str) -> Result<u64, String> {
        part.and_then(|v| u64::from_str_radix(v, 16).ok())
            .ok_or_else(|| format!("strategy {s}: bad {what}"))
    }
    match head {
        "bsp" => Ok(Algo::Bsp),
        "asp" => Ok(Algo::Asp),
        "arsgd" => Ok(Algo::ArSgd),
        "adpsgd" => Ok(Algo::AdPsgd),
        "ssp" => {
            let st = parts
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("strategy {s}: bad staleness"))?;
            Ok(Algo::Ssp { staleness: st })
        }
        "easgd" => {
            let tau = parts
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("strategy {s}: bad tau"))?;
            // No α token: the worker resolves the paper's 0.9/N itself.
            let alpha = match parts.next() {
                None => None,
                a => Some(f32::from_bits(hex(a, s, "alpha")? as u32)),
            };
            Ok(Algo::Easgd { tau, alpha })
        }
        "gossip" => Ok(Algo::GoSgd {
            p: f64::from_bits(hex(parts.next(), s, "p")?),
        }),
        other => Err(format!("unknown strategy '{other}'")),
    }
}

/// Pack the worker-visible subset of `cfg` into one argv-safe string.
pub fn encode_worker_cfg(cfg: &ProcConfig) -> String {
    let p = &cfg.plan;
    let t = &cfg.task;
    let hidden = cfg
        .hidden
        .iter()
        .map(|h| h.to_string())
        .collect::<Vec<_>>()
        .join("-");
    let mut s = format!(
        "workers={},epochs={},batch={},strategy={},lr={:08x},mom={:08x},wd={:08x},seed={},\
         collective={},gpus={},in={},th={},nc={},ts={},tes={},noise={:08x},tseed={},hidden={},\
         mseed={},rw={}",
        p.workers,
        p.epochs,
        p.batch,
        strategy_str(p.strategy),
        p.base_lr.to_bits(),
        p.momentum.to_bits(),
        p.weight_decay.to_bits(),
        p.seed,
        p.collective.name(),
        p.gpus_per_machine,
        t.input_dim,
        t.teacher_hidden,
        t.num_classes,
        t.train_size,
        t.test_size,
        t.label_noise.to_bits(),
        t.seed,
        hidden,
        cfg.model_seed,
        cfg.reconnect_window.as_millis(),
    );
    if cfg.chaos.is_active() {
        s.push_str(&format!(",chaos={}", cfg.chaos.encode()));
        if let Some(rank) = cfg.chaos_rank {
            s.push_str(&format!(",chaosr={rank}"));
        }
    }
    if let Some((rank, ms)) = cfg.straggler {
        s.push_str(&format!(",strag={rank}:{ms}"));
    }
    s
}

/// The worker-visible run description, restored from the argv string.
pub struct WorkerCfg {
    pub plan: RunPlan,
    pub task: TeacherTaskConfig,
    pub hidden: Vec<usize>,
    pub model_seed: u64,
    /// Worker-side reconnect budget, mirroring the coordinator's window.
    pub reconnect_window: Duration,
    pub chaos: ChaosSpec,
    /// Rank `chaos` is confined to (`None` = every rank).
    pub chaos_rank: Option<usize>,
    pub straggler: Option<(usize, u64)>,
}

/// Inverse of [`encode_worker_cfg`].
pub fn decode_worker_cfg(s: &str) -> Result<WorkerCfg, String> {
    let mut plan = RunPlan::default();
    let mut task = TeacherTaskConfig::default();
    let mut hidden = Vec::new();
    let mut model_seed = 0u64;
    let mut reconnect_window = Duration::from_millis(1000);
    let mut chaos = ChaosSpec::default();
    let mut chaos_rank = None;
    let mut straggler = None;
    for kv in s.split(',') {
        let (k, v) = kv
            .trim()
            .split_once('=')
            .ok_or_else(|| format!("bad pair '{kv}'"))?;
        let int = || v.parse::<u64>().map_err(|_| format!("bad int for {k}"));
        let bits = || u32::from_str_radix(v, 16).map_err(|_| format!("bad float bits for {k}"));
        match k {
            "workers" => plan.workers = int()? as usize,
            "epochs" => plan.epochs = int()?,
            "batch" => plan.batch = int()? as usize,
            "strategy" => plan.strategy = parse_strategy(v)?,
            "lr" => plan.base_lr = f32::from_bits(bits()?),
            "mom" => plan.momentum = f32::from_bits(bits()?),
            "wd" => plan.weight_decay = f32::from_bits(bits()?),
            "seed" => plan.seed = int()?,
            "collective" => {
                plan.collective = CollectiveSchedule::parse(v)
                    .ok_or_else(|| format!("unknown collective '{v}'"))?
            }
            "gpus" => plan.gpus_per_machine = (int()? as usize).max(1),
            "in" => task.input_dim = int()? as usize,
            "th" => task.teacher_hidden = int()? as usize,
            "nc" => task.num_classes = int()? as usize,
            "ts" => task.train_size = int()? as usize,
            "tes" => task.test_size = int()? as usize,
            "noise" => task.label_noise = f32::from_bits(bits()?),
            "tseed" => task.seed = int()?,
            "hidden" => {
                hidden = v
                    .split('-')
                    .filter(|p| !p.is_empty())
                    .map(|p| p.parse::<usize>().map_err(|_| format!("bad hidden '{v}'")))
                    .collect::<Result<Vec<_>, _>>()?
            }
            "mseed" => model_seed = int()?,
            "rw" => reconnect_window = Duration::from_millis(int()?),
            "chaos" => chaos = ChaosSpec::decode(v)?,
            "chaosr" => chaos_rank = Some(v.parse().map_err(|_| format!("bad chaos rank '{v}'"))?),
            "strag" => {
                let (rank, ms) = v
                    .split_once(':')
                    .ok_or_else(|| format!("bad straggler '{v}'"))?;
                straggler = Some((
                    rank.parse()
                        .map_err(|_| format!("bad straggler rank '{v}'"))?,
                    ms.parse().map_err(|_| format!("bad straggler ms '{v}'"))?,
                ));
            }
            other => return Err(format!("unknown key '{other}'")),
        }
    }
    Ok(WorkerCfg {
        plan,
        task,
        hidden,
        model_seed,
        reconnect_window,
        chaos,
        chaos_rank,
        straggler,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_cfg_round_trips() {
        let mut cfg = ProcConfig::default();
        cfg.plan.strategy = Algo::Easgd {
            tau: 4,
            alpha: Some(0.23),
        };
        cfg.plan.base_lr = 0.0173;
        cfg.plan.collective = CollectiveSchedule::Pipelined;
        cfg.plan.gpus_per_machine = 3;
        cfg.hidden = vec![48, 24, 12];
        cfg.model_seed = 99;
        cfg.task.label_noise = 0.031;
        cfg.reconnect_window = Duration::from_millis(750);
        cfg.chaos = ChaosSpec {
            seed: 9,
            drop_pm: 20,
            corrupt_pm: 5,
            ..ChaosSpec::default()
        };
        cfg.chaos_rank = Some(1);
        cfg.straggler = Some((2, 40));
        let s = encode_worker_cfg(&cfg);
        let back = decode_worker_cfg(&s).expect("decode");
        assert_eq!(back.plan.workers, cfg.plan.workers);
        assert_eq!(back.plan.base_lr.to_bits(), cfg.plan.base_lr.to_bits());
        assert_eq!(back.plan.strategy, cfg.plan.strategy);
        assert_eq!(back.plan.collective, CollectiveSchedule::Pipelined);
        assert_eq!(back.plan.gpus_per_machine, 3);
        assert_eq!(back.hidden, cfg.hidden);
        assert_eq!(back.model_seed, 99);
        assert_eq!(
            back.task.label_noise.to_bits(),
            cfg.task.label_noise.to_bits()
        );
        assert_eq!(back.reconnect_window, Duration::from_millis(750));
        assert_eq!(back.chaos.encode(), cfg.chaos.encode());
        assert_eq!(back.chaos_rank, Some(1));
        assert_eq!(back.straggler, Some((2, 40)));
    }

    #[test]
    fn inactive_chaos_stays_off_the_argv() {
        let cfg = ProcConfig::default();
        let s = encode_worker_cfg(&cfg);
        assert!(!s.contains("chaos="), "{s}");
        assert!(!s.contains("strag="), "{s}");
        let back = decode_worker_cfg(&s).expect("decode");
        assert!(!back.chaos.is_active());
        assert_eq!(back.straggler, None);
    }

    #[test]
    fn validate_requires_window_beyond_heartbeat() {
        let mut cfg = ProcConfig::default();
        assert!(cfg.validate().is_ok());
        cfg.reconnect_window = HEARTBEAT_INTERVAL;
        assert!(cfg.validate().is_err());
        cfg.reconnect_window = HEARTBEAT_INTERVAL + Duration::from_millis(1);
        assert!(cfg.validate().is_ok());
    }

    /// A model whose parameter frame cannot cross the wire is refused at
    /// launch, by a message naming the size and the cap — not discovered
    /// by a worker burning its reconnect window against `Oversized`.
    #[test]
    fn validate_refuses_a_model_larger_than_a_frame() {
        use crate::coordinator::{ProcError, ProcRun};
        use crate::proto::Msg;

        // The size is the encoder's, not an estimate of it.
        let cfg = ProcConfig::default();
        let net = dtrain_models::mlp_classifier(
            cfg.task.input_dim,
            &cfg.hidden,
            cfg.task.num_classes,
            cfg.model_seed,
        );
        let (_, payload) = Msg::RunComplete {
            iterations: 1,
            logical_bytes: 2,
            busy_ms: 3,
            params: net.get_params(),
        }
        .encode();
        assert_eq!(cfg.largest_payload(), payload.len() as u64);

        let mut cfg = ProcConfig {
            hidden: vec![1024, 1024],
            ..ProcConfig::default()
        };
        assert!(cfg.validate().is_ok());
        cfg.hidden = vec![4096, 4096];
        let err = cfg.validate().expect_err("16.9 M floats exceed 64 MiB");
        assert!(err.contains(&cfg.largest_payload().to_string()), "{err}");
        assert!(err.contains(&MAX_PAYLOAD.to_string()), "{err}");
        // `launch` asks `validate` before it looks for a worker binary,
        // binds a port or builds the model: nothing was spawned.
        match ProcRun::launch(cfg, &dtrain_obs::ObsSink::disabled()) {
            Err(ProcError::Config(msg)) => assert_eq!(msg, err),
            Err(other) => panic!("expected the size refusal, got {other}"),
            Ok(_) => panic!("an oversized model launched"),
        }
    }

    #[test]
    fn all_strategies_round_trip() {
        for s in [
            Algo::Bsp,
            Algo::Asp,
            Algo::Ssp { staleness: 3 },
            Algo::Easgd {
                tau: 8,
                alpha: None,
            },
            Algo::Easgd {
                tau: 8,
                alpha: Some(0.125),
            },
            Algo::ArSgd,
            Algo::GoSgd { p: 0.37 },
            Algo::AdPsgd,
        ] {
            let back = parse_strategy(&strategy_str(s)).expect("parse");
            assert_eq!(format!("{back:?}"), format!("{s:?}"));
        }
        assert!(
            parse_strategy("easgd:8:zz").is_err(),
            "a present α must parse"
        );
    }

    /// Hyperparameters no worker can run with are refused at launch, before
    /// a worker binary is looked for or a process spawned: EASGD with τ = 0
    /// would never average, GoSGD with p outside [0, 1] is no probability,
    /// and a lone AD-PSGD worker would panic on an empty passive set — a
    /// death the coordinator would report as an eviction. So are shapes no
    /// run can have, which `launch` used to assert on: no worker, a dataset
    /// that does not split across the workers or a shard into batches.
    #[test]
    fn launch_refuses_unrunnable_hyperparameters() {
        use crate::coordinator::{ProcError, ProcRun};

        let algo_cases = [
            (
                2,
                Algo::Easgd {
                    tau: 0,
                    alpha: None,
                },
            ),
            (2, Algo::GoSgd { p: 1.5 }),
            (2, Algo::GoSgd { p: -0.5 }),
            (1, Algo::AdPsgd),
        ]
        .map(|(workers, strategy)| {
            (
                workers,
                32,
                strategy,
                strategy.validate(workers).unwrap_err(),
            )
        });
        let split = "dataset (8192) must divide evenly into workers x batch";
        let shape_cases = [
            (0, 32, "need at least one worker".to_string()),
            (3, 32, format!("{split} (3 x 32)")),
            (4, 48, format!("{split} (4 x 48)")),
        ]
        .map(|(workers, batch, refusal)| (workers, batch, Algo::Bsp, refusal));
        for (workers, batch, strategy, refusal) in algo_cases.into_iter().chain(shape_cases) {
            let mut cfg = ProcConfig {
                // Were `validate` skipped, the spawn would fail with `Io`.
                worker_exe: Some(PathBuf::from("/nonexistent/dtrain-proc-worker")),
                ..ProcConfig::default()
            };
            cfg.plan.workers = workers;
            cfg.plan.batch = batch;
            cfg.plan.strategy = strategy;
            // Each refusal word for word: `Algo::validate`'s unchanged.
            let err = cfg.validate().expect_err(&refusal);
            assert_eq!(err, refusal);
            match ProcRun::launch(cfg, &dtrain_obs::ObsSink::disabled()) {
                Err(ProcError::Config(msg)) => assert_eq!(msg, err),
                Err(other) => panic!("{refusal}: expected the refusal, got {other}"),
                Ok(_) => panic!("{refusal}: launched"),
            }
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_worker_cfg("workers").is_err());
        assert!(decode_worker_cfg("bogus=1").is_err());
        assert!(decode_worker_cfg("strategy=warp:9").is_err());
        assert!(decode_worker_cfg("lr=nothex").is_err());
        assert!(decode_worker_cfg("collective=diagonal").is_err());
        assert!(decode_worker_cfg("chaos=1:2").is_err());
        assert!(decode_worker_cfg("strag=5").is_err());
    }
}
