//! Run assembly: spawn the right processes for an algorithm, execute the
//! simulation, and distill the outputs (throughput, breakdowns, accuracy
//! curves).

use std::sync::{Arc, Mutex};
use std::time::Duration;

use dtrain_cluster::{hier_groups, Breakdown, LinkWindow, MetricsHub, NetModel, TrafficStats};
use dtrain_data::Dataset;
use dtrain_desim::{Pid, SimTime, Simulation, StopReason, TraceRecord};
use dtrain_faults::{Algo, CheckpointStore, Hub};
use dtrain_nn::ParamSet;
use dtrain_obs::{names, ObsSink, Track};

use crate::centralized::{ps_process, BspRole, PsBody, PsCore, PsFaultState};
use crate::collective::{collective_engine, ChunkLayout, EngineCore};
use crate::config::RunConfig;
use crate::decentralized::{AdPsgdActive, AdPsgdPassive, ArSgd, GoSgd};
use crate::exec::{
    build_worker_cores, real_shard_indices, run_worker, slice_set, Addr, Msg, Recorder, Snapshot,
};

/// One evaluated point of the accuracy/time curve (Fig. 1 of the paper).
#[derive(Clone, Debug)]
pub struct EpochPoint {
    pub epoch: u64,
    /// Virtual time at which the slowest contributing worker finished the
    /// epoch.
    pub time: SimTime,
    pub test_accuracy: f32,
    pub test_error: f32,
    /// Max elementwise spread between any worker replica and the replica
    /// mean — the parameter-variance the paper blames for accuracy loss.
    pub drift: f32,
}

/// Everything a run produces.
#[derive(Clone, Debug)]
pub struct RunOutput {
    pub algo: String,
    pub workers: usize,
    pub end_time: SimTime,
    /// Aggregate images/second of virtual time.
    pub throughput: f64,
    pub total_iterations: u64,
    pub mean_breakdown: Breakdown,
    pub per_worker_breakdown: Vec<Breakdown>,
    pub traffic: TrafficStats,
    /// Accuracy curve (real-math runs only).
    pub curve: Vec<EpochPoint>,
    pub final_accuracy: Option<f32>,
    /// The trained model (real-math runs only): worker 0's replica for
    /// synchronous algorithms, the replica mean otherwise — the same
    /// artifact the accuracy curve evaluates. The adaptive controller
    /// feeds this into the next segment's `initial_params`.
    pub final_params: Option<ParamSet>,
}

impl RunOutput {
    /// Speedup relative to a single-worker throughput baseline.
    pub fn speedup_vs(&self, single_worker_throughput: f64) -> f64 {
        if single_worker_throughput == 0.0 {
            0.0
        } else {
            self.throughput / single_worker_throughput
        }
    }
}

/// Execute one run.
pub fn run(cfg: &RunConfig) -> RunOutput {
    run_impl(cfg, false, &ObsSink::disabled()).0
}

/// Execute one run with structured-event observation: per-phase spans,
/// iteration spans, NIC queue counters, fault markers, and the kernel's
/// scheduling stream all land in `sink` (see `dtrain_obs`). Observation is
/// timing-passive — the run's virtual-time behaviour is bit-identical to
/// [`run`].
pub fn run_observed(cfg: &RunConfig, sink: &ObsSink) -> RunOutput {
    run_impl(cfg, false, sink).0
}

/// Execute one run with kernel event tracing enabled; returns the output
/// plus the full scheduling trace. Two runs of an identical configuration
/// (same seeds, same fault schedule) must produce identical traces — the
/// determinism contract fault injection is required to preserve.
pub fn run_traced(cfg: &RunConfig) -> (RunOutput, Vec<TraceRecord>) {
    let (out, trace) = run_impl(cfg, true, &ObsSink::disabled());
    (out, trace.expect("tracing was enabled"))
}

fn run_impl(cfg: &RunConfig, trace: bool, sink: &ObsSink) -> (RunOutput, Option<Vec<TraceRecord>>) {
    cfg.validate().expect("invalid run configuration");
    let metrics = MetricsHub::observed(cfg.workers, sink);
    let recorder = Recorder::new();
    let net = NetModel::new(&cfg.cluster);
    net.set_obs(sink);
    // Shared checkpoint store: workers and PS shards snapshot into it and
    // roll back from it on crash/outage.
    let store: Option<Arc<CheckpointStore>> = cfg
        .faults
        .as_ref()
        .map(|f| Arc::new(CheckpointStore::new(f.checkpoint_interval)));
    if let Some(f) = cfg.faults.as_ref() {
        let windows: Vec<LinkWindow> = f
            .schedule
            .link_faults()
            .into_iter()
            .map(|(start, machine, factor, duration)| LinkWindow {
                start,
                machine,
                factor,
                duration,
            })
            .collect();
        if !windows.is_empty() {
            net.set_link_faults(windows);
        }
    }
    // Real training generates its datasets once: the workers share the
    // train set, the accuracy curve is evaluated on the test set.
    let (train, test) = match cfg.real.as_ref().map(|r| r.task.datasets()) {
        Some((train, test)) => (Some(Arc::new(train)), Some(test)),
        None => (None, None),
    };
    let mut cores = build_worker_cores(cfg, train, &metrics, &recorder, &net, store.as_ref());

    let mut sim: Simulation<Msg> = Simulation::new();
    if trace {
        sim.enable_tracing();
    }
    if sink.is_enabled() {
        // Mirror the kernel's scheduling stream onto the obs timeline: one
        // instant per resume/deliver/kill/spawn, value = pid.
        let kt = sink.track(Track::Kernel);
        sim.set_event_hook(move |rec| {
            let name = match rec.kind {
                0 => names::K_RESUME,
                1 => names::K_DELIVER,
                2 => names::K_KILL,
                _ => names::K_SPAWN,
            };
            kt.instant(rec.time.as_nanos(), name, rec.pid.0 as i64);
        });
    }

    let num_shards = if cfg.algo.is_centralized() {
        cfg.opts.ps_shards
    } else {
        0
    };
    // Pids are assigned densely in spawn order (kernel contract): PS shards
    // first, then workers.
    let profile_bytes: Vec<u64> = cfg.profile.layers.iter().map(|l| l.bytes()).collect();
    let profile_plan = cfg.shard_plan(&profile_bytes);
    let ps_addrs: Vec<Addr> = (0..num_shards)
        .map(|s| Addr {
            pid: Pid(s),
            node: profile_plan.machine_of_shard(s, &cfg.cluster),
        })
        .collect();
    let worker_addrs: Vec<Addr> = (0..cfg.workers)
        .map(|w| Addr {
            pid: Pid(num_shards + w),
            node: cfg.cluster.machine_of_worker(w),
        })
        .collect();

    // Elastic centralized runs share a live shard→machine map: a PS-shard
    // machine loss re-homes the shard there and worker traffic follows.
    let ps_homes = if cfg.is_elastic() && cfg.algo.is_centralized() && num_shards > 0 {
        Some(profile_plan.homes(&cfg.cluster))
    } else {
        None
    };
    for core in cores.iter_mut() {
        core.ps = ps_addrs.clone();
        core.ps_homes = ps_homes.clone();
    }

    // BSP under local aggregation: one group per machine, led by its lowest
    // rank, as the real paths' hierarchical round groups them.
    let groups = if matches!(cfg.algo, Algo::Bsp) && cfg.opts.local_aggregation {
        let ranks: Vec<usize> = (0..cfg.workers).collect();
        hier_groups(&ranks, cfg.cluster.gpus_per_machine)
    } else {
        Vec::new()
    };

    // ---- spawn PS shards (centralized algorithms) ----
    if cfg.algo.is_centralized() {
        let global_shards = build_global_shard_params(cfg);
        // The machine leaders, if any, are the shards' senders.
        let leaders = Some(groups.len()).filter(|&n| n > 0);
        // Under DGC the pushed gradients already carry momentum (Lin et
        // al.'s momentum correction replaces the optimizer's momentum); the
        // server must not apply it twice.
        let momentum = match (&cfg.real, &cfg.opts.dgc) {
            (Some(r), None) => r.momentum,
            _ => 0.0,
        };
        let weight_decay = cfg.real.as_ref().map_or(0.0, |r| r.weight_decay);
        let elastic = cores.first().and_then(|c| c.elastic.clone());
        let deadline = cfg
            .elastic()
            .map(|e| Duration::from_nanos(e.barrier_deadline.as_nanos()));
        for s in 0..num_shards {
            let params = global_shards
                .as_ref()
                .map_or(ParamSet(Vec::new()), |p| p[s].clone());
            let hub = Hub::new(params, cfg.workers, momentum, weight_decay, deadline);
            let faults = match (cfg.faults.as_ref(), store.as_ref()) {
                (Some(f), Some(store)) => Some(PsFaultState {
                    outages: f.schedule.ps_failures_for(s).into(),
                    store: Arc::clone(store),
                    applies: 0,
                }),
                _ => None,
            };
            let ps = PsCore {
                shard: s,
                node: ps_addrs[s].node,
                net: net.clone(),
                hub,
                real: cfg.real.is_some(),
                // A reply is the size of the shard's pushes (DGC-compressed
                // timing).
                reply_bytes: cores[0].grad_bytes(s),
                workers: worker_addrs.clone(),
                leaders,
                expected_stops: leaders.unwrap_or(cfg.workers),
                faults,
                elastic: elastic.clone(),
                homes: ps_homes.clone(),
                machines: cfg.cluster.machines,
                state_bytes: profile_plan.bytes_of_shard(s),
                obs: sink.track(Track::Ps(s as u16)),
                collective: cfg.opts.collective,
            };
            let algo = cfg.algo;
            let pid = sim.spawn(format!("ps{s}"), move |ctx| ps_process(ps, algo, ctx));
            assert_eq!(pid, ps_addrs[s].pid, "pid assignment contract");
        }
    }

    // ---- spawn workers ----
    // Real-math AR-SGD: one hub over the whole model runs every round (the
    // ring is its barrier, so it needs no deadline).
    let replica = cores.first().and_then(|c| c.real.as_ref());
    let real = replica.zip(cfg.real.as_ref());
    let hub = real
        .filter(|_| matches!(cfg.algo, Algo::ArSgd))
        .map(|(w0, r)| {
            let params = w0.net.get_params(); // where every replica starts
            let hub = Hub::new(params, cfg.workers, r.momentum, r.weight_decay, None);
            Arc::new(Mutex::new(hub))
        });
    let buckets = if matches!(cfg.algo, Algo::ArSgd) && cfg.opts.wait_free_bp {
        8usize.min(cfg.profile.layers.len().max(1))
    } else {
        1
    };

    // Hierarchical/pipelined AR-SGD: one collective engine per machine,
    // spawned after the workers (pids `num_shards + workers + m`).
    let use_engines = matches!(cfg.algo, Algo::ArSgd) && !cfg.opts.collective.is_flat();
    let engine_addrs: Vec<Addr> = if use_engines {
        (0..cfg.cluster.machines)
            .map(|m| Addr {
                pid: Pid(num_shards + cfg.workers + m),
                node: dtrain_cluster::NodeId(m),
            })
            .collect()
    } else {
        Vec::new()
    };
    // Engines share the workers' membership view Arc, so eviction/rejoin
    // reshapes worker cohorts and engine groups from identical history.
    let engine_view = cores
        .first()
        .and_then(|c| c.elastic.as_ref().map(|e| Arc::clone(&e.view)));

    for (w, core) in cores.drain(..).enumerate() {
        let peers = worker_addrs.clone();
        let algo = cfg.algo;
        let role = match groups.iter().find(|g| g.members.contains(&w)) {
            None => BspRole::Solo,
            Some(g) if g.leader == w => BspRole::Leader {
                followers: g.followers().map(|f| peers[f]).collect(),
            },
            Some(g) => BspRole::Follower {
                leader: peers[g.leader],
            },
        };
        let hub = hub.clone();
        let collective = cfg.opts.collective;
        let engines = engine_addrs.clone();
        let overlap = !cfg.opts.disable_overlap;
        let name = format!("worker{w}");
        let pid = sim.spawn(name, move |ctx| match algo {
            Algo::Bsp => run_worker(core, PsBody::Bsp(role), ctx),
            Algo::Asp => run_worker(core, PsBody::Asp, ctx),
            Algo::Ssp { staleness } => {
                let cache_ts = 0;
                run_worker(
                    core,
                    PsBody::Ssp {
                        staleness,
                        cache_ts,
                    },
                    ctx,
                )
            }
            Algo::Easgd { tau, .. } => run_worker(core, PsBody::Easgd { tau }, ctx),
            Algo::ArSgd => {
                let body = ArSgd::new(&core, peers, hub, buckets, collective, &engines);
                run_worker(core, body, ctx)
            }
            Algo::GoSgd { p } => run_worker(core, GoSgd::new(peers, p), ctx),
            Algo::AdPsgd if Algo::adpsgd_is_active(w) => {
                run_worker(core, AdPsgdActive::new(peers, overlap), ctx)
            }
            Algo::AdPsgd => run_worker(core, AdPsgdPassive::new(peers), ctx),
        });
        assert_eq!(pid, worker_addrs[w].pid, "pid assignment contract");
    }

    // ---- spawn collective engines (hierarchical AR-SGD only) ----
    if use_engines {
        let total_iters = crate::exec::resolve_total_iters(cfg);
        for m in 0..cfg.cluster.machines {
            let eng = EngineCore {
                machine: m,
                node: engine_addrs[m].node,
                net: net.clone(),
                obs: sink.track(Track::Machine(m as u16)),
                workers: worker_addrs.clone(),
                engines: engine_addrs.clone(),
                gpus_per_machine: cfg.cluster.gpus_per_machine,
                num_workers: cfg.workers,
                total_iters,
                view: engine_view.clone(),
                layout: ChunkLayout::new(
                    profile_bytes.iter().sum(),
                    cfg.opts.collective,
                    cfg.opts.dgc.as_ref().map(|d| d.final_sparsity),
                ),
            };
            let pid = sim.spawn(format!("coll{m}"), move |ctx| collective_engine(eng, ctx));
            assert_eq!(pid, engine_addrs[m].pid, "pid assignment contract");
        }
    }

    let stats = sim.run();
    assert_eq!(
        stats.reason,
        StopReason::Completed,
        "simulation did not complete cleanly: blocked={:?}",
        stats.blocked
    );

    // ---- distill outputs ----
    let (curve, final_params) = match &test {
        Some(test) => evaluate_curve(cfg, test, &recorder.snapshots()),
        None => (Vec::new(), None),
    };
    let final_accuracy = curve.last().map(|p| p.test_accuracy);
    let out = RunOutput {
        algo: cfg.algo.name().to_string(),
        workers: cfg.workers,
        end_time: stats.end_time,
        throughput: metrics.throughput(cfg.batch),
        total_iterations: metrics.total_iterations(),
        mean_breakdown: metrics.mean_breakdown(),
        per_worker_breakdown: metrics.breakdowns(),
        traffic: net.stats(),
        curve,
        final_accuracy,
        final_params,
    };
    (out, stats.trace)
}

/// Initial global parameters, sliced per PS shard (real mode only).
fn build_global_shard_params(cfg: &RunConfig) -> Option<Vec<ParamSet>> {
    let rcfg = cfg.real.as_ref()?;
    let mut net = rcfg.task.build_net(rcfg.model_seed);
    if let Some(p) = &rcfg.initial_params {
        net.set_params(p);
    }
    let params = net.get_params();
    let shards = real_shard_indices(cfg, &net.layout());
    Some(shards.iter().map(|idx| slice_set(&params, idx)).collect())
}

/// Evaluate the recorded snapshots into an accuracy curve, and hand back
/// the model its last point evaluated — the run's trained model. Each
/// epoch's model is worker 0's replica for synchronous algorithms (their
/// replicas are identical) and the replica mean for everything else, the
/// conventional artifact of replicas that drift.
fn evaluate_curve(
    cfg: &RunConfig,
    test: &Dataset,
    snapshots: &[Snapshot],
) -> (Vec<EpochPoint>, Option<ParamSet>) {
    let rcfg = cfg.real.as_ref().expect("real mode");
    let (x, y) = test.as_batch();
    let mut eval_net = rcfg.task.build_net(rcfg.model_seed);
    let max_epoch = snapshots.iter().map(|s| s.epoch).max().unwrap_or(0);
    let mut out = Vec::new();
    let mut trained = None;
    for e in 1..=max_epoch {
        let of_epoch: Vec<&Snapshot> = snapshots.iter().filter(|s| s.epoch == e).collect();
        if of_epoch.is_empty() {
            continue;
        }
        let time = of_epoch.iter().map(|s| s.time).max().expect("nonempty");
        let params: Vec<&ParamSet> = of_epoch.iter().map(|s| &s.params).collect();
        let mean = ParamSet::mean_of(&params);
        let drift = params
            .iter()
            .fold(0.0f32, |m, p| m.max(p.max_abs_diff(&mean)));
        let chosen = if cfg.algo.is_synchronous() {
            of_epoch
                .iter()
                .find(|s| s.worker == 0)
                .map(|s| s.params.clone())
                .unwrap_or(mean)
        } else {
            mean
        };
        eval_net.set_params(&chosen);
        let (_loss, acc) = eval_net.eval_batch(x.clone(), &y);
        out.push(EpochPoint {
            epoch: e,
            time,
            test_accuracy: acc,
            test_error: 1.0 - acc,
            drift,
        });
        trained = Some(chosen);
    }
    (out, trained)
}
