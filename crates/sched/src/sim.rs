//! Transport layer: the scheduler core, job agents, and the arrival feed
//! as desim processes on one simulated cluster.
//!
//! Message choreography (all control messages travel with [`CTRL_DELAY`]):
//!
//! ```text
//!  arrivals ──Arrived(j)──▶ scheduler ──Grant/Preempt/Shrink/Grow──▶ agent j
//!  agent j  ──Yielded/Shrunk/Completed──▶ scheduler
//! ```
//!
//! Agents own the training state. On `Preempt` an agent checkpoints into
//! the shared [`CheckpointStore`] and **drops its trainer entirely**; on
//! the next `Grant{resume: true}` it rebuilds from the spec and restores
//! via `restore_at_or_before` — so resumption is forced through the real
//! checkpoint path, never through state that survived in memory. Elastic
//! resizes take effect at round boundaries.

use std::sync::{Arc, Mutex};

use crate::job::{JobId, JobSpec};
use crate::outcome::{study_metrics, JobOutcome, StudyMetrics};
use crate::policy::Policy;
use crate::scheduler::{AuditEvent, Directive, SchedCore};
use crate::trainer::JobTrainer;
use dtrain_algos::cost;
use dtrain_cluster::ClusterConfig;
use dtrain_desim::{Ctx, Pid, SimTime, Simulation, StopReason};
use dtrain_faults::CheckpointStore;
use dtrain_obs::{names, ObsSink, Track, TrackHandle};

/// Latency of a scheduler control message (directive or acknowledgement).
pub const CTRL_DELAY: SimTime = SimTime::from_micros(1);

/// Rounds between periodic checkpoints while a segment runs.
const CKPT_EVERY_ROUNDS: u64 = 8;

#[derive(Clone, Debug)]
enum SchedMsg {
    /// Arrival feed → scheduler.
    Arrived(JobId),
    /// Scheduler → agent: start (or resume) on `gang` machines.
    Grant {
        gang: usize,
        resume: bool,
    },
    /// Scheduler → agent: checkpoint and release everything.
    Preempt,
    /// Scheduler → agent: release `release` machines at the round boundary.
    Shrink {
        release: usize,
    },
    /// Scheduler → agent: `added` machines joined the gang.
    Grow {
        added: usize,
    },
    /// Agent → scheduler acknowledgements.
    Yielded {
        job: JobId,
    },
    Shrunk {
        job: JobId,
    },
    Completed {
        job: JobId,
    },
}

#[derive(Clone, Debug, Default)]
struct RawStats {
    completion_ns: u64,
    machine_ns: u64,
    preemptions: u64,
    resumes: u64,
    shrinks: u64,
    grows: u64,
    final_hash: u64,
}

/// Result of one (policy, trace) scheduler run.
pub struct SchedRun {
    pub outcomes: Vec<JobOutcome>,
    pub metrics: StudyMetrics,
    pub audit: Vec<AuditEvent>,
}

/// Virtual duration of one round for a gang of `g` machines, in ns.
fn round_ns(cluster: &ClusterConfig, spec: &JobSpec, g: usize) -> u64 {
    let sub = cluster.subcluster(g);
    let secs = cost::step_secs(&sub, &spec.algo, &spec.model.profile(), spec.batch);
    ((secs * 1e9) as u64).max(1)
}

#[allow(clippy::too_many_arguments)]
fn agent_body(
    ctx: Ctx<SchedMsg>,
    spec: JobSpec,
    cluster: ClusterConfig,
    store: Arc<CheckpointStore>,
    sched: Arc<Mutex<Option<Pid>>>,
    stats: Arc<Mutex<Vec<RawStats>>>,
    obs: TrackHandle,
) {
    let sched = sched.lock().unwrap().expect("scheduler spawned before run");
    let mut raw = RawStats::default();
    let mut segment: u64 = 0;
    'idle: loop {
        let msg = ctx.recv();
        let SchedMsg::Grant {
            gang: granted,
            resume,
        } = msg
        else {
            panic!("job {} got {msg:?} while idle", spec.id);
        };
        let mut g = granted;
        // Rebuild training state from scratch; resume must come through
        // the checkpoint store or not at all.
        let mut tr = JobTrainer::new(&spec);
        if resume {
            raw.resumes += 1;
            // A job preempted before its first checkpoint restarts at 0.
            tr.restore(&store, spec.id, spec.iters);
        }
        let seg_start = ctx.now().as_nanos();
        obs.enter(seg_start, names::SCHED_SEGMENT, segment);
        obs.counter(seg_start, names::SCHED_GANG, g as i64);
        let mut rounds_in_segment: u64 = 0;
        loop {
            for m in ctx.drain() {
                match m {
                    SchedMsg::Preempt => {
                        tr.save(&store, spec.id);
                        raw.preemptions += 1;
                        let now = ctx.now().as_nanos();
                        obs.counter(now, names::SCHED_GANG, 0);
                        obs.exit(now, names::SCHED_SEGMENT);
                        segment += 1;
                        ctx.send(sched, CTRL_DELAY, SchedMsg::Yielded { job: spec.id });
                        continue 'idle;
                    }
                    SchedMsg::Shrink { release } => {
                        assert!(release < g, "shrink below one machine");
                        g -= release;
                        raw.shrinks += 1;
                        obs.counter(ctx.now().as_nanos(), names::SCHED_GANG, g as i64);
                        ctx.send(sched, CTRL_DELAY, SchedMsg::Shrunk { job: spec.id });
                    }
                    SchedMsg::Grow { added } => {
                        g += added;
                        raw.grows += 1;
                        obs.counter(ctx.now().as_nanos(), names::SCHED_GANG, g as i64);
                    }
                    other => panic!("job {} got {other:?} while running", spec.id),
                }
            }
            if tr.done() {
                break;
            }
            // One round: every GPU in the gang executes one micro-step of
            // the job's fixed sequential stream.
            tr.run_steps((g * cluster.gpus_per_machine) as u64);
            rounds_in_segment += 1;
            if rounds_in_segment.is_multiple_of(CKPT_EVERY_ROUNDS) {
                tr.save(&store, spec.id);
            }
            let dt = round_ns(&cluster, &spec, g);
            raw.machine_ns += g as u64 * dt;
            ctx.advance(SimTime::from_nanos(dt));
        }
        let now = ctx.now().as_nanos();
        obs.exit(now, names::SCHED_SEGMENT);
        raw.completion_ns = now;
        raw.final_hash = tr.final_hash();
        stats.lock().unwrap()[spec.id] = raw;
        ctx.send(sched, CTRL_DELAY, SchedMsg::Completed { job: spec.id });
        return;
    }
}

fn scheduler_body(
    ctx: Ctx<SchedMsg>,
    core: Arc<Mutex<SchedCore>>,
    agents: Vec<Pid>,
    obs: TrackHandle,
) {
    loop {
        let msg = ctx.recv();
        let mut core = core.lock().unwrap();
        let directives = match msg {
            SchedMsg::Arrived(job) => core.on_arrival(job),
            SchedMsg::Yielded { job } => core.on_yielded(job),
            SchedMsg::Shrunk { job } => core.on_shrunk(job),
            SchedMsg::Completed { job } => {
                obs.instant(ctx.now().as_nanos(), names::SCHED_COMPLETE, job as i64);
                core.on_completed(job)
            }
            other => panic!("scheduler got {other:?}"),
        };
        let now = ctx.now().as_nanos();
        for d in directives {
            let job = d.job();
            let (name, msg) = match d {
                Directive::Start {
                    machines, resume, ..
                } => (
                    if resume {
                        names::SCHED_RESUME
                    } else {
                        names::SCHED_ADMIT
                    },
                    SchedMsg::Grant {
                        gang: machines,
                        resume,
                    },
                ),
                Directive::Preempt { .. } => (names::SCHED_PREEMPT, SchedMsg::Preempt),
                Directive::Shrink { release, .. } => {
                    (names::SCHED_SHRINK, SchedMsg::Shrink { release })
                }
                Directive::Grow { added, .. } => (names::SCHED_GROW, SchedMsg::Grow { added }),
            };
            obs.instant(now, name, job as i64);
            ctx.send(agents[job], CTRL_DELAY, msg);
        }
        obs.counter(now, names::SCHED_FREE_MACHINES, core.free_machines() as i64);
        obs.counter(now, names::SCHED_QUEUE_DEPTH, core.queue_depth() as i64);
        if core.all_done() {
            return;
        }
    }
}

/// Run one (policy, trace) study: every job arrives, trains, survives any
/// preemption/resize, and completes. Returns per-job outcomes, aggregate
/// metrics, and the core's audit log for invariant checking.
pub fn run_scheduler(
    cluster: &ClusterConfig,
    policy: Policy,
    jobs: &[JobSpec],
    sink: &ObsSink,
) -> SchedRun {
    assert!(!jobs.is_empty(), "empty trace");
    for (i, j) in jobs.iter().enumerate() {
        assert_eq!(j.id, i, "job ids must be dense and sorted");
    }
    let store = Arc::new(CheckpointStore::new(0));
    let stats = Arc::new(Mutex::new(vec![RawStats::default(); jobs.len()]));
    let core = Arc::new(Mutex::new(SchedCore::new(
        cluster.clone(),
        policy,
        jobs.to_vec(),
    )));
    let sched_cell: Arc<Mutex<Option<Pid>>> = Arc::new(Mutex::new(None));

    let mut sim: Simulation<SchedMsg> = Simulation::new();
    let mut agents = Vec::with_capacity(jobs.len());
    for spec in jobs {
        let spec = spec.clone();
        let cluster = cluster.clone();
        let store = Arc::clone(&store);
        let sched_cell = Arc::clone(&sched_cell);
        let stats = Arc::clone(&stats);
        let obs = sink.track(Track::Job(spec.id as u16));
        let name = format!("job-{}", spec.id);
        agents.push(sim.spawn(name, move |ctx| {
            agent_body(ctx, spec, cluster, store, sched_cell, stats, obs)
        }));
    }
    let sched_pid = {
        let core = Arc::clone(&core);
        let obs = sink.track(Track::Sched);
        sim.spawn("scheduler", move |ctx| {
            scheduler_body(ctx, core, agents, obs)
        })
    };
    *sched_cell.lock().unwrap() = Some(sched_pid);
    {
        let arrivals: Vec<(JobId, SimTime)> = jobs.iter().map(|j| (j.id, j.arrival)).collect();
        sim.spawn("arrivals", move |ctx| {
            for (job, at) in arrivals {
                ctx.advance_to(at);
                ctx.send(sched_pid, SimTime::ZERO, SchedMsg::Arrived(job));
            }
        });
    }

    let run = sim.run();
    assert!(
        matches!(run.reason, StopReason::Completed),
        "scheduler sim did not complete: {:?} (blocked: {:?})",
        run.reason,
        run.blocked
    );

    let raw = Arc::try_unwrap(stats)
        .expect("all agents exited")
        .into_inner()
        .unwrap();
    let outcomes: Vec<JobOutcome> = jobs
        .iter()
        .zip(raw)
        .map(|(spec, r)| {
            let gpus = (spec.max_machines * cluster.gpus_per_machine) as u64;
            let ideal_rounds = spec.iters.div_ceil(gpus);
            let ideal_secs =
                ideal_rounds as f64 * round_ns(cluster, spec, spec.max_machines) as f64 / 1e9;
            JobOutcome {
                id: spec.id,
                model: spec.model.name(),
                algo: spec.algo.name().to_string(),
                priority: spec.priority,
                arrival_secs: spec.arrival.as_secs_f64(),
                completion_secs: r.completion_ns as f64 / 1e9,
                ideal_secs,
                machine_secs: r.machine_ns as f64 / 1e9,
                iters: spec.iters,
                preemptions: r.preemptions,
                resumes: r.resumes,
                shrinks: r.shrinks,
                grows: r.grows,
                final_hash: r.final_hash,
            }
        })
        .collect();
    let metrics = study_metrics(&outcomes, cluster.machines);
    let audit = Arc::try_unwrap(core)
        .unwrap_or_else(|_| panic!("scheduler exited"))
        .into_inner()
        .unwrap()
        .into_audit();
    SchedRun {
        outcomes,
        metrics,
        audit,
    }
}

/// Run one job's math standalone (no scheduler, no simulator) and return
/// its final-model hash. Because a job's arithmetic is gang-independent,
/// this is the reference a preempted-and-resumed run must match bit for
/// bit.
pub fn run_single_job(spec: &JobSpec) -> u64 {
    let mut tr = JobTrainer::new(spec);
    tr.run_steps(spec.iters);
    assert!(tr.done());
    tr.final_hash()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{generate_trace, ModelKind, TraceConfig};
    use dtrain_cluster::NetworkConfig;

    fn cluster() -> ClusterConfig {
        let mut c = ClusterConfig::paper(NetworkConfig::TEN_GBPS);
        c.machines = 12;
        c.gpus_per_machine = 2;
        c
    }

    fn small_trace() -> Vec<JobSpec> {
        generate_trace(&TraceConfig {
            jobs: 6,
            seed: 9,
            machines: 12,
            iters_scale: 0.2,
            ..Default::default()
        })
    }

    #[test]
    fn every_job_completes_under_every_policy() {
        let c = cluster();
        let jobs = small_trace();
        for policy in Policy::ALL {
            let run = run_scheduler(&c, policy, &jobs, &ObsSink::disabled());
            assert_eq!(run.metrics.completed, jobs.len(), "{}", policy.name());
            for o in &run.outcomes {
                assert!(o.completion_secs >= o.arrival_secs);
                assert!(o.machine_secs > 0.0);
                assert!(o.resumes >= o.preemptions.saturating_sub(1));
            }
        }
    }

    #[test]
    fn runs_are_deterministic_per_policy() {
        let c = cluster();
        let jobs = small_trace();
        let a = run_scheduler(&c, Policy::Predictive, &jobs, &ObsSink::disabled());
        let b = run_scheduler(&c, Policy::Predictive, &jobs, &ObsSink::disabled());
        assert_eq!(format!("{:?}", a.audit), format!("{:?}", b.audit));
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.final_hash, y.final_hash);
            assert_eq!(x.completion_secs.to_bits(), y.completion_secs.to_bits());
        }
        assert_eq!(
            a.metrics.makespan_secs.to_bits(),
            b.metrics.makespan_secs.to_bits()
        );
    }

    #[test]
    fn preempted_real_math_job_resumes_bit_identical() {
        // A hand-built trace that forces preemption of a real-math job: a
        // low-priority SmallCnn fills the cluster, then a high-priority
        // VGG-16 arrives needing the whole cluster.
        let mut c = cluster();
        c.machines = 4;
        let victim = JobSpec {
            id: 0,
            arrival: SimTime::ZERO,
            model: ModelKind::SmallCnn,
            algo: dtrain_algos::Algo::Bsp,
            priority: 0,
            min_machines: 2,
            max_machines: 4,
            batch: ModelKind::SmallCnn.batch(),
            iters: 600,
            seed: 77,
        };
        let bully = JobSpec {
            id: 1,
            arrival: SimTime::from_millis(200),
            model: ModelKind::Vgg16,
            algo: dtrain_algos::Algo::ArSgd,
            priority: 3,
            min_machines: 4,
            max_machines: 4,
            batch: ModelKind::Vgg16.batch(),
            iters: 64,
            seed: 78,
        };
        let run = run_scheduler(
            &c,
            Policy::Spread,
            &[victim.clone(), bully],
            &ObsSink::disabled(),
        );
        let v = &run.outcomes[0];
        assert!(v.preemptions >= 1, "victim was never preempted");
        assert!(v.resumes >= 1, "victim never resumed");
        assert_eq!(
            v.final_hash,
            run_single_job(&victim),
            "resumed model must be bit-identical to an undisturbed run"
        );
    }
}
