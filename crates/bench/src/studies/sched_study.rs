//! Multi-tenant gang-scheduling study: N concurrent training jobs (mixed
//! models, mixed algorithms, mixed priorities) on one simulated cluster,
//! compared across the three placement policies (`pack`, `spread`,
//! `predictive`).
//!
//! The simulator is bit-deterministic, so every reported metric is exact
//! and the gate is regenerate-and-diff: a run rewrites the committed
//! `BENCH_009.json` in place, CI follows it with `git diff --exit-code`,
//! and any difference is a real change to the scheduler, the cost model,
//! or the trace generator. The run also enforces the acceptance bar for
//! the checkpoint path: at least one real-math job must be preempted,
//! resume from its checkpoint, and finish with parameter bits identical
//! to an undisturbed standalone run.
//!
//! `DTRAIN_TRACE=perfetto` also writes `results/trace_sched_study.json`
//! with the `sched.*` scheduler track and one track per job.

use dtrain_cluster::{ClusterConfig, NetworkConfig};
use dtrain_core::report::Table;
use dtrain_obs::export::perfetto_trace;
use dtrain_obs::ObsSink;
use dtrain_sched::{
    generate_trace, run_scheduler, run_single_job, JobSpec, Policy, SchedRun, TraceConfig,
};

use crate::trajectory::{TrajRecord, Trajectory};
use crate::Artifact;

/// Pinned study seed — chosen (by scanning) so the full-scale run
/// exercises preemption of real-math jobs, shrinks, and grows, and the
/// three policies produce distinct makespans. Must stay in sync with the
/// determinism test suite's golden trace.
const STUDY_SEED: u64 = 25;
const STUDY_JOBS: usize = 10;
const STUDY_MACHINES: usize = 12;

fn study_cluster() -> ClusterConfig {
    let mut c = ClusterConfig::paper(NetworkConfig::TEN_GBPS);
    c.machines = STUDY_MACHINES;
    c.gpus_per_machine = 2;
    c
}

fn study_trace() -> Vec<JobSpec> {
    generate_trace(&TraceConfig {
        jobs: STUDY_JOBS,
        seed: STUDY_SEED,
        machines: STUDY_MACHINES,
        ..Default::default()
    })
}

/// Run all three policies; return the policy table and the predictive run
/// for the per-job checks, and add the trajectory records.
fn run_policies(jobs: &[JobSpec], records: &mut Vec<TrajRecord>) -> (Table, SchedRun) {
    let cluster = study_cluster();
    let mut table = Table::new(
        format!(
            "gang scheduling: {} jobs on {} machines (seed {})",
            jobs.len(),
            cluster.machines,
            STUDY_SEED
        ),
        &[
            "policy",
            "makespan_s",
            "util",
            "jain",
            "mean_slow",
            "preempt",
            "shrink",
            "grow",
            "done",
        ],
    );
    let mut predictive = None;
    for policy in Policy::ALL {
        let run = run_scheduler(&cluster, policy, jobs, &ObsSink::disabled());
        let m = &run.metrics;
        let shrinks: u64 = run.outcomes.iter().map(|o| o.shrinks).sum();
        let grows: u64 = run.outcomes.iter().map(|o| o.grows).sum();
        table.push_row(vec![
            policy.name().to_string(),
            format!("{:.1}", m.makespan_secs),
            format!("{:.3}", m.utilization),
            format!("{:.3}", m.jain_fairness),
            format!("{:.2}", m.mean_slowdown),
            m.total_preemptions.to_string(),
            shrinks.to_string(),
            grows.to_string(),
            format!("{}/{}", m.completed, jobs.len()),
        ]);
        for (metric, value, unit) in [
            ("makespan", m.makespan_secs * 1e3, "ms"),
            ("util_pct", m.utilization * 100.0, "%"),
            ("jain_pct", m.jain_fairness * 100.0, "%"),
        ] {
            records.push(TrajRecord {
                name: format!("sched_{}_{metric}", policy.name()),
                machines: STUDY_MACHINES,
                value,
                unit,
            });
        }
        if policy == Policy::Predictive {
            predictive = Some(run);
        }
    }
    (table, predictive.expect("predictive ran"))
}

fn per_job_table(run: &SchedRun) -> Table {
    let mut table = Table::new(
        "per-job outcomes (predictive policy)",
        &[
            "job", "model", "algo", "prio", "iters", "slowdown", "preempt", "resume", "shrink",
            "grow",
        ],
    );
    for o in &run.outcomes {
        table.push_row(vec![
            o.id.to_string(),
            o.model.to_string(),
            o.algo.clone(),
            o.priority.to_string(),
            o.iters.to_string(),
            format!("{:.2}", o.slowdown()),
            o.preemptions.to_string(),
            o.resumes.to_string(),
            o.shrinks.to_string(),
            o.grows.to_string(),
        ]);
    }
    table
}

/// Same seed, same policy, run twice: every metric and final model must be
/// bit-identical.
fn determinism_self_check(jobs: &[JobSpec], divergences: &mut Vec<String>) {
    let cluster = study_cluster();
    let a = run_scheduler(&cluster, Policy::Predictive, jobs, &ObsSink::disabled());
    let b = run_scheduler(&cluster, Policy::Predictive, jobs, &ObsSink::disabled());
    if a.metrics.makespan_secs.to_bits() != b.metrics.makespan_secs.to_bits() {
        divergences.push("determinism: makespan differs between identical runs".into());
    }
    if format!("{:?}", a.audit) != format!("{:?}", b.audit) {
        divergences.push("determinism: audit log differs between identical runs".into());
    }
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        if x.final_hash != y.final_hash {
            divergences.push(format!(
                "determinism: job {} final hash differs between identical runs",
                x.id
            ));
        }
    }
}

/// Acceptance bar: the full study must preempt at least one real-math job,
/// resume it from its checkpoint, and end bit-identical to a standalone
/// run of the same job.
fn preemption_acceptance(
    jobs: &[JobSpec],
    run: &SchedRun,
    artifacts: &mut Vec<Artifact>,
    divergences: &mut Vec<String>,
) {
    let mut demonstrated = 0usize;
    for o in &run.outcomes {
        if o.model != "small_cnn" {
            continue;
        }
        let reference = run_single_job(&jobs[o.id]);
        if o.final_hash != reference {
            divergences.push(format!(
                "bit-identity: job {} ({} preemptions) hash {:#018x} != standalone {reference:#018x}",
                o.id, o.preemptions, o.final_hash
            ));
        } else if o.preemptions >= 1 && o.resumes >= 1 {
            demonstrated += 1;
            artifacts.push(Artifact::Note(format!(
                "job {} preempted {}x, resumed {}x, final model bit-identical to standalone run",
                o.id, o.preemptions, o.resumes
            )));
        }
    }
    if demonstrated == 0 {
        divergences.push(
            "acceptance: no real-math job was preempted and resumed in the full study".into(),
        );
    }
}

pub fn artifacts() -> Vec<Artifact> {
    let mut records = Vec::new();
    let mut divergences = Vec::new();

    let jobs = study_trace();
    let (policies, predictive) = run_policies(&jobs, &mut records);
    let mut artifacts = vec![
        Artifact::csv("results/sched/sched_policies.csv", policies),
        Artifact::csv("results/sched/sched_jobs.csv", per_job_table(&predictive)),
    ];
    preemption_acceptance(&jobs, &predictive, &mut artifacts, &mut divergences);
    determinism_self_check(&jobs, &mut divergences);

    if std::env::var("DTRAIN_TRACE").is_ok_and(|v| v == "perfetto") {
        let sink = ObsSink::enabled();
        run_scheduler(&study_cluster(), Policy::Predictive, &jobs, &sink);
        artifacts.push(Artifact::Trace(
            "results/trace_sched_study.json".into(),
            perfetto_trace(&sink.snapshot()),
        ));
    }

    artifacts.push(Artifact::Trajectory(
        "BENCH_009.json",
        Trajectory {
            meta: vec![
                ("seed", STUDY_SEED.to_string()),
                ("jobs", STUDY_JOBS.to_string()),
            ],
            records,
            divergences,
        },
    ));
    artifacts
}
