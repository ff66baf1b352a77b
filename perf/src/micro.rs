//! Per-layer micro-timings: one public function of one crate at a time,
//! at the shapes the workloads actually execute. These are calibration
//! numbers, not workloads — they do not depend on which workload is being
//! traced, they are ungated, and each one exists to explain a movement in
//! an end-to-end metric (the catalogue says which).
//!
//! Everything runs in one process, unpinned first; the simulator-kernel
//! timings that need one CPU run last, after the process pins itself.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dtrain_algos::{cost, Algo};
use dtrain_cluster::{ClusterConfig, NetModel, NetworkConfig, NodeId, TrafficClass};
use dtrain_compress::{DgcCompressor, DgcConfig};
use dtrain_data::{prototype_images, teacher_task, TeacherTaskConfig};
use dtrain_desim::{Pid, SimTime, Simulation};
use dtrain_faults::{CheckpointStore, MembershipView};
use dtrain_models::{default_mlp, mlp_classifier, resnet50, small_cnn};
use dtrain_nn::{Conv2d, Dense, Flatten, Layer, MaxPool2d, Network, ParamSet, Relu, SgdMomentum};
use dtrain_obs::{ObsSink, Track};
use dtrain_proc::codec::{read_frame, write_frame};
use dtrain_proc::{crc32, Msg, ProcConfig, ProcRun};
use dtrain_runtime::{train_threaded, ElasticBarrier, PsState, RunPlan, Strategy, ThreadedConfig};
use dtrain_sched::{generate_trace, run_scheduler, ModelKind, Policy, TraceConfig};
use dtrain_tensor::parallel::with_max_threads;
use dtrain_tensor::simd::{active_isa, Isa};
use dtrain_tensor::{
    conv2d_backward, conv2d_forward, im2col, matmul, matmul_a_bt, maxpool2d_forward, Conv2dSpec,
    Scratch, Tensor,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::host;
use crate::stats::median;
use crate::workloads::{derive_seed, image_task, WorkerExes, IMAGE_CLASSES, REAL_WORKERS};

pub type Metrics = BTreeMap<String, f64>;

/// Batches per timing and target length of one batch: ~30 ms per metric.
const BATCHES: usize = 5;
const BATCH_NS: f64 = 6e6;

/// Median nanoseconds per call of `f` over [`BATCHES`] batches, after one
/// untimed call. The median of batch means shrugs off a preempted batch.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    f();
    let one = t.elapsed().as_nanos().max(1) as f64;
    let per_batch = ((BATCH_NS / one) as usize).clamp(1, 1 << 20);
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&samples)
}

/// Like [`ns_per_call`] for calls that consume an input: `prep` builds the
/// input untimed, `f` is timed alone.
fn ns_per_call_with<I>(mut prep: impl FnMut() -> I, mut f: impl FnMut(I)) -> f64 {
    f(prep());
    const CALLS: usize = 3;
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let inputs: Vec<I> = (0..CALLS).map(|_| prep()).collect();
            let t = Instant::now();
            for i in inputs {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    median(&samples)
}

/// Run every micro-timing. `exes` locates the stock proc worker for
/// `proc.launch_ms`.
pub fn run_all(seed: u64, exes: &WorkerExes) -> Metrics {
    let mut m = Metrics::new();
    host_layer(&mut m);
    tensor_layer(&mut m, seed);
    nn_layer(&mut m, seed);
    data_layer(&mut m, seed);
    compress_layer(&mut m, seed);
    cluster_layer(&mut m);
    algos_layer(&mut m);
    runtime_layer(&mut m, seed);
    proc_layer(&mut m, seed, exes);
    faults_layer(&mut m, seed);
    obs_layer(&mut m);
    sched_layer(&mut m, seed);
    // Last: pins this process to one CPU.
    desim_layer(&mut m);
    m
}

// ---------------------------------------------------------------- host --

fn host_layer(m: &mut Metrics) {
    m.insert("host.parallelism".into(), host::parallelism() as f64);

    // Large enough to miss every cache level on the hosts this targets.
    const BYTES: usize = 32 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let ns = ns_per_call(|| {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    m.insert("host.memcpy_gbps".into(), BYTES as f64 / ns);

    m.insert("host.loopback_rtt_us".into(), loopback_rtt_ns() / 1e3);
    m.insert("host.thread_handoff_ns".into(), thread_handoff_ns());
}

/// Median round trip of a 64-byte message over loopback TCP, `std::net`
/// only: the floor under one small-frame RPC of the proc path.
fn loopback_rtt_ns() -> f64 {
    const PINGS: usize = 2000;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let echo = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        s.set_nodelay(true).expect("nodelay");
        let mut buf = [0u8; 64];
        while s.read_exact(&mut buf).is_ok() {
            if s.write_all(&buf).is_err() {
                break;
            }
        }
    });
    let mut s = TcpStream::connect(addr).expect("connect loopback");
    s.set_nodelay(true).expect("nodelay");
    let mut buf = [7u8; 64];
    let mut rtts = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        s.write_all(&buf).expect("ping");
        s.read_exact(&mut buf).expect("pong");
        rtts.push(t.elapsed().as_nanos() as f64);
    }
    drop(s);
    echo.join().expect("echo thread");
    median(&rtts)
}

/// One-way hand-off between two std threads over std channels: the floor
/// under one desim event (its kernel parks a thread per simulated process).
fn thread_handoff_ns() -> f64 {
    const TRIPS: usize = 20_000;
    let (to_peer, from_main) = mpsc::channel::<u32>();
    let (to_main, from_peer) = mpsc::channel::<u32>();
    let peer = std::thread::spawn(move || {
        while let Ok(v) = from_main.recv() {
            if to_main.send(v).is_err() {
                break;
            }
        }
    });
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for i in 0..(TRIPS / BATCHES) as u32 {
                to_peer.send(i).expect("peer alive");
                black_box(from_peer.recv().expect("peer alive"));
            }
            t.elapsed().as_nanos() as f64 / (2 * (TRIPS / BATCHES)) as f64
        })
        .collect();
    drop(to_peer);
    peer.join().expect("peer thread");
    median(&batches)
}

// -------------------------------------------------------------- tensor --

/// SmallCnn's two convolutions on 3×32×32 inputs, and its batch.
const BATCH: usize = 32;
const CONV0: Conv2dSpec = Conv2dSpec {
    in_channels: 3,
    out_channels: 8,
    kernel: 3,
    stride: 1,
    padding: 1,
};
const CONV1: Conv2dSpec = Conv2dSpec {
    in_channels: 8,
    out_channels: 16,
    kernel: 3,
    stride: 1,
    padding: 1,
};

fn randn(shape: &[usize], rng: &mut SmallRng) -> Tensor {
    Tensor::randn(shape, 1.0, rng)
}

fn tensor_layer(m: &mut Metrics, seed: u64) {
    let rng = &mut SmallRng::seed_from_u64(derive_seed(seed, 20));
    // Forward GEMMs as the layers issue them: `x[M,K] · W[N,K]ᵀ`.
    let a_bt_shapes = [
        ("conv0", BATCH * 32 * 32, 27, 8),
        ("conv1", BATCH * 16 * 16, 72, 16),
        ("dense0", BATCH, 16 * 8 * 8, IMAGE_CLASSES),
        ("mlp1024", 16, 1024, 1024),
    ];
    for (name, mm, k, n) in a_bt_shapes {
        let (a, b) = (randn(&[mm, k], rng), randn(&[n, k], rng));
        let ns = ns_per_call(|| {
            black_box(matmul_a_bt(black_box(&a), black_box(&b)));
        });
        m.insert(
            format!("tensor.gemm_gflops.{name}"),
            (2 * mm * k * n) as f64 / ns,
        );
    }
    let (a, b) = (randn(&[512, 512], rng), randn(&[512, 512], rng));
    let flops = 2.0 * 512f64.powi(3);
    let sq = |threads: usize| {
        with_max_threads(threads, || {
            ns_per_call(|| {
                black_box(matmul(black_box(&a), black_box(&b)));
            })
        })
    };
    m.insert(
        "tensor.gemm_gflops.sq512".into(),
        flops / sq(host::parallelism()),
    );
    // Thread scaling is only a measurement when a second CPU exists; on a
    // one-CPU host it is recorded as 0 = unmeasured, never as a number an
    // oversubscribed pool produced.
    let speedup = if host::parallelism() >= 2 {
        sq(1) / sq(2)
    } else {
        0.0
    };
    m.insert("tensor.gemm512_speedup_2t".into(), speedup);

    let x1 = randn(&[BATCH, 8, 16, 16], rng);
    let w1 = randn(&CONV1.weight_shape(), rng);
    let b1 = Tensor::zeros(&[16]);
    let ns = ns_per_call(|| {
        black_box(conv2d_forward(black_box(&x1), &w1, &b1, &CONV1));
    });
    m.insert("tensor.conv_fwd_us.conv1".into(), ns / 1e3);
    let (y1, cols1) = conv2d_forward(&x1, &w1, &b1, &CONV1);
    let ns = ns_per_call(|| {
        black_box(conv2d_backward(black_box(&y1), &cols1, &w1, &CONV1, 16, 16));
    });
    m.insert("tensor.conv_bwd_us.conv1".into(), ns / 1e3);

    let x0 = randn(&[BATCH, 3, 32, 32], rng);
    let ns = ns_per_call(|| {
        black_box(im2col(black_box(&x0), &CONV0, 32, 32));
    });
    m.insert("tensor.im2col_us.conv0".into(), ns / 1e3);
    let p0 = randn(&[BATCH, 8, 32, 32], rng);
    let ns = ns_per_call(|| {
        black_box(maxpool2d_forward(black_box(&p0), 2));
    });
    m.insert("tensor.maxpool_fwd_us.pool0".into(), ns / 1e3);
    m.insert("tensor.simd_tier".into(), simd_tier() as f64);
}

/// 0 = scalar, 1 = AVX2, 2 = AVX-512 (the name goes in the results header).
pub fn simd_tier() -> u8 {
    match active_isa() {
        Isa::Scalar => 0,
        Isa::Avx2 => 1,
        Isa::Avx512 => 2,
    }
}

// ------------------------------------------------------------------ nn --

/// Per-call microseconds of `forward` and `backward` of one layer built
/// on its own, fed inputs of the shape SmallCnn feeds it.
fn layer_fwd_bwd(layer: &mut dyn Layer, input: &Tensor, rng: &mut SmallRng) -> (f64, f64) {
    let mut scratch = Scratch::new();
    let out = layer.forward(input.clone(), true, &mut scratch);
    let grad = randn(out.shape(), rng);
    let dx = layer.backward(grad.clone(), &mut scratch);
    scratch.recycle_tensor(out);
    scratch.recycle_tensor(dx);
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        const CALLS: usize = 4;
        let inputs: Vec<(Tensor, Tensor)> =
            (0..CALLS).map(|_| (input.clone(), grad.clone())).collect();
        let (mut f_ns, mut b_ns) = (0u128, 0u128);
        for (x, g) in inputs {
            let t = Instant::now();
            let y = layer.forward(x, true, &mut scratch);
            f_ns += t.elapsed().as_nanos();
            let t = Instant::now();
            let dx = layer.backward(g, &mut scratch);
            b_ns += t.elapsed().as_nanos();
            scratch.recycle_tensor(y);
            scratch.recycle_tensor(dx);
        }
        fwd.push(f_ns as f64 / CALLS as f64 / 1e3);
        bwd.push(b_ns as f64 / CALLS as f64 / 1e3);
    }
    (median(&fwd), median(&bwd))
}

fn train_batch_us(net: &mut Network, x: &Tensor, y: &[usize]) -> f64 {
    ns_per_call_with(
        || x.clone(),
        |x| {
            black_box(net.train_batch(x, y));
        },
    ) / 1e3
}

/// The 1.09 M-parameter MLP `proc_bulk` ships around.
fn mlp1024(seed: u64) -> Network {
    mlp_classifier(32, &[1024, 1024], 10, seed)
}

fn nn_layer(m: &mut Metrics, seed: u64) {
    let rng = &mut SmallRng::seed_from_u64(derive_seed(seed, 21));
    let mut layers: Vec<(Box<dyn Layer>, Vec<usize>)> = vec![
        (
            Box::new(Conv2d::new("conv0", CONV0, (32, 32), rng)),
            vec![BATCH, 3, 32, 32],
        ),
        (Box::new(Relu::new("relu0")), vec![BATCH, 8, 32, 32]),
        (Box::new(MaxPool2d::new("pool0", 2)), vec![BATCH, 8, 32, 32]),
        (
            Box::new(Conv2d::new("conv1", CONV1, (16, 16), rng)),
            vec![BATCH, 8, 16, 16],
        ),
        (Box::new(Relu::new("relu1")), vec![BATCH, 16, 16, 16]),
        (
            Box::new(MaxPool2d::new("pool1", 2)),
            vec![BATCH, 16, 16, 16],
        ),
        (Box::new(Flatten::new("flatten")), vec![BATCH, 16, 8, 8]),
        (
            Box::new(Dense::new("dense0", 16 * 8 * 8, IMAGE_CLASSES, rng)),
            vec![BATCH, 16 * 8 * 8],
        ),
    ];
    let mut layer_sum = 0.0;
    for (layer, shape) in &mut layers {
        let input = randn(shape, rng);
        let (fwd, bwd) = layer_fwd_bwd(layer.as_mut(), &input, rng);
        m.insert(format!("nn.fwd_us.{}", layer.name()), fwd);
        m.insert(format!("nn.bwd_us.{}", layer.name()), bwd);
        layer_sum += fwd + bwd;
    }

    let labels = |n: usize, classes: usize| (0..n).map(|i| i % classes).collect::<Vec<_>>();
    let mut cnn = small_cnn(3, 32, IMAGE_CLASSES, derive_seed(seed, 22));
    let x = randn(&[BATCH, 3, 32, 32], rng);
    let cnn_us = train_batch_us(&mut cnn, &x, &labels(BATCH, IMAGE_CLASSES));
    m.insert("nn.train_batch_us.cnn".into(), cnn_us);
    m.insert("nn.layer_sum_share.cnn".into(), layer_sum / cnn_us);
    let (reused, grown) = (cnn.scratch_reused() as f64, cnn.scratch_grown() as f64);
    m.insert("nn.scratch_reuse_ratio".into(), reused / (reused + grown));

    let mut mlp = default_mlp(10, derive_seed(seed, 23));
    let x = randn(&[BATCH, 32], rng);
    m.insert(
        "nn.train_batch_us.mlp".into(),
        train_batch_us(&mut mlp, &x, &labels(BATCH, 10)),
    );
    let mut big = mlp1024(derive_seed(seed, 24));
    let x = randn(&[16, 32], rng);
    m.insert(
        "nn.train_batch_us.mlp1024".into(),
        train_batch_us(&mut big, &x, &labels(16, 10)),
    );

    let grads = cnn.grads();
    let mut params = cnn.get_params();
    let mut opt = SgdMomentum::new(0.9, 1e-4);
    let ns = ns_per_call(|| opt.step(black_box(&mut params), &grads, 0.01));
    m.insert("nn.optim_step_us.cnn".into(), ns / 1e3);
    let ns = ns_per_call(|| {
        let p = big.get_params();
        big.set_params(black_box(&p));
    });
    m.insert("nn.params_roundtrip_us.mlp1024".into(), ns / 1e3);
}

// ---------------------------------------------------------------- data --

fn data_layer(m: &mut Metrics, seed: u64) {
    let teacher = TeacherTaskConfig {
        train_size: 2048,
        test_size: 256,
        seed: derive_seed(seed, 25),
        ..Default::default()
    };
    let ns = ns_per_call(|| {
        black_box(teacher_task(black_box(&teacher)));
    });
    m.insert("data.gen_ms.teacher".into(), ns / 1e6);
    let images = image_task(1024, 256, derive_seed(seed, 26));
    let t = Instant::now();
    let (train, _) = prototype_images(&images);
    m.insert(
        "data.gen_ms.images".into(),
        t.elapsed().as_nanos() as f64 / 1e6,
    );
    let idx: Vec<usize> = (0..BATCH).map(|i| (i * 31) % train.len()).collect();
    let ns = ns_per_call(|| {
        black_box(train.gather(black_box(&idx)));
    });
    m.insert("data.gather_us.images".into(), ns / 1e3);
}

// ------------------------------------------------------------ compress --

fn compress_layer(m: &mut Metrics, seed: u64) {
    let rng = &mut SmallRng::seed_from_u64(derive_seed(seed, 27));
    let like = |p: ParamSet, rng: &mut SmallRng| {
        ParamSet(p.0.iter().map(|t| randn(t.shape(), rng)).collect())
    };
    let grads = [
        like(small_cnn(3, 32, IMAGE_CLASSES, 1).get_params(), rng),
        like(mlp1024(1).get_params(), rng),
    ];
    let (mut bytes, mut ns, mut kept, mut total) = (0.0, 0.0, 0usize, 0usize);
    for g in &grads {
        let mut dgc = DgcCompressor::new(DgcConfig::default(), 8);
        // Epoch past the warm-up schedule: steady-state 99.9 % sparsity.
        let update = dgc.compress(g, 10);
        kept += update.nnz();
        total += g.num_params();
        bytes += g.num_bytes() as f64;
        ns += ns_per_call(|| {
            black_box(dgc.compress(black_box(g), 10));
        });
    }
    m.insert("compress.dgc_mbps".into(), bytes / ns * 1e3);
    m.insert("compress.dgc_kept_share".into(), kept as f64 / total as f64);
}

// ------------------------------------------------------------- cluster --

fn cluster_layer(m: &mut Metrics) {
    let net = NetModel::new(&ClusterConfig::paper(NetworkConfig::TEN_GBPS));
    let mut now = SimTime::ZERO;
    let mut hop = 0usize;
    let ns = ns_per_call(|| {
        let (src, dst) = (NodeId(hop % 6), NodeId((hop + 1) % 6));
        hop += 1;
        // Advancing by the returned delay keeps the NIC queues bounded.
        now = now + net.transfer_delay_class(now, src, dst, 1 << 20, TrafficClass::Peer);
    });
    m.insert("cluster.transfer_delay_ns".into(), ns);
}

// --------------------------------------------------------------- desim --

/// Host ns per kernel event of a two-process message ping-pong.
fn handoff_ns(events: u64) -> f64 {
    let trips = events / 4;
    let mut sim: Simulation<u64> = Simulation::new();
    let tick = SimTime::from_nanos(1);
    sim.spawn("ping", move |ctx| {
        for i in 0..trips {
            ctx.send(Pid(1), tick, i);
            black_box(ctx.recv());
        }
    });
    sim.spawn("pong", move |ctx| {
        for _ in 0..trips {
            let v = ctx.recv();
            ctx.send(Pid(0), tick, v);
        }
    });
    let t = Instant::now();
    let stats = sim.run();
    t.elapsed().as_nanos() as f64 / stats.events_processed.max(1) as f64
}

fn desim_layer(m: &mut Metrics) {
    // Small on purpose: unpinned, the kernel can run ten times slower.
    const EVENTS: u64 = 20_000;
    let unpinned = median(&[handoff_ns(EVENTS), handoff_ns(EVENTS), handoff_ns(EVENTS)]);
    let pinned_here = host::pin_to_one_cpu().is_some();
    let pinned = median(&[handoff_ns(EVENTS), handoff_ns(EVENTS), handoff_ns(EVENTS)]);
    m.insert("desim.handoff_ns".into(), pinned);
    // 0 = unmeasured (pinning unavailable on this platform).
    let slowdown = if pinned_here { unpinned / pinned } else { 0.0 };
    m.insert("desim.unpinned_slowdown".into(), slowdown);

    let advance = |steps: u64| {
        let mut sim: Simulation<u64> = Simulation::new();
        sim.spawn("solo", move |ctx| {
            for _ in 0..steps {
                ctx.advance(SimTime::from_nanos(1));
            }
        });
        let t = Instant::now();
        let stats = sim.run();
        t.elapsed().as_nanos() as f64 / stats.events_processed.max(1) as f64
    };
    m.insert(
        "desim.advance_ns".into(),
        median(&[advance(EVENTS), advance(EVENTS), advance(EVENTS)]),
    );

    let spawn = || {
        const PROCS: usize = 64;
        let t = Instant::now();
        let mut sim: Simulation<u64> = Simulation::new();
        for i in 0..PROCS {
            sim.spawn(format!("p{i}"), |ctx| ctx.advance(SimTime::from_nanos(1)));
        }
        black_box(sim.run());
        t.elapsed().as_nanos() as f64 / PROCS as f64 / 1e3
    };
    m.insert(
        "desim.spawn_us".into(),
        median(&[spawn(), spawn(), spawn()]),
    );
}

// --------------------------------------------------------------- algos --

fn algos_layer(m: &mut Metrics) {
    let cluster = ClusterConfig::paper(NetworkConfig::TEN_GBPS);
    let model = resnet50();
    let ns = ns_per_call(|| {
        black_box(cost::step_secs(
            black_box(&cluster),
            &Algo::ArSgd,
            &model,
            128,
        ));
    });
    m.insert("algos.cost_ns_per_call".into(), ns);
}

// ------------------------------------------------------------- runtime --

fn runtime_layer(m: &mut Metrics, seed: u64) {
    let net = default_mlp(10, derive_seed(seed, 28));
    let ps = PsState::new(net.get_params(), 0.9, 1e-4, REAL_WORKERS);
    let grad = net.get_params();
    let ns = ns_per_call(|| {
        black_box(ps.push_and_pull(black_box(&grad), 0.01));
    });
    m.insert("runtime.ps_push_pull_us".into(), ns / 1e3);

    const ROUNDS: u64 = 5_000;
    let barrier = Arc::new(ElasticBarrier::new());
    let peer = {
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            for r in 0..ROUNDS {
                barrier.wait(r, 2, None);
            }
        })
    };
    let t = Instant::now();
    for r in 0..ROUNDS {
        barrier.wait(r, 2, None);
    }
    let ns = t.elapsed().as_nanos() as f64 / ROUNDS as f64;
    peer.join().expect("barrier peer");
    m.insert("runtime.barrier_roundtrip_us".into(), ns / 1e3);

    // A plain single-worker run of the thr_cnn task as the scaling
    // baseline: the same samples per worker at one and at two workers.
    let model_seed = derive_seed(seed, 29);
    let samples_per_s = |workers: usize| {
        let (train, test) = prototype_images(&image_task(256 * workers, 64, derive_seed(seed, 30)));
        let cfg = ThreadedConfig {
            workers,
            epochs: 1,
            batch: BATCH,
            strategy: Strategy::Bsp,
            base_lr: 0.01,
            seed,
            ..Default::default()
        };
        let train = Arc::new(train);
        let factory = move || small_cnn(3, 32, IMAGE_CLASSES, model_seed);
        let runs: Vec<f64> = (0..3)
            .map(|_| {
                let r = train_threaded(factory, &train, &test, &cfg);
                (r.total_iterations * BATCH as u64) as f64 / r.wall_time.as_secs_f64()
            })
            .collect();
        median(&runs)
    };
    let single = samples_per_s(1);
    m.insert("runtime.single_worker_samples_per_s".into(), single);
    // 0 = unmeasured on a one-CPU host, as for the GEMM thread scaling.
    let eff = if host::parallelism() >= 2 {
        samples_per_s(2) / (2.0 * single)
    } else {
        0.0
    };
    m.insert("runtime.scaling_eff_2w".into(), eff);
}

// ---------------------------------------------------------------- proc --

fn proc_layer(m: &mut Metrics, seed: u64, exes: &WorkerExes) {
    let params = mlp1024(derive_seed(seed, 31)).get_params();
    let msg = Msg::Params { params };
    let (ty, payload) = msg.encode();
    let mb = payload.len() as f64 / 1e6;
    let ns = ns_per_call(|| {
        black_box(black_box(&msg).encode());
    });
    m.insert("proc.encode_mbps".into(), mb / ns * 1e9);
    let ns = ns_per_call(|| {
        black_box(Msg::decode(ty, black_box(&payload)).expect("decodes"));
    });
    m.insert("proc.decode_mbps".into(), mb / ns * 1e9);
    let ns = ns_per_call(|| {
        black_box(crc32(&[black_box(&payload)]));
    });
    m.insert("proc.crc32_mbps".into(), mb / ns * 1e9);

    let (hb_ty, hb) = Msg::Heartbeat { round: 7 }.encode();
    let mut wire = Vec::with_capacity(64);
    let ns = ns_per_call(|| {
        wire.clear();
        write_frame(&mut wire, hb_ty, 1, &hb).expect("in-memory write");
        black_box(read_frame(&mut wire.as_slice()).expect("in-memory read"));
    });
    m.insert("proc.frame_small_us".into(), ns / 1e3);

    // One-round run: launch is timed alone, the run is then let finish.
    let launches: Vec<f64> = (0..3)
        .map(|_| {
            let cfg = ProcConfig {
                plan: RunPlan {
                    workers: REAL_WORKERS,
                    epochs: 1,
                    batch: 16,
                    strategy: Strategy::Bsp,
                    seed,
                    ..Default::default()
                },
                task: TeacherTaskConfig {
                    train_size: 16 * REAL_WORKERS,
                    test_size: 16,
                    seed,
                    ..Default::default()
                },
                worker_exe: Some(exes.stock.clone()),
                ..Default::default()
            };
            let t = Instant::now();
            let run = ProcRun::launch(cfg, &ObsSink::disabled()).expect("proc launch");
            let ms = t.elapsed().as_nanos() as f64 / 1e6;
            run.finish(Duration::from_secs(30))
                .expect("one-round proc run");
            ms
        })
        .collect();
    m.insert("proc.launch_ms".into(), median(&launches));
}

// -------------------------------------------------------------- faults --

fn faults_layer(m: &mut Metrics, seed: u64) {
    let params = mlp1024(derive_seed(seed, 32)).get_params();
    let opt = SgdMomentum::new(0.9, 1e-4);
    let store = CheckpointStore::new(10);
    let mut it = 0u64;
    let ns = ns_per_call(|| {
        it += 10;
        store.save(0, it, black_box(&params), &opt);
    });
    m.insert("faults.ckpt_save_us.mlp1024".into(), ns / 1e3);
    let ns = ns_per_call(|| {
        black_box(store.restore_at_or_before(0, black_box(it)));
    });
    m.insert("faults.ckpt_restore_us.mlp1024".into(), ns / 1e3);
    let view = MembershipView::all_alive(REAL_WORKERS);
    let mut round = 0u64;
    let ns = ns_per_call(|| {
        round += 1;
        black_box(view.live_at(black_box(round)));
    });
    m.insert("faults.live_at_ns".into(), ns);
}

// ----------------------------------------------------------------- obs --

fn obs_layer(m: &mut Metrics) {
    // Interleaved A/B: every batch times the enabled and the disabled
    // handle back to back, so drift hits both sides and the difference
    // cannot come out negative the way two separate runs' can.
    const CALLS: u64 = 50_000;
    let enabled = ObsSink::with_capacity(1 << 12).track(Track::Worker(0));
    let disabled = ObsSink::disabled().track(Track::Worker(0));
    let time = |h: &dtrain_obs::TrackHandle| {
        let t = Instant::now();
        for i in 0..CALLS {
            h.span(black_box(i), 1, "compute", i);
        }
        t.elapsed().as_nanos() as f64 / CALLS as f64
    };
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        on.push(time(&enabled));
        off.push(time(&disabled));
    }
    m.insert("obs.record_ns_enabled".into(), median(&on));
    m.insert("obs.record_ns_disabled".into(), median(&off));
}

// --------------------------------------------------------------- sched --

fn sched_layer(m: &mut Metrics, seed: u64) {
    let cluster = ClusterConfig::paper(NetworkConfig::TEN_GBPS);
    let mut jobs = generate_trace(&TraceConfig {
        jobs: 4,
        seed: derive_seed(seed, 33),
        machines: cluster.machines,
        iters_scale: 0.05,
        ..Default::default()
    });
    // Cost-only: the real-math job kind would time nn, not the scheduler.
    for j in &mut jobs {
        if j.model.is_real_math() {
            j.model = ModelKind::ResNet50;
            j.batch = ModelKind::ResNet50.batch();
        }
    }
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(run_scheduler(
                &cluster,
                Policy::Pack,
                &jobs,
                &ObsSink::disabled(),
            ));
            t.elapsed().as_nanos() as f64 / 1e6
        })
        .collect();
    m.insert("sched.study_wall_ms".into(), median(&runs));
}
