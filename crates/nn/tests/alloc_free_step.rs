//! Zero-allocation regression: after a warm-up iteration, a steady-state
//! `train_batch` must perform **no heap allocations** in tensor temporaries,
//! over hundreds of steps that each bring a fresh input batch. Verified two
//! ways at once:
//!
//! 1. the arena's own `grown()` counter (requests the free list could not
//!    serve) must stay flat, and
//! 2. a counting `#[global_allocator]` must observe zero `alloc`/`realloc`
//!    calls across the measured steps — catching any allocation that leaks
//!    in *around* the arena too.
//!
//! Runs with `DTRAIN_THREADS=1`: multi-thread dispatch shares each parallel
//! region behind an `Arc` (one small allocation per kernel launch), which is
//! deliberate pool plumbing, not a tensor temporary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use dtrain_nn::{BatchNorm2d, Conv2d, Dense, Flatten, MaxPool2d, Network, Relu, Residual};
use dtrain_tensor::{Conv2dSpec, Tensor};
use rand::{rngs::SmallRng, SeedableRng};

struct CountingAlloc;

static HEAP_OPS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A model touching every layer kind: conv, batch-norm, ReLU, max-pool,
/// flatten, a residual block, and dense. Two convs: `c0` is the network's
/// first layer, whose input gradient is never computed, and `c1` sits
/// behind it, so its backward runs the input-gradient kernel too; `c1` also
/// carries a fused ReLU, whose mask comes from the arena.
fn build_net(seed: u64) -> Network {
    let mut rng = SmallRng::seed_from_u64(seed);
    let spec = |in_channels| Conv2dSpec {
        in_channels,
        out_channels: 4,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    Network::new(vec![
        Box::new(Conv2d::new("c0", spec(2), (8, 8), &mut rng)),
        Box::new(BatchNorm2d::new("bn0", 4)),
        Box::new(Relu::new("r0")),
        Box::new(MaxPool2d::new("p0", 2)),
        Box::new(Conv2d::new("c1", spec(4), (4, 4), &mut rng).with_relu()),
        Box::new(Flatten::new("fl")),
        Box::new(Residual::new(
            "res0",
            vec![
                Box::new(Dense::new("res0_d0", 64, 64, &mut rng)),
                Box::new(Relu::new("res0_r")),
            ],
        )),
        Box::new(Dense::new("head", 64, 4, &mut rng)),
    ])
}

#[test]
fn steady_state_training_step_allocates_nothing() {
    // Before any kernel runs: a 1-wide pool takes the sequential fast path,
    // so kernel launches themselves touch no heap either.
    std::env::set_var("DTRAIN_THREADS", "1");

    let mut rng = SmallRng::seed_from_u64(7);
    let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();
    let mut net = build_net(1);

    // Warm-up: populates the arena with every buffer size the step needs.
    for _ in 0..3 {
        let x = Tensor::randn(&[8, 2, 8, 8], 1.0, &mut rng);
        let (loss, _) = net.train_batch(x, &labels);
        assert!(loss.is_finite());
    }

    // A fresh batch every step, as a data pipeline hands them over, and
    // enough steps that an arena keeping each one would outgrow its parked
    // list. The batches are gathered *before* the window opens — their
    // allocation is the pipeline's, not the training step's.
    let batches: Vec<Tensor> = (0..STEPS)
        .map(|_| Tensor::randn(&[8, 2, 8, 8], 1.0, &mut rng))
        .collect();
    let mut losses = vec![0.0f32; STEPS];
    let grown_before = net.scratch_grown();
    let heap_before = HEAP_OPS.load(Ordering::Relaxed);

    for (slot, xb) in losses.iter_mut().zip(batches) {
        *slot = net.train_batch(xb, &labels).0;
    }

    let heap_delta = HEAP_OPS.load(Ordering::Relaxed) - heap_before;
    let grown_delta = net.scratch_grown() - grown_before;
    assert!(losses.iter().all(|l| l.is_finite()));
    assert_eq!(
        grown_delta, 0,
        "arena grew {grown_delta} time(s) over {STEPS} steady-state steps"
    );
    assert_eq!(
        heap_delta, 0,
        "{STEPS} steady-state train_batch calls performed {heap_delta} heap allocation(s)"
    );
    // The arena must actually be serving requests, not being bypassed.
    assert!(net.scratch_reused() > 0);
}

/// Measured steps: well past the ≈ 60 after which an arena that parks every
/// input batch fills its 64-buffer list and starts reallocating.
const STEPS: usize = 200;
