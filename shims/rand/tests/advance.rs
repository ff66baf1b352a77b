//! `SmallRng::advance(n)` lands exactly where `n` calls to `next_u64` do,
//! and jumps compose.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

const SEEDS: [u64; 4] = [0, 1, 0xD6E8_FEB8_6659_FD93, u64::MAX];

/// The stream `count` outputs from where `rng` stands, without moving it.
fn outputs(rng: &SmallRng, count: usize) -> Vec<u64> {
    let mut r = rng.clone();
    (0..count).map(|_| r.next_u64()).collect()
}

#[test]
fn advance_equals_stepping() {
    for seed in SEEDS {
        let start = SmallRng::seed_from_u64(seed);
        let mut stepped = start.clone();
        let mut done = 0u64;
        for n in [0u64, 1, 2, 255, 256, 257, (1 << 24) + 7] {
            while done < n {
                stepped.next_u64();
                done += 1;
            }
            let mut jumped = start.clone();
            jumped.advance(n);
            assert_eq!(jumped.state(), stepped.state(), "seed {seed:#x}, n = {n}");
            assert_eq!(outputs(&jumped, 8), outputs(&stepped, 8));
        }
    }
}

#[test]
fn advances_compose() {
    let pairs = [
        (0u64, 5u64),
        (3, 0),
        (255, 2),
        (1000, 12_345),
        (1 << 40, (1 << 33) + 1),
    ];
    for seed in SEEDS {
        for (a, b) in pairs {
            let mut once = SmallRng::seed_from_u64(seed);
            once.advance(a + b);
            let mut twice = SmallRng::seed_from_u64(seed);
            twice.advance(a);
            twice.advance(b);
            assert_eq!(once.state(), twice.state(), "seed {seed:#x}, {a} + {b}");
        }
    }
}

#[test]
fn a_rebuilt_generator_continues_the_stream() {
    let mut rng = SmallRng::seed_from_u64(42);
    rng.next_u64();
    let rebuilt = SmallRng::from_state(rng.state());
    assert_eq!(outputs(&rebuilt, 16), outputs(&rng, 16));
}
