//! Bit-exact fixture for the synthetic datasets: `tests/golden/dataset_bits.digest`
//! holds one FNV-1a-64 line per dataset (input bits, then labels), and every
//! supported ISA tier must reproduce each line. The digest was recorded
//! once, with the sequential generator that preceded the lane kernel it
//! guards; a change that moves a line changed the data every accuracy
//! number is measured on — fix the change, do not re-record.
//!
//! The image cases cover the benchmark's sizes (`sim_math`, `thr_cnn`, the
//! scheduler's real-math jobs), the default config, a dataset with fewer
//! elements than generator lanes and one that leaves a remainder.

use std::fmt::Write as _;
use std::path::PathBuf;

use dtrain_data::{prototype_images, teacher_task, Dataset, ImageTaskConfig, TeacherTaskConfig};
use dtrain_tensor::simd::{supported_isas, with_isa};

/// FNV-1a-64 over the little-endian input bit patterns, then the labels.
fn fnv1a64(d: &Dataset) -> u64 {
    let (x, y) = d.as_batch();
    let bytes = x
        .data()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .chain(y.iter().flat_map(|&l| (l as u64).to_le_bytes()));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(name, C, side, classes, train, test, noise, seed)`.
type ImageCase = (&'static str, usize, usize, usize, usize, usize, f32, u64);

const IMAGE_CASES: [ImageCase; 6] = [
    ("sim_math", 3, 32, 8, 512, 128, 0.5, 0x51A7),
    ("thr_cnn", 3, 32, 8, 1024, 256, 0.5, 0x7C44),
    ("sched", 1, 8, 4, 64, 16, 0.5, 5),
    ("tiny_2x3x3", 2, 3, 2, 1, 1, 0.9, 17),
    ("rem_3x5x5", 3, 5, 3, 7, 3, 0.7, 23),
    ("default", 1, 12, 8, 4096, 1024, 0.9, 0),
];

fn digest() -> String {
    let mut out = String::new();
    for &(name, channels, side, num_classes, train_size, test_size, noise, seed) in &IMAGE_CASES {
        let cfg = ImageTaskConfig {
            channels,
            side,
            num_classes,
            train_size,
            test_size,
            noise,
            seed,
        };
        let (train, test) = prototype_images(&cfg);
        writeln!(out, "images {name} train {:016x}", fnv1a64(&train)).unwrap();
        writeln!(out, "images {name} test {:016x}", fnv1a64(&test)).unwrap();
    }
    let teachers = [
        ("default", TeacherTaskConfig::default()),
        (
            "2048+256",
            TeacherTaskConfig {
                train_size: 2048,
                test_size: 256,
                seed: 3,
                ..Default::default()
            },
        ),
    ];
    for (name, cfg) in teachers {
        let (train, test) = teacher_task(&cfg);
        writeln!(out, "teacher {name} train {:016x}", fnv1a64(&train)).unwrap();
        writeln!(out, "teacher {name} test {:016x}", fnv1a64(&test)).unwrap();
    }
    out
}

#[test]
fn dataset_bits_match_the_recorded_digest_on_every_tier() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/dataset_bits.digest");
    if std::env::var("DTRAIN_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, digest()).unwrap();
    }
    let want =
        std::fs::read_to_string(&path).expect("tests/golden/dataset_bits.digest is committed");
    for isa in supported_isas() {
        let got = with_isa(isa, digest);
        for (line, (w, g)) in want.lines().zip(got.lines()).enumerate() {
            assert_eq!(w, g, "line {} at {}", line + 1, isa.name());
        }
        assert_eq!(want.lines().count(), got.lines().count());
    }
}
