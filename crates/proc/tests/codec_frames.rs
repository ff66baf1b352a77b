//! Wire-format tests: frame + payload round trips under arbitrary sizes,
//! malformed frames (truncated prefix, oversized length, bad version)
//! that must come back as errors, never panics, the CRC (whichever tier
//! `crc.rs` selects here; its unit tests compare the tiers) against a
//! bit-at-a-time oracle, and frames recorded with earlier encoders: two
//! from the PR 13 encoder, and one of every message variant from the
//! protocol v2 encoder. Protocol v3 refuses those frames by their version
//! byte but kept every payload layout except `BspResult`'s, whose v3
//! frame is pinned on its own. The model-sized payloads a BSP run writes
//! from sets it only lends — the worker's push from its network's
//! gradients, the coordinator's answers from the server's globals — and
//! decodes straight into a network's parameters are held to the bytes and
//! bits of the owned-message path.

use std::io::{self, Cursor, Write};

use dtrain_faults::PsState;
use dtrain_nn::ParamSet;
use dtrain_proc::codec::{
    crc32, encode_frame, read_frame, read_frame_into, write_frame, CodecError, Dec, Enc,
    MAX_PAYLOAD, PROTO_VERSION,
};
use dtrain_proc::proto::{self, Msg};
use dtrain_tensor::Tensor;
use proptest::prelude::*;

/// The test oracle: IEEE CRC-32 one bit at a time, no tables.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

/// Payload bytes whose length is as likely to leave the frame under the
/// CRC's 64-byte fold threshold (summed by the portable tier alone) as to
/// take it up to `max` (folded, with every `mod 64` and `mod 16` tail).
fn payload(max: usize) -> impl Strategy<Value = Vec<u8>> {
    (0usize..2).prop_flat_map(move |long| {
        prop::collection::vec(0u8..=255, 0..if long == 1 { max } else { 96 })
    })
}

/// Counts `write` calls and accepts every byte offered.
#[derive(Default)]
struct CountingWriter {
    writes: usize,
    bytes: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The CRC equals the bitwise oracle on any chunk list: chunk lengths
    /// straddle the 16-byte stride and the 64-byte fold block, so state
    /// carries across chunk boundaries in every phase of both.
    #[test]
    fn crc_fast_path_matches_bitwise_oracle(
        chunks in prop::collection::vec(payload(700), 0..8),
    ) {
        let refs: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
        prop_assert_eq!(crc32(&refs), crc32_bitwise(&chunks.concat()));
    }

    /// Any (type, seq, payload) round-trips through a frame byte-exactly.
    #[test]
    fn frame_round_trips(
        ty in 0u8..=255,
        seq in 0u32..=u32::MAX,
        payload in payload(4096),
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, ty, seq, &payload).expect("write");
        let (got_ty, got_seq, got_payload) = read_frame(&mut Cursor::new(&buf)).expect("read");
        prop_assert_eq!(got_ty, ty);
        prop_assert_eq!(got_seq, seq);
        prop_assert_eq!(got_payload, payload);
    }

    /// Flipping any single bit past the length prefix is caught by the
    /// CRC (never a panic, never a silent success). Bits inside the
    /// 6-byte prefix surface as BadVersion/Oversized/short-read instead;
    /// chaos injection therefore confines its flips to byte 6 onward.
    #[test]
    fn single_bit_corruption_is_always_detected(
        seq in 1u32..1000,
        payload in payload(700),
        bit_pick in 0usize..100_000,
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, seq, &payload).expect("write");
        let bit = 6 * 8 + bit_pick % ((buf.len() - 6) * 8);
        buf[bit / 8] ^= 1 << (bit % 8);
        match read_frame(&mut Cursor::new(&buf)) {
            Err(CodecError::BadCrc { expected, found }) => prop_assert_ne!(expected, found),
            other => prop_assert!(false, "corrupt frame must fail CRC, got {:?}", other),
        }
    }

    /// Parameter sets of arbitrary shape round-trip bit-exactly (the
    /// cross-path logical-bytes pins depend on exact f32 transport).
    #[test]
    fn params_round_trip_bit_exact(
        a in prop::collection::vec(-1e6f32..1e6, 1..40),
        b in prop::collection::vec(-1.0f32..1.0, 1..25),
        rows in 1usize..6,
    ) {
        let cols = b.len();
        let mat: Vec<f32> = (0..rows * cols).map(|i| a[i % a.len()] * 0.5).collect();
        let p = ParamSet(vec![
            Tensor::from_vec(&[a.len()], a.clone()),
            Tensor::from_vec(&[rows, cols], mat),
            Tensor::from_vec(&[b.len()], b.clone()),
        ]);
        let mut e = Enc::new();
        e.params(&p);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = d.params().expect("decode");
        d.done().expect("fully consumed");
        prop_assert_eq!(back.0.len(), p.0.len());
        for (t0, t1) in p.0.iter().zip(back.0.iter()) {
            prop_assert_eq!(t0.shape(), t1.shape());
            for (x, y) in t0.data().iter().zip(t1.data()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// On sets of any shape and any float bits, the frames written from
    /// lent sets are the owned messages' frames, byte for byte, and
    /// decoding into a congruent set gives `Dec::params`'s bits.
    #[test]
    fn lent_sets_encode_and_decode_as_owned_ones(p in param_set()) {
        let (push, answer, ack) = lent_frames(&p, 5);
        prop_assert_eq!(push, owned_frame(&exchange_of(&p), 5), "BspExchange");
        prop_assert_eq!(answer, owned_frame(&result_of(&p), 5), "BspResult");
        prop_assert_eq!(ack, owned_frame(&ack_of(&p), 5), "HelloAck");

        let mut e = Enc::new();
        e.params(&p);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let want = d.params().expect("decodes");
        d.done().expect("fully consumed");
        let mut got = ParamSet::zeros_like(&p);
        let mut d = Dec::new(&bytes);
        d.params_into(&mut got.0.iter_mut().collect::<Vec<_>>()).expect("fits");
        d.done().expect("fully consumed");
        prop_assert_eq!(bits(&got), bits(&want));
        prop_assert_eq!(bits(&got), bits(&p));
    }

    /// Truncating a valid frame anywhere must produce an error, not a
    /// panic or a bogus success.
    #[test]
    fn truncation_always_errors(
        payload in prop::collection::vec(0u8..=255, 0..256),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, 5, &payload).expect("write");
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        if cut < buf.len() {
            let res = read_frame(&mut Cursor::new(&buf[..cut]));
            prop_assert!(res.is_err(), "truncated at {cut}/{} must error", buf.len());
        }
    }
}

#[test]
fn crc_known_answers() {
    assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
    assert_eq!(crc32(&[]), 0);
    assert_eq!(crc32(&[b"", b""]), 0);
    assert_eq!(crc32(&[b"1234", b"", b"56789"]), 0xCBF4_3926);
}

/// Every way of cutting a buffer into three chunks gives the one sum, for
/// every length 0..=96 — all tails of the 16-byte stride, at every offset.
#[test]
fn crc_is_independent_of_chunking() {
    let bytes: Vec<u8> = (0..96u32).map(|i| (i * 37 + 11) as u8).collect();
    for len in 0..=bytes.len() {
        let buf = &bytes[..len];
        let whole = crc32_bitwise(buf);
        for i in 0..=len {
            for j in i..=len {
                assert_eq!(
                    crc32(&[&buf[..i], &buf[i..j], &buf[j..]]),
                    whole,
                    "len {len} split at {i},{j}"
                );
            }
        }
    }
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

/// A `name hex` fixture line holding a protocol v2 frame: the reader refuses
/// it with `BadVersion(2)`; taken apart by hand (its CRC still checks),
/// it gives `(name, type, seq, payload)`.
fn v2_frame(line: &str) -> (&str, u8, u32, Vec<u8>) {
    let (name, hex) = line.split_once(' ').expect("`name hex` per line");
    let frame = unhex(hex);
    match read_frame(&mut frame.as_slice()) {
        Err(CodecError::BadVersion(2)) => {}
        other => panic!("{name}: a v2 frame must be refused, got {other:?}"),
    }
    let word = |at: usize| u32::from_le_bytes(frame[at..at + 4].try_into().unwrap());
    let (len, seq) = (word(2) as usize, word(6));
    assert_eq!(frame.len(), 10 + len + 4, "{name}: frame length");
    assert_eq!(crc32(&[&frame[1..10 + len]]), word(10 + len), "{name}: crc");
    (name, frame[1], seq, frame[10..10 + len].to_vec())
}

/// `fixtures/frames_v2_parent.hex` holds one `BspExchange` and one
/// `BspResult` frame written by the PR 13 encoder (bytewise CRC, per-float
/// codec, three-part `write_frame`). Protocol v3 refuses both frames; the
/// `BspExchange` payload, which v3 left alone, still decodes to the
/// recorded values and re-encodes to the recorded bytes.
#[test]
fn parent_recorded_frames_are_refused_and_their_exchange_payload_holds() {
    assert_eq!(PROTO_VERSION, 3);
    let fixture = include_str!("fixtures/frames_v2_parent.hex");
    let frames: Vec<_> = fixture.lines().map(v2_frame).collect();
    let names: Vec<&str> = frames.iter().map(|f| f.0).collect();
    assert_eq!(names, ["bsp_exchange", "bsp_result"]);
    let (_, ty, _, payload) = &frames[0];
    let msg = Msg::decode(*ty, payload).expect("payload decodes");
    let Msg::BspExchange { round: 7, grad, .. } = &msg else {
        panic!("unexpected fixture entry {msg:?}");
    };
    // NaN payloads, -0.0 and subnormals arrive as recorded.
    let bits: Vec<u32> = grad.0[0].data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits[..3], [0x7FC1_2345, 0xFFA0_0001, 0x8000_0000]);
    assert_eq!(&msg.encode(), &(*ty, payload.clone()), "payload bytes");
}

/// `fixtures/frames_parent.hex` holds one frame of every variant of
/// [`one_of_each`], each with seq = its line number, recorded with the
/// protocol v2 encoder before v3. The reader refuses every one of them by
/// its version byte, but every payload except `BspResult`'s kept its type
/// byte and its bytes: each decodes to the message it was recorded from
/// and re-encodes to the recorded payload.
#[test]
fn parent_payloads_of_every_variant_but_bsp_result_are_unchanged() {
    let fixture = include_str!("fixtures/frames_parent.hex");
    let want = one_of_each();
    let frames: Vec<_> = fixture.lines().map(v2_frame).collect();
    let names: Vec<&str> = frames.iter().map(|f| f.0).collect();
    let expected: Vec<&str> = want.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, expected, "one line per variant, in order");
    for (i, ((name, ty, seq, payload), (_, msg))) in frames.into_iter().zip(want).enumerate() {
        assert_eq!(seq, i as u32 + 1, "{name}: seq");
        if name == "bsp_result" {
            continue; // its new layout is pinned below
        }
        let back = Msg::decode(ty, &payload).expect("payload decodes");
        assert_eq!(format!("{back:?}"), format!("{msg:?}"), "{name}: values");
        assert_eq!(
            msg.encode(),
            (ty, payload),
            "{name}: type and payload bytes"
        );
    }
}

/// `BspResult` is the one payload protocol v3 changed: the v2 payload with
/// the `checkpoint` byte after `leader`. `fixtures/frames_v3.hex` pins the
/// v3 frame, which re-encodes byte-identically both ways: the public two
/// steps, and in place in one frame buffer as the transports do.
#[test]
fn bsp_result_gained_one_checkpoint_byte() {
    let (_, msg) = one_of_each()
        .into_iter()
        .find(|(name, _)| *name == "bsp_result")
        .expect("listed");
    let parent = include_str!("fixtures/frames_parent.hex");
    let line = parent.lines().find(|l| l.starts_with("bsp_result "));
    let (_, v2_ty, seq, v2) = v2_frame(line.expect("recorded"));

    let fixture = include_str!("fixtures/frames_v3.hex");
    let (name, hex) = fixture.trim_end().split_once(' ').expect("`name hex`");
    assert_eq!(name, "bsp_result");
    let recorded = unhex(hex);
    let (ty, rseq, payload) = read_frame(&mut recorded.as_slice()).expect("frame reads");
    assert_eq!((ty, rseq), (v2_ty, seq));
    let back = Msg::decode(ty, &payload).expect("payload decodes");
    assert_eq!(format!("{back:?}"), format!("{msg:?}"), "values");
    let mut spliced = v2.clone();
    spliced.insert(1, 1); // leader, then checkpoint = true
    assert_eq!(payload, spliced, "v2 payload plus the checkpoint byte");

    let mut two_step = Vec::new();
    write_frame(&mut two_step, ty, seq, &msg.encode().1).expect("write");
    assert_eq!(two_step, recorded, "write_frame bytes");
    let mut in_place = vec![0xEE; 7]; // stale contents must not leak
    assert_eq!(encode_frame(&mut in_place, seq, |e| msg.encode_into(e)), ty);
    assert_eq!(in_place, recorded, "encode_frame bytes");
}

/// The bulk float path is a bit-for-bit move: no value is canonicalised.
#[test]
fn special_f32_bit_patterns_survive_params() {
    let bits = [
        0x7FC1_2345u32, // quiet NaN with payload
        0x7F80_0001,    // signalling NaN
        0xFFFF_FFFF,    // negative NaN, all payload bits
        0x8000_0000,    // -0.0
        0x0000_0001,    // smallest subnormal
        0x807F_FFFF,    // largest negative subnormal
        0x7F80_0000,    // +inf
        0xFF80_0000,    // -inf
        0x0000_0000,
        0x3F80_0000,
    ];
    let p = ParamSet(vec![Tensor::from_vec(
        &[2, 5],
        bits.iter().map(|&b| f32::from_bits(b)).collect(),
    )]);
    let mut e = Enc::new();
    e.params(&p);
    let bytes = e.into_bytes();
    let mut d = Dec::new(&bytes);
    let back = d.params().expect("decode");
    d.done().expect("fully consumed");
    let got: Vec<u32> = back.0[0].data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, bits);
}

/// Sets of 1–4 tensors of rank 0–3, dims 1–5, any float bits.
fn param_set() -> impl Strategy<Value = ParamSet> {
    let tensor = prop::collection::vec(1usize..6, 0..4).prop_flat_map(|shape| {
        let n = shape.iter().product::<usize>();
        prop::collection::vec(0u32..=u32::MAX, n).prop_map(move |words| {
            Tensor::from_vec(&shape, words.into_iter().map(f32::from_bits).collect())
        })
    });
    prop::collection::vec(tensor, 1..5).prop_map(ParamSet)
}

fn bits(p: &ParamSet) -> Vec<u32> {
    let floats = p.0.iter().flat_map(|t| t.data());
    floats.map(|v| v.to_bits()).collect()
}

fn exchange_of(p: &ParamSet) -> Msg {
    Msg::BspExchange {
        round: 4,
        lr: 0.05,
        grad: p.clone(),
    }
}

fn result_of(p: &ParamSet) -> Msg {
    Msg::BspResult {
        leader: true,
        checkpoint: true,
        arrived: 3,
        expected: 4,
        params: p.clone(),
    }
}

fn ack_of(p: &ParamSet) -> Msg {
    Msg::HelloAck {
        start_round: 12,
        params: p.clone(),
    }
}

fn owned_frame(msg: &Msg, seq: u32) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame(&mut frame, seq, |e| msg.encode_into(e));
    frame
}

/// The frames of [`exchange_of`], [`result_of`] and [`ack_of`] as the real
/// paths write them from `p` lent: the push from a list of borrowed
/// tensors, as a worker lends its network's gradients, the answers from a
/// parameter server holding `p`, read under its lock.
fn lent_frames(p: &ParamSet, seq: u32) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let grads: Vec<&Tensor> = p.0.iter().collect();
    let ps = PsState::new(p.clone(), 0.9, 1e-4, 2);
    let mut push = vec![0xEE; 3]; // stale contents must not leak
    encode_frame(&mut push, seq, |e| proto::bsp_exchange(e, 4, 0.05, grads));
    let mut answer = Vec::new();
    encode_frame(&mut answer, seq, |e| {
        proto::bsp_result(e, true, true, 3, 4, &ps.global.lock().unwrap().0)
    });
    let mut ack = Vec::new();
    encode_frame(&mut ack, seq, |e| {
        proto::hello_ack(e, 12, &ps.global.lock().unwrap().0)
    });
    (push, answer, ack)
}

/// On [`one_of_each`]'s set (a NaN with a payload, −0.0, a subnormal,
/// +inf) and on one holding −inf and a signalling NaN, the lent frames are
/// the owned messages' frames; for the `BspResult`, that is also the frame
/// `fixtures/frames_v3.hex` recorded.
#[test]
fn lent_sets_give_the_owned_frames_on_special_floats() {
    let owned = one_of_each();
    let find = |name: &str| &owned.iter().find(|(n, _)| *n == name).expect("listed").1;
    let Msg::BspExchange { grad: p, .. } = find("bsp_exchange") else {
        panic!("bsp_exchange carries a set");
    };
    let mut q = p.clone();
    q.0[1].data_mut()[0] = f32::NEG_INFINITY;
    q.0[1].data_mut()[2] = f32::from_bits(0x7F80_0001);
    for (seq, set) in [(16, p), (17, &q)] {
        let (push, answer, ack) = lent_frames(set, seq);
        assert_eq!(push, owned_frame(&exchange_of(set), seq), "BspExchange");
        assert_eq!(answer, owned_frame(&result_of(set), seq), "BspResult");
        assert_eq!(ack, owned_frame(&ack_of(set), seq), "HelloAck");
    }
    assert_eq!(
        owned_frame(&exchange_of(p), 16),
        owned_frame(find("bsp_exchange"), 16)
    );
    assert_eq!(
        owned_frame(&result_of(p), 17),
        owned_frame(find("bsp_result"), 17)
    );
    assert_eq!(
        owned_frame(&ack_of(p), 2),
        owned_frame(find("hello_ack"), 2)
    );
    let fixture = include_str!("fixtures/frames_v3.hex");
    let (_, hex) = fixture.trim_end().split_once(' ').expect("`name hex`");
    assert_eq!(lent_frames(p, 17).1, unhex(hex), "the recorded v3 frame");
}

/// Decoding into a set that does not fit — another tensor count, rank or
/// dim — or from a payload cut anywhere short is `Malformed`, never a
/// panic, and leaves every float of the destination as it was.
#[test]
fn params_into_refuses_what_does_not_fit_before_writing_a_float() {
    let p = ParamSet(vec![
        Tensor::from_vec(&[2, 3], (1..=6).map(|v| v as f32).collect()),
        Tensor::from_vec(&[4], vec![-1.0; 4]),
        Tensor::from_vec(&[], vec![9.5]),
    ]);
    let mut e = Enc::new();
    e.params(&p);
    let bytes = e.into_bytes();
    let sentinel = |shapes: &[&[usize]]| -> ParamSet {
        ParamSet(shapes.iter().map(|s| Tensor::full(s, 7.0)).collect())
    };
    let refuse = |bytes: &[u8], mut dst: ParamSet, case: &str| {
        let before = bits(&dst);
        let got = Dec::new(bytes).params_into(&mut dst.0.iter_mut().collect::<Vec<_>>());
        assert!(
            matches!(got, Err(CodecError::Malformed(_))),
            "{case}: expected Malformed, got {got:?}"
        );
        assert_eq!(
            bits(&dst),
            before,
            "{case}: a destination float was written"
        );
    };
    refuse(&bytes, sentinel(&[&[2, 3], &[4]]), "one tensor fewer");
    refuse(
        &bytes,
        sentinel(&[&[2, 3], &[4], &[], &[1]]),
        "one tensor more",
    );
    refuse(
        &bytes,
        sentinel(&[&[2, 3], &[4], &[1]]),
        "rank of the last tensor",
    );
    refuse(&bytes, sentinel(&[&[6], &[4], &[]]), "rank, same length");
    refuse(
        &bytes,
        sentinel(&[&[2, 3], &[2, 2], &[]]),
        "rank of a middle tensor",
    );
    refuse(&bytes, sentinel(&[&[3, 2], &[4], &[]]), "dim, same length");
    refuse(
        &bytes,
        sentinel(&[&[2, 3], &[5], &[]]),
        "dim of a middle tensor",
    );
    // The wire's `[2, 3]` read as a `[2]`: only the rank tells them apart.
    let mut e = Enc::new();
    e.params(&ParamSet(vec![p.0[0].clone()]));
    refuse(&e.into_bytes(), sentinel(&[&[2]]), "rank, first dim equal");
    for cut in 0..bytes.len() {
        let dst = sentinel(&[&[2, 3], &[4], &[]]);
        refuse(&bytes[..cut], dst, &format!("cut at {cut}"));
    }

    let mut dst = sentinel(&[&[2, 3], &[4], &[]]);
    Dec::new(&bytes)
        .params_into(&mut dst.0.iter_mut().collect::<Vec<_>>())
        .expect("the congruent set fits");
    assert_eq!(bits(&dst), bits(&p));
}

/// A frame is one buffer and one `write` — header, payload and trailer
/// are not three segments on a `TCP_NODELAY` socket.
#[test]
fn a_frame_is_one_write() {
    let grad = ParamSet(vec![Tensor::from_vec(&[4096], vec![0.25; 4096])]);
    let msg = Msg::BspExchange {
        round: 1,
        lr: 0.1,
        grad,
    };
    let (ty, payload) = msg.encode();
    assert!(payload.len() >= 8 << 10);

    let mut w = CountingWriter::default();
    write_frame(&mut w, ty, 9, &payload).expect("write");
    assert_eq!(w.writes, 1, "write_frame");
    let framed = std::mem::take(&mut w.bytes);

    let mut w = CountingWriter::default();
    msg.write_to(&mut w, 9).expect("write");
    assert_eq!(w.writes, 1, "Msg::write_to");
    assert_eq!(w.bytes, framed);
}

/// A length prefix inside the cap but with nothing behind it is an I/O
/// error, and the reader's buffer never grew towards the claimed length.
#[test]
fn hostile_length_prefix_then_eof_allocates_nothing_like_it() {
    let mut buf = vec![PROTO_VERSION, 3];
    buf.extend_from_slice(&MAX_PAYLOAD.to_le_bytes());
    buf.extend_from_slice(&7u32.to_le_bytes()); // seq
    buf.extend_from_slice(&[0xAA; 100]); // a sliver of "payload", then EOF
    let mut payload = Vec::new();
    match read_frame_into(&mut buf.as_slice(), &mut payload) {
        Err(CodecError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
        other => panic!("expected Io(UnexpectedEof), got {other:?}"),
    }
    assert!(
        payload.capacity() < 4096,
        "buffer grew to {} for a {MAX_PAYLOAD}-byte claim backed by 100 bytes",
        payload.capacity()
    );
}

#[test]
fn truncated_length_prefix_errors() {
    // Version + type + only 2 of the 4 length bytes.
    let buf = [PROTO_VERSION, 3, 0x10, 0x00];
    match read_frame(&mut Cursor::new(&buf[..])) {
        Err(CodecError::Io(_)) => {}
        other => panic!("expected Io error for truncated prefix, got {other:?}"),
    }
}

#[test]
fn oversized_length_errors_without_allocating() {
    let mut buf = vec![PROTO_VERSION, 3];
    buf.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    // No payload follows — if the cap weren't checked first this would
    // try to allocate and read 64 MiB + 1.
    match read_frame(&mut Cursor::new(&buf)) {
        Err(CodecError::Oversized(n)) => assert_eq!(n, MAX_PAYLOAD + 1),
        other => panic!("expected Oversized, got {other:?}"),
    }
}

#[test]
fn bad_version_byte_errors() {
    let mut buf = vec![PROTO_VERSION ^ 0xFF, 3];
    buf.extend_from_slice(&4u32.to_le_bytes());
    buf.extend_from_slice(&[1, 2, 3, 4]);
    match read_frame(&mut Cursor::new(&buf)) {
        Err(CodecError::BadVersion(v)) => assert_eq!(v, PROTO_VERSION ^ 0xFF),
        other => panic!("expected BadVersion, got {other:?}"),
    }
}

#[test]
fn unknown_message_type_errors() {
    match Msg::decode(0xEE, &[]) {
        Err(CodecError::BadType(0xEE)) => {}
        other => panic!("expected BadType, got {other:?}"),
    }
}

#[test]
fn malformed_payloads_error_not_panic() {
    // Tensor count claims more tensors than bytes remain.
    let mut e = Enc::new();
    e.u32(1000);
    let bytes = e.into_bytes();
    assert!(Dec::new(&bytes).params().is_err());

    // Dim product overflows / exceeds payload.
    let mut e = Enc::new();
    e.u32(1).u8(2).u32(u32::MAX).u32(u32::MAX);
    let bytes = e.into_bytes();
    assert!(Dec::new(&bytes).params().is_err());

    // Trailing garbage after a valid message is rejected.
    let (ty, mut payload) = Msg::Heartbeat { round: 9 }.encode();
    payload.push(0xAB);
    assert!(Msg::decode(ty, &payload).is_err());

    // A structurally-valid frame whose payload is cut mid-tensor.
    let p = ParamSet(vec![Tensor::from_vec(&[8], vec![1.0; 8])]);
    let mut e = Enc::new();
    e.params(&p);
    let bytes = e.into_bytes();
    assert!(Dec::new(&bytes[..bytes.len() - 3]).params().is_err());
}

/// One message of every variant, named as `fixtures/frames_parent.hex`
/// names its lines (which hold them as protocol v2 wrote them: `BspResult`
/// without its `checkpoint`). The parameter set holds a NaN with a payload, −0.0, a
/// subnormal and +inf, so a codec that canonicalises a float shows.
fn one_of_each() -> Vec<(&'static str, Msg)> {
    let p = || {
        ParamSet(vec![
            Tensor::from_vec(&[2, 2], vec![0.5, -1.5, f32::from_bits(0x7FC1_2345), -0.0]),
            Tensor::from_vec(&[3], vec![f32::from_bits(1), f32::INFINITY, 3.25]),
        ])
    };
    vec![
        ("hello", Msg::Hello { worker: 3 }),
        (
            "hello_ack",
            Msg::HelloAck {
                start_round: 12,
                params: p(),
            },
        ),
        ("heartbeat", Msg::Heartbeat { round: 40 }),
        ("heartbeat_ack", Msg::HeartbeatAck { checkpoint: true }),
        ("membership", Msg::Membership { round: 5 }),
        (
            "live_set",
            Msg::LiveSet {
                live: vec![0, 2, 3],
            },
        ),
        ("snapshot", Msg::Snapshot),
        ("params", Msg::Params { params: p() }),
        (
            "asp_push_pull",
            Msg::AspPushPull {
                grad: p(),
                lr: 0.01,
            },
        ),
        (
            "ssp_push",
            Msg::SspPush {
                delta: p(),
                lr: 0.02,
            },
        ),
        ("ok", Msg::Ok),
        (
            "easgd_exchange",
            Msg::EasgdExchange {
                params: p(),
                alpha: 0.125,
            },
        ),
        ("bump_clock", Msg::BumpClock { clock: 77 }),
        ("wait_min_clock", Msg::WaitMinClock { needed: 70 }),
        ("min_clock", Msg::MinClock { min: 71 }),
        (
            "bsp_exchange",
            Msg::BspExchange {
                round: 4,
                lr: 0.05,
                grad: p(),
            },
        ),
        (
            "bsp_result",
            Msg::BspResult {
                leader: true,
                checkpoint: true,
                arrived: 3,
                expected: 4,
                params: p(),
            },
        ),
        (
            "gossip_send",
            Msg::GossipSend {
                target: 1,
                alpha: 0.25,
                params: p(),
            },
        ),
        ("gossip_drain", Msg::GossipDrain),
        (
            "gossip_items",
            Msg::GossipItems {
                items: vec![(0.5, p()), (0.25, p())],
            },
        ),
        (
            "exchange_request",
            Msg::ExchangeRequest {
                target: 1,
                params: p(),
            },
        ),
        ("exchange_await", Msg::ExchangeAwait),
        ("gone", Msg::Gone),
        ("exchange_poll", Msg::ExchangePoll { block: true }),
        (
            "exchange_item",
            Msg::ExchangeItem {
                token: 9,
                params: p(),
            },
        ),
        ("peer_done", Msg::PeerDone),
        (
            "exchange_respond",
            Msg::ExchangeRespond {
                token: 9,
                params: p(),
            },
        ),
        ("announce_done", Msg::AnnounceDone),
        (
            "coll_send",
            Msg::CollSend {
                target: 2,
                params: p(),
            },
        ),
        ("coll_recv", Msg::CollRecv),
        (
            "coll_item",
            Msg::CollItem {
                sender: 1,
                params: p(),
            },
        ),
        (
            "bsp_partial",
            Msg::BspPartial {
                round: 6,
                lr: 0.03,
                weight: 2,
                leaders: 3,
                partial: p(),
            },
        ),
        (
            "ckpt_save",
            Msg::CkptSave {
                iteration: 30,
                params: p(),
            },
        ),
        ("ckpt_fetch", Msg::CkptFetch),
        (
            "ckpt_state",
            Msg::CkptState {
                iteration: 30,
                params: p(),
            },
        ),
        (
            "run_complete",
            Msg::RunComplete {
                iterations: 64,
                logical_bytes: 12800,
                busy_ms: 417,
                params: p(),
            },
        ),
        (
            "resume",
            Msg::Resume {
                worker: 2,
                last_seq: 41,
                attempt: 3,
            },
        ),
        ("resume_ack", Msg::ResumeAck),
    ]
}

#[test]
fn every_message_variant_round_trips() {
    for (name, msg) in one_of_each() {
        let (ty, payload) = msg.encode();
        let back = Msg::decode(ty, &payload).expect("decode");
        assert_eq!(
            format!("{back:?}"),
            format!("{msg:?}"),
            "{name}: variant must survive the wire"
        );
    }
}
