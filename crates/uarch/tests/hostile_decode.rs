//! Hostile input for every binary decoder: `Trace::from_bytes`,
//! `RunResult::from_bytes` and `Checkpoint::from_bytes` must return `Err`
//! — never panic, never accept — for arbitrary bytes, truncations, a
//! right magic over garbage, single corrupted bytes, and frames whose
//! section count or a section length is forged (with the checksum
//! re-sealed, so the structural checks themselves are exercised).

use std::sync::OnceLock;

use proptest::prelude::*;
use vpsim_isa::{frame, ProgramBuilder, Reg, Trace, TraceDecodeError};
use vpsim_uarch::tap::NullSink;
use vpsim_uarch::{Checkpoint, CoreConfig, RunResult, SampleConfig, Simulator};

/// A decoder under test, with its result discarded.
type Decoder = fn(&[u8]) -> Result<(), TraceDecodeError>;

/// The decoders under test, by index.
const DECODERS: [(&str, Decoder); 3] = [
    ("trace", |b| Trace::from_bytes(b).map(drop)),
    ("result", |b| RunResult::from_bytes(b).map(drop)),
    ("checkpoint", |b| Checkpoint::from_bytes(b).map(drop)),
];

/// One valid encoding per decoder, built once.
fn valid() -> &'static [Vec<u8>; 3] {
    static VALID: OnceLock<[Vec<u8>; 3]> = OnceLock::new();
    VALID.get_or_init(|| {
        let mut b = ProgramBuilder::new();
        let (i, n, x) = (Reg::int(1), Reg::int(2), Reg::int(3));
        b.load_imm(n, i64::MAX / 2);
        let top = b.bind_label();
        b.addi(i, i, 1);
        b.andi(x, i, 0x3F);
        b.shli(x, x, 3);
        b.load(x, x, 64);
        b.store(x, i, 128);
        b.blt(i, n, top);
        b.halt();
        let sim = Simulator::new(CoreConfig::default());
        let trace = Trace::capture(&b.build().unwrap(), sim.config().trace_budget(0, 4_000));
        let result = sim.replay(trace.cursor(), 0, 2_000, &mut NullSink);
        let sample = SampleConfig { intervals: 1, period: 1_000, warmup: 100 };
        let checkpoint = sim.sample_checkpoints(&trace, 500, 2_000, sample).remove(0);
        [trace.to_bytes(), result.to_bytes(), checkpoint.to_bytes()]
    })
}

/// Every decoder accepts its own valid encoding (the baseline the
/// hostile cases depart from).
#[test]
fn valid_encodings_decode() {
    for ((name, decode), bytes) in DECODERS.iter().zip(valid()) {
        assert_eq!(decode(bytes), Ok(()), "{name}");
    }
}

/// Overwrite the trailing checksum so the frame's integrity check passes.
fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let sum = frame::checksum(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decoders_reject_hostile_bytes(
        which in 0usize..3,
        noise in prop::collection::vec(any::<u8>(), 0..400),
        cut in any::<usize>(),
        at in any::<usize>(),
        byte in 1u8..=255,
        forged in any::<u64>(),
        nudge in 1u64..64,
        sections in 0usize..7,
    ) {
        let (name, decode) = DECODERS[which];
        let good = &valid()[which];
        let magic: &[u8; 8] = good[..8].try_into().unwrap();

        // Arbitrary bytes, bare and behind the right magic.
        prop_assert!(decode(&noise).is_err(), "{name}: noise accepted");
        let dressed: Vec<u8> = magic.iter().chain(&noise).copied().collect();
        prop_assert!(decode(&dressed).is_err(), "{name}: magic + noise accepted");

        // Any strict prefix.
        prop_assert!(decode(&good[..cut % good.len()]).is_err(), "{name}: prefix accepted");

        // One corrupted byte anywhere.
        let mut corrupt = good.clone();
        corrupt[at % good.len()] ^= byte;
        prop_assert!(decode(&corrupt).is_err(), "{name}: corrupt byte accepted");

        // Forged frame headers, checksum re-sealed. The run-result record
        // is not a frame.
        let ranges = match which {
            0 => frame::decode::<5>(magic, good).unwrap().to_vec(),
            2 => frame::decode::<2>(magic, good).unwrap().to_vec(),
            _ => Vec::new(),
        };
        if !ranges.is_empty() {
            // The wrong number of sections.
            if sections != ranges.len() {
                let len = noise.len();
                let parts: Vec<&[u8]> = (0..sections)
                    .map(|i| &noise[i * len / sections..(i + 1) * len / sections])
                    .collect();
                let wrong = frame::encode(magic, &parts);
                prop_assert!(decode(&wrong).is_err(), "{name}: {sections} sections accepted");
            }
            // One section length changed: to anything, or by a little.
            let field = ranges[at % ranges.len()].start - 8;
            let len = u64::from_le_bytes(good[field..field + 8].try_into().unwrap());
            for value in [forged, len.wrapping_add(nudge), len.wrapping_sub(nudge)] {
                if value == len {
                    continue;
                }
                let mut forged_frame = good.clone();
                forged_frame[field..field + 8].copy_from_slice(&value.to_le_bytes());
                reseal(&mut forged_frame);
                prop_assert!(decode(&forged_frame).is_err(), "{name}: length {value} accepted");
            }
        }
    }
}
