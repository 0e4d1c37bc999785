//! Property tests of the shard-block wire form: every serialized block must
//! round-trip bit-for-bit through the NDJSON encoding, and a single flipped
//! bit anywhere in the payload must fail the checksum. A second battery
//! checks that the two JSON writers — whole values (`Json::to_line`) and the
//! streaming trace `EventBuilder` — escape strings and write floats alike.

use std::sync::Arc;

use dipe::remote::RemoteBlock;
use dipe::sampler::CycleCounts;
use dipe::{InputStreamState, SamplerState};
use dipe_serve::worker::{block_from_json, block_to_json};
use dipe_serve::Json;
use proptest::prelude::*;
use seqstats::{MomentAccumulatorState, PooledSampleState};
use telemetry::{BufferSink, EventBuilder, Tracer};

/// Assembles a block from independently fuzzed raw components. Booleans
/// arrive as `0u64..2` vectors (the vendored proptest has no tuple or bool
/// strategies) and `counters` carries `[trace_cursor, zero, measured]`.
#[allow(clippy::too_many_arguments)]
fn build_block(
    stream: u32,
    block_index: u64,
    power_bits: Vec<u64>,
    rng: Vec<u64>,
    previous: Vec<u64>,
    latches: Vec<u64>,
    pattern: Vec<u64>,
    counters: Vec<u64>,
    with_accumulator: u64,
    node_totals: Vec<u64>,
) -> RemoteBlock {
    let end_state = SamplerState {
        input_stream: InputStreamState {
            rng_state: [rng[0], rng[1], rng[2], rng[3]],
            has_previous: !previous.is_empty(),
            previous: previous.iter().map(|&b| b == 1).collect(),
            trace_cursor: counters[0],
        },
        latch_state: latches.iter().map(|&b| b == 1).collect(),
        input_pattern: pattern.iter().map(|&b| b == 1).collect(),
        cycle_counts: CycleCounts {
            zero_delay_cycles: counters[1],
            measured_cycles: counters[2],
        },
    };
    let accumulator = (with_accumulator == 0).then(|| MomentAccumulatorState {
        observations: block_index + 1,
        totals: node_totals.clone(),
        totals_sq: node_totals.iter().map(|t| t * t).collect(),
        glitch_totals: node_totals.iter().map(|t| t / 2).collect(),
    });
    RemoteBlock::sealed(
        stream,
        block_index,
        PooledSampleState { bits: power_bits },
        accumulator,
        end_state,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Serialize → one NDJSON line → parse must reproduce the block exactly:
    /// every power bit pattern, every sampler-state field, the checksum.
    /// (NaN bit patterns are in the domain: the wire carries bits, not
    /// decimals, so they round-trip like any other value.)
    #[test]
    fn block_wire_form_round_trips_bit_for_bit(
        stream in 0u32..8,
        block_index in 0u64..1_000,
        power_bits in collection::vec(0u64..u64::MAX, 1usize..40),
        rng in collection::vec(0u64..u64::MAX, 4usize),
        previous in collection::vec(0u64..2, 0usize..9),
        latches in collection::vec(0u64..2, 1usize..7),
        pattern in collection::vec(0u64..2, 1usize..12),
        counters in collection::vec(0u64..1_000_000, 3usize),
        with_accumulator in 0u64..3,
        node_totals in collection::vec(0u64..10_000, 1usize..6),
    ) {
        let block = build_block(
            stream, block_index, power_bits, rng, previous, latches, pattern,
            counters, with_accumulator, node_totals,
        );
        let line = block_to_json(&block).to_line();
        let parsed = Json::parse(&line).expect("wire line parses");
        let back = block_from_json(&parsed).expect("wire block decodes");
        prop_assert_eq!(&back, &block);
        prop_assert!(back.verify(), "checksum must hold after a round trip");
    }

    /// Flipping one bit of any serialized field must fail verification —
    /// locally and after a full wire round trip on the far side.
    #[test]
    fn checksum_rejects_a_flipped_payload_bit(
        stream in 0u32..8,
        block_index in 0u64..1_000,
        power_bits in collection::vec(0u64..u64::MAX, 1usize..40),
        rng in collection::vec(0u64..u64::MAX, 4usize),
        previous in collection::vec(0u64..2, 0usize..9),
        latches in collection::vec(0u64..2, 1usize..7),
        pattern in collection::vec(0u64..2, 1usize..12),
        counters in collection::vec(0u64..1_000_000, 3usize),
        with_accumulator in 0u64..3,
        node_totals in collection::vec(0u64..10_000, 1usize..6),
        pick in 0u64..6,
        flip in 0u64..64,
    ) {
        let block = build_block(
            stream, block_index, power_bits, rng, previous, latches, pattern,
            counters, with_accumulator, node_totals,
        );
        let mut mutated = block.clone();
        let bit = 1u64 << (flip % 64);
        match pick {
            0 => mutated.stream ^= 1 << (flip % 3),
            1 => mutated.block_index ^= bit,
            2 => {
                let slot = (flip as usize) % mutated.powers.bits.len();
                mutated.powers.bits[slot] ^= bit;
            }
            3 => mutated.end_state.input_stream.rng_state[(flip as usize) % 4] ^= bit,
            4 => mutated.end_state.cycle_counts.measured_cycles ^= bit,
            _ => match &mut mutated.accumulator {
                Some(accumulator) => {
                    let slot = (flip as usize) % accumulator.totals.len();
                    accumulator.totals[slot] ^= bit;
                }
                None => mutated.end_state.cycle_counts.zero_delay_cycles ^= bit,
            },
        }
        prop_assert!(!mutated.verify(), "mutation must break the checksum");
        let line = block_to_json(&mutated).to_line();
        let back = block_from_json(&Json::parse(&line).expect("parses")).expect("decodes");
        prop_assert!(!back.verify(), "corruption must survive the wire");
    }
}

/// A string of arbitrary scalar values, with ASCII (quotes, backslashes and
/// control characters included) interleaved so escapes are common. Code
/// points `char` cannot hold (surrogates) are skipped.
fn string_of(points: Vec<u32>, ascii: Vec<u32>) -> String {
    (0..points.len().max(ascii.len()))
        .flat_map(|i| [points.get(i), ascii.get(i)])
        .flatten()
        .filter_map(|&point| char::from_u32(point))
        .collect()
}

/// Emits one trace event into a fresh buffer sink and parses the line back.
fn traced(fill: impl FnOnce(&mut EventBuilder)) -> Json {
    let sink = Arc::new(BufferSink::bounded(1));
    Tracer::to_sink(sink.clone()).emit("prop", fill);
    let lines = sink.lines();
    Json::parse(&lines[0]).expect("trace line parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A string written by either writer parses back to itself.
    #[test]
    fn strings_round_trip_through_both_writers(
        points in collection::vec(0u32..0x11_0000, 0usize..64),
        ascii in collection::vec(0u32..0x80, 0usize..64),
    ) {
        let s = string_of(points, ascii);
        let line = Json::str(s.as_str()).to_line();
        let value = Json::parse(&line).expect("value line parses");
        prop_assert_eq!(value.as_str(), Some(s.as_str()));
        let event = traced(|e| {
            e.field_str("k", &s);
        });
        prop_assert_eq!(event.get("k").and_then(Json::as_str), Some(s.as_str()));
    }

    /// The trace's decimal field and `Json::f64` parse to the same bits when
    /// finite and are both `null` otherwise; the `_bits` field is exact.
    #[test]
    fn floats_agree_between_both_writers(
        random in 0u64..u64::MAX,
        special in 0u64..8,
    ) {
        let bits = match special {
            0 => f64::NAN.to_bits(),
            1 => f64::INFINITY.to_bits(),
            2 => f64::NEG_INFINITY.to_bits(),
            3 => (-0.0f64).to_bits(),
            4 => 1,
            _ => random,
        };
        let v = f64::from_bits(bits);
        let value = Json::parse(&Json::f64(v).to_line()).expect("value parses");
        let event = traced(|e| {
            e.field_f64_bits("v", v);
        });
        let decimal = event.get("v").expect("decimal field");
        if v.is_finite() {
            prop_assert_eq!(value.as_f64().map(f64::to_bits), Some(bits));
            prop_assert_eq!(decimal.as_f64().map(f64::to_bits), Some(bits));
        } else {
            prop_assert!(value.is_null() && decimal.is_null(), "{}", event.to_line());
        }
        prop_assert_eq!(event.get("v_bits").and_then(Json::as_u64), Some(bits));
    }
}
