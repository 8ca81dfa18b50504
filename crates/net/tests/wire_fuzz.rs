//! Wire fuzzing of the two hot frames: a 316-reading `Response::Readings`
//! (one bulk read of the paper MSB fleet) and a mixed
//! `Request::ApplyCommandBatch`.
//!
//! Random bit flips followed by a random truncation must make the decoders
//! return `Err(WireError)` or a well-formed value, never panic. A value is
//! well-formed when it survives its own round trip: re-encoding it and
//! decoding that again gives the same bytes back. Bytes are compared, not
//! values, because a flipped `f64` may decode to NaN.

use proptest::prelude::*;
use recharge_battery::BbuState;
use recharge_dynamo::PowerReading;
use recharge_net::wire::{decode_request, decode_response, encode_request, encode_response};
use recharge_net::{AgentCommand, Request, Response};
use recharge_units::{Amperes, Dod, Priority, RackId, Watts};

const RACKS: u32 = 316;

fn readings_frame() -> Vec<u8> {
    let states = [
        BbuState::FullyCharged,
        BbuState::Charging,
        BbuState::Discharging,
        BbuState::FullyDischarged,
    ];
    let readings = (0..RACKS)
        .map(|i| {
            let x = f64::from(i);
            PowerReading {
                rack: RackId::new(i),
                priority: Priority::ALL[(i % 3) as usize],
                input_power_present: i % 7 != 0,
                it_load: Watts::new(6_000.0 + 3.1 * x),
                recharge_power: Watts::new(0.37 * x),
                bbu_state: states[(i % 4) as usize],
                event_dod: Dod::new((x / 400.0).min(1.0)),
                dod: Dod::new((x / 800.0).min(1.0)),
                capped_power: Watts::new(if i % 11 == 0 { 250.0 } else { 0.0 }),
            }
        })
        .collect();
    encode_response(0x1234_5678_9abc, &Response::Readings(readings))
}

fn command_batch_frame() -> Vec<u8> {
    let commands = (0..RACKS)
        .map(|i| {
            let rack = RackId::new(i);
            match i % 5 {
                0 => AgentCommand::SetChargeOverride(rack, Amperes::new(1.0 + f64::from(i % 9))),
                1 => AgentCommand::ClearChargeOverride(rack),
                2 => AgentCommand::SetChargePostponed(rack, i % 2 == 0),
                3 => AgentCommand::CapServers(rack, Watts::from_kilowatts(f64::from(i % 8))),
                _ => AgentCommand::UncapServers(rack),
            }
        })
        .collect();
    encode_request(42, &Request::ApplyCommandBatch(commands))
}

/// Flips the drawn bits, then keeps the drawn fraction of the frame. `keep`
/// is drawn from `[0, 2]` and capped at 1, so half the cases keep the whole
/// frame and reach the decoders with bit flips alone.
fn mutate(frame: &[u8], flips: &[(u32, u8)], keep: f64) -> Vec<u8> {
    let mut bytes = frame.to_vec();
    for &(at, bit) in flips {
        let i = at as usize % bytes.len();
        bytes[i] ^= 1 << bit;
    }
    bytes.truncate((keep.min(1.0) * bytes.len() as f64) as usize);
    bytes
}

fn flips() -> impl Strategy<Value = Vec<(u32, u8)>> {
    proptest::collection::vec((0u32..1_000_000, 0u8..8), 0..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_readings_frames_decode_or_fail_cleanly(
        flips in flips(),
        keep in 0.0f64..=2.0,
    ) {
        let bytes = mutate(&readings_frame(), &flips, keep);
        if let Ok((id, response)) = decode_response(&bytes) {
            let again = encode_response(id, &response);
            let (id2, response2) = decode_response(&again).expect("re-encoded frame decodes");
            prop_assert_eq!(encode_response(id2, &response2), again);
        }
    }

    #[test]
    fn mutated_command_batch_frames_decode_or_fail_cleanly(
        flips in flips(),
        keep in 0.0f64..=2.0,
    ) {
        let bytes = mutate(&command_batch_frame(), &flips, keep);
        if let Ok((id, request)) = decode_request(&bytes) {
            let again = encode_request(id, &request);
            let (id2, request2) = decode_request(&again).expect("re-encoded frame decodes");
            prop_assert_eq!(encode_request(id2, &request2), again);
        }
    }
}

/// The unmutated frames decode to exactly what was encoded.
#[test]
fn clean_frames_round_trip() {
    let frame = readings_frame();
    let (_, response) = decode_response(&frame).expect("decode");
    assert!(matches!(&response, Response::Readings(r) if r.len() == RACKS as usize));
    let frame = command_batch_frame();
    let (_, request) = decode_request(&frame).expect("decode");
    assert!(matches!(&request, Request::ApplyCommandBatch(c) if c.len() == RACKS as usize));
}
