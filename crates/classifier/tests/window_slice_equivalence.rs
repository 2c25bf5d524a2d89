//! The sliced windowing plane's acceptance contract.
//!
//! `StreamingWindower::push_slice` and `FlowWindowers::push_slice` fold a
//! staged slice through run-folding accumulators — one boundary compare per
//! run, one bank lookup per same-flow run — but every per-sample float
//! operation must happen in exactly the per-packet order, so the sliced and
//! per-packet paths are **bit-identical**, not merely close. These proptests
//! pin that contract over arbitrary packet streams (gaps straddling window
//! boundaries and the idle-gap filter, direction flips mid-slice, ties on
//! one timestamp) chopped at arbitrary LCG-drawn slice boundaries, in both
//! feature modes.

use classifier::stream::{FlowWindowers, StreamingWindower, WindowExample};
use classifier::window::FeatureMode;
use proptest::prelude::*;
use traffic_gen::app::AppKind;
use traffic_gen::packet::{Direction, PacketRecord};
use wlan_sim::time::{SimDuration, SimTime};

/// Deterministic splitmix-style step for drawing slice boundaries and flows.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A synthetic time-ordered stream: sizes, direction flips, and gaps drawn
/// from the case's seed. Gap steps span zero (timestamp ties), sub-window
/// jitter, window-boundary straddles, and idle gaps past the 1 s filter.
fn stream_of(seed: u64, len: usize, app: AppKind) -> Vec<PacketRecord> {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut t = 0.0f64;
    (0..len)
        .map(|_| {
            let r = lcg(&mut state);
            t += match r % 7 {
                0 => 0.0,
                1..=3 => (r % 997) as f64 * 1e-4,
                4 | 5 => 0.3 + (r % 100) as f64 * 1e-2,
                _ => 1.5 + (r % 400) as f64 * 1e-2,
            };
            let size = 40 + (lcg(&mut state) % 1460) as usize;
            let direction = if lcg(&mut state).is_multiple_of(2) {
                Direction::Downlink
            } else {
                Direction::Uplink
            };
            PacketRecord::new(SimTime::from_secs_f64(t), size, direction, app)
        })
        .collect()
}

/// Chops `len` items into runs at LCG-drawn boundaries (runs of 1..=17).
fn slice_plan(seed: u64, len: usize) -> Vec<usize> {
    let mut state = seed ^ 0xD1B5_4A32_D192_ED03;
    let mut cuts = Vec::new();
    let mut remaining = len;
    while remaining > 0 {
        let run = (1 + (lcg(&mut state) % 17) as usize).min(remaining);
        cuts.push(run);
        remaining -= run;
    }
    cuts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One windower: pushing arbitrary slices == pushing packet by packet,
    /// example for example, bit for bit, in both feature modes.
    #[test]
    fn push_slice_matches_per_packet_push(
        seed in 0u64..u64::MAX,
        len in 0usize..400,
        window_ms in prop::sample::select(vec![500u64, 2000, 5000]),
        min_packets in 1usize..4,
        timing_only in 0u8..2,
    ) {
        let mode = if timing_only == 1 { FeatureMode::TimingOnly } else { FeatureMode::Full };
        let app = AppKind::ALL[(seed % AppKind::COUNT as u64) as usize];
        let packets = stream_of(seed, len, app);
        let window = SimDuration::from_millis(window_ms);

        let mut reference = StreamingWindower::for_app(window, min_packets, mode, app);
        let mut expected: Vec<WindowExample> = Vec::new();
        for packet in &packets {
            expected.extend(reference.push(packet));
        }
        expected.extend(reference.finish());

        let mut sliced = StreamingWindower::for_app(window, min_packets, mode, app);
        let mut actual: Vec<WindowExample> = Vec::new();
        let mut rest = packets.as_slice();
        for run in slice_plan(seed, packets.len()) {
            let (slice, tail) = rest.split_at(run);
            sliced.push_slice(slice, &mut actual);
            rest = tail;
        }
        actual.extend(sliced.finish());

        prop_assert_eq!(expected, actual);
    }

    /// The bank: grouping a multi-flow staged slice into per-flow runs ==
    /// per-packet bank pushes, including first-appearance allocation order
    /// and close order across flows.
    #[test]
    fn flow_windowers_push_slice_matches_per_packet_push(
        seed in 0u64..u64::MAX,
        len in 0usize..400,
        flow_count in 1usize..5,
        timing_only in 0u8..2,
    ) {
        let mode = if timing_only == 1 { FeatureMode::TimingOnly } else { FeatureMode::Full };
        let app = AppKind::ALL[(seed % AppKind::COUNT as u64) as usize];
        let packets = stream_of(seed, len, app);
        let window = SimDuration::from_secs(2);
        let mut state = seed ^ 0xA076_1D64_78BD_642F;
        let flows: Vec<usize> = packets
            .iter()
            .map(|_| (lcg(&mut state) % flow_count as u64) as usize)
            .collect();

        let mut reference = FlowWindowers::for_app(window, 2, mode, app);
        let mut expected: Vec<WindowExample> = Vec::new();
        for (flow, packet) in flows.iter().zip(&packets) {
            expected.extend(reference.push(*flow, packet));
        }
        expected.extend(reference.finish());

        let mut sliced = FlowWindowers::for_app(window, 2, mode, app);
        let mut actual: Vec<WindowExample> = Vec::new();
        let mut offset = 0;
        for run in slice_plan(seed ^ 1, packets.len()) {
            sliced.push_slice(
                &flows[offset..offset + run],
                &packets[offset..offset + run],
                &mut actual,
            );
            offset += run;
        }
        actual.extend(sliced.finish());

        prop_assert_eq!(expected, actual);
    }
}
