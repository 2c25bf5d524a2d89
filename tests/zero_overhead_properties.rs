//! Property-based integration tests of the invariants the paper's argument
//! rests on: traffic reshaping adds no bytes and loses no packets, for every
//! scheduling algorithm, every application and arbitrary seeds — while the
//! byte-adding defenses never shrink a packet.

use defenses::morphing::{paper_morphing_target, TrafficMorpher};
use defenses::padding::PacketPadder;
use proptest::prelude::*;
use traffic_reshaping::reshape::ranges::SizeRanges;
use traffic_reshaping::reshape::reshaper::Reshaper;
use traffic_reshaping::reshape::scheduler::{
    OrthogonalModulo, OrthogonalRanges, RandomAssign, ReshapeAlgorithm, RoundRobin,
};
use traffic_reshaping::traffic::app::AppKind;
use traffic_reshaping::traffic::generator::SessionGenerator;

fn any_app() -> impl Strategy<Value = AppKind> {
    prop::sample::select(AppKind::ALL.to_vec())
}

fn algorithms(interfaces: usize, seed: u64) -> Vec<Box<dyn ReshapeAlgorithm>> {
    vec![
        Box::new(RandomAssign::new(interfaces, seed)),
        Box::new(RoundRobin::new(interfaces)),
        Box::new(OrthogonalRanges::with_interfaces(
            SizeRanges::paper_default(),
            interfaces.min(3),
        )),
        Box::new(OrthogonalModulo::new(interfaces)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn reshaping_conserves_packets_and_bytes(app in any_app(), seed in 0u64..1000, interfaces in 1usize..5) {
        let trace = SessionGenerator::new(app, seed).generate_secs(6.0);
        for algorithm in algorithms(interfaces, seed) {
            let mut reshaper = Reshaper::new(algorithm);
            let outcome = reshaper.reshape(&trace);
            prop_assert_eq!(outcome.total_packets(), trace.len());
            prop_assert_eq!(outcome.total_bytes(), trace.total_bytes());
            // The sub-flows are disjoint in cardinality: no packet is duplicated.
            let per_interface: usize = outcome.sub_traces().iter().map(|t| t.len()).sum();
            prop_assert_eq!(per_interface, trace.len());
        }
    }

    #[test]
    fn orthogonal_sub_flows_never_mix_size_ranges(seed in 0u64..500) {
        let ranges = SizeRanges::paper_default();
        let trace = SessionGenerator::new(AppKind::BitTorrent, seed).generate_secs(6.0);
        let mut reshaper = Reshaper::new(Box::new(OrthogonalRanges::new(ranges.clone())));
        let outcome = reshaper.reshape(&trace);
        for (i, sub) in outcome.sub_traces().iter().enumerate() {
            for packet in sub.packets() {
                prop_assert_eq!(ranges.range_of(packet.size), i);
            }
        }
    }

    #[test]
    fn padding_and_morphing_never_shrink_packets(app in any_app(), seed in 0u64..500) {
        let trace = SessionGenerator::new(app, seed).generate_secs(6.0);
        let (padded, pad_overhead) = PacketPadder::new().apply(&trace);
        prop_assert_eq!(padded.len(), trace.len());
        for (before, after) in trace.packets().iter().zip(padded.packets()) {
            prop_assert!(after.size >= before.size);
            prop_assert_eq!(after.time, before.time);
        }
        prop_assert!(pad_overhead.percent() >= 0.0);

        let target_app = paper_morphing_target(app);
        let target = SessionGenerator::new(target_app, seed ^ 0xff).generate_secs(6.0);
        let (morphed, morph_overhead) =
            TrafficMorpher::from_target_trace(&target).apply(&trace);
        prop_assert_eq!(morphed.len(), trace.len());
        for (before, after) in trace.packets().iter().zip(morphed.packets()) {
            prop_assert!(after.size >= before.size);
        }
        prop_assert!(morph_overhead.percent() >= 0.0);
    }
}
