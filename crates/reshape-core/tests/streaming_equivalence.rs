//! The guarantee behind the one reshaping engine: streaming packets through
//! [`ReshapeStage`] at arbitrary slice boundaries produces **byte-identical**
//! per-packet assignments and sub-traces to the batch [`Reshaper`], for every
//! scheduling algorithm (RA/RR/OR/OR-mod), seed and interface count — and the
//! Eq. 1 realized distributions of the batch sub-traces are those of its
//! assignments, conserving the original traffic.

use defenses::stage::{PacketStage, StageOutput, ROOT_FLOW};
use proptest::prelude::*;
use reshape_core::optimizer::RealizedDistributions;
use reshape_core::ranges::SizeRanges;
use reshape_core::reshaper::Reshaper;
use reshape_core::scheduler::{
    OrthogonalModulo, OrthogonalRanges, RandomAssign, ReshapeAlgorithm, RoundRobin,
};
use reshape_core::stage::ReshapeStage;
use reshape_core::vif::VifIndex;
use traffic_gen::app::AppKind;
use traffic_gen::generator::SessionGenerator;
use traffic_gen::packet::PacketRecord;
use traffic_gen::spec::TrafficSpec;
use traffic_gen::stream::PacketSource;
use traffic_gen::trace::Trace;

/// Feeds `packets` through `stage` from [`ROOT_FLOW`] via `process_slice`,
/// cutting the stream at slice lengths drawn from a seeded LCG in
/// `1..=max_slice`, and returns each packet's interface (via `vif_of`)
/// together with the per-interface sub-traces it collected.
fn stream_sliced(
    stage: &mut ReshapeStage,
    packets: &[PacketRecord],
    app: Option<AppKind>,
    slice_seed: u64,
    max_slice: usize,
) -> (Vec<(usize, VifIndex)>, Vec<Trace>) {
    let mut lcg = slice_seed | 1;
    let mut batch = Vec::new();
    let mut out = StageOutput::new();
    let mut rest = packets;
    while !rest.is_empty() {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let len = (1 + (lcg >> 33) as usize % max_slice).min(rest.len());
        let (slice, tail) = rest.split_at(len);
        batch.clear();
        batch.extend(slice.iter().map(|p| (ROOT_FLOW, *p)));
        stage.process_slice(&batch, &mut out);
        rest = tail;
    }
    let mut subs = vec![Vec::new(); stage.interface_count()];
    let assignments = out
        .iter()
        .enumerate()
        .map(|(index, &(flow, packet))| {
            let vif = stage.vif_of(flow).expect("every output flow has a vif");
            subs[vif.index()].push(packet);
            (index, vif)
        })
        .collect();
    let subs = subs
        .into_iter()
        .map(|packets| Trace::from_packets(app, packets))
        .collect();
    (assignments, subs)
}

/// The four schedulers of Tables II and III, in the paper's order, over
/// `interfaces` virtual interfaces.
fn schedulers(interfaces: usize, seed: u64) -> [Box<dyn ReshapeAlgorithm>; 4] {
    let ranges = SizeRanges::for_interface_count(interfaces).expect("1..=4 interfaces");
    [
        Box::new(RandomAssign::new(interfaces, seed)),
        Box::new(RoundRobin::new(interfaces)),
        Box::new(OrthogonalRanges::new(ranges)),
        Box::new(OrthogonalModulo::new(interfaces)),
    ]
}

/// The Eq. 1 realized distributions recomputed from finished sub-traces.
fn realized_of(subs: &[Trace], ranges: &SizeRanges) -> RealizedDistributions {
    let mut realized = RealizedDistributions::new(subs.len(), ranges.clone());
    for (i, sub) in subs.iter().enumerate() {
        for packet in sub.packets() {
            realized.record(VifIndex::new(i), packet.size);
        }
    }
    realized
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn online_and_batch_assignments_are_byte_identical(
        seed in 0u64..100,
        interfaces in 1usize..5,
        app_index in 0usize..7,
        slice_seed in 0u64..1_000,
        max_slice in 1usize..300,
    ) {
        let app = AppKind::ALL[app_index];
        let trace = SessionGenerator::new(app, seed).generate_secs(8.0);
        for (batch, online) in schedulers(interfaces, seed).into_iter().zip(schedulers(interfaces, seed)) {
            // Batch path: whole-trace reshape.
            let outcome = Reshaper::new(batch).reshape(&trace);

            // Online path: the same packets at arbitrary slice boundaries.
            let mut stage = ReshapeStage::new(online);
            let (assignments, _) =
                stream_sliced(&mut stage, trace.packets(), trace.app(), slice_seed, max_slice);

            prop_assert_eq!(outcome.assignments(), assignments.as_slice());
            prop_assert_eq!(stage.overhead().original_packets as usize, trace.len());
            prop_assert_eq!(stage.overhead().transformed_bytes, trace.total_bytes());
        }
    }

    #[test]
    fn online_collector_rebuilds_the_batch_sub_traces(
        seed in 0u64..50,
        interfaces in 1usize..4,
        slice_seed in 0u64..1_000,
        max_slice in 1usize..300,
    ) {
        // Collecting the stage's sub-flows by `vif_of` must reproduce the
        // batch sub-traces exactly (same packets, same order, same labels).
        let trace = SessionGenerator::new(AppKind::BitTorrent, seed).generate_secs(6.0);
        for (batch, online) in schedulers(interfaces, seed).into_iter().zip(schedulers(interfaces, seed)) {
            let outcome = Reshaper::new(batch).reshape(&trace);
            let mut stage = ReshapeStage::new(online);
            let (_, subs) =
                stream_sliced(&mut stage, trace.packets(), trace.app(), slice_seed, max_slice);
            prop_assert_eq!(outcome.sub_traces(), subs.as_slice());
        }
    }

    #[test]
    fn realized_distributions_match_the_sub_traces(
        seed in 0u64..50,
        interfaces in 1usize..4,
        app_index in 0usize..7,
    ) {
        // The Eq. 1 oracle fed from the per-packet assignments must agree with
        // the one recomputed from the sub-traces, and its aggregate must be the
        // original traffic's distribution (the conservation constraint).
        let trace = SessionGenerator::new(AppKind::ALL[app_index], seed).generate_secs(6.0);
        let ranges = SizeRanges::paper_default();
        let original = realized_of(std::slice::from_ref(&trace), &ranges);
        for algorithm in schedulers(interfaces, seed) {
            let outcome = Reshaper::new(algorithm).reshape(&trace);
            let mut assigned = RealizedDistributions::new(outcome.interface_count(), ranges.clone());
            for &(index, vif) in outcome.assignments() {
                assigned.record(vif, trace.packets()[index].size);
            }
            let realized = realized_of(outcome.sub_traces(), &ranges);
            prop_assert_eq!(&realized, &assigned);
            prop_assert_eq!(realized.total_packets() as usize, trace.len());
            prop_assert_eq!(realized.aggregate(), original.aggregate());
        }
    }
}

#[test]
fn streaming_session_reshapes_without_a_trace() {
    // End-to-end streaming: generator -> stage, no Trace anywhere. The same
    // seed must give the same assignments on every run.
    let run = || {
        let mut session = TrafficSpec::bounded(AppKind::Video, 42, 20.0).build();
        let mut stage =
            ReshapeStage::new(Box::new(OrthogonalRanges::new(SizeRanges::paper_default())));
        let mut out = StageOutput::new();
        let mut assignments = Vec::new();
        while let Some(packet) = session.next_packet() {
            out.clear();
            stage.on_packet(ROOT_FLOW, &packet, &mut out);
            assignments.extend(out.iter().map(|&(flow, _)| stage.vif_of(flow)));
        }
        assignments
    };
    let first = run();
    assert!(!first.is_empty());
    assert!(first.iter().all(Option::is_some));
    assert_eq!(first, run());
}
