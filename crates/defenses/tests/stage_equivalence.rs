//! Property tests proving the batch entry points are thin wrappers: for every
//! defense and every seed, driving the streaming [`PacketStage`] one packet at
//! a time produces byte-identical output (and an identical overhead ledger) to
//! the batch `apply` / `partition` call — the same pattern that ties the
//! reshaping stage to the batch `Reshaper`.

use defenses::morphing::{paper_morphing_target, TrafficMorpher};
use defenses::stage::{FlowId, PacketStage, StageOutput, ROOT_FLOW};
use defenses::{FrequencyHopper, PacketPadder, PseudonymRotator, StagePipeline};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use traffic_gen::app::AppKind;
use traffic_gen::generator::SessionGenerator;
use traffic_gen::packet::PacketRecord;
use traffic_gen::trace::Trace;
use wlan_sim::time::SimDuration;

fn trace_of(app_index: usize, seed: u64, secs: f64) -> Trace {
    SessionGenerator::new(AppKind::ALL[app_index], seed).generate_secs(secs)
}

/// Streams a trace through a stage packet by packet (plus flush), as a live
/// session would, collecting the emitted `(flow, packet)` pairs.
fn drive(stage: &mut dyn PacketStage, trace: &Trace) -> Vec<(FlowId, PacketRecord)> {
    let mut out = StageOutput::new();
    let mut staged = Vec::with_capacity(trace.len());
    for packet in trace.packets() {
        out.clear();
        stage.on_packet(ROOT_FLOW, packet, &mut out);
        staged.extend(out.iter().copied());
    }
    out.clear();
    stage.flush(&mut out);
    staged.extend(out.iter().copied());
    staged
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn streaming_padding_equals_batch_padding(seed in 0u64..100, app_index in 0usize..7) {
        let trace = trace_of(app_index, seed, 20.0);
        let padder = PacketPadder::new();
        let (batch, batch_overhead) = padder.apply(&trace);
        let mut stage = padder.stage();
        let staged = drive(&mut stage, &trace);
        let streamed: Vec<PacketRecord> = staged.iter().map(|&(_, p)| p).collect();
        prop_assert!(staged.iter().all(|&(f, _)| f == ROOT_FLOW));
        prop_assert_eq!(streamed.as_slice(), batch.packets());
        prop_assert_eq!(stage.overhead(), batch_overhead);
    }

    #[test]
    fn streaming_morphing_equals_batch_morphing(seed in 0u64..100, app_index in 0usize..7) {
        let trace = trace_of(app_index, seed, 20.0);
        let target_app = paper_morphing_target(AppKind::ALL[app_index]);
        let target = SessionGenerator::new(target_app, seed ^ 0xfeed).generate_secs(30.0);
        let morpher = TrafficMorpher::from_target_trace(&target);
        let (batch, batch_overhead) = morpher.apply(&trace);
        // The wrapper estimates the source CDF from the trace itself; the
        // streaming stage is handed the same calibration up front.
        let mut stage = morpher.stage_for_source_trace(&trace);
        let staged = drive(&mut stage, &trace);
        let streamed: Vec<PacketRecord> = staged.iter().map(|&(_, p)| p).collect();
        prop_assert_eq!(streamed.as_slice(), batch.packets());
        prop_assert_eq!(stage.overhead(), batch_overhead);
    }

    #[test]
    fn streaming_pseudonyms_equal_batch_partitions_per_seed(
        seed in 0u64..100,
        app_index in 0usize..7,
        period_secs in prop::sample::select(vec![5u64, 15, 60]),
    ) {
        let trace = trace_of(app_index, seed, 90.0);
        let rotator = PseudonymRotator::new(SimDuration::from_secs(period_secs));
        let batch = rotator.partition(&trace, &mut StdRng::seed_from_u64(seed));
        let mut stage = rotator.stage_with_rng(StdRng::seed_from_u64(seed));
        let staged = drive(&mut stage, &trace);
        prop_assert_eq!(stage.flow_count(), batch.len());
        // Same pseudonyms drawn in the same order, same packets per sub-flow.
        let mut flows: Vec<Vec<PacketRecord>> = vec![Vec::new(); stage.flow_count()];
        for (flow, packet) in staged {
            flows[flow as usize].push(packet);
        }
        for (flow, (mac, part)) in batch.iter().enumerate() {
            prop_assert_eq!(stage.pseudonym_of(flow as FlowId), Some(*mac));
            prop_assert_eq!(flows[flow].as_slice(), part.packets());
        }
    }

    #[test]
    fn streaming_frequency_hopping_equals_batch_partitions(
        seed in 0u64..100,
        app_index in 0usize..7,
    ) {
        let trace = trace_of(app_index, seed, 20.0);
        let hopper = FrequencyHopper::default();
        let batch = hopper.partition(&trace);
        let mut stage = hopper.stage();
        let staged = drive(&mut stage, &trace);
        let mut per_channel: Vec<Vec<PacketRecord>> = vec![Vec::new(); hopper.channels().len()];
        for (flow, packet) in staged {
            let idx = stage.channel_index_of(flow).expect("allocated flow");
            per_channel[idx].push(packet);
        }
        for (idx, (channel, part)) in batch.iter().enumerate() {
            prop_assert_eq!(*channel, hopper.channels()[idx]);
            prop_assert_eq!(per_channel[idx].as_slice(), part.packets());
        }
    }

    #[test]
    fn pipeline_of_one_stage_equals_the_stage_directly(seed in 0u64..100, app_index in 0usize..7) {
        // Compose-associativity smoke test at the property level: lifting a
        // stage into a pipeline changes nothing about its output or ledger.
        let trace = trace_of(app_index, seed, 20.0);
        let direct = drive(&mut PacketPadder::new().stage(), &trace);
        let mut pipeline = StagePipeline::new().with_stage(PacketPadder::new().stage());
        let mut piped = Vec::new();
        pipeline.process_batch(trace.packets(), |flow, p| piped.push((flow, *p)));
        pipeline.finish(|flow, p| piped.push((flow, *p)));
        prop_assert_eq!(direct, piped);
        prop_assert_eq!(pipeline.overhead(), pipeline.stages()[0].overhead());
    }
}
