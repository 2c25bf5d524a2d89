//! The batched fast path's acceptance contract.
//!
//! `StagePipeline::process_batch` / `PacketStage::process_slice` promise to
//! be **byte-identical** to the per-packet path — same `(flow, packet)`
//! stream, same order, same overhead ledger — for every registered defense
//! and for composed pipelines, whatever the micro-batch boundaries. This
//! suite property-tests that promise: arbitrary slice sizes (including
//! size-1 slices, which degenerate to the per-packet path) against the
//! per-packet reference, plus the `STAGE_BATCH`-sized slices a station feeds.
//! Flushing stays a `finish`-time event: chopping a stream into slices must
//! never flush mid-session.

use bench::scenario::DefenseSpec;
use defenses::overhead::Overhead;
use defenses::padding::PacketPadder;
use defenses::spec::StageContext;
use defenses::stage::{FlowId, StagePipeline, STAGE_BATCH};
use proptest::prelude::*;
use reshape_core::ranges::SizeRanges;
use reshape_core::scheduler::OrthogonalRanges;
use reshape_core::stage::ReshapeStage;
use traffic_gen::app::AppKind;
use traffic_gen::generator::SessionGenerator;
use traffic_gen::packet::PacketRecord;
use traffic_gen::trace::Trace;

const CALIB_SECS: f64 = 30.0;
const INTERFACES: usize = 3;

/// Every named defense, by shorthand.
const NAMED: [&str; 10] = [
    "none",
    "fh",
    "ra",
    "rr",
    "or",
    "or_mod",
    "pseudonym",
    "padding",
    "morphing",
    "morph_or",
];

/// The stage pipeline of a named defense, built the way the table
/// evaluation builds it.
fn named_pipeline(
    shorthand: &str,
    app: AppKind,
    seed: u64,
    source: Option<&Trace>,
) -> StagePipeline {
    let ctx = StageContext {
        source,
        ..StageContext::live(app, seed, CALIB_SECS)
    };
    DefenseSpec::parse(shorthand)
        .and_then(|spec| spec.build(&ctx, INTERFACES))
        .expect("named defenses build")
}

/// Expands a seed into 1–10 slice lengths in `1..=199` (the vendored
/// proptest shim has no collection strategy, so the vector is derived).
fn chunk_sizes(mut s: u64) -> Vec<usize> {
    let n = (s % 10 + 1) as usize;
    let mut sizes = Vec::with_capacity(n);
    for _ in 0..n {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        sizes.push(((s >> 33) % 199 + 1) as usize);
    }
    sizes
}

type Emitted = Vec<(FlowId, PacketRecord)>;

fn trace_for(app: AppKind, seed: u64) -> Trace {
    SessionGenerator::new(app, seed).generate_secs(20.0)
}

/// The per-packet reference: one `process` call per packet, then `finish`.
fn per_packet(pipeline: &mut StagePipeline, trace: &Trace) -> (Emitted, Overhead) {
    let mut out = Vec::new();
    for packet in trace.packets() {
        pipeline.process(packet, |flow, p| out.push((flow, *p)));
    }
    pipeline.finish(|flow, p| out.push((flow, *p)));
    (out, pipeline.overhead())
}

/// The batched path with caller-chosen slice boundaries: the trace is chopped
/// into chunks whose lengths cycle through `sizes`, each fed to
/// `process_batch`, then `finish`.
fn batched(pipeline: &mut StagePipeline, trace: &Trace, sizes: &[usize]) -> (Emitted, Overhead) {
    let mut out = Vec::new();
    let mut rest = trace.packets();
    let mut cut = 0usize;
    while !rest.is_empty() {
        let len = sizes[cut % sizes.len()].min(rest.len());
        cut += 1;
        let (chunk, tail) = rest.split_at(len);
        pipeline.process_batch(chunk, |flow, p| out.push((flow, *p)));
        rest = tail;
    }
    pipeline.finish(|flow, p| out.push((flow, *p)));
    (out, pipeline.overhead())
}

/// The composed pad∘OR pipeline (per-vif padding behind the reshaper) — a
/// composition no named defense covers, so slice handoff between stages with
/// different flow fan-outs is exercised too.
fn pad_then_or() -> StagePipeline {
    StagePipeline::new()
        .with_stage(PacketPadder::new().stage())
        .with_stage(ReshapeStage::new(Box::new(OrthogonalRanges::new(
            SizeRanges::for_interface_count(INTERFACES).expect("valid interface count"),
        ))))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn every_defense_kind_is_slice_invariant(
        seed in 0u64..10_000,
        sizes_seed in 0u64..1_000_000,
    ) {
        let sizes = chunk_sizes(sizes_seed);
        for kind in NAMED {
            let app = AppKind::BitTorrent;
            let trace = trace_for(app, seed);
            let build = || named_pipeline(kind, app, seed, Some(&trace));
            let reference = per_packet(&mut build(), &trace);
            let sliced = batched(&mut build(), &trace, &sizes);
            prop_assert!(
                sliced == reference,
                "{kind}: slicing at {sizes:?} changed the output (seed {seed})"
            );
            let station = batched(&mut build(), &trace, &[STAGE_BATCH]);
            prop_assert!(
                station == reference,
                "{kind}: STAGE_BATCH slices diverged from the per-packet path (seed {seed})"
            );
        }
    }

    #[test]
    fn composed_pipelines_are_slice_invariant(
        seed in 0u64..10_000,
        sizes_seed in 0u64..1_000_000,
    ) {
        let sizes = chunk_sizes(sizes_seed);
        let trace = trace_for(AppKind::BitTorrent, seed);
        // pad∘OR, built by hand; morph∘OR is the named `morph_or`.
        let reference = per_packet(&mut pad_then_or(), &trace);
        let sliced = batched(&mut pad_then_or(), &trace, &sizes);
        prop_assert!(
            sliced == reference,
            "pad∘OR: slicing at {sizes:?} changed the output (seed {seed})"
        );

        // A nested pipeline as a stage of an outer one: the outer slice path
        // must delegate whole slices to the inner pipeline unchanged.
        let nested = || {
            StagePipeline::new()
                .with_stage(pad_then_or())
                .with_stage(PacketPadder::new().stage())
        };
        let nested_reference = per_packet(&mut nested(), &trace);
        let nested_sliced = batched(&mut nested(), &trace, &sizes);
        prop_assert!(
            nested_sliced == nested_reference,
            "nested pad∘OR∘pad: slicing at {sizes:?} changed the output (seed {seed})"
        );
    }
}

#[test]
fn slices_never_flush_mid_session() {
    // A slice boundary is not a session end: the morphing calibration and
    // every partitioning stage keep their state across process_batch calls,
    // so feeding two half-traces must differ from two separate sessions
    // whenever the defense carries cross-packet state (round-robin does).
    let trace = trace_for(AppKind::BitTorrent, 7);
    let build = || named_pipeline("rr", AppKind::BitTorrent, 7, None);

    let (whole, _) = batched(&mut build(), &trace, &[trace.len()]);
    let (halved, _) = batched(&mut build(), &trace, &[trace.len() / 2]);
    assert_eq!(whole, halved, "slice boundaries must be invisible");

    // Independent sessions (reset between halves) genuinely differ, which is
    // what makes the invariance above a non-trivial statement.
    let mut fresh = build();
    let half = trace.len() / 2;
    let mut restarted = Vec::new();
    fresh.process_batch(&trace.packets()[..half], |f, p| restarted.push((f, *p)));
    fresh.finish(|f, p| restarted.push((f, *p)));
    fresh.reset();
    fresh.process_batch(&trace.packets()[half..], |f, p| restarted.push((f, *p)));
    fresh.finish(|f, p| restarted.push((f, *p)));
    assert_ne!(whole, restarted, "resetting mid-stream must be observable");
}
