//! Compare traffic reshaping against the classic defenses.
//!
//! ```text
//! cargo run --release --example defense_comparison
//! ```
//!
//! For one BitTorrent evaluation trace the example reports, per defense:
//! how many observable flows the eavesdropper sees, how much byte overhead the
//! defense adds, and how far the per-flow mean packet size strays from the
//! original application's signature. It is a compact, human-readable version
//! of the paper's Table VI argument: padding and morphing pay bytes without
//! hiding timing; partition-based schemes (FH, pseudonyms, RA, RR) pay nothing
//! but leave every partition looking like the original; only OR changes the
//! per-flow features and still costs nothing.

use defenses::frequency_hopping::FrequencyHopper;
use defenses::morphing::TrafficMorpher;
use defenses::overhead::Overhead;
use defenses::padding::PacketPadder;
use defenses::pseudonym::PseudonymRotator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use traffic_reshaping::reshape::ranges::SizeRanges;
use traffic_reshaping::reshape::reshaper::Reshaper;
use traffic_reshaping::reshape::scheduler::{OrthogonalRanges, RandomAssign, RoundRobin};
use traffic_reshaping::traffic::app::AppKind;
use traffic_reshaping::traffic::generator::SessionGenerator;
use traffic_reshaping::traffic::trace::Trace;

struct DefenseReport {
    name: &'static str,
    flows: Vec<Trace>,
    overhead: Overhead,
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);
    let original = SessionGenerator::new(AppKind::BitTorrent, 5).generate_secs(60.0);
    let gaming = SessionGenerator::new(AppKind::Gaming, 6).generate_secs(60.0);
    println!(
        "original BitTorrent trace: {} packets, {:.1} B mean packet size\n",
        original.len(),
        original.mean_packet_size()
    );

    let mut reports: Vec<DefenseReport> = Vec::new();

    // Padding and morphing: single flow, extra bytes.
    let (padded, pad_overhead) = PacketPadder::new().apply(&original);
    reports.push(DefenseReport {
        name: "padding to 1576 B",
        flows: vec![padded],
        overhead: pad_overhead,
    });
    let (morphed, morph_overhead) = TrafficMorpher::from_target_trace(&gaming).apply(&original);
    reports.push(DefenseReport {
        name: "morphing -> gaming",
        flows: vec![morphed],
        overhead: morph_overhead,
    });

    // Partitioning defenses: several flows, zero overhead.
    let fh_flows: Vec<Trace> = FrequencyHopper::default()
        .partition(&original)
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    reports.push(DefenseReport {
        name: "frequency hopping",
        flows: fh_flows,
        overhead: Overhead::default(),
    });
    let pseudonym_flows: Vec<Trace> = PseudonymRotator::default()
        .partition(&original, &mut rng)
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    reports.push(DefenseReport {
        name: "MAC pseudonyms",
        flows: pseudonym_flows,
        overhead: Overhead::default(),
    });

    for (name, algorithm) in [
        (
            "random assignment (RA)",
            Box::new(RandomAssign::new(3, 1))
                as Box<dyn traffic_reshaping::reshape::scheduler::ReshapeAlgorithm>,
        ),
        ("round robin (RR)", Box::new(RoundRobin::new(3))),
        (
            "orthogonal reshaping (OR)",
            Box::new(OrthogonalRanges::new(SizeRanges::paper_default())),
        ),
    ] {
        let mut reshaper = Reshaper::new(algorithm);
        let flows = reshaper.reshape(&original).sub_traces().to_vec();
        reports.push(DefenseReport {
            name,
            flows,
            overhead: Overhead::default(),
        });
    }

    println!(
        "{:<28} {:>6} {:>12} {:>28}",
        "defense", "flows", "overhead %", "per-flow mean size (B)"
    );
    for report in &reports {
        let means: Vec<String> = report
            .flows
            .iter()
            .filter(|f| !f.is_empty())
            .map(|f| format!("{:.0}", f.mean_packet_size()))
            .collect();
        println!(
            "{:<28} {:>6} {:>12.2} {:>28}",
            report.name,
            report.flows.len(),
            report.overhead.percent(),
            means.join(" / ")
        );
    }

    println!(
        "\nonly orthogonal reshaping produces flows whose mean sizes (~170 / ~790 / ~1560 B)\n\
         no longer resemble the BitTorrent signature (~{:.0} B), and it does so with zero overhead.",
        original.mean_packet_size()
    );
}
