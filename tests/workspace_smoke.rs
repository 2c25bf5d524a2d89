//! Workspace smoke test: the umbrella re-exports resolve and a minimal
//! generate → reshape → classify round trip runs end to end.

use traffic_reshaping::analysis::bayes::GaussianNaiveBayes;
use traffic_reshaping::analysis::window::{build_dataset, FeatureMode, DEFAULT_MIN_PACKETS};
use traffic_reshaping::analysis::{Classifier, FeatureVector};
use traffic_reshaping::defense::padding::PacketPadder;
use traffic_reshaping::reshape::ranges::SizeRanges;
use traffic_reshaping::reshape::reshaper::Reshaper;
use traffic_reshaping::reshape::scheduler::OrthogonalRanges;
use traffic_reshaping::traffic::app::AppKind;
use traffic_reshaping::traffic::generator::SessionGenerator;
use traffic_reshaping::wlan::mac::MacAddress;
use traffic_reshaping::wlan::time::SimDuration;

/// Every facade module re-exports its member crate: referencing one item from
/// each (`wlan`, `traffic`, `analysis`, `defense`, `reshape`) must compile and
/// produce sane values.
#[test]
fn umbrella_reexports_resolve() {
    let mac = MacAddress::BROADCAST;
    assert!(mac.is_broadcast());
    assert_eq!(AppKind::ALL.len(), 7);
    assert!(!FeatureVector::from_trace(
        &SessionGenerator::new(AppKind::Chatting, 1).generate_secs(5.0)
    )
    .values()
    .is_empty());
    let _defense = PacketPadder::default();
    assert!(SizeRanges::paper_default().len() >= 3);
}

/// Generate a trace, reshape it over virtual interfaces, then train and run a
/// classifier on the windowed features of original and reshaped traffic.
#[test]
fn generate_reshape_classify_round_trip() {
    // Generate: two distinguishable applications.
    let bt = SessionGenerator::new(AppKind::BitTorrent, 7).generate_secs(60.0);
    let chat = SessionGenerator::new(AppKind::Chatting, 8).generate_secs(60.0);
    assert!(!bt.is_empty() && !chat.is_empty());

    // Reshape the BitTorrent trace with the paper's OR scheduler.
    let mut reshaper = Reshaper::new(Box::new(OrthogonalRanges::new(SizeRanges::paper_default())));
    let outcome = reshaper.reshape(&bt);
    assert_eq!(
        outcome.total_packets(),
        bt.len(),
        "reshaping must not drop packets"
    );
    assert!(outcome.interface_count() >= 2);

    // Classify: train on original traffic, then check the adversary still
    // recognises original windows while each reshaped sub-flow remains a
    // valid classifier input.
    let window = SimDuration::from_secs_f64(5.0);
    let mode = FeatureMode::Full;
    let train = build_dataset(&[bt.clone(), chat], window, DEFAULT_MIN_PACKETS, mode);
    assert!(train.class_count() >= 2);
    let nb = GaussianNaiveBayes::train(&train);
    let eval = build_dataset(&[bt], window, DEFAULT_MIN_PACKETS, mode);
    let correct = nb
        .predict_dataset(&eval)
        .iter()
        .filter(|(truth, predicted)| truth == predicted)
        .count();
    assert!(correct > 0, "adversary should recognise unreshaped traffic");
    for sub in outcome.sub_traces() {
        if sub.is_empty() {
            continue;
        }
        let class = nb.predict(FeatureVector::from_trace(sub).values());
        assert!(class < train.class_count());
    }
}
