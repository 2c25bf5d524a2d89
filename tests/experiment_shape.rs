//! Integration test over the experiment harness itself: a quick-sized run of
//! the Table II / Table VI pipelines must reproduce the qualitative shape of
//! the paper's results (who wins, by roughly what factor).

use bench::corpus::ExperimentConfig;
use bench::tables::{table2, table4, table6};
use traffic_gen::app::AppKind;

#[test]
fn table2_shape_original_high_partitioning_weak_or_strong() {
    let table = table2(&ExperimentConfig::quick());
    assert_eq!(table.columns, ["Original", "FH", "RA", "RR", "OR"]);
    let &[original, fh, ra, rr, or] = table.mean.as_slice() else {
        panic!("one mean per column");
    };

    // (i) The adversary works well on original traffic.
    assert!(original > 0.7, "original mean accuracy {original}");
    // (ii) FH/RA/RR stay within striking distance of the original accuracy.
    for (name, acc) in [("FH", fh), ("RA", ra), ("RR", rr)] {
        assert!(
            acc > original * 0.6,
            "{name} ({acc}) should barely help compared to original ({original})"
        );
    }
    // (iii) OR cuts the mean accuracy by a large factor.
    assert!(
        or < original * 0.66,
        "OR ({or}) should cut accuracy by at least a third vs original ({original})"
    );
    assert!(
        or < fh && or < ra && or < rr,
        "OR must be the strongest defense"
    );
}

#[test]
fn table4_shape_or_raises_false_positives() {
    let table = table4(&ExperimentConfig::quick());
    assert!(
        table.mean.1 > table.mean.0,
        "OR FP {} vs original FP {}",
        table.mean.1,
        table.mean.0
    );
}

#[test]
fn table6_shape_padding_expensive_morphing_cheaper_reshaping_free() {
    let table = table6(&ExperimentConfig::quick());
    let (acc_pad_morph, acc_or, pad, morph) = table.mean;
    assert!(
        pad > morph,
        "padding ({pad}%) must cost more than morphing ({morph}%)"
    );
    assert!(pad > 50.0, "padding overhead should be large, got {pad}%");
    assert!(
        acc_pad_morph > acc_or,
        "the timing attack on padded/morphed traffic ({acc_pad_morph}) must beat the attack on OR ({acc_or})"
    );
    // Reshaping itself adds zero bytes by construction — checked elsewhere —
    // so the efficiency comparison is: same-or-better privacy at zero cost.
    let downloading = table
        .rows
        .iter()
        .find(|r| r.app == AppKind::Downloading)
        .unwrap();
    assert!(
        downloading.padding_overhead < 20.0,
        "downloading is already MTU-sized; padding it should be nearly free, got {}%",
        downloading.padding_overhead
    );
}
